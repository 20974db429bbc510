"""The reference checks accept correct outputs and catch perturbed ones.

Run with ``python3 -m pytest perfbench``.  Outputs are synthesized from
the reference formulas, formatted as the CLI formats them, and then
perturbed one value at a time.
"""

import copy
import math

import numpy as np
import pytest

import reference as ref
import workloads

DK2 = np.subtract.outer(ref.KAPPA**2, ref.KAPPA**2)
CFG = {"d": 0.153e-9, "a": 0.8e-9, "v_s": 4570.0, "T": 300.0, "N": 1e23,
       "theta": 0.1, "omega0": ref.GAMMA_P}


def fmt(x):
    return "{:.17g}".format(float(x))


def evolve_csv(t, sigma):
    rows = [",".join(ref.evolve_header())]
    for ti, s in zip(t, sigma):
        cells = [fmt(ti)]
        for v in s.ravel():
            cells += [fmt(v.real), fmt(v.imag)]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def exact_sigma(t, mode):
    """Exact-path trajectory: slow decay, quadratic phase and G'."""
    r = ref.rates(CFG)
    t_eff = (t if mode == "free" else t / 2.0)[:, None, None]
    gp = np.vectorize(lambda dk: ref.gprime(CFG, abs(dk)))(ref.DK)
    return (ref.default_sigma(CFG, t, mode)
            * np.exp(2j * math.pi * r["nuD_Hz"] * DK2 * t_eff)
            * np.exp(-(ref.DK**2) * t_eff / r["tau_gamma_s"]) * gp)


def perturb_cell(text, row, col, factor):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = fmt(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


T_GRID = np.linspace(0.0, 3.0 * ref.rates(CFG)["tau_X_s"], 41)


@pytest.mark.parametrize("mode", ["free", "me"])
def test_default_evolve(mode):
    text = evolve_csv(T_GRID, ref.default_sigma(CFG, T_GRID, mode))
    assert ref.check_evolve(text, CFG, T_GRID, mode, exact=False) == []
    # re_Tp_T0 of row 10 (column 3) off by 1e-9
    bad = perturb_cell(text, 10, 3, 1.0 + 1e-9)
    assert ref.check_evolve(bad, CFG, T_GRID, mode, exact=False)
    assert ref.check_evolve(text, CFG, T_GRID * 1.5, mode, exact=False)


@pytest.mark.parametrize("mode", ["free", "me"])
def test_exact_evolve(mode):
    sigma = exact_sigma(T_GRID, mode)
    text = evolve_csv(T_GRID, sigma)
    assert ref.check_evolve(text, CFG, T_GRID, mode, exact=True) == []
    # modulus above the default path
    louder = sigma.copy()
    louder[5] = ref.default_sigma(CFG, T_GRID, mode)[5] * (1.0 + 1e-9)
    assert ref.check_evolve(evolve_csv(T_GRID, louder), CFG, T_GRID, mode,
                            exact=True)
    # one coherence no longer the conjugate of its partner
    skew = sigma.copy()
    skew[7, 0, 1] *= np.exp(1e-6j)
    assert ref.check_evolve(evolve_csv(T_GRID, skew), CFG, T_GRID, mode,
                            exact=True)
    # a population appears
    trace = sigma.copy()
    trace[3, 3, 3] = 1e-3 * abs(sigma[3, 0, 1])
    assert ref.check_evolve(evolve_csv(T_GRID, trace), CFG, T_GRID, mode,
                            exact=True)
    # decay far beyond the slow-kernel bound
    quiet = sigma.copy()
    quiet[9] *= 1.0 - 1e-5
    assert ref.check_evolve(evolve_csv(T_GRID, quiet), CFG, T_GRID, mode,
                            exact=True)


def test_echo_halving():
    free = evolve_csv(T_GRID, ref.default_sigma(CFG, T_GRID, "free"))
    me = evolve_csv(2.0 * T_GRID, ref.default_sigma(CFG, 2.0 * T_GRID, "me"))
    assert ref.check_echo_halving(free, me) == []
    assert ref.check_echo_halving(free, perturb_cell(me, 4, 3, 1.0 + 1e-9))
    assert ref.check_echo_halving(free, free)


def test_sweep():
    n_grid = np.linspace(1e21, 1e24, 5)
    vs_grid = np.linspace(2000.0, 6000.0, 4)
    rows = ["N,v_s_mps,tau_X_s"]
    for n in n_grid:
        for vs in vs_grid:
            tau = ref.rates(dict(CFG, N=n, v_s=vs))["tau_X_s"]
            rows.append(",".join([fmt(n), fmt(vs), fmt(tau)]))
    text = "\n".join(rows) + "\n"
    assert ref.check_sweep(text, CFG, n_grid, vs_grid) == []
    assert ref.check_sweep(perturb_cell(text, 7, 2, 1.0 + 1e-9), CFG, n_grid,
                           vs_grid)
    assert ref.check_sweep("\n".join(rows[:-1]) + "\n", CFG, n_grid, vs_grid)


def test_constants():
    values = ref.rates(CFG)
    text = "quantity,value\n" + "".join(
        f"{k},{fmt(v)}\n" for k, v in values.items())
    assert ref.check_constants(text, CFG) == []
    for row in range(1, len(values) + 1):
        assert ref.check_constants(perturb_cell(text, row, 1, 1.0 + 1e-9),
                                   CFG)


def test_compare():
    records = [(12.5, 80.0), (40.0, 15.0), (33.3, 250.0)]
    theory = ref.tau_hat_theory([r[0] for r in records], CFG["v_s"],
                                CFG["N"]) * 1e6
    rows = ["nu_hat_khz,tau_exp_us,tau_theory_us,residual_us"]
    for (nu, tau), th in zip(records, theory):
        rows.append(",".join(fmt(x) for x in (nu, tau, th, tau - th)))
    text = "\n".join(rows) + "\n"
    assert ref.check_compare(text, CFG, records) == []
    for col in range(4):
        assert ref.check_compare(perturb_cell(text, 2, col, 1.0 + 1e-9), CFG,
                                 records)


LAMBDAS, BETAS, TIMES = (0.3, -0.2j), (1.0,), (0.5, math.pi)


def oracle_report():
    points = []
    for kind, lm, ln, beta_w, wt in ref.oracle_points(LAMBDAS, BETAS, TIMES):
        closed = complex(ref.closed_mp(kind, lm, ln, beta_w, wt))
        numeric = closed * (1.0 + 1e-12)
        points.append({
            "kind": kind, "closed_form": [closed.real, closed.imag],
            "numeric": [numeric.real, numeric.imag], "passed": True,
            "inputs": {"lambda_m": [lm.real, lm.imag],
                       "lambda_n": [ln.real, ln.imag], "omega": 1.0,
                       "beta_omega": beta_w, "omega_t": wt}})
    for kind, count in ref.STRUCTURE_KINDS.items():
        points += [{"kind": kind, "value": 1e-15, "bound": 1e-12,
                    "passed": True}] * count
    eig = [{"kind": "other", "passed": True}] * (ref.EIGDIST_CHECKS - 1)
    eig.append({"kind": "kolmogorov_non_increasing", "passed": True,
                "distances": [ref.kolmogorov(n) for n in (4, 8, 12, 16, 20)]})
    ksum = ksum_checks()
    reports = [{"suite": s, "checks": c, "failures": 0, "total": len(c)}
               for s, c in (("fock", points), ("eigdist", eig),
                            ("ksum", ksum))]
    return {"reports": reports, "failures": 0}


def ksum_checks():
    cfg = ref.GYPSUM
    scale = cfg["d"] ** 2 * ref.HBAR * cfg["a"] / (2.0 * cfg["v_s"] ** 3
                                                   * ref.M_P)
    g_c = (cfg["d"] ** 2 * ref.K_B * cfg["T"] * cfg["a"]
           / (4.0 * cfg["v_s"] ** 3 * ref.M_P) * 2e-10)
    e_c = -cfg["d"] ** 2 * ref.HBAR / (4.0 * cfg["v_s"] ** 2 * ref.M_P) * 1e-6
    z_c0 = scale * (0.5 - cfg["v_s"] / cfg["a"] * 1e-6)
    g_d = ref.discrete_sums(cfg, 2e-10, 0.0, 100000)[0]
    _, e_d, z_d0 = ref.discrete_sums(cfg, 1e-6, 0.0, 100000)
    g_d4 = ref.discrete_sums(cfg, 2e-10, 0.0, 400000)[0]
    checks = [
        {"kind": "gamma_window", "closed_form": g_c, "numeric": g_d},
        {"kind": "epsilon", "closed_form": e_c, "numeric": e_d},
        {"kind": "zeta_x0", "closed_form": z_c0, "numeric": z_d0},
    ]
    for mult in (1.0, 3.0):
        z_d = ref.discrete_sums(cfg, 1e-6, mult * cfg["a"], 100000)[2]
        checks.append({"kind": "zeta_lattice_zero", "closed_form": scale / 2,
                       "numeric": z_d, "x_over_a": mult})
    checks.append({"kind": "window_consistency",
                   "rel_err_4N1": abs(g_d4 - g_c) / g_c})
    for c in checks:
        c["passed"] = True
    return checks


def test_oracle_report_accepted():
    assert ref.check_oracle(oracle_report(), LAMBDAS, BETAS, TIMES,
                            1e-8) == []


def _fock(report):
    return report["reports"][0]["checks"]


@pytest.mark.parametrize("perturb", [
    lambda r: _fock(r)[0]["closed_form"].__setitem__(
        0, _fock(r)[0]["closed_form"][0] * (1.0 + 1e-10)),
    lambda r: _fock(r)[3]["numeric"].__setitem__(
        1, _fock(r)[3]["numeric"][1] + 1e-7),
    lambda r: _fock(r).pop(2),
    lambda r: _fock(r)[1]["inputs"].__setitem__("omega_t", 10.0),
    lambda r: _fock(r)[-1].__setitem__("value", 1e-11),
    lambda r: _fock(r).pop(),
    lambda r: r.__setitem__("failures", 1),
    lambda r: r["reports"][1]["checks"][-1]["distances"].__setitem__(2, 0.06),
    lambda r: r["reports"][2]["checks"][1].__setitem__(
        "closed_form", r["reports"][2]["checks"][1]["closed_form"] * 1.001),
    lambda r: r["reports"][2]["checks"][3].__setitem__(
        "numeric", r["reports"][2]["checks"][3]["numeric"] * 1.01),
    lambda r: r["reports"].pop(),
], ids=["closed", "numeric", "missing-point", "moved-point", "structure",
        "structure-count", "failures", "eigdist", "ksum-closed",
        "ksum-numeric", "suite"])
def test_oracle_report_perturbed(perturb):
    report = copy.deepcopy(oracle_report())
    perturb(report)
    for suite in report["reports"]:
        suite["total"] = len(suite["checks"])
    assert ref.check_oracle(report, LAMBDAS, BETAS, TIMES, 1e-8)


def test_seeded_inputs_repeat():
    for name in workloads.WHY:
        a, b = workloads.make(name, 7), workloads.make(name, 7)
        assert [i.args for i in a.invocations] == [i.args
                                                   for i in b.invocations]
        assert a.files == b.files
    assert workloads.make("curves", 7).files != workloads.make(
        "curves", 8).files
