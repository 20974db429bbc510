"""Independent reference values and output checks for the benchmark.

Nothing here imports pairdeco.  Every expected value is recomputed from
the paper's formulas with the CODATA 2018 constants written out below:
the oracle closed forms in mpmath from the Gamma/Upsilon expressions, the
rate constants and default-path trajectories in float64.  Each ``check_*``
function takes the text or JSON a CLI invocation wrote and returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# CODATA 2018
HBAR = 1.054571817e-34       # J s
K_B = 1.380649e-23           # J/K
MU_0 = 1.25663706212e-6      # H/m
GAMMA_P = 2.6752218744e8     # rad/(s T)
M_P = 1.67262192369e-27      # kg

#: interaction eigenvalue kappa of T+, T0, T-, S
KAPPA = np.array([1.0, -2.0, 1.0, 0.0])
DK = np.subtract.outer(KAPPA, KAPPA)

#: relative agreement required between float64 outputs and the references
RTOL = 1e-11
#: relative agreement of the reported oracle closed forms with mpmath
CLOSED_RTOL = 1e-12

#: oracle grid (omega = 1 units) and expected check counts per suite
STRUCTURE_KINDS = {"conjugate_symmetry": 1, "pure_phase_equal_lambda": 1,
                   "modulus_bound": 1, "reversal_additivity": 2,
                   "reversal_t_B_zero": 1, "displaced_identity": 6}
EIGDIST_CHECKS = 16
KSUM_CHECKS = 6


# ---------------------------------------------------------------------------
# rate constants of the pair-phonon model
# ---------------------------------------------------------------------------

def rates(cfg):
    """Characteristic rates, times and widths; SI units, frequencies in Hz.

    ``cfg`` maps d, a, v_s, T, N and theta to SI values.
    """
    d, a, v_s, T, N = (cfg[k] for k in ("d", "a", "v_s", "T", "N"))
    theta = cfg["theta"]
    omega0 = (MU_0 * GAMMA_P**2 * HBAR / (8.0 * math.pi)
              * (1.0 - 3.0 * math.cos(theta) ** 2) / d**3)
    nu_d = 9.0 * omega0**2 * HBAR / (32.0 * math.pi * v_s**2 * M_P)
    nu_0 = -omega0 / (4.0 * math.pi)
    sigma_x = math.sqrt(1.5 * N ** (2.0 / 3.0))
    sigma_xp = math.sqrt(1.5 * N)
    tau_g = 16.0 * v_s**3 * M_P / (9.0 * omega0**2 * K_B * T * a)
    tau_x = 1.0 / (2.0 * math.sqrt(2.0) * math.pi * nu_d * sigma_x)
    return {
        "Omega0_radps": omega0, "nu0_Hz": nu_0, "nu0_hat_Hz": 3.0 * abs(nu_0),
        "nuD_Hz": nu_d, "tau_gamma_s": tau_g, "tau_gamma_min_s": tau_g / 9.0,
        "tau_X_s": tau_x, "tau_X_hat_s": tau_x / 3.0,
        "tau_echo_s": 2.0 * tau_x, "tau_echo_hat_s": 2.0 * tau_x / 3.0,
        "sigma_X": sigma_x, "sigma_Xprime": sigma_xp,
    }


def gprime(cfg, dk):
    """Residual bath-average factor G'(dk) of the unapproximated path."""
    r = rates(cfg)
    arg = (math.sqrt(2.0) * math.pi * r["nuD_Hz"] * dk * r["sigma_Xprime"]
           * cfg["a"] / cfg["v_s"])
    return math.exp(-(arg**2))


def sigma0(cfg):
    """Deviation matrix after the pi/2 pulse, -(hbar w0/k_B T) I_x."""
    ix = np.zeros((4, 4))
    ix[0, 1] = ix[1, 0] = ix[1, 2] = ix[2, 1] = 1.0 / math.sqrt(2.0)
    return -HBAR * cfg["omega0"] / (K_B * cfg["T"]) * ix.astype(complex)


def default_sigma(cfg, t, mode):
    """Default-path trajectory, shape (len(t), 4, 4).

    free: sigma0 exp(i 2 pi nu0 dk t) exp(-(dk t/tau_X)^2)
    me:   sigma0 exp(-(dk t/(2 tau_X))^2)
    """
    r = rates(cfg)
    t = np.asarray(t, dtype=float)[:, None, None]
    if mode == "free":
        return (sigma0(cfg) * np.exp(2j * math.pi * r["nu0_Hz"] * DK * t)
                * np.exp(-((DK * t / r["tau_X_s"]) ** 2)))
    return sigma0(cfg) * np.exp(-((DK * t / (2.0 * r["tau_X_s"])) ** 2))


def tau_hat_theory(nu_khz, v_s, n_pairs):
    """Observable echo decay time (s) at dipolar frequency nu_hat (kHz)."""
    sigma_x = math.sqrt(1.5 * n_pairs ** (2.0 / 3.0))
    nu = np.asarray(nu_khz, dtype=float) * 1e3
    return (2.0 / 3.0) * v_s**2 * M_P / (
        math.sqrt(2.0) * math.pi**2 * nu**2 * HBAR * sigma_x)


# ---------------------------------------------------------------------------
# CSV outputs of evolve / sweep / constants / compare
# ---------------------------------------------------------------------------

def _table(text, header):
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        return None
    body = [line for line in lines[1:] if line]
    return np.array(",".join(body).split(","), dtype=float).reshape(
        len(body), len(header))


def evolve_header():
    tags = ("Tp", "T0", "Tm", "S")
    return ["t_s"] + [f"{p}_{i}_{j}" for i in tags for j in tags
                      for p in ("re", "im")]


def parse_evolve(text):
    """(t, sigma (n, 4, 4)) from evolve CSV, or None if malformed."""
    table = _table(text, evolve_header())
    if table is None:
        return None
    sigma = (table[:, 1::2] + 1j * table[:, 2::2]).reshape(-1, 4, 4)
    return table[:, 0], sigma


def _close(actual, expected, rtol):
    """Elementwise |actual - expected| <= rtol |expected|; zeros exact."""
    return np.abs(actual - expected) <= rtol * np.abs(expected)


def check_evolve(text, cfg, grid, mode, exact):
    """Rows of one evolve invocation.

    Default path: equal to the paper's formula.  Exact path: Hermitian,
    traceless, and |exact|/|default| within
    [(1 - 1e-6) exp(-dk^2 t'/tau_gamma), 1], t' = t (free) or t/2 (me).
    """
    parsed = parse_evolve(text)
    if parsed is None:
        return ["evolve: malformed CSV header"]
    t, sigma = parsed
    if not np.array_equal(t, grid):
        return ["evolve: time column differs from the requested grid"]
    ref = default_sigma(cfg, t, mode)
    problems = []
    if not exact:
        bad = ~_close(sigma, ref, RTOL)
        if bad.any():
            problems.append(f"evolve {mode}: {int(bad.sum())} elements "
                            "differ from the closed form")
        return problems
    herm = np.abs(sigma - np.conj(np.swapaxes(sigma, 1, 2)))
    if (herm > 1e-12 * np.abs(sigma)).any():
        problems.append(f"evolve {mode} exact: not Hermitian")
    scale = np.abs(sigma).max(axis=(1, 2))
    if (np.abs(np.trace(sigma, axis1=1, axis2=2)) > 1e-12 * scale).any():
        problems.append(f"evolve {mode} exact: nonzero trace")
    nonzero = ref != 0
    if (sigma[~nonzero] != 0).any():
        problems.append(f"evolve {mode} exact: weight on zero elements")
    r = rates(cfg)
    t_eff = (t if mode == "free" else t / 2.0)[:, None, None]
    lower = (1.0 - 1e-6) * np.exp(-(DK**2) * t_eff / r["tau_gamma_s"])
    lower = np.broadcast_to(lower, sigma.shape)[nonzero]
    ratio = np.abs(sigma[nonzero]) / np.abs(ref[nonzero])
    if ((ratio < lower * (1.0 - 1e-12)) | (ratio > 1.0 + 1e-12)).any():
        problems.append(f"evolve {mode} exact: modulus ratio to the default "
                        "path outside [(1-1e-6) exp(-dk^2 t'/tau_gamma), 1]")
    return problems


def check_echo_halving(free_text, me_text):
    """|sigma_me(2t)| = |sigma_free(t)| row by row (me grid = 2 x free grid)."""
    free, me = parse_evolve(free_text), parse_evolve(me_text)
    if free is None or me is None or len(free[0]) != len(me[0]):
        return ["echo halving: trajectories not comparable"]
    if not np.array_equal(me[0], 2.0 * free[0]):
        return ["echo halving: me grid is not twice the free grid"]
    if not _close(np.abs(me[1]), np.abs(free[1]), 1e-12).all():
        return ["echo halving: |sigma_me(2t)| != |sigma_free(t)|"]
    return []


def check_sweep(text, cfg, n_grid, vs_grid):
    table = _table(text, ["N", "v_s_mps", "tau_X_s"])
    if table is None:
        return ["sweep: malformed CSV header"]
    n_col = np.repeat(n_grid, len(vs_grid))
    vs_col = np.tile(vs_grid, len(n_grid))
    if table.shape[0] != len(n_col):
        return [f"sweep: {table.shape[0]} rows, expected {len(n_col)}"]
    problems = []
    if not (_close(table[:, 0], n_col, 1e-15).all()
            and _close(table[:, 1], vs_col, 1e-15).all()):
        problems.append("sweep: (N, v_s) cells differ from the grid")
    omega0 = rates(cfg)["Omega0_radps"]
    nu_d = 9.0 * omega0**2 * HBAR / (32.0 * math.pi * vs_col**2 * M_P)
    sigma_x = np.sqrt(1.5 * n_col ** (2.0 / 3.0))
    tau_x = 1.0 / (2.0 * math.sqrt(2.0) * math.pi * nu_d * sigma_x)
    bad = ~_close(table[:, 2], tau_x, RTOL)
    if bad.any():
        problems.append(f"sweep: {int(bad.sum())} tau_X cells differ "
                        "from the closed form")
    return problems


def check_constants(text, cfg):
    lines = text.splitlines()
    if not lines or lines[0] != "quantity,value":
        return ["constants: malformed CSV header"]
    got = dict(line.split(",") for line in lines[1:] if line)
    expected = rates(cfg)
    if set(got) != set(expected):
        return ["constants: unexpected quantity names"]
    return [f"constants: {name} = {got[name]}, expected {value!r}"
            for name, value in expected.items()
            if not abs(float(got[name]) - value) <= RTOL * abs(value)]


def check_compare(text, cfg, records):
    table = _table(text, ["nu_hat_khz", "tau_exp_us", "tau_theory_us",
                          "residual_us"])
    if table is None:
        return ["compare: malformed CSV header"]
    records = np.asarray(records, dtype=float)
    if table.shape[0] != len(records):
        return [f"compare: {table.shape[0]} rows, expected {len(records)}"]
    problems = []
    if not (table[:, 0] == records[:, 0]).all():
        problems.append("compare: nu_hat column differs from the input")
    if not _close(table[:, 1], records[:, 1], 1e-15).all():
        problems.append("compare: tau_exp column differs from the input")
    theory = tau_hat_theory(records[:, 0], cfg["v_s"], cfg["N"]) * 1e6
    if not _close(table[:, 2], theory, RTOL).all():
        problems.append("compare: theory column differs from the paper")
    resid = records[:, 1] - theory
    if (np.abs(table[:, 3] - resid)
            > RTOL * np.maximum(np.abs(records[:, 1]), theory)).any():
        problems.append("compare: residual != tau_exp - tau_theory")
    return problems


# ---------------------------------------------------------------------------
# oracle reports
# ---------------------------------------------------------------------------

_MP = mpmath.mp.clone()
_MP.dps = 40


def _coth(x):
    return 1 / _MP.tanh(x)


def s_free_mp(lm, ln, omega, beta, t):
    """exp(-Gamma - i Upsilon) of one mode under free evolution.

    Gamma   = 2|lm-ln|^2/w^2 sin^2(wt/2) coth(beta w/2)
    Upsilon = (lm-ln)(lm+ln)*/w^2 [sin wt - wt]
              - 2 Im{lm ln*}/w^2 ([1 - cos wt] + i[sin wt - wt])
    """
    lm, ln = _MP.mpc(lm), _MP.mpc(ln)
    w, wt = _MP.mpf(omega), _MP.mpf(omega) * _MP.mpf(t)
    diff = lm - ln
    osc = _MP.sin(wt) - wt
    gamma = (2 * abs(diff) ** 2 / w**2 * _MP.sin(wt / 2) ** 2
             * _coth(_MP.mpf(beta) * w / 2))
    upsilon = (diff * _MP.conj(lm + ln) / w**2 * osc
               - 2 * _MP.im(lm * _MP.conj(ln)) / w**2
               * ((1 - _MP.cos(wt)) + 1j * osc))
    return _MP.exp(-gamma - 1j * upsilon)


def s_reversal_mp(lm, ln, omega, beta, t_f, t_b, f):
    """exp(-Gamma - i Upsilon) of one mode under the reversal sequence.

    C = (1-f)[1-cos w tF] + f(f-1)[1-cos w tB] + f[1-cos w(tF+tB)]
    S = (1-f) sin w tF + f(f-1) sin w tB + f sin w(tF+tB)
    L = S - w(tF + f^2 tB)
    Gamma   = |lm-ln|^2/w^2 coth(beta w/2) C
    Upsilon = (lm-ln)(lm+ln)*/w^2 L - 2 Im{lm ln*}/w^2 (C + i L)
    """
    lm, ln = _MP.mpc(lm), _MP.mpc(ln)
    w, f = _MP.mpf(omega), _MP.mpf(f)
    wf, wb = w * _MP.mpf(t_f), w * _MP.mpf(t_b)
    c = ((1 - f) * (1 - _MP.cos(wf)) + f * (f - 1) * (1 - _MP.cos(wb))
         + f * (1 - _MP.cos(wf + wb)))
    s = (1 - f) * _MP.sin(wf) + f * (f - 1) * _MP.sin(wb) + f * _MP.sin(wf + wb)
    lin = s - w * (_MP.mpf(t_f) + f**2 * _MP.mpf(t_b))
    diff = lm - ln
    gamma = abs(diff) ** 2 / w**2 * _coth(_MP.mpf(beta) * w / 2) * c
    upsilon = (diff * _MP.conj(lm + ln) / w**2 * lin
               - 2 * _MP.im(lm * _MP.conj(ln)) / w**2 * (c + 1j * lin))
    return _MP.exp(-gamma - 1j * upsilon)


def oracle_points(lambdas, betas, times):
    """Expected (kind, lambda_m, lambda_n, beta_omega, omega_t) records."""
    points = []
    for i, lm in enumerate(lambdas):
        for ln in lambdas[i:]:
            for beta_w in betas:
                for wt in times:
                    for kind in ("free", "reversal"):
                        points.append((kind, complex(lm), complex(ln),
                                       beta_w, wt))
    return points


def closed_mp(kind, lm, ln, beta_w, wt):
    if kind == "free":
        return s_free_mp(lm, ln, 1.0, beta_w, wt)
    return s_reversal_mp(lm, ln, 1.0, beta_w, wt / 3.0, 2.0 * wt / 3.0, -0.5)


def check_oracle(payload, lambdas, betas, times, tol):
    """Report of ``oracle all`` over the given grid, suite by suite."""
    reports = {r.get("suite"): r for r in payload.get("reports", [])}
    if sorted(reports) != ["eigdist", "fock", "ksum"]:
        return ["oracle: expected the fock, eigdist and ksum suites"]
    problems = []
    if payload.get("failures") != 0:
        problems.append(f"oracle: {payload.get('failures')} failures")
    for suite, report in reports.items():
        if report["failures"] != sum(not c["passed"] for c in report["checks"]):
            problems.append(f"oracle {suite}: failure count inconsistent")
        if report["total"] != len(report["checks"]):
            problems.append(f"oracle {suite}: total inconsistent")
    problems += _check_fock(reports["fock"]["checks"], lambdas, betas, times,
                            tol)
    problems += _check_eigdist(reports["eigdist"]["checks"])
    problems += _check_ksum(reports["ksum"]["checks"])
    return problems


def _check_fock(checks, lambdas, betas, times, tol):
    points = [c for c in checks if c["kind"] in ("free", "reversal")]
    structure = [c for c in checks if c["kind"] not in ("free", "reversal")]
    problems = []
    expected = oracle_points(lambdas, betas, times)
    got = [(c["kind"], complex(*c["inputs"]["lambda_m"]),
            complex(*c["inputs"]["lambda_n"]), c["inputs"]["beta_omega"],
            c["inputs"]["omega_t"]) for c in points]
    if got != expected:
        return [f"oracle fock: {len(got)} points, expected the "
                f"{len(expected)} of the grid"]
    worst = 0.0
    for check, (kind, lm, ln, beta_w, wt) in zip(points, expected):
        ref = closed_mp(kind, lm, ln, beta_w, wt)
        closed = complex(*check["closed_form"])
        numeric = complex(*check["numeric"])
        rel_closed = float(abs(closed - ref) / abs(ref))
        rel_numeric = float(abs(numeric - ref) / abs(ref))
        worst = max(worst, rel_closed)
        if not check["passed"] or rel_numeric > tol:
            problems.append(f"oracle fock: {kind} {lm} {ln} {beta_w} {wt}: "
                            f"trace off the closed form by {rel_numeric:.3g}")
    if worst > CLOSED_RTOL:
        problems.append(f"oracle fock: closed forms off mpmath by {worst:.3g}")
    kinds = {}
    for c in structure:
        kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
        if not (c["passed"] and c["value"] <= c["bound"]):
            problems.append(f"oracle fock: structure check {c['kind']} failed")
    if kinds != STRUCTURE_KINDS:
        problems.append(f"oracle fock: structure checks {kinds}")
    return problems


def eig_counts(n):
    """alpha(X) over 4^n configurations, kappa in {1, 1, -2, 0}."""
    counts = {0: 1}
    for _ in range(n):
        nxt = {}
        for x, c in counts.items():
            for dx, m in ((1, 2), (-2, 1), (0, 1)):
                nxt[x + dx] = nxt.get(x + dx, 0) + c * m
        counts = nxt
    return counts


def kolmogorov(n):
    """sup |F(x) - Phi(x / sqrt(3n/2))| over both sides of every jump."""
    counts = eig_counts(n)
    sigma = math.sqrt(1.5 * n)
    total, running, worst = 4**n, 0, 0.0
    for x in sorted(counts):
        phi = 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))
        worst = max(worst, abs(running / total - phi))
        running += counts[x]
        worst = max(worst, abs(running / total - phi))
    return worst


def _check_eigdist(checks):
    problems = []
    if len(checks) != EIGDIST_CHECKS or not all(c["passed"] for c in checks):
        problems.append("oracle eigdist: expected 16 passing checks")
    for c in checks:
        if c["kind"] == "kolmogorov_non_increasing":
            ref = [kolmogorov(n) for n in (4, 8, 12, 16, 20)]
            if not np.allclose(c["distances"], ref, rtol=1e-12, atol=0):
                problems.append("oracle eigdist: Kolmogorov distances differ")
    return problems


def discrete_sums(cfg, t, x, n1):
    """Mode sums (gamma, epsilon, zeta) on k_q = 2 pi q/(N1 a)."""
    half = n1 // 2
    q = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    k = 2.0 * math.pi * q / (n1 * cfg["a"])
    w = cfg["v_s"] * np.abs(k)
    g2 = 4.0 * HBAR / (4.0 * w * M_P * cfg["N"]) * np.sin(k * cfg["d"] / 2.0) ** 2
    base = cfg["N"] / n1 * g2 / w**2
    wt = w * t
    beta = HBAR / (K_B * cfg["T"])
    gamma = np.sum(2.0 * base * np.sin(wt / 2.0) ** 2 / np.tanh(beta * w / 2.0))
    osc = np.sin(wt) - wt
    zeta = np.sum(2.0 * base * (np.cos(k * x) * osc
                                + np.sin(k * x) * (1.0 - np.cos(wt))))
    return float(gamma), float(np.sum(base * osc)), float(zeta)


#: reference sample of the ksum suite
GYPSUM = {"d": 0.153e-9, "a": 0.8e-9, "v_s": 4570.0, "T": 300.0, "N": 1e23,
          "theta": 0.0}


def _check_ksum(checks):
    if len(checks) != KSUM_CHECKS or not all(c["passed"] for c in checks):
        return ["oracle ksum: expected 6 passing checks"]
    cfg, n1 = GYPSUM, 100000
    d2 = cfg["d"] ** 2
    scale = d2 * HBAR * cfg["a"] / (2.0 * cfg["v_s"] ** 3 * M_P)
    t_w, t_l = 2e-10, 1e-6
    closed = {
        "gamma_window": d2 * K_B * cfg["T"] * cfg["a"]
        / (4.0 * cfg["v_s"] ** 3 * M_P) * t_w,
        "epsilon": -d2 * HBAR / (4.0 * cfg["v_s"] ** 2 * M_P) * t_l,
        # inside the sound cone phi = pi; sinc vanishes on lattice sites
        "zeta_x0": scale * (0.5 - cfg["v_s"] / cfg["a"] * t_l),
        "zeta_lattice_zero": scale * 0.5,
    }
    g_d = discrete_sums(cfg, t_w, 0.0, n1)[0]
    _, e_d, z_d0 = discrete_sums(cfg, t_l, 0.0, n1)
    numeric = {"gamma_window": g_d, "epsilon": e_d, "zeta_x0": z_d0}
    problems = []
    for c in checks:
        kind = c["kind"]
        if kind == "window_consistency":
            g_d4 = discrete_sums(cfg, t_w, 0.0, 4 * n1)[0]
            rel = abs(g_d4 - closed["gamma_window"]) / closed["gamma_window"]
            if not math.isclose(c["rel_err_4N1"], rel, rel_tol=1e-8):
                problems.append("oracle ksum: 4 N1 window sum differs")
            continue
        if not math.isclose(c["closed_form"], closed[kind], rel_tol=1e-8):
            problems.append(f"oracle ksum: closed {kind} differs")
        if kind == "zeta_lattice_zero":
            ref = discrete_sums(cfg, t_l, c["x_over_a"] * cfg["a"], n1)[2]
            ok = abs(c["numeric"] - ref) <= 1e-9 * abs(z_d0)
        else:
            ref = numeric[kind]
            ok = math.isclose(c["numeric"], ref, rel_tol=1e-9)
        if not ok:
            problems.append(f"oracle ksum: discrete {kind} differs")
    return problems
