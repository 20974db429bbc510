import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pairdeco import cli, core, magicecho as me, phonon
from pairdeco.core import gypsum_config
from pairdeco.phonon import rate_constants

GOOD_CONFIG = """\
d_m = 0.153e-9
a_m = 0.8e-9
v_s_mps = 4570
T_K = 300
N = 1e23
"""


MAGIC_THETA = math.acos(1.0 / math.sqrt(3.0))
MAGIC_CONFIG = GOOD_CONFIG + f"theta_rad = {MAGIC_THETA!r}\n"


def run(args):
    return cli.main(args)


def test_constants_table(tmp_path, capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    rates = rate_constants(gypsum_config())
    assert float(rows["nu0_Hz"]) == pytest.approx(rates.nu0)
    assert float(rows["tau_X_s"]) == pytest.approx(rates.tau_X)
    assert float(rows["sigma_X"]) == pytest.approx(rates.sigma_X)


def test_constants_from_config_file(tmp_path, capsys):
    path = tmp_path / "sample.cfg"
    path.write_text(GOOD_CONFIG)
    assert run(["constants", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tau_X_s" in out


def test_constants_magic_angle_inf(tmp_path, capsys):
    # the exact limit: Omega0 = 0 makes every decay time infinite
    path = tmp_path / "magic.cfg"
    path.write_text(MAGIC_CONFIG)
    assert run(["constants", "--config", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "tau_X_s,inf" in rows
    assert "nu0_Hz,0" in rows  # not -0
    assert run(["sweep", "--config", str(path), "--n-grid", "1e20:1e23:2",
                "--vs-grid", "4000:5000:2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 5
    assert all(row.endswith(",inf") for row in rows[1:])


def test_missing_config_is_usage_error(capsys):
    assert run(["constants", "--config", "/no/such/file"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["constants"], ["evolve", "--grid", "0:1e-4:3"],
    ["sweep", "--n-grid", "1e23:1e23:1", "--vs-grid", "4570:4570:1"],
    ["compare", "data.csv"]])
def test_config_with_n1_is_unknown_key(args, tmp_path, capsys,
                                       monkeypatch):
    # the mode count belongs to the ksum oracle, not to the sample
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("nu_hat_khz,tau_exp_us\n50.4,120.5\n")
    (tmp_path / "sample.cfg").write_text(GOOD_CONFIG + "N1 = 100000\n")
    assert run(args + ["--config", "sample.cfg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 6: unknown key N1\n"


def test_bad_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("d_m = 0.1e-9\n")
    assert run(["constants", "--config", str(path)]) == 1
    assert "missing key" in capsys.readouterr().err
    # finite values whose rate constants overflow or divide by zero
    for line in ("d_m = 1e-70", "d_m = 1e-120", "v_s_mps = 1e200",
                 "v_s_mps = 1e-160"):
        key = line.split()[0]
        path.write_text("\n".join(line if row.startswith(key) else row
                                  for row in GOOD_CONFIG.splitlines()))
        for args in (["constants"], ["evolve", "--grid", "0:1e-4:3"]):
            assert run(args + ["--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: rate constants outside")
            assert len(err.splitlines()) == 1
    # the grid is checked before a byte is written: v_s = 1e200 fails on
    # its own, and at d = 1e-12 m, T = 1e-200 K only the cell of the
    # largest nu_D (v_s = 1e-98 m/s) and sigma_X (N = 1e300) overflows
    path.write_text(GOOD_CONFIG.replace("0.153e-9", "1e-12")
                    .replace("T_K = 300", "T_K = 1e-200"))
    for args in (["--n-grid", "1e23:1e23:1", "--vs-grid", "4000:1e200:2"],
                 ["--config", str(path), "--n-grid", "1:1e300:2",
                  "--vs-grid", "1e-98:4570:2"]):
        assert run(["sweep"] + args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rate constants outside")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
    # every other cell of that grid is in range
    for n_grid, vs_grid in (("1:1:1", "1e-98:4570:2"),
                            ("1:1e300:2", "4570:4570:1")):
        assert run(["sweep", "--config", str(path), "--n-grid", n_grid,
                    "--vs-grid", vs_grid]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


def test_unknown_subcommand_exit_code(capsys):
    assert run(["frobnicate"]) == 1


def test_evolve_free_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["evolve", "--grid", "0:0.0002:21", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 22
    header = lines[0].split(",")
    assert header[0] == "t_s"
    assert len(header) == 1 + 32
    # element (TPlus, TZero): starts negative real, oscillates and decays
    idx = header.index("re_Tp_T0")
    first = float(lines[1].split(",")[idx])
    rates = rate_constants(gypsum_config())
    cfg = gypsum_config()
    amp = -(core.HBAR * cfg.omega0_larmor
            / (core.K_B * cfg.T)) / math.sqrt(2.0)
    assert first == pytest.approx(amp)
    t9 = float(lines[10].split(",")[0])
    v9 = float(lines[10].split(",")[idx])
    expected = amp * math.cos(2 * math.pi * rates.nu0_hat * t9) \
        * math.exp(-((t9 / rates.tau_X_hat) ** 2))
    assert v9 == pytest.approx(expected, rel=1e-9)


def test_evolve_me_monotone(tmp_path):
    out = tmp_path / "me.csv"
    assert run(["evolve", "--mode", "me", "--grid", "0:0.0004:41",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    idx = lines[0].split(",").index("re_Tp_T0")
    values = [abs(float(line.split(",")[idx])) for line in lines[1:]]
    assert all(b <= a + 1e-30 for a, b in zip(values, values[1:]))


def test_evolve_single_point_echoes_initial(tmp_path):
    out = tmp_path / "zero.csv"
    assert run(["evolve", "--grid", "0:0:1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


@pytest.mark.filterwarnings("error")
def test_evolve_bad_grid(capsys):
    assert run(["evolve", "--grid", "nope"]) == 1
    assert run(["evolve", "--grid", "0:1:0"]) == 1
    assert run(["evolve", "--grid", "1:0:5"]) == 1
    capsys.readouterr()
    # the last span, stop - start, overflows: linspace cannot space it
    for spec in ("nan:1e-4:3", "0:inf:3", "0:-inf:3", "nan:nan:1",
                 "-1.7e308:1.7e308:3"):
        assert run(["evolve", f"--grid={spec}"]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_evolve_phase_past_float_range(capsys):
    # the nu0 phase overflows past t ~ 5.69e302 s, which of the 300 rows
    # only the last reaches
    for grid in ("0:1.7e308:3", "0:5.7e302:300"):
        assert run(["evolve", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the phase of the ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["evolve", "--grid", "0:1e-4:1000000000000000"],
    ["sweep", "--n-grid", "1e21:1e24:1000000000000000",
     "--vs-grid", "3000:6000:3"]])
def test_unallocatable_grid_is_usage_error(args, capsys):
    # 7 PiB of float64 is refused at once, so nothing is allocated
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: grid {args[2]!r} is too large to "
                            "allocate\n")
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sample", [
    "T_K = 1e-320\n", "T_K = 1e-30\nomega0_larmor_radps = 1e300\n"],
    ids=["kt-underflow", "amplitude-overflow"])
def test_evolve_non_finite_amplitude_is_config_error(sample, tmp_path,
                                                     capsys):
    # K_B T underflows to 0 at T = 1e-320 K; at 1e-30 K and w0 = 1e300
    # rad/s, hbar w0 / (K_B T) overflows
    path, out = tmp_path / "cold.cfg", tmp_path / "out.csv"
    path.write_text(GOOD_CONFIG.replace("T_K = 300\n", sample))
    assert run(["evolve", "--config", str(path), "--grid", "0:1e-4:3",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hbar w0 / (K_B T) at T = ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["free", "me"])
def test_evolve_gprime_invalid_default_path_is_config_error(mode, tmp_path,
                                                           capsys):
    # at N = 1e40 the default path would drop a G' factor of about 0; at
    # v_s = 1e-90 m/s the exponent of G' is past the float range
    path = tmp_path / "huge.cfg"
    for old, new in (("1e23", "1e40"), ("4570", "1e-90")):
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert run(["evolve", "--config", str(path), "--mode", mode,
                    "--grid", "0:1e-4:3"]) == 1
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: G' = ") and "--exact-path" in err
        assert len(err.splitlines()) == 1
        # the error comes before the CSV header
        assert captured.out == ""
        assert run(["evolve", "--config", str(path), "--mode", mode,
                    "--exact-path", "--grid", "0:1e-4:3"]) == 0
        capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["free", "me"])
def test_evolve_overflowing_envelope_is_silent(mode, tmp_path, capsys):
    # at v_s = 1e-90 m/s, (dk t / tau_X)^2 overflows: exp(-inf) = 0 is
    # the exact envelope, and numpy's overflow warning must not reach
    # stderr
    path = tmp_path / "slow.cfg"
    path.write_text(GOOD_CONFIG.replace("4570", "1e-90"))
    assert run(["evolve", "--config", str(path), "--mode", mode,
                "--exact-path", "--grid", "0:1e-4:3"]) == 0
    assert capsys.readouterr().err == ""


def test_failed_command_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["sweep", "--n-grid=-1:1:3", "--vs-grid", "4000:4000:1",
                "--out", str(out)]) == 1
    assert not out.exists()
    path = tmp_path / "huge.cfg"
    path.write_text(GOOD_CONFIG.replace("1e23", "1e40"))
    assert run(["evolve", "--config", str(path), "--grid", "0:1e-4:3",
                "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("args", [["constants"], ["oracle", "eigdist"]])
def test_unwritable_out_is_usage_error(args, tmp_path, capsys, monkeypatch):
    # the file is opened before any suite runs
    monkeypatch.setattr(cli.oracles, "run_suites",
                        lambda **_: pytest.fail("suites ran first"))
    out = tmp_path / "no" / "such" / "dir" / "x.out"
    assert run(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_evolve_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["evolve", "--grid", "0:0.0001:11", "--out", str(a)])
    run(["evolve", "--grid", "0:0.0001:11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_corners(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n-grid", "1e21:1e21:1",
                "--vs-grid", "8000:8000:1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,v_s_mps,tau_X_s"
    tau = float(lines[1].split(",")[2])
    assert tau == pytest.approx(2343e-6, rel=2e-2)


@pytest.mark.parametrize("config", [GOOD_CONFIG, MAGIC_CONFIG],
                         ids=["reference", "magic"])
def test_sweep_matches_cell_by_cell(config, tmp_path, capsys):
    path = tmp_path / "sample.cfg"
    path.write_text(config)
    cfg = core.parse_config(config)
    lines = ["N,v_s_mps,tau_X_s"]
    for n in np.linspace(1e20, 1e26, 9):
        for vs in np.linspace(1e3, 1e4, 7):
            rates = rate_constants(gypsum_config(
                d=cfg.d, a=cfg.a, T=cfg.T, theta=cfg.theta, N=float(n),
                v_s=float(vs)))
            lines.append(",".join(cli._fmt(x) for x in (n, vs, rates.tau_X)))
    assert run(["sweep", "--config", str(path), "--n-grid", "1e20:1e26:9",
                "--vs-grid", "1e3:1e4:7"]) == 0
    assert capsys.readouterr().out == "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("rows", [
    [[-0.0, math.nan, -math.inf, 1.5, 0.0]],
    [[0.0, math.nan, math.inf, 1.0 / 3.0, 7.0, -0.0],
     [-0.0, math.nan, -math.inf, 2.0, 7.0, -0.0],
     [0.0, math.nan, math.inf, -1e-310, 7.0, -0.0],
     [-0.0, math.nan, 5e-324, 1e300, 7.0, -0.0]]],
    ids=["one-row", "four-rows"])
def test_format_rows_matches_each_value(rows):
    expected = "".join(",".join("%.17g" % x for x in row) + "\r\n"
                       for row in rows)
    assert cli._format_rows(np.array(rows)) == expected
    assert "-0," in expected and "nan," in expected


def test_sweep_monotone_in_n(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n-grid", "1e22:1e24:5",
                "--vs-grid", "4570:4570:1", "--out", str(out)]) == 0
    taus = [float(line.split(",")[2])
            for line in out.read_text().strip().splitlines()[1:]]
    assert all(b < a for a, b in zip(taus, taus[1:]))


def test_oracle_quick_and_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "ksum", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["failures"] == 0
    # a gate below the float64 floor fails with exit code 2 and the
    # whole report
    monkeypatch.setattr(cli.oracles, "FOCK_TOL", 1e-16)
    assert run(["oracle", "fock", "--quick", "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["failures"] > 0
    n_lambdas = len(cli.oracles.QUICK_LAMBDAS)
    groups = n_lambdas * (n_lambdas + 1) // 2 * len(cli.oracles.QUICK_BETAS)
    points = [c for c in payload["reports"][0]["checks"] if "rel_err" in c]
    assert len(points) == 2 * groups * len(cli.oracles.QUICK_TIMES)


def test_oracle_cutoff_past_limit_is_config_error(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(cli.oracles, "FOCK_TOL", 1e-300)
    for name in ("numeric_s_free", "numeric_s_reversal"):
        monkeypatch.setattr(cli.oracles.fock, name,
                            lambda *_: pytest.fail("trace built"))
    out = tmp_path / "oracle.json"
    assert run(["oracle", "fock", "--quick", "--out", str(out)]) == 1
    assert re.fullmatch(r"error: truncation target \S+ needs a Fock cutoff "
                        r"of \d+, above the limit of 700\n",
                        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1e5", "1e20", "1e300", "1e308"])
def test_oracle_large_tol_passes(tol, tmp_path, monkeypatch):
    # a truncation target past the tail constant needs no thermal levels
    monkeypatch.setattr(cli.oracles, "FOCK_TOL", float(tol))
    out = tmp_path / "oracle.json"
    assert run(["oracle", "fock", "--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failures"] == 0
    assert min(c["n_max"] for c in report["reports"][0]["checks"]
               if "n_max" in c) >= 21


@pytest.mark.parametrize("tol", ["1e-8", "0", "-1", "nan", "inf", "-inf"])
def test_oracle_rejects_bad_tol(tol, tmp_path, capsys):
    # the relative gate is the constant oracles.FOCK_TOL: --tol is no
    # option, whatever its value
    out = tmp_path / "oracle.json"
    assert run(["oracle", "fock", "--quick", "--tol", tol,
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unrecognized arguments: --tol {tol}\n"
    assert captured.out == ""
    assert not out.exists()


def test_oracle_fock_progress_on_stderr(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "fock", "--quick", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    n_lambdas = len(cli.oracles.QUICK_LAMBDAS)
    groups = n_lambdas * (n_lambdas + 1) // 2 * len(cli.oracles.QUICK_BETAS)
    lines = captured.err.splitlines()
    assert len(lines) == groups
    for index, line in enumerate(lines, 1):
        assert re.fullmatch(rf"oracle fock: group {index}/{groups}, "
                            r"float64, n_max \d+, \d+\.\d\d s", line)
    assert captured.out == ""
    assert json.loads(out.read_text())["failures"] == 0


def test_oracle_eigdist(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["oracle", "eigdist", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["failures"] == 0


def test_oracle_rejects_config(capsys):
    # every suite runs on the reference sample
    assert run(["oracle", "eigdist", "--config", "/nonexistent"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_compare_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(GOOD_CONFIG.replace("1e23", "4.7e22"))
    tau = me.theory_curve([50.4], 4570.0, 4.7e22)[0]
    data = tmp_path / "exp.csv"
    data.write_text(f"nu_hat_khz,tau_exp_us\n50.4,{tau * 1e6!r}\n")
    out = tmp_path / "cmp.csv"
    assert run(["compare", str(data), "--config", str(cfg_path),
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    residual = float(lines[1].split(",")[3])
    assert residual == pytest.approx(0.0, abs=1e-9)


def test_compare_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["compare", str(empty)]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("nu_hat_khz,tau_exp_us\n50.4,xyz\n")
    assert run(["compare", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err
    out = tmp_path / "cmp.csv"
    # non-finite records name their line; a theory time that underflows
    # (1e-300 kHz), overflows (1e300 kHz) or loses digits to a subnormal
    # rate (1e-145 to 1e-148 kHz) is one error line
    for row, message in (("1e-300,100", "1e-300 kHz"),
                         ("1e300,100", "1e+300 kHz"),
                         ("1e-145,100", "1e-145 kHz"),
                         ("1e-147,100", "1e-147 kHz"),
                         ("1e-148,100", "1e-148 kHz"),
                         ("nan,100", "line 3"), ("50,inf", "line 3")):
        data = tmp_path / "range.csv"
        data.write_text(f"nu_hat_khz,tau_exp_us\n50.4,140\n{row}\n")
        assert run(["compare", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert message in err
        assert not out.exists()
    # v_s^2 m_p is subnormal at v_s = 1e-145 m/s
    slow = tmp_path / "slow.cfg"
    slow.write_text(GOOD_CONFIG.replace("4570", "1e-145"))
    data.write_text("nu_hat_khz,tau_exp_us\n50.4,140\n")
    assert run(["compare", str(data), "--config", str(slow),
                "--out", str(out)]) == 1
    assert "50.4 kHz" in capsys.readouterr().err
    assert not out.exists()
    # at v_s = 1e152 m/s tau_theory is 6.7e303 s, finite, but 6.7e309 us
    # overflows: one error line and nothing written, to stdout or --out
    fast = tmp_path / "fast.cfg"
    fast.write_text("d_m = 1.53e-10\na_m = 8e-10\nv_s_mps = 1e152\n"
                    "N = 1\nT_K = 300\n")
    data.write_text("nu_hat_khz,tau_exp_us\n1.0,1.0\n")
    for extra in ([], ["--out", str(out)]):
        assert run(["compare", str(data), "--config", str(fast)]
                   + extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert "1 kHz" in captured.err
        assert captured.out == ""
        assert not out.exists()


# SHA-256 of each golden invocation's output, which must be the same bytes
# on stdout and through --out; evolve cases are named
# evolve-<mode>-<path>-<sample>-<rows>, rows one block or several.
GOLDEN_SHA256 = {
    "constants":
        "793fcc32a974dd97c80391e901bb1f0b6a951923ca2711b6cf11b2c8a2e788f2",
    "sweep":
        "f0e66df685f166b592fbd92346bfc5bc93127aca9f717e4e0504403003daf211",
    "sweep-37x41":
        "abaaf694164c93100fe98b9e0c0023c8dceefd6ae75fedb3faa5b18677a5fe04",
    "sweep-magic":
        "21435656ea8309ef640c11295cdbe67f1831a5a38eb5f5c7ae12eb98e8789790",
    "compare":
        "9d8ed2bf649f82e783a255d8a3bb3b06e4cb9d56d419479187d3f5980c644879",
    "evolve-free-default-reference-1":
        "9ceea58b5a481e2b16cb54a95dd49db373db87f557ca9e57c9b7155f95b6850f",
    "evolve-free-default-reference-301":
        "b6171c39ff53b4015c7fc70b048cf3dfadd15af64018fed56105145d285a4f96",
    "evolve-free-default-magic-1":
        "b43c69991fe081631c73d33cfd6c19b39e2a08f182b02ece7db39f9d980e3d1b",
    "evolve-free-default-magic-301":
        "f71e488d82c07a597664e112d3330f16c2c2591812ac4d3c86efbc3cb97528af",
    "evolve-free-exact-reference-1":
        "9f713d68cff96b70e4ce531248e1ffed34181f24dff406c30966a49c7fe6421b",
    "evolve-free-exact-reference-301":
        "67c8741fb3d3d63e3dd0d2c5ff4b707b4f7d76b10fb7eb2bcf8cc1578752b4d7",
    "evolve-free-exact-magic-1":
        "b43c69991fe081631c73d33cfd6c19b39e2a08f182b02ece7db39f9d980e3d1b",
    "evolve-free-exact-magic-301":
        "f71e488d82c07a597664e112d3330f16c2c2591812ac4d3c86efbc3cb97528af",
    "evolve-me-default-reference-1":
        "a89a9e884c52b3cbdac2584172360e02e4f83235dda8d05a140511c36f2635d9",
    "evolve-me-default-reference-301":
        "0c67ccd85a0698d0b3df1bf6ef646ca20df67b8037b57ca14afaaa945b3400db",
    "evolve-me-default-magic-1":
        "b43c69991fe081631c73d33cfd6c19b39e2a08f182b02ece7db39f9d980e3d1b",
    "evolve-me-default-magic-301":
        "f71e488d82c07a597664e112d3330f16c2c2591812ac4d3c86efbc3cb97528af",
    "evolve-me-exact-reference-1":
        "9207a79f3653936a86812074a88a2da052f84f1422d9ce410010217a7f2ab6e8",
    "evolve-me-exact-reference-301":
        "d615000145bae757e57f28aa585c1342f37e6ef281793e8eb6389fbeb52cb3fb",
    "evolve-me-exact-magic-1":
        "b43c69991fe081631c73d33cfd6c19b39e2a08f182b02ece7db39f9d980e3d1b",
    "evolve-me-exact-magic-301":
        "f71e488d82c07a597664e112d3330f16c2c2591812ac4d3c86efbc3cb97528af",
}
EVOLVE_GRIDS = {"1": "0.0001:0.0001:1", "301": "0:0.0004:301"}


def _golden_args(name, tmp_path):
    if name == "constants":
        return ["constants"]
    if name == "sweep":
        return ["sweep", "--n-grid", "1e21:1e24:4",
                "--vs-grid", "3000:6000:3"]
    if name == "sweep-37x41":
        return ["sweep", "--n-grid", "1e20:1e26:37",
                "--vs-grid", "1000:10000:41"]
    if name == "sweep-magic":
        config = tmp_path / "magic.cfg"
        config.write_text(MAGIC_CONFIG)
        return ["sweep", "--config", str(config), "--n-grid", "1e20:1e26:9",
                "--vs-grid", "1000:10000:7"]
    if name == "compare":
        data = tmp_path / "exp.csv"
        data.write_text("nu_hat_khz,tau_exp_us\n50.4,120.5\n12.25,1800\n"
                        "33,410.75\n")
        return ["compare", str(data)]
    _, mode, path, sample, rows = name.split("-")
    args = ["evolve", "--mode", mode, "--grid", EVOLVE_GRIDS[rows]]
    if path == "exact":
        args.append("--exact-path")
    if sample == "magic":
        config = tmp_path / "magic.cfg"
        config.write_text(MAGIC_CONFIG)
        args += ["--config", str(config)]
    return args


def _golden_names():
    names = ["constants", "sweep", "sweep-37x41", "sweep-magic", "compare"]
    for mode in ("free", "me"):
        for path in ("default", "exact"):
            for sample in ("reference", "magic"):
                names += [f"evolve-{mode}-{path}-{sample}-{rows}"
                          for rows in EVOLVE_GRIDS]
    return names


@pytest.mark.parametrize("name", _golden_names())
def test_golden_output_bytes(name, tmp_path, capsys):
    args = _golden_args(name, tmp_path)
    out = tmp_path / "out.csv"
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
    capsys.readouterr()
    assert run(args) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN_SHA256[name]


#: every positive float is drawn from each decade of its range alike
LOG_UNIFORM = st.floats(min_value=-323.0, max_value=308.0).map(
    lambda e: 10.0 ** e)
AT_LEAST_ONE = st.floats(min_value=0.0, max_value=308.0).map(
    lambda e: 10.0 ** e)


#: the reference sample, with the keys the drawn configs may change
REFERENCE = {"d_m": 0.153e-9, "a_m": 0.8e-9, "v_s_mps": 4570.0,
             "T_K": 300.0, "N": 1e23}
KEYS = tuple(REFERENCE) + ("theta_rad", "omega0_larmor_radps")
#: edges of the model, drawn as often as a log-uniform value
EDGES = {"N": st.just(1.0), "theta_rad": st.just(MAGIC_THETA)}


@st.composite
def _config_texts(draw):
    """The reference config with up to three keys drawn log-uniformly
    or set to an edge of the model."""
    values = dict(REFERENCE)
    keys = draw(st.sets(st.sampled_from(KEYS), max_size=3))
    for key in keys:
        values[key] = draw(st.one_of(LOG_UNIFORM,
                                     EDGES.get(key, LOG_UNIFORM)))
    if {"T_K", "omega0_larmor_radps"} & keys:
        # sigma(0) scales as hbar omega0/(k_B T): draw the pair jointly,
        # with that ratio log-uniform in half of the draws
        t_k, omega0, ratio = draw(st.tuples(LOG_UNIFORM, LOG_UNIFORM,
                                            st.booleans()))
        values["T_K"] = t_k
        values["omega0_larmor_radps"] = (
            omega0 * core.K_B * t_k / core.HBAR if ratio else omega0)
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


@st.composite
def _invocations(draw):
    """(argv without --config/--out, config text or None, data or None)."""
    command = draw(st.sampled_from(("constants", "evolve", "sweep",
                                    "compare", "oracle")))
    if command == "oracle":
        # the grid suites run on the reference sample: no config to draw
        args = draw(st.sampled_from((["oracle", "fock", "--quick"],
                                     ["oracle", "eigdist"],
                                     ["oracle", "ksum"])))
        return args, None, None
    args, data = [command], None
    if command == "evolve":
        args += ["--mode", draw(st.sampled_from(("free", "me"))), "--grid",
                 f"0:{draw(LOG_UNIFORM)!r}:{draw(st.integers(1, 300))}"]
        if draw(st.booleans()):
            args.append("--exact-path")
    elif command == "sweep":
        # N >= 1 on the N axis: below it every sweep is a ConfigError
        for flag, axis in (("--n-grid", AT_LEAST_ONE),
                           ("--vs-grid", LOG_UNIFORM)):
            low, high = sorted(draw(st.tuples(axis, axis)))
            args += [flag, f"{low!r}:{high!r}:{draw(st.integers(1, 12))}"]
    elif command == "compare":
        rows = draw(st.lists(st.tuples(LOG_UNIFORM, LOG_UNIFORM),
                             min_size=1, max_size=4))
        data = "nu_hat_khz,tau_exp_us\n" + "".join(
            f"{nu!r},{tau!r}\n" for nu, tau in rows)
    return args, draw(_config_texts()), data


def _check_payload(command, text, config, code):
    """The output parses, and every number in it is finite, apart from
    the decay times at the magic angle, whose exact limit is inf.  An
    oracle report has no failed check."""
    assert code == 0
    if command == "oracle":
        assert json.loads(text)["failures"] == 0
        return
    cfg = core.parse_config(config)
    # Omega0 is d^-3 times a factor of theta alone, zero at the magic angle
    magic = phonon.dipolar_coupling(1.0, cfg.theta) == 0.0
    header, *rows = csv.reader(io.StringIO(text))
    assert rows and all(len(row) == len(header) for row in rows)
    cells = rows if command == "constants" else [
        cell for row in rows for cell in zip(header, row)]
    for name, value in cells:
        value = float(value)
        assert math.isfinite(value) or (
            magic and value == math.inf and name.startswith("tau")), name


@settings(max_examples=300, deadline=None)
@given(_invocations(), st.booleans())
@example((["evolve", "--grid", "0:1e-4:3"],
          "d_m = 0.153e-9\na_m = 0.8e-9\nv_s_mps = 4570\nN = 1e23\n"
          "T_K = 1e-320\n", None), True)
@example((["constants"],
          "d_m = 0.153e-9\na_m = 0.8e-9\nv_s_mps = 4570\nN = 1e23\n"
          "T_K = 1e-30\nomega0_larmor_radps = 1e300\n", None), False)
@example((["sweep", "--n-grid", "1:1e30:3", "--vs-grid", "1e3:1e4:2"],
          MAGIC_CONFIG, None), False)
@example((["evolve", "--mode", "free", "--grid", "0:1e308:2"],
          MAGIC_CONFIG, None), False)
def test_cli_contract(invocation, to_file):
    # exit 0 with parseable output and no warnings, or one error: line,
    # exit 1, no output and no --out file; every drawn oracle exits 0
    # with no failed check
    args, config, data = invocation
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, text):
            path = os.path.join(tmp, name)
            with open(path, "w") as handle:
                handle.write(text)
            return path

        if config is not None:
            args = args + ["--config", write("sample.cfg", config)]
        if data is not None:
            args = args + [write("data.csv", data)]
        out = os.path.join(tmp, "out")
        if to_file:
            args = args + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(args)
        if code == 1:
            assert args[0] != "oracle"
            assert re.fullmatch(r"error: [^\n]+\n", stderr.getvalue())
            assert stdout.getvalue() == "" and not os.path.exists(out)
            return
        assert [str(w.message) for w in caught] == []
        if to_file:
            assert stdout.getvalue() == ""
            with open(out, newline="") as handle:
                text = handle.read()
        else:
            text = stdout.getvalue()
    if args[0] != "oracle":
        assert stderr.getvalue() == ""
    _check_payload(args[0], text, config, code)
