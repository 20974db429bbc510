import dataclasses
import math

import pytest

from pairdeco import core


def test_constants_positive():
    assert core.HBAR > 0 and core.K_B > 0 and core.MU_0 > 0
    # beta at room temperature is tens of femtoseconds
    assert core.gypsum_config(T=300.0).beta == pytest.approx(2.546e-14,
                                                             rel=1e-3)


def test_beta_rejects_nonpositive_temperature():
    # PhysicalConfig rejects the temperature before beta can divide by it
    with pytest.raises(core.ConfigError, match="T > 0"):
        core.gypsum_config(T=0.0)


def test_kappa_table():
    assert core.KAPPA_VALUES == (1, -2, 1, 0)
    assert sum(core.KAPPA_VALUES) == 0


def test_gypsum_config_defaults():
    cfg = core.gypsum_config()
    assert cfg.d == 0.153e-9
    assert cfg.a == 0.8e-9
    assert cfg.v_s == 4570.0
    assert cfg.beta > 0
    # the sample holds no numerical grid: the ksum oracle owns its modes
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "d", "a", "v_s", "T", "N", "theta", "omega0_larmor"]


def test_config_invariants():
    with pytest.raises(core.ConfigError, match="d > 0"):
        core.gypsum_config(d=-1.0)
    with pytest.raises(core.ConfigError, match="d < a"):
        core.gypsum_config(d=1e-9, a=0.5e-9)
    with pytest.raises(TypeError, match="N1"):
        core.gypsum_config(N1=100000)


def test_parse_config_roundtrip():
    text = """
    # sample
    d_m = 0.153e-9
    a_m = 0.8e-9
    v_s_mps = 4570
    T_K = 300
    N = 1e23
    theta_rad = 0.25
    omega0_larmor_radps = 1e8
    """
    cfg = core.parse_config(text)
    assert cfg.v_s == 4570.0
    assert (cfg.theta, cfg.omega0_larmor) == (0.25, 1e8)


@pytest.mark.parametrize("text,fragment", [
    ("d_m = 0.1e-9", "missing key a_m"),
    ("bogus = 1", "unknown key bogus"),
    ("d_m = x", "non-numeric"),
    ("d_m 0.1", "expected 'key = value'"),
    ("d_m = 1\nd_m = 2", "duplicate key"),
    ("d_m = inf", "non-finite value for d_m"),
    ("a_m = nan", "non-finite value for a_m"),
    ("N = -inf", "non-finite value for N"),
])
def test_parse_config_errors(text, fragment):
    with pytest.raises(core.ConfigError, match=fragment):
        core.parse_config(text)


def test_parse_config_n1_must_be_integer():
    # N1 is no config key: the ksum oracle owns its mode count
    text = ("d_m=0.153e-9\na_m=0.8e-9\nv_s_mps=4570\nT_K=300\nN=1e23\n"
            "N1=10.5\n")
    with pytest.raises(core.ConfigError, match="^line 6: unknown key N1$"):
        core.parse_config(text)


def test_coth():
    assert core.coth(1e3) == pytest.approx(1.0)
    assert core.coth(0.01) == pytest.approx(100.0033333, rel=1e-8)
    assert core.coth(0.5) == pytest.approx(1.0 / math.tanh(0.5))
    with pytest.raises(ValueError):
        core.coth(0.0)


def test_max_beta_omega_small_at_reference():
    cfg = core.gypsum_config()
    # beta*omega at the top of the acoustic band, omega_max = 2 v_s/a,
    # underwrites the high-T expansion of coth in the closed kernels
    assert cfg.beta * 2.0 * cfg.v_s / cfg.a < 0.3
