"""Physical constants, configuration handling and the spin-pair basis.

The CODATA 2018 constants HBAR, K_B, MU_0, GAMMA_P and M_P are pinned
module constants, not settings.  Everything downstream (kernels, rate constants, oracles, CLI) pulls its
units and its 4-level basis from here.  SI units throughout; angular
frequencies are carried in rad/s internally, linear frequencies (Hz/kHz)
appear only at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised for malformed or physically invalid configurations."""


# CODATA 2018 values, pinned so golden files stay deterministic
HBAR = 1.054571817e-34      # J s
K_B = 1.380649e-23          # J/K
MU_0 = 1.25663706212e-6     # H/m
GAMMA_P = 2.6752218744e8    # rad/(s T), proton
M_P = 1.67262192369e-27     # kg


#: Integer eigenvalue kappa of the secular dipolar tensor per level, in
#: matrix order (T+, T0, T-, S) of every 4x4 pair matrix.
KAPPA_VALUES = (1, -2, 1, 0)


# Larmor frequency only scales the initial-state amplitude; the default
# corresponds to protons in a 1 T field.
_DEFAULT_OMEGA0 = GAMMA_P * 1.0


@dataclass(frozen=True)
class PhysicalConfig:
    """Sample geometry and bath parameters for the pair-phonon model.

    d       intra-pair proton distance, m
    a       lattice spacing along the pair axis, m
    v_s     sound speed, m/s
    T       bath temperature, K
    N       number of pairs in the sample
    theta   angle between pair axis and field axis, rad
    omega0_larmor  Larmor angular frequency, rad/s (initial amplitude only)
    N1      modes along the pair axis used by the discrete k-sums
    """

    d: float
    a: float
    v_s: float
    T: float
    N: float
    theta: float = 0.0
    omega0_larmor: float = _DEFAULT_OMEGA0
    N1: int = 100000

    def __post_init__(self):
        checks = [
            (self.d > 0, "d > 0 violated"),
            (self.a > 0, "a > 0 violated"),
            (self.v_s > 0, "v_s > 0 violated"),
            (self.T > 0, "T > 0 violated"),
            (self.N >= 1, "N >= 1 violated"),
            (self.N1 >= 2, "N1 >= 2 violated"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        # small-angle treatment of pi*d/(2a) requires d < a
        if not self.d < self.a:
            raise ConfigError("d < a violated")

    @property
    def beta(self):
        """Inverse temperature in time units, hbar/(k_B T), seconds."""
        return HBAR / (K_B * self.T)


#: Gypsum-like reference sample used throughout the examples.
GYPSUM = dict(d=0.153e-9, a=0.8e-9, v_s=4570.0, T=300.0, N=1e23)


def gypsum_config(**overrides):
    """PhysicalConfig at the reference sample parameters."""
    params = dict(GYPSUM)
    params.update(overrides)
    return PhysicalConfig(**params)


# Config-file schema: one `key = value` per line, `#` comments.
_CONFIG_KEYS = {
    "d_m": "d",
    "a_m": "a",
    "v_s_mps": "v_s",
    "T_K": "T",
    "N": "N",
    "theta_rad": "theta",
    "omega0_larmor_radps": "omega0_larmor",
    "N1": "N1",
}
_REQUIRED_KEYS = ("d_m", "a_m", "v_s_mps", "T_K", "N")


def parse_config(text):
    """Parse a flat key=value config document into a PhysicalConfig.

    Unknown keys are rejected; missing required keys, non-numeric values
    and invariant violations raise ConfigError naming the offender.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        try:
            values[key] = float(rhs)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: non-numeric value for {key}: {rhs!r}"
            ) from None
        if not math.isfinite(values[key]):
            raise ConfigError(
                f"line {lineno}: non-finite value for {key}: {rhs!r}")
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing key {key}")
    kwargs = {_CONFIG_KEYS[k]: v for k, v in values.items()}
    if "N1" in kwargs:
        n1 = kwargs["N1"]
        if n1 != int(n1):
            raise ConfigError("N1 must be an integer")
        kwargs["N1"] = int(n1)
    return PhysicalConfig(**kwargs)


def coth(x):
    """coth(x) for x > 0, evaluated directly.

    Loses relative precision for x below ~1e-8 where coth ~ 1/x dwarfs
    the remaining series; callers stay well above that regime.
    """
    if x <= 0:
        raise ValueError("coth argument must be positive")
    return 1.0 / math.tanh(x)
