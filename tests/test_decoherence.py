import cmath
import math

import numpy as np
import pytest

from pairdeco import decoherence as dc


def test_equal_lambdas_pure_phase():
    exp = dc.decoherence_exponent_k(0.4, 0.4, 1.0, 1.0, 2.0)
    assert exp.gamma == 0.0
    assert abs(abs(exp.s_value()) - 1.0) < 1e-14


def test_gamma_zero_iff_equal_lambdas():
    exp = dc.decoherence_exponent_k(0.4, 0.3, 1.0, 1.0, 2.0)
    assert exp.gamma > 0.0


def test_t_zero_identity():
    exp = dc.decoherence_exponent_k(0.4, -0.2j, 1.3, 0.7, 0.0)
    assert exp.gamma == 0.0
    assert exp.upsilon == 0.0


def test_gamma_value_real_pair():
    # hand evaluation: lm=0.5, ln=-0.3, w=1, beta=2, t=pi
    gamma = (2.0 * 0.64 * math.sin(math.pi / 2) ** 2
             / math.tanh(1.0))
    exp = dc.decoherence_exponent_k(0.5, -0.3, 1.0, 2.0, math.pi)
    assert exp.gamma == pytest.approx(gamma, rel=1e-14)


def test_singular_mode_rejected():
    with pytest.raises(dc.SingularModeError):
        dc.decoherence_exponent_k(0.1, 0.2, 0.0, 1.0, 1.0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        dc.decoherence_exponent_k(0.1, 0.2, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        dc.decoherence_exponent_k(0.1, 0.2, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        dc.decoherence_exponent_k(0.1, 0.2, 1.0, 1.0, -1.0)


def test_s_mn_product_over_modes():
    modes = [(1.0, 0.3, -0.2), (2.0, 0.1j, 0.4)]
    single = [dc.decoherence_exponent_k(lm, ln, w, 0.8, 1.1)
              for w, lm, ln in modes]
    expected = math.prod([1.0]) * single[0].s_value() * single[1].s_value()
    assert dc.s_mn(modes, 0.8, 1.1) == pytest.approx(expected)
    assert dc.s_mn([], 0.8, 1.1) == 1.0


def test_conjugate_swap_symmetry():
    a = dc.decoherence_exponent_k(0.3, -0.2j, 1.0, 0.5, 2.0)
    b = dc.decoherence_exponent_k(-0.2j, 0.3, 1.0, 0.5, 2.0)
    assert a.s_value() == pytest.approx(b.s_value().conjugate(), rel=1e-13)


def test_condensed_kernels_match_single_mode_exponents():
    omegas = np.array([1.0, 2.0, 3.0])
    g_a = np.array([0.1j, -0.05j, 0.02j])
    couplings = {"A": g_a}
    k = dc.condensed_kernels(couplings, "A", omegas, {}, 0.9, 1.4)
    # gamma_A and epsilon_A against the generic exponent with lm=g, ln=0
    gamma_direct = sum(
        dc.decoherence_exponent_k(g, 0.0, w, 0.9, 1.4).gamma / abs(g) ** 2
        * abs(g) ** 2
        for g, w in zip(g_a, omegas))
    assert k.gamma_A == pytest.approx(gamma_direct, rel=1e-12)
    eps_direct = sum(abs(g) ** 2 / w**2 * (math.sin(w * 1.4) - w * 1.4)
                     for g, w in zip(g_a, omegas))
    assert k.epsilon_A == pytest.approx(eps_direct, rel=1e-12)
    assert k.zeta == {}
    assert k.chi_A == 0.0


def test_condensed_kernels_partner_cross_term():
    omegas = np.array([1.0, 2.0])
    couplings = {"A": np.array([0.1j, 0.2j]),
                 "B": np.array([0.05j, -0.1j])}
    k = dc.condensed_kernels(couplings, "A", omegas, {"B": 2.0}, 1.0, 0.8)
    assert set(k.zeta) == {"B"}
    assert k.chi_A == pytest.approx(2.0 * k.zeta["B"])


def test_condensed_sigma_element_phases():
    kernels = dc.CondensedKernels(gamma_A=0.1, epsilon_A=0.05,
                                  zeta={}, chi_A=0.2)
    out = dc.condensed_sigma_element(1.0, 2.0, 1.0, 0.4, -0.1, kernels, 0.3)
    expected = (cmath.exp(-1j * 1.0 * 0.3)
                * cmath.exp(-(0.5**2) * 0.1)
                * cmath.exp(-1j * (0.16 - 0.01) * 0.05)
                * cmath.exp(-1j * 0.5 * 0.2))
    assert out == pytest.approx(expected, rel=1e-13)
