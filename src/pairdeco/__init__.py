"""Adiabatic decoherence of dipole-coupled spin pairs in a phonon bath.

Layout:

* core        constants, configuration, 4-level pair basis
* decoherence generic per-mode closed forms and condensed kernels
* fock        truncated-Fock numerical traces (float64 oracle)
* xprec       double-double trace engine for strong decoherence
* phonon      the concrete pair-phonon model and rate constants
* eigdist     exact eigenvalue-sum distribution and Gaussian limit
* magicecho   reversal sequences, echo amplitude, experiment comparison
* oracles     verification suites
* cli         command-line front end
"""

__version__ = "0.1.0"
