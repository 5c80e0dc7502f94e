"""Exact-arithmetic toolkit for reciprocal-power-sum distinctness checking.

Everything here computes with big integers and reduced rationals; dyadic
enclosures are certified by exact evaluation at their ends.  No floating
point is used in any verified path.
"""

__version__ = "0.1.0"

from .kernel import (
    Enclosure,
    PrimeSieve,
    Verdict,
    factorial_valuation,
    lcm_progression,
    p_adic_valuation,
    sqrt_enclosure,
)
from .sums import (
    CertificateError,
    Interval,
    IntervalPair,
    epsilon,
    eta_band_report,
    g_exact,
    reduce_overlap,
    solve_eta,
    telescope_check,
)

__all__ = [
    "CertificateError",
    "Enclosure",
    "Interval",
    "IntervalPair",
    "PrimeSieve",
    "Verdict",
    "epsilon",
    "eta_band_report",
    "factorial_valuation",
    "g_exact",
    "lcm_progression",
    "p_adic_valuation",
    "reduce_overlap",
    "solve_eta",
    "sqrt_enclosure",
    "telescope_check",
]
