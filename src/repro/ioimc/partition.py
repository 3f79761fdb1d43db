"""Canonical rate keys for bisimulation refinement.

Both refinement engines of :mod:`repro.ioimc.bisimulation` compare aggregate
Markovian rates through :func:`canonical_rate`, at the fixed precision of
:data:`RATE_DIGITS`.
"""

from __future__ import annotations

import math

from .rates import ParametricRate

#: Digits past the leading one compared when two aggregate Markovian rates
#: are tested for equality during bisimulation refinement.
RATE_DIGITS = 10


def canonical_rate(value):
    """Canonical, hashable key of an aggregate rate for refinement.

    Plain floats are rounded :data:`RATE_DIGITS` digits past their leading
    digit, so floating-point noise from rate aggregation cannot split blocks; both
    refinement engines share this tolerance.

    :class:`~repro.ioimc.rates.ParametricRate` forms are keyed *structurally*
    (each coefficient rounded the same way): two rates whose nominal values
    coincide but whose parameter dependencies differ stay in different rate
    classes.  This is what keeps the minimised quotient of a parametric model
    valid for every positive parameter assignment — the rate-sweep engine
    relies on it.
    """
    if isinstance(value, ParametricRate):
        return value.canonical_key(_round_significant)
    return _round_significant(value)


def _round_significant(value: float) -> float:
    if value == 0.0:
        return 0.0
    magnitude = int(math.floor(math.log10(abs(value))))
    return round(value, RATE_DIGITS - magnitude)
