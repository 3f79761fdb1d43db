"""Canonical rate keys for bisimulation refinement.

Both refinement engines of :mod:`repro.ioimc.bisimulation` compare aggregate
Markovian rates through :func:`canonical_rate`, at the precision of
:data:`DEFAULT_RATE_DIGITS` unless the caller asks for another.
"""

from __future__ import annotations

import math

from .rates import ParametricRate

#: Default number of significant digits used when comparing aggregate
#: Markovian rates during bisimulation refinement.  Surfaced on
#: :class:`repro.ioimc.reduction.AggregationOptions` as ``rate_digits``.
DEFAULT_RATE_DIGITS = 10


def canonical_rate(value, digits: int = DEFAULT_RATE_DIGITS):
    """Canonical, hashable key of an aggregate rate for refinement.

    Plain floats are rounded to ``digits`` significant digits, so
    floating-point noise from rate aggregation cannot split blocks; both
    refinement engines share this tolerance.

    :class:`~repro.ioimc.rates.ParametricRate` forms are keyed *structurally*
    (each coefficient rounded the same way): two rates whose nominal values
    coincide but whose parameter dependencies differ stay in different rate
    classes.  This is what keeps the minimised quotient of a parametric model
    valid for every positive parameter assignment — the rate-sweep engine
    relies on it.
    """
    if isinstance(value, ParametricRate):
        return value.canonical_key(lambda v: _round_significant(v, digits))
    return _round_significant(value, digits)


def _round_significant(value: float, digits: int) -> float:
    if value == 0.0:
        return 0.0
    magnitude = int(math.floor(math.log10(abs(value))))
    return round(value, digits - magnitude)
