"""Symbolic (parametric) Markovian rates.

The rate-sweep engine (:mod:`repro.core.sweep`) aggregates a fault tree
*once* and re-instantiates only the CTMC rates per parameter sample.  That is
sound because every operation the pipeline applies to Markovian rates —
copying them through parallel composition, pruning them under maximal
progress, summing them into quotient blocks during bisimulation minimisation,
accumulating them while eliminating vanishing states — keeps each rate a
**non-negative linear form** over the declared basic-event rate parameters::

    rate = const + sum_i coeff_i * lambda_i

:class:`ParametricRate` represents exactly that form and behaves like a
number wherever the pipeline does arithmetic (``+`` with floats and other
forms, scaling by a dormancy factor, ``> 0`` checks, ``float()`` coercion to
the nominal value), so the whole aggregation stack runs unchanged on
parametric models.  Equality and hashing are *structural*: two rates with
coincidentally equal nominal values but different parameter dependencies are
kept apart, which is what makes the minimised quotient valid for **every**
positive parameter assignment, not just the nominal one (see
``canonical_key`` and :func:`repro.ioimc.partition.canonical_rate`).
"""

from __future__ import annotations

from typing import Callable, Mapping, Tuple, Union

from ..errors import ModelError

RateLike = Union[float, "ParametricRate"]
_Rounder = Callable[[float], float]


class ParametricRate:
    """An immutable linear rate form ``const + sum(coeff * param)``.

    Parameters
    ----------
    const:
        The constant (parameter-free) part of the rate.
    coeffs:
        Mapping from parameter name to its (positive) coefficient.
    nominals:
        Mapping from parameter name to the parameter's nominal *value* (not
        its contribution); parameters a partial assignment leaves out
        evaluate at exactly these values.  Within one pipeline run every
        parameter has a single declared nominal, so merging forms never
        conflicts.
    """

    __slots__ = ("const", "coeffs", "nominals")

    def __init__(
        self,
        const: float,
        coeffs: Mapping[str, float],
        nominals: Mapping[str, float],
    ):
        object.__setattr__(self, "const", float(const))
        object.__setattr__(self, "coeffs", dict(coeffs))
        object.__setattr__(self, "nominals", dict(nominals))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ParametricRate is immutable")

    def __reduce__(self):
        # The immutability guard blocks the default slot-based __setstate__;
        # rebuild through the constructor instead (models holding parametric
        # rates may travel to batch worker processes by pickle).
        return (ParametricRate, (self.const, self.coeffs, self.nominals))

    # ------------------------------------------------------------ construction
    @classmethod
    def for_parameter(
        cls, parameter: str, nominal_value: float, coefficient: float = 1.0
    ) -> "ParametricRate":
        """The form ``coefficient * parameter`` with the given nominal value."""
        if not coefficient > 0.0:
            raise ModelError(
                f"parametric rate coefficients must be positive, got {coefficient}"
            )
        return cls(0.0, {parameter: coefficient}, {parameter: nominal_value})

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: RateLike) -> "ParametricRate":
        if isinstance(other, ParametricRate):
            coeffs = dict(self.coeffs)
            for parameter, coefficient in other.coeffs.items():
                coeffs[parameter] = coeffs.get(parameter, 0.0) + coefficient
            nominals = dict(self.nominals)
            nominals.update(other.nominals)
            return ParametricRate(self.const + other.const, coeffs, nominals)
        if isinstance(other, (int, float)):
            return ParametricRate(self.const + other, self.coeffs, self.nominals)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, factor: float) -> "ParametricRate":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return ParametricRate(
            self.const * factor,
            {parameter: coefficient * factor for parameter, coefficient in self.coeffs.items()},
            self.nominals,
        )

    __rmul__ = __mul__

    # ------------------------------------------------------------ comparisons
    # Order comparisons against numbers (``rate > 0.0`` guards throughout the
    # pipeline) use the nominal value; equality stays structural so hashing
    # into rate classes never conflates distinct forms.
    def _cmp_value(self, other: RateLike) -> Tuple[float, float]:
        if isinstance(other, ParametricRate):
            return self.nominal, other.nominal
        return self.nominal, float(other)

    def __gt__(self, other: RateLike) -> bool:
        mine, theirs = self._cmp_value(other)
        return mine > theirs

    def __ge__(self, other: RateLike) -> bool:
        mine, theirs = self._cmp_value(other)
        return mine >= theirs

    def __lt__(self, other: RateLike) -> bool:
        mine, theirs = self._cmp_value(other)
        return mine < theirs

    def __le__(self, other: RateLike) -> bool:
        mine, theirs = self._cmp_value(other)
        return mine <= theirs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParametricRate):
            return self.const == other.const and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.const, tuple(sorted(self.coeffs.items()))))

    # ------------------------------------------------------------- evaluation
    @property
    def nominal(self) -> float:
        """The numeric value under the nominal parameter assignment."""
        value = self.const
        for parameter, coefficient in self.coeffs.items():
            value += coefficient * self.nominals[parameter]
        return value

    def __float__(self) -> float:
        return self.nominal

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """The numeric rate under ``assignment`` (nominal for absent params)."""
        value = self.const
        nominals = self.nominals
        for parameter, coefficient in self.coeffs.items():
            value += coefficient * assignment.get(parameter, nominals[parameter])
        return value

    @property
    def parameters(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def renamed(
        self, mapping: Mapping[str, str], nominals: Mapping[str, float]
    ) -> "ParametricRate":
        """The same form over the parameters ``mapping`` names (absent ones
        keep their name), each taking its nominal value from ``nominals``."""
        coeffs = {mapping.get(name, name): value for name, value in self.coeffs.items()}
        return ParametricRate(self.const, coeffs, {name: nominals[name] for name in coeffs})

    # ------------------------------------------------------------- canonical
    def canonical_key(self, round_to: "_Rounder") -> Tuple[object, ...]:
        """A hashable token for rate-class bucketing during minimisation.

        ``round_to`` is the significant-digit rounding used for plain float
        rates; applying it per component keeps the same tolerance for
        floating-point noise while never conflating different forms.
        """
        return (
            "param-rate",
            round_to(self.const),
            tuple(
                (parameter, round_to(coefficient))
                for parameter, coefficient in sorted(self.coeffs.items())
            ),
        )

    # ---------------------------------------------------------------- display
    def __format__(self, spec: str) -> str:
        return format(self.nominal, spec)

    def __repr__(self) -> str:
        terms = [f"{coefficient:g}*{parameter}" for parameter, coefficient in sorted(self.coeffs.items())]
        if self.const:
            terms.insert(0, f"{self.const:g}")
        return f"ParametricRate({' + '.join(terms) or '0'} ~ {self.nominal:g})"


def evaluate_rate(rate: RateLike, assignment: Mapping[str, float]) -> float:
    """Numeric value of a (possibly parametric) rate under ``assignment``."""
    if isinstance(rate, ParametricRate):
        return rate.evaluate(assignment)
    return float(rate)


def rate_parameters(rate: RateLike) -> Tuple[str, ...]:
    """The parameter names a rate depends on (empty for plain floats)."""
    if isinstance(rate, ParametricRate):
        return rate.parameters
    return ()
