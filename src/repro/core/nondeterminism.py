"""Detection and reporting of non-determinism in DFT models.

Section 4.4 of the paper argues that certain DFT configurations — typically an
FDEP trigger failing several elements "simultaneously" — are *inherently*
non-deterministic and that the framework should detect (rather than silently
resolve) this.  In the I/O-IMC pipeline the symptom is a closed aggregated
model in which some vanishing state offers several urgent moves: a CTMDP.

:func:`detect_nondeterminism` runs the full pipeline and reports whether the
final model is non-deterministic and how wide the induced interval on the
unreliability is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..ctmc.builders import CtmdpSkeleton
from ..dft.tree import DynamicFaultTree
from .measures import UnreliabilityBounds
from .study import Study, StudyOptions


@dataclass(frozen=True)
class NondeterminismReport:
    """Outcome of a non-determinism check."""

    nondeterministic: bool
    #: Number of states of the final model offering a non-deterministic choice.
    choice_states: int
    #: (min, max) unreliability at the probed mission time.
    bounds: Tuple[float, float]
    #: The probed mission time.
    time: float

    @property
    def spread(self) -> float:
        """Width of the unreliability interval caused by the non-determinism."""
        return self.bounds[1] - self.bounds[0]

    def summary(self) -> str:
        if not self.nondeterministic:
            return (
                f"deterministic model; unreliability(t={self.time:g}) = {self.bounds[0]:.6f}"
            )
        return (
            f"non-deterministic model with {self.choice_states} choice state(s); "
            f"unreliability(t={self.time:g}) in [{self.bounds[0]:.6f}, {self.bounds[1]:.6f}]"
        )


def detect_nondeterminism(
    tree: DynamicFaultTree,
    time: float = 1.0,
    options: Optional[StudyOptions] = None,
) -> NondeterminismReport:
    """Analyse ``tree`` and report whether its semantics is non-deterministic."""
    study = Study(tree, options)
    (result,) = study.evaluate(UnreliabilityBounds([time])).measures
    skeleton = study.skeleton
    nondeterministic = isinstance(skeleton, CtmdpSkeleton)
    choice_states = (
        sum(1 for choices in skeleton.choices if len(choices) > 1)
        if nondeterministic
        else 0
    )
    return NondeterminismReport(
        nondeterministic=nondeterministic,
        choice_states=choice_states,
        bounds=(result.lower[0], result.upper[0]),
        time=time,
    )
