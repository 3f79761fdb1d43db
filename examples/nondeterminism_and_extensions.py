"""Non-determinism detection and the Section 7 extensions.

Three short studies on the paper's "extensibility" claims:

1. **Inherent non-determinism** (Section 4.4, Figure 6a): an FDEP trigger that
   fails both inputs of a PAND gate.  The framework detects the
   non-determinism and reports an interval of possible unreliabilities instead
   of silently picking a resolution.
2. **Mutually exclusive failure modes** (Section 7.1, Figure 12): a switch that
   can fail open or fail closed, but never both.
3. **Complex spares** (Section 6.1, Figure 10): whole sub-trees acting as
   primary and spare units, with the generalised activation semantics.

Run with::

    python examples/nondeterminism_and_extensions.py
"""

from __future__ import annotations

from repro import Study, Unreliability, detect_nondeterminism
from repro.baselines import monolithic_unreliability
from repro.systems import (
    and_spare_system,
    mutually_exclusive_switch,
    nested_spare_system,
    pand_race_system,
)


def study_nondeterminism() -> None:
    print("1. FDEP trigger racing a PAND gate (Figure 6a)")
    print("----------------------------------------------")
    tree = pand_race_system()
    report = detect_nondeterminism(tree, time=1.0)
    print("  ", report.summary())
    deterministic = monolithic_unreliability(tree, 1.0)
    print(
        f"   A deterministic left-to-right resolution (as in classical tools) "
        f"gives {deterministic:.6f}, inside the reported interval."
    )
    print()


def study_mutual_exclusion() -> None:
    print("2. Mutually exclusive switch failure modes (Figure 12)")
    print("------------------------------------------------------")
    tree = mutually_exclusive_switch()
    value = Study(tree).evaluate(Unreliability([1.0]))["unreliability"].value
    print(f"   Unreliability(t=1) with mutual exclusion   : {value:.6f}")
    print()


def study_complex_spares() -> None:
    print("3. Complex spare modules (Figure 10)")
    print("------------------------------------")
    for tree in (and_spare_system(), nested_spare_system()):
        study = Study(tree)
        value = study.evaluate(Unreliability([1.0]))["unreliability"].value
        print(
            f"   {tree.name:<25} unreliability(t=1) = {value:.6f}  "
            f"({study.statistics.summary()})"
        )
    print()


def main() -> None:
    study_nondeterminism()
    study_mutual_exclusion()
    study_complex_spares()


if __name__ == "__main__":
    main()
