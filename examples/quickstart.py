"""Quickstart: build a small dynamic fault tree and analyse it.

The system: two pumps run in parallel and share a single cold spare pump; the
system fails once all pumping capability is gone.  This is the shared-spare
pattern of the paper's pump unit (Figure 7, right branch).

Analysis goes through the declarative query API: bundle every measure you
want into one :class:`~repro.core.measures.Query`, evaluate it once, and read
values (plus provenance and timings) off the structured result.  All mission
times share a single vectorised uniformisation sweep.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import MTTF, Study, Unreliability
from repro.dft import FaultTreeBuilder, galileo


def build_tree():
    builder = FaultTreeBuilder("two-pumps-with-shared-spare")
    builder.basic_event("PA", failure_rate=1.0)
    builder.basic_event("PB", failure_rate=1.0)
    builder.basic_event("PS", failure_rate=1.0, dormancy=0.0)  # cold spare
    builder.spare_gate("PumpA", primary="PA", spares=["PS"])
    builder.spare_gate("PumpB", primary="PB", spares=["PS"])
    builder.and_gate("System", ["PumpA", "PumpB"])
    return builder.build(top="System")


def main() -> None:
    tree = build_tree()
    print("Fault tree:", tree.summary())
    print()
    print("Galileo representation:")
    print(galileo.write(tree))

    # One query = one conversion, one aggregation, one transient sweep.
    query = Unreliability([0.5, 1.0, 2.0, 5.0]) + MTTF()
    study = Study(tree)
    result = study.evaluate(query)

    print("I/O-IMC community:", study.community.summary())
    print("Aggregation      :", study.statistics.summary())
    print()

    unreliability = result["unreliability"]
    for time, value in zip(unreliability.times, unreliability.values):
        print(f"Unreliability at t={time:>4}: {value:.6f}")
    print(f"Mean time to failure  : {result['mttf'].value:.6f}")
    print()
    print("Structured result (what `repro analyze --json` prints)")
    print("-------------------------------------------------------")
    print(result.to_json(indent=2, include_steps=False))


if __name__ == "__main__":
    main()
