"""Repairable systems and unavailability (paper Section 7.2, Figures 13-15).

The repairable extension only changes the elementary I/O-IMC models; the
composition, aggregation and analysis machinery stays the same.  This example

* reproduces the paper's repairable AND over two repairable basic events and
  compares the steady-state unavailability against the closed form
  ``(lambda / (lambda + mu))^2``,
* analyses a slightly larger repairable plant (two production lines with pumps
  and a power feed) for both transient and long-run unavailability.

Run with::

    python examples/repairable_availability.py
"""

from __future__ import annotations

from repro import Query, Study, Unavailability
from repro.systems import repairable_and_system, repairable_plant


def unavailabilities(study, times):
    """Steady-state, then per-time unavailability, from one query."""
    query = Query([Unavailability()] + [Unavailability(time) for time in times])
    return study.evaluate(query).measures


def main() -> None:
    failure_rate, repair_rate = 1.0, 2.0
    tree = repairable_and_system(failure_rate=failure_rate, repair_rate=repair_rate)
    print("Repairable AND (Figure 15)")
    print("--------------------------")
    study = Study(tree)
    print("Final aggregated model:", study.final_ioimc.summary())
    steady, *transient = unavailabilities(study, (0.25, 0.5, 1.0, 2.0, 5.0))
    closed_form = (failure_rate / (failure_rate + repair_rate)) ** 2
    print(f"Steady-state unavailability = {steady.value:.6f} (closed form {closed_form:.6f})")
    for measure in transient:
        print(f"  unavailability at t={measure.times[0]:>4}: {measure.value:.6f}")
    print()

    print("Repairable production plant")
    print("---------------------------")
    plant = repairable_plant()
    print("Fault tree:", plant.summary())
    plant_study = Study(plant)
    print("Aggregation:", plant_study.statistics.summary())
    steady, *transient = unavailabilities(plant_study, (1.0, 5.0, 20.0))
    print(f"Steady-state unavailability = {steady.value:.6f}")
    for measure in transient:
        print(f"  unavailability at t={measure.times[0]:>4}: {measure.value:.6f}")


if __name__ == "__main__":
    main()
