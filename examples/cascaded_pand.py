"""The cascaded PAND system (paper Section 5.2, Figures 8-9).

This example reproduces the paper's modular-analysis argument:

* the compositional pipeline keeps every intermediate I/O-IMC tiny because the
  three AND modules are aggregated before they meet the PAND gates,
* the DIFTree-style monolithic conversion of the very same tree produces a
  Markov chain with 4113 states and 24608 transitions,
* both agree that the system unreliability at mission time 1 is 0.00135.

Run with::

    python examples/cascaded_pand.py
"""

from __future__ import annotations

from repro import Study, Unreliability
from repro.baselines import MonolithicMarkovGenerator
from repro.ctmc.transient import probability_reach_label
from repro.systems import (
    CPS_PAPER_UNRELIABILITY,
    PAPER_DIFTREE_STATES,
    PAPER_DIFTREE_TRANSITIONS,
    cascaded_pand_system,
)


def main() -> None:
    tree = cascaded_pand_system()
    print("Fault tree:", tree.summary())
    print()

    print("Compositional aggregation (per composition step)")
    print("-------------------------------------------------")
    study = Study(tree)
    value = study.evaluate(Unreliability([1.0]))["unreliability"].value
    for step in study.statistics.steps:
        print(
            f"  {step.left:<55} + {step.right:<20} "
            f"product {step.product_states:>4} states -> aggregated {step.reduced_states:>3}"
        )
    print()
    print("Peak intermediate:", study.statistics.peak_product_states, "states /",
          study.statistics.peak_product_transitions, "transitions")
    print(f"Unreliability(t=1) = {value:.6f}   (paper: {CPS_PAPER_UNRELIABILITY})")
    print()

    print("DIFTree monolithic conversion of the same tree")
    print("-----------------------------------------------")
    monolithic = MonolithicMarkovGenerator(tree).build()
    mono_value = probability_reach_label(monolithic.ctmc, "failed", 1.0)
    print(f"  {monolithic.summary()}")
    print(f"  (paper: {PAPER_DIFTREE_STATES} states / {PAPER_DIFTREE_TRANSITIONS} transitions)")
    print(f"  Unreliability(t=1) = {mono_value:.6f}")
    print()

    factor_states = monolithic.num_states / study.statistics.peak_product_states
    print(
        f"State-space reduction of the compositional approach: "
        f"{factor_states:.1f}x fewer states at the peak"
    )


if __name__ == "__main__":
    main()
