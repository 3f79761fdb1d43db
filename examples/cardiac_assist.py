"""The cardiac assist system (paper Section 5.1, Figure 7).

Reproduces the CAS case study end to end:

* compositional I/O-IMC analysis (unreliability at mission time 1 = 0.6579),
* the DIFTree-style modular baseline for comparison (same number, and the
  per-module Markov-chain sizes: the pump unit is the biggest with 8 states),
* an unreliability curve over mission times.

Run with::

    python examples/cardiac_assist.py
"""

from __future__ import annotations

from repro import Study, Unreliability
from repro.baselines import DiftreeAnalyzer
from repro.systems import CAS_PAPER_UNRELIABILITY, cardiac_assist_system


def main() -> None:
    tree = cardiac_assist_system()
    print("Fault tree:", tree.summary())
    print()

    study = Study(tree)
    unreliability = study.evaluate(Unreliability([1.0]))["unreliability"].value
    print("Compositional I/O-IMC analysis")
    print("------------------------------")
    print("Community   :", study.community.summary())
    print("Aggregation :", study.statistics.summary())
    print(f"Unreliability(t=1) = {unreliability:.6f}   (paper: {CAS_PAPER_UNRELIABILITY})")
    print()

    print("DIFTree baseline (modular: BDD for static, Markov chain per dynamic module)")
    print("---------------------------------------------------------------------------")
    diftree = DiftreeAnalyzer(tree).analyze(1.0)
    for module in diftree.modules:
        print("  ", module.summary())
    print(diftree.summary())
    print()

    print("Unreliability curve")
    print("-------------------")
    times = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    values = study.evaluate(Unreliability(times))["unreliability"].values
    for time, value in zip(times, values):
        bar = "#" * int(round(value * 50))
        print(f"  t={time:>5}: {value:.6f} {bar}")


if __name__ == "__main__":
    main()
