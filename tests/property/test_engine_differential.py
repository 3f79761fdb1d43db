"""Engine differential cells: the default refinement vs the signature oracle.

The default engine must be *bit-identical* to the seed signature engine,
not merely equivalent: every cell below asserts the two produce
byte-for-byte the same quotient dot rendering (the partitions are
canonicalised by smallest member, so identical partitions force identical
quotients) and measures that agree to ``1e-12``.

The corpus crosses the paper systems (figure 2 at the I/O-IMC level, the
cardiac assist system, the cascaded PAND system, the mutex switch) with
seeded random models whose tau back-edges create the internal cycles the
pre-pass merges.

A tracemalloc cell pins deep tau-chains: the pre-pass collapses them before
any closure is built, so peak memory stays linear in the chain length.  A
tau chain with an input move at every level does not collapse; its cell
pins the quotient against the signature engine at 300 levels.
"""

import random
import tracemalloc

import pytest

from repro.core import Study
from repro.core.measures import Unreliability
from repro.core.study import StudyOptions
from repro.ioimc import (
    AggregationOptions,
    IOIMC,
    minimize_weak,
    parallel,
    signature,
)
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    figure2_models,
    mutually_exclusive_switch,
)
from tests.partition_reference import without_labels

ENGINES = ("closure", "signature")
MISSION_TIMES = (0.5, 1.0)
TOLERANCE = 1e-12

PAPER_SYSTEMS = {
    "cas": cardiac_assist_system,
    "cps": cascaded_pand_system,
    "mutex": mutually_exclusive_switch,
}


def random_tau_cycle_model(seed: int, num_states: int = 14) -> IOIMC:
    """A seeded model whose random tau back-edges form internal cycles."""
    rng = random.Random(seed)
    model = IOIMC(
        f"tau-cycle-{seed}", signature(outputs=("out",), internals=("tau",))
    )
    for _ in range(num_states):
        model.add_state()
    for state in range(num_states - 1):  # backbone: everything reachable
        model.add_interactive(state, "tau", state + 1)
    for _ in range(num_states):  # back-edges close tau cycles
        source, target = rng.randrange(num_states), rng.randrange(num_states)
        if source != target:
            model.add_interactive(source, "tau", target)
    for _ in range(num_states // 2):
        model.add_interactive(
            rng.randrange(num_states), "out", rng.randrange(num_states)
        )
        model.add_markovian(
            rng.randrange(num_states),
            rng.choice([0.5, 1.0, 2.0]),
            rng.randrange(num_states),
        )
    for state in rng.sample(range(num_states), 3):
        model.set_labels(state, {"failed"})
    model.set_initial(0)
    return model


class TestQuotientIdentity:
    """Identical quotient dots across both engines, per corpus cell."""

    def test_figure2_cell(self):
        composed = parallel(*figure2_models(rate=1.5)).hide(["a"])
        dots = {
            engine: minimize_weak(composed, algorithm=engine).to_dot()
            for engine in ENGINES
        }
        assert dots["closure"] == dots["signature"]

    @pytest.mark.parametrize("system", sorted(PAPER_SYSTEMS))
    def test_paper_system_cell(self, system):
        tree = PAPER_SYSTEMS[system]()
        dots = {}
        measures = {}
        for engine in ENGINES:
            study = Study(
                tree, StudyOptions(aggregation=AggregationOptions(minimiser=engine))
            )
            dots[engine] = study.final_ioimc.to_dot()
            measures[engine] = study.evaluate(
                Unreliability(MISSION_TIMES)
            ).measures[0].values
        assert dots["closure"] == dots["signature"]
        assert measures["closure"] == pytest.approx(measures["signature"], abs=TOLERANCE)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tau_cycle_cell(self, seed):
        model = random_tau_cycle_model(seed)
        dots = {
            engine: minimize_weak(model, algorithm=engine).to_dot()
            for engine in ENGINES
        }
        assert dots["closure"] == dots["signature"]

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_label_handling_cell(self, seed, labelled):
        model = random_tau_cycle_model(seed)
        if not labelled:
            model = without_labels(model)
        dots = {engine: minimize_weak(model, algorithm=engine).to_dot() for engine in ENGINES}
        assert dots["closure"] == dots["signature"]


def _tau_chain(num_states: int) -> IOIMC:
    model = IOIMC("deep-tau-chain", signature(internals=("tick",)))
    for _ in range(num_states):
        model.add_state()
    for state in range(num_states - 1):
        model.add_interactive(state, "tick", state + 1)
    model.set_labels(num_states - 1, {"failed"})
    model.set_initial(0)
    return model


def _input_tau_chain(levels: int) -> IOIMC:
    """A tau chain with an input move into the next level at every level:
    no state's only move is one tau, so the pre-pass merges nothing and
    the tau-closures are quadratic in the depth."""
    model = IOIMC("input-tau-chain", signature(inputs=("go",), internals=("tick",)))
    for _ in range(levels):
        model.add_state()
    for state in range(levels - 1):
        model.add_interactive(state, "tick", state + 1)
        model.add_interactive(state, "go", state + 1)
    model.set_labels(levels - 1, {"failed"})
    model.set_initial(0)
    return model


class TestClosureMemoryOnTauChains:
    """Deep tau-chains stay linear: the pre-pass collapses them first."""

    def test_peak_memory_linear_not_quadratic(self):
        # Quadratic closure memory would quadruple from n to 2n; the chain
        # collapses in the pre-pass, before any closure is built.
        peaks = {}
        for num_states in (3000, 6000):
            model = _tau_chain(num_states)
            tracemalloc.start()
            quotient = minimize_weak(model, algorithm="closure")
            _current, peaks[num_states] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            # {pre-failure states, failed}: the quotient itself is tiny.
            assert quotient.num_states == 2
        assert peaks[6000] <= 2.0 * peaks[3000]

    def test_an_input_at_every_level_matches_signature(self):
        model = _input_tau_chain(300)
        quotient = minimize_weak(model)
        assert quotient.to_dot() == minimize_weak(model, algorithm="signature").to_dot()
        assert quotient.num_states == 2
