"""Three-engine differential cells: closure vs splitter vs signature.

The closure-then-strong weak engine must be *bit-identical* to the
two older engines, not merely equivalent: every cell below asserts the
engines produce byte-for-byte the same quotient dot rendering (the
partitions are canonicalised by smallest member, so identical partitions
force identical quotients) and measures that agree to ``1e-12``.

Below ``SMALL_WEAK_STATES`` states ``algorithm="closure"`` runs the
plain-Python path, which covers every model here; the model-level cells
therefore also compare the array closure engine, called directly.

The corpus crosses the paper systems (figure 2 at the I/O-IMC level, the
cardiac assist system, the cascaded PAND system, the mutex switch) with
seeded random models whose tau back-edges create the internal cycles the
condensation machinery exists for.

A tracemalloc cell pins the closure engine's failure mode: saturating a
deep tau-chain is inherently quadratic, so the engine must detect the blow
up (saturation cap), fall back to the splitter engine and keep its peak
memory linear in the chain length.
"""

import logging
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
from repro.ioimc import bisimulation
from repro.ioimc.bisimulation import (
    DEFAULT_RATE_DIGITS,
    SATURATION_FLOOR,
    _weak_engine,
    _WeakClosureEngine,
    _WeakSplitterEngine,
)
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    figure2_models,
    mutually_exclusive_switch,
)

ENGINES = ("closure", "splitter", "signature")
MISSION_TIMES = (0.5, 1.0)
TOLERANCE = 1e-12

PAPER_SYSTEMS = {
    "cas": cardiac_assist_system,
    "cps": cascaded_pand_system,
    "mutex": mutually_exclusive_switch,
}


def array_closure_dot(model: IOIMC, respect_labels: bool = True) -> str:
    """The array closure engine's minimised ``model``, as a dot rendering."""
    engine = _WeakClosureEngine(model, respect_labels, DEFAULT_RATE_DIGITS)
    return engine.quotient()._reachable_part().to_dot()


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
    """Identical quotient dots across all three engines, per corpus cell."""

    def test_figure2_cell(self):
        composed = parallel(*figure2_models(rate=1.5)).hide(["a"])
        dots = {
            engine: minimize_weak(composed, algorithm=engine).to_dot()
            for engine in ENGINES
        }
        assert dots["closure"] == dots["splitter"] == dots["signature"]
        assert array_closure_dot(composed) == dots["closure"]

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
        assert dots["closure"] == dots["splitter"] == dots["signature"]
        for engine in ("closure", "splitter"):
            assert measures[engine] == pytest.approx(
                measures["signature"], abs=TOLERANCE
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tau_cycle_cell(self, seed):
        model = random_tau_cycle_model(seed)
        dots = {
            engine: minimize_weak(model, algorithm=engine).to_dot()
            for engine in ENGINES
        }
        assert dots["closure"] == dots["splitter"] == dots["signature"]
        assert array_closure_dot(model) == dots["closure"]

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("respect_labels", [True, False])
    def test_label_handling_cell(self, seed, respect_labels):
        model = random_tau_cycle_model(seed)
        dots = {
            engine: minimize_weak(
                model, respect_labels=respect_labels, algorithm=engine
            ).to_dot()
            for engine in ENGINES
        }
        assert dots["closure"] == dots["splitter"] == dots["signature"]
        assert array_closure_dot(model, respect_labels) == dots["closure"]

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_halved_frontier_cell(self, seed, monkeypatch):
        # A packed-key bound below the unit count makes every batched round
        # of the closure engine halve its frontier down to single splitters.
        model = random_tau_cycle_model(seed)
        expected = minimize_weak(model, algorithm="signature").to_dot()
        monkeypatch.setattr(_WeakClosureEngine, "_KEY_LIMIT", 8)
        # A zero cut-off sends the model to the array engine.
        monkeypatch.setattr(bisimulation, "SMALL_WEAK_STATES", 0)
        assert minimize_weak(model, algorithm="closure").to_dot() == expected


def _tau_chain(num_states: int) -> IOIMC:
    model = IOIMC("deep-tau-chain", signature(internals=("tick",)))
    for _ in range(num_states):
        model.add_state()
    for state in range(num_states - 1):
        model.add_interactive(state, "tick", state + 1)
    model.set_labels(num_states - 1, {"failed"})
    model.set_initial(0)
    return model


class TestClosureMemoryOnTauChains:
    """The saturation cap keeps the closure path linear on deep tau-chains."""

    def test_deep_chain_falls_back_to_splitter(self, caplog):
        # A 3000-state tau-chain has ~n^2/2 closure entries — over the cap.
        with caplog.at_level(logging.INFO, logger="repro.ioimc.bisimulation"):
            engine = _weak_engine(_tau_chain(3000), True, DEFAULT_RATE_DIGITS, "closure")
        assert isinstance(engine, _WeakSplitterEngine)
        # The fallback is logged once, naming the SCC count and the cap.
        (record,) = [r for r in caplog.records if r.name == "repro.ioimc.bisimulation"]
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert "3000 tau-SCCs" in message
        assert f"cap of {SATURATION_FLOOR} entries" in message

    def test_peak_memory_linear_not_quadratic(self):
        # Quadratic closure-matrix memory would quadruple from n to 2n; the
        # cap-bounded build plus the splitter fallback must stay flat-ish.
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
