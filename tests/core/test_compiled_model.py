"""CompiledModel: one skeleton, kernels built once, every evaluation path.

The regression pins count :class:`~repro.ctmc.kernel.CsrBuffer`
constructions (each kernel owns exactly one CSR pattern), so a path that
rebuilds a kernel per evaluation fails here rather than only in a profile.
"""

import pytest

from repro.core.conversion import DftToIoimcConverter
from repro.core.measures import (
    MTTF,
    ImportanceRanking,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
)
from repro.core.study import CompiledModel, Study, evaluate_query_on_model
from repro.core.sweep import with_rate_parameters
from repro.ctmc import CTMC
from repro.ctmc.builders import ctmc_skeleton_from_ioimc, ctmdp_skeleton_from_ioimc
from repro.ctmc.kernel import CsrBuffer, CtmdpKernel, TransientKernel
from repro.dft import galileo
from repro.errors import AnalysisError
from repro.service.app import AnalysisService
from repro.service.store import SkeletonStore
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    pand_race_bank,
    pand_race_system,
    repairable_and_system,
)

TIMES = (0.5, 1.0)

AND_TREE = """
toplevel "sys";
"sys" and "a" "b";
"a" lambda=0.5;
"b" lambda=0.7;
"""


@pytest.fixture
def csr_builds(monkeypatch):
    """The CsrBuffer instances constructed while the test runs."""
    built = []
    original = CsrBuffer.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CsrBuffer, "__init__", counting)
    return built


def _ctmc_skeleton():
    return ctmc_skeleton_from_ioimc(Study(cascaded_pand_system()).final_ioimc)


def _ctmdp_skeleton():
    tree = with_rate_parameters(pand_race_system())
    return ctmdp_skeleton_from_ioimc(Study(tree).final_ioimc), tree


class TestKernels:
    def test_ctmc_kernel_reuses_the_given_buffer(self):
        skeleton = _ctmc_skeleton()
        buffer = CsrBuffer(skeleton)
        model = CompiledModel(skeleton, buffer=buffer)
        assert isinstance(model.kernel, TransientKernel)
        assert model.kernel.buffer is buffer
        assert not model.nondeterministic

    def test_ctmc_gradient_kernel_is_the_choice_free_envelope(self):
        model = CompiledModel(_ctmc_skeleton())
        envelope = model.gradient_kernel
        assert isinstance(envelope, CtmdpKernel)
        assert envelope is model.gradient_kernel
        assert not any(envelope.skeleton.choices)

    def test_ctmdp_gradient_kernel_is_the_kernel(self):
        skeleton, _tree = _ctmdp_skeleton()
        model = CompiledModel(skeleton)
        assert model.nondeterministic
        assert isinstance(model.kernel, CtmdpKernel)
        assert model.gradient_kernel is model.kernel

    def test_kernels_are_built_lazily_and_once(self, csr_builds):
        model = CompiledModel(_ctmc_skeleton())
        assert csr_builds == []
        for _ in range(3):
            model.evaluate(Unreliability(TIMES))
        assert len(csr_builds) == 1


class TestEvaluation:
    def test_matches_the_uncached_study(self):
        tree = galileo.parse(AND_TREE)
        query = Unreliability(TIMES) + MTTF()
        skeleton = ctmc_skeleton_from_ioimc(Study(tree).final_ioimc)
        evaluation = CompiledModel(skeleton).evaluate(query)
        reference = Study(tree).evaluate(query)
        for mine, theirs in zip(evaluation.measures, reference.measures):
            assert mine.kind == theirs.kind
            assert mine.values == pytest.approx(theirs.values, rel=1e-9)

    def test_time_split_and_row_gradients(self):
        skeleton, tree = _ctmdp_skeleton()
        evaluation = CompiledModel(skeleton).evaluate(
            UnreliabilityBounds(TIMES), tree.parameters, gradients=True
        )
        assert evaluation.load_seconds >= 0.0
        assert evaluation.solve_seconds >= 0.0
        assert set(evaluation.gradients) == set(tree.parameters)
        assert all(len(curve) == len(TIMES) for curve in evaluation.gradients.values())

    def test_no_row_gradients_unless_asked(self):
        evaluation = CompiledModel(_ctmc_skeleton()).evaluate(Unreliability(TIMES))
        assert evaluation.gradients is None

    def test_record_mode_keeps_the_other_measures(self):
        skeleton, _tree = _ctmdp_skeleton()
        bounds, mttf = CompiledModel(skeleton).evaluate(
            UnreliabilityBounds(TIMES) + MTTF(), on_error="record"
        ).measures
        assert bounds.ok
        assert not mttf.ok and "non-deterministic" in mttf.error


class TestKernelReuseRegressions:
    def test_served_ctmdp_requests_build_one_kernel(self, tmp_path, csr_builds):
        """Every CTMDP ``/analyze`` used to rebuild the CSR pattern and the
        vanishing resolver; the service now keeps the compiled model."""
        store = SkeletonStore(tmp_path / "cache")
        service = AnalysisService(store)
        text = galileo.write(pand_race_bank(3))
        request = {"tree": text, "query": {"times": list(TIMES)}}
        try:
            _, first = service.handle("POST", "/analyze", request)
            _, second = service.handle("POST", "/analyze", request)
        finally:
            service.close()
        assert (first["service"]["cache"], second["service"]["cache"]) == ("miss", "hit")
        assert len(csr_builds) == 1
        local = Study(galileo.parse(text), skeleton_cache=store).evaluate(
            UnreliabilityBounds(TIMES), on_error="record"
        )
        expected = [measure.to_dict() for measure in local.measures]
        assert first["measures"] == second["measures"] == expected

    def test_study_builds_the_envelope_kernel_once(self, csr_builds):
        """A Study ranking a CTMC used to rebuild the envelope CtmdpKernel on
        every evaluate."""
        tree = with_rate_parameters(cascaded_pand_system(), ["A1", "C1", "D1"])
        study = Study(tree)
        query = Unreliability(TIMES) + ImportanceRanking(TIMES)
        first = study.evaluate(query)
        built = len(csr_builds)
        second = study.evaluate(query)
        assert len(csr_builds) == built
        assert first.measures == second.measures
        assert set(first["importance_ranking"].ranking) == {"A1", "C1", "D1"}

    def test_uncached_study_reuses_one_kernel(self, monkeypatch, csr_builds):
        """A cache-less Study evaluates through its compiled model: repeated
        queries neither rebuild the CSR pattern nor build a concrete CTMC's
        uniformised matrix."""
        uniformized = []
        original = CTMC.uniformized_matrix

        def counting(self, *args, **kwargs):
            uniformized.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CTMC, "uniformized_matrix", counting)
        study = Study(cascaded_pand_system())
        first = study.evaluate(Unreliability(TIMES))
        second = study.evaluate(Unreliability(TIMES))
        assert len(csr_builds) == 1
        assert uniformized == []
        assert first.measures == second.measures


def _cas_with_three_parameters():
    return with_rate_parameters(cardiac_assist_system(), ["CS", "SS", "P"])


class TestStudyPaths:
    """Cache-less and cached Studies both evaluate through CompiledModel."""

    @pytest.mark.parametrize(
        "tree, query",
        [
            (
                cardiac_assist_system(),
                Unreliability(TIMES) + UnreliabilityBounds(TIMES) + MTTF(),
            ),
            (cascaded_pand_system(), Unreliability(TIMES) + UnreliabilityBounds(TIMES)),
            (pand_race_bank(4), UnreliabilityBounds(TIMES)),
            (
                repairable_and_system(),
                MTTF() + Unavailability() + Unavailability(TIMES[-1]),
            ),
        ],
        ids=["cas", "cps", "race-bank-4", "repairable"],
    )
    def test_matches_the_concrete_model_reference(self, tree, query):
        study = Study(tree)
        result = study.evaluate(query)
        reference = evaluate_query_on_model(study.markov_model, query)
        assert len(result.measures) == len(reference)
        for mine, theirs in zip(result.measures, reference):
            assert mine.kind == theirs.kind
            for field in ("values", "lower", "upper"):
                ours, expected = getattr(mine, field), getattr(theirs, field)
                if expected is None:
                    assert ours is None
                else:
                    assert ours == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_cached_study_refuses_importance_rankings(self, tmp_path):
        """The store's skeleton is parametrised per basic event: a cached
        ranking used to name canonical parameters instead of CS, SS and P."""
        tree = _cas_with_three_parameters()
        query = Unreliability(TIMES) + ImportanceRanking(TIMES)
        study = Study(tree, skeleton_cache=SkeletonStore(tmp_path / "cache"))
        with pytest.raises(AnalysisError, match="without a skeleton cache"):
            study.evaluate(query)
        unreliability, ranking = study.evaluate(query, on_error="record").measures
        assert not ranking.ok and "without a skeleton cache" in ranking.error
        assert unreliability.ok
        plain = Study(tree).evaluate(query)
        assert unreliability.values == pytest.approx(
            plain["unreliability"].values, abs=1e-12
        )
        assert set(plain["importance_ranking"].ranking) == {"CS", "SS", "P"}

    def test_cached_markov_model_skips_the_pipeline(self, tmp_path, monkeypatch):
        store = SkeletonStore(tmp_path / "cache")
        tree = cardiac_assist_system()
        Study(tree, skeleton_cache=store).evaluate(Unreliability(TIMES))

        def refuse(self):
            raise AssertionError("a warm store must not convert the tree again")

        monkeypatch.setattr(DftToIoimcConverter, "convert", refuse)
        model = Study(tree, skeleton_cache=store).markov_model
        monkeypatch.undo()
        (cached,) = evaluate_query_on_model(model, Unreliability(TIMES))
        plain = Study(tree).evaluate(Unreliability(TIMES))
        assert cached.values == pytest.approx(plain["unreliability"].values, abs=1e-12)
