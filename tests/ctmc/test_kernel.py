"""Unit and regression tests of the shared-structure uniformisation kernel.

The kernel's contract has two halves:

* **numerics** — refilled matrices and label-probability curves must agree
  with the fully instantiated per-sample path (`CtmcSkeleton.instantiate`
  + :func:`repro.ctmc.transient.probability_of_label_curve`);
* **structure reuse** — after the first sample a sweep performs **zero**
  sparse-structure allocations: the CSR pattern is built exactly once and
  every further sample only rewrites ``data``.  Pinned here with constructor
  counters so the optimisation cannot silently regress.
"""

import numpy as np
import pytest

import repro.ctmc.builders as builders_module
import repro.ctmc.kernel as kernel_module
from repro import RateSweep, SweepStudy, Unreliability
from repro.core.sweep import with_rate_parameters
from repro.ctmc.builders import ctmc_skeleton_from_ioimc
from repro.ctmc.kernel import CsrBuffer, TransientKernel
from repro.ctmc.transient import probability_of_label_curve
from repro.dft import FaultTreeBuilder
from repro.errors import AnalysisError, ModelError
from repro.systems import cascaded_pand_system

TIMES = [0.25, 1.0, 3.0]


def parametric_tree():
    builder = FaultTreeBuilder("kernel-param")
    builder.parameter("lam", 0.5)
    builder.parameter("mu", 2.0)
    builder.basic_event("A", param="lam")
    builder.basic_event("B", failure_rate=1.5)
    builder.basic_event("S", param="mu", dormancy=0.3)
    builder.spare_gate("G", primary="A", spares=["S"])
    builder.and_gate("top", ["G", "B"])
    return builder.build(top="top")


def tree_skeleton(tree):
    study = SweepStudy(tree)
    return study.skeleton, dict(tree.parameters)


ASSIGNMENTS = [
    None,
    {"lam": 0.1, "mu": 0.7},
    {"lam": 2.5, "mu": 0.2},
    {"lam": 0.9, "mu": 4.0},
]


class TestCsrBuffer:
    @pytest.mark.parametrize("dense_limit", [kernel_module.DENSE_STATE_LIMIT, 0])
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_refill_matches_uniformized_matrix(self, assignment, dense_limit):
        skeleton, _ = tree_skeleton(parametric_tree())
        buffer = CsrBuffer(skeleton, dense_limit=dense_limit)
        matrix, rate = buffer.refill(assignment)
        reference, ref_rate = skeleton.instantiate(assignment).uniformized_matrix()
        assert rate == ref_rate
        assert np.allclose(matrix.toarray(), reference.toarray(), atol=1e-15)
        if dense_limit == 0:
            assert buffer.dense is None
            assert np.allclose(
                buffer.transposed.toarray().T, reference.toarray(), atol=1e-15
            )
        else:
            assert buffer.transposed is None
            assert np.allclose(buffer.dense, reference.toarray(), atol=1e-15)

    def test_refill_is_in_place(self):
        skeleton, _ = tree_skeleton(parametric_tree())
        buffer = CsrBuffer(skeleton)
        matrix_a, _ = buffer.refill({"lam": 0.3})
        data_id = id(matrix_a.data)
        matrix_b, _ = buffer.refill({"lam": 1.7})
        assert matrix_b is matrix_a
        assert id(matrix_b.data) == data_id
        assert buffer.structure_builds == 1
        assert buffer.refills == 2

    def test_non_positive_rate_raises_and_buffer_stays_usable(self):
        # A negative constant part can drive a linear form non-positive for
        # small parameter values — exactly what the positivity check guards.
        from repro.ioimc.rates import ParametricRate

        from repro.ctmc.builders import CtmcSkeleton

        bad = ParametricRate(-0.5, {"lam": 1.0}, {"lam": 1.0})
        skeleton = CtmcSkeleton(
            num_states=2,
            initial=0,
            labels=(frozenset(), frozenset({"failed"})),
            state_names=(None, None),
            edges=((0, 1, bad),),
        )
        buffer = CsrBuffer(skeleton)
        with pytest.raises(ModelError, match="non-positive"):
            buffer.refill({"lam": 0.2})
        matrix, rate = buffer.refill({"lam": 2.0})
        assert rate == pytest.approx(1.5)
        assert matrix.toarray()[0, 1] == pytest.approx(1.0)

    def test_buffer_rejects_foreign_skeleton(self):
        skeleton_a, _ = tree_skeleton(parametric_tree())
        skeleton_b, _ = tree_skeleton(parametric_tree())
        buffer = CsrBuffer(skeleton_a)
        with pytest.raises(ModelError, match="different skeleton"):
            TransientKernel(skeleton_b, buffer=buffer)


class TestDenseLimitResolution:
    """The dense/sparse crossover: an explicit argument, else the module default."""

    def test_explicit_argument_wins(self):
        assert kernel_module.resolve_dense_limit(4) == 4

    def test_module_default(self):
        assert kernel_module.resolve_dense_limit() == kernel_module.DENSE_STATE_LIMIT

    def test_negative_limit_rejected(self):
        with pytest.raises(AnalysisError):
            kernel_module.resolve_dense_limit(-1)

    def test_kernel_threads_dense_limit_through(self):
        skeleton, declared = tree_skeleton(parametric_tree())
        forced_sparse = TransientKernel(skeleton, dense_limit=0)
        default = TransientKernel(skeleton)
        forced_sparse.load(declared)
        default.load(declared)
        sparse_curve = forced_sparse.probability_of_label_curve("failed", TIMES)
        dense_curve = default.probability_of_label_curve("failed", TIMES)
        assert sparse_curve == pytest.approx(dense_curve, abs=1e-12)


class TestTransientKernel:
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_curve_matches_per_sample_instantiation(self, assignment):
        skeleton, declared = tree_skeleton(parametric_tree())
        kernel = TransientKernel(skeleton)
        full = dict(declared)
        full.update(assignment or {})
        kernel.load(full)
        curve = kernel.probability_of_label_curve("failed", TIMES)
        reference = probability_of_label_curve(
            skeleton.instantiate(full), "failed", TIMES
        )
        assert curve == pytest.approx(reference, abs=1e-12)

    def test_sparse_path_curve_matches_dense_path(self):
        events = {f"{m}{i}": "lam" for m in ("A", "C", "D") for i in range(1, 5)}
        tree = with_rate_parameters(cascaded_pand_system(), events)
        skeleton, declared = tree_skeleton(tree)
        dense_kernel = TransientKernel(skeleton)
        sparse_kernel = TransientKernel(skeleton)
        sparse_kernel.buffer = CsrBuffer(skeleton, dense_limit=0)
        assignment = dict(declared)
        assignment["lam"] = 0.8
        dense_kernel.load(assignment)
        sparse_kernel.load(assignment)
        dense_curve = dense_kernel.probability_of_label_curve("failed", TIMES)
        sparse_curve = sparse_kernel.probability_of_label_curve("failed", TIMES)
        assert dense_curve == pytest.approx(sparse_curve, abs=1e-12)

    def test_curve_requires_a_loaded_sample(self):
        skeleton, _ = tree_skeleton(parametric_tree())
        kernel = TransientKernel(skeleton)
        with pytest.raises(AnalysisError, match="no sample loaded"):
            kernel.probability_of_label_curve("failed", TIMES)

    def test_unlabelled_goal_yields_zeros(self):
        skeleton, _ = tree_skeleton(parametric_tree())
        kernel = TransientKernel(skeleton)
        kernel.load()
        assert kernel.probability_of_label_curve("no-such-label", TIMES) == pytest.approx(
            np.zeros(len(TIMES))
        )


class _CountingSparse:
    """Stand-in for the `scipy.sparse` module that counts constructor calls."""

    def __init__(self, real):
        self._real = real
        self.csr_calls = 0

    def csr_matrix(self, *args, **kwargs):
        self.csr_calls += 1
        return self._real.csr_matrix(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _CountingCTMC:
    calls = 0

    def __init__(self, real):
        self._real = real

    def __call__(self, *args, **kwargs):
        type(self).calls += 1
        return self._real(*args, **kwargs)


class TestStructureReuseRegression:
    """The optimisation's pin: no CSR pattern rebuild after the first sample."""

    def test_sweep_builds_the_sparse_structure_exactly_once(self, monkeypatch):
        counting = _CountingSparse(kernel_module.sparse)
        monkeypatch.setattr(kernel_module, "sparse", counting)
        skeleton, declared = tree_skeleton(parametric_tree())
        kernel = TransientKernel(skeleton)
        built = counting.csr_calls
        assert built >= 1  # the one-off pattern build
        for index in range(10):
            assignment = dict(declared)
            assignment["lam"] = 0.2 + 0.3 * index
            kernel.load(assignment)
            kernel.probability_of_label_curve("failed", TIMES)
        assert counting.csr_calls == built, "a sample rebuilt the CSR pattern"
        assert kernel.structure_builds == 1
        assert kernel.refills == 10
        # The Poisson term cache must not accumulate entries across samples
        # (every sample's uniformisation rate produces fresh cache keys).
        assert len(kernel.term_cache._cache) <= len(TIMES)

    def test_transient_only_sweep_instantiates_no_ctmc(self, monkeypatch):
        counting = _CountingCTMC(builders_module.CTMC)
        _CountingCTMC.calls = 0
        monkeypatch.setattr(builders_module, "CTMC", counting)
        tree = parametric_tree()
        study = SweepStudy(tree)
        result = study.run(
            RateSweep.grid(Unreliability(TIMES), lam=[0.2, 0.5, 1.0, 2.0])
        )
        assert result.num_failed == 0
        assert _CountingCTMC.calls == 0, (
            "a purely transient sweep built a full CTMC per sample instead of "
            "reusing the kernel's shared structure"
        )


def cps_kernel_inputs():
    """The CPS sweep skeleton with one rate parameter, plus samples of it."""
    events = {f"{m}{i}": "lam" for m in ("A", "C", "D") for i in range(1, 5)}
    skeleton, declared = tree_skeleton(with_rate_parameters(cascaded_pand_system(), events))
    samples = [{**declared, "lam": lam} for lam in (0.05, 0.4, 1.1, 2.0, 0.7)]
    return skeleton, samples


class TestBatchedBuffer:
    """refill_blocks stacks samples as diagonal blocks of one operator."""

    @pytest.mark.parametrize("dense_limit", [kernel_module.DENSE_STATE_LIMIT, 0])
    def test_every_block_is_its_single_refill(self, dense_limit):
        skeleton, _ = tree_skeleton(parametric_tree())
        batch = [assignment for assignment in ASSIGNMENTS]
        stacked = CsrBuffer(skeleton, dense_limit=dense_limit)
        assert stacked.refill_blocks(batch) == [None] * len(batch)
        assert stacked.blocks == len(batch)
        nnz = len(stacked.matrix.data) // len(batch)
        single = CsrBuffer(skeleton, dense_limit=dense_limit)
        for block, assignment in enumerate(batch):
            matrix, rate = single.refill(assignment)
            assert stacked.block_rates[block] == rate
            assert np.array_equal(
                stacked.matrix.data[block * nnz : (block + 1) * nnz], matrix.data
            )
            if dense_limit:
                assert np.array_equal(stacked.dense[block], single.dense)
            else:
                assert np.array_equal(
                    stacked.transposed.data[block * nnz : (block + 1) * nnz],
                    single.transposed.data,
                )
        assert stacked.uniformisation_rate == max(stacked.block_rates)

    def test_failing_assignment_is_left_out_of_the_batch(self):
        from repro.ctmc.builders import CtmcSkeleton
        from repro.ioimc.rates import ParametricRate

        dipping = ParametricRate(-0.5, {"lam": 1.0}, {"lam": 1.0})
        skeleton = CtmcSkeleton(
            num_states=3,
            initial=0,
            labels=(frozenset(), frozenset(), frozenset({"failed"})),
            state_names=(None, None, None),
            edges=((0, 1, dipping), (1, 2, 2.0)),
        )
        buffer = CsrBuffer(skeleton)
        errors = buffer.refill_blocks([{"lam": 2.0}, {"lam": 0.2}, {"lam": 3.0}])
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ModelError) and "non-positive" in str(errors[1])
        assert buffer.blocks == 2
        assert list(buffer.block_rates) == [2.0, 2.5]

    def test_pickled_buffer_reloads_its_pattern(self):
        import pickle

        skeleton, samples = cps_kernel_inputs()
        buffer = CsrBuffer(skeleton)
        buffer.refill_blocks(samples)
        restored = pickle.loads(pickle.dumps(buffer))
        assert restored.structure_builds == 1
        assert restored.blocks == 0
        kernel = TransientKernel(restored.skeleton, buffer=restored)
        fresh = TransientKernel(restored.skeleton)
        for sample in samples:
            kernel.load(sample)
            fresh.load(sample)
            assert np.array_equal(
                kernel.probability_of_label_curve("failed", TIMES),
                fresh.probability_of_label_curve("failed", TIMES),
            )


class TestBatchedTransientKernel:
    @pytest.mark.parametrize("dense_limit", [kernel_module.DENSE_STATE_LIMIT, 0])
    def test_batched_curves_equal_per_sample_series_bitwise(self, dense_limit):
        from tests.kernel_reference import per_sample_label_curve

        skeleton, samples = cps_kernel_inputs()
        kernel = TransientKernel(skeleton, dense_limit=dense_limit)
        kernel.load_many(samples)
        curves = kernel.probability_of_label_curve("failed", TIMES)
        assert curves.shape == (len(samples), len(TIMES))
        alone = TransientKernel(skeleton, dense_limit=dense_limit)
        for sample, curve in zip(samples, curves):
            assert np.array_equal(
                curve, per_sample_label_curve(alone, sample, "failed", TIMES)
            )

    def test_batches_span_several_history_chunks(self, monkeypatch):
        from tests.kernel_reference import per_sample_label_curve

        monkeypatch.setattr(kernel_module, "HISTORY_BYTES", 1)
        skeleton, samples = cps_kernel_inputs()
        kernel = TransientKernel(skeleton)
        kernel.load_many(samples)
        curves = kernel.probability_of_label_curve("failed", TIMES)
        alone = TransientKernel(skeleton)
        for sample, curve in zip(samples, curves):
            assert np.array_equal(
                curve, per_sample_label_curve(alone, sample, "failed", TIMES)
            )

    def test_curve_shape_follows_the_load(self):
        skeleton, samples = cps_kernel_inputs()
        kernel = TransientKernel(skeleton)
        kernel.load(samples[0])
        assert kernel.probability_of_label_curve("failed", TIMES).shape == (len(TIMES),)
        kernel.load_many(samples[:1])
        assert kernel.probability_of_label_curve("failed", TIMES).shape == (1, len(TIMES))

    def test_wide_goal_sets_sum_like_a_lone_vector(self):
        # Goal sets wider than eight states are summed pairwise; each block's
        # sums must still equal the ones a lone vector gets.
        from repro.ctmc.builders import CtmcSkeleton
        from repro.ioimc.rates import ParametricRate
        from tests.kernel_reference import per_sample_label_curve

        rng = np.random.default_rng(7)
        num_states = 60
        edges = tuple(
            (int(source), int(target), ParametricRate(0.0, {"lam": factor}, {"lam": 1.0}))
            for source, target, factor in zip(
                rng.integers(0, num_states, 400),
                rng.integers(0, num_states, 400),
                rng.uniform(0.1, 2.0, 400),
            )
            if source != target
        )
        skeleton = CtmcSkeleton(
            num_states=num_states,
            initial=0,
            labels=tuple(
                frozenset({"failed"}) if state % 2 else frozenset()
                for state in range(num_states)
            ),
            state_names=(None,) * num_states,
            edges=edges,
        )
        samples = [{"lam": lam} for lam in (0.3, 0.9, 1.7, 2.6)]
        kernel = TransientKernel(skeleton)
        kernel.load_many(samples)
        curves = kernel.probability_of_label_curve("failed", TIMES)
        alone = TransientKernel(skeleton)
        for sample, curve in zip(samples, curves):
            assert np.array_equal(
                curve, per_sample_label_curve(alone, sample, "failed", TIMES)
            )
