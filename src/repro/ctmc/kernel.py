"""Shared-structure uniformisation kernel for repeated rate instantiations.

A rate sweep instantiates the same :class:`~repro.ctmc.builders.CtmcSkeleton`
hundreds of times with different parameter assignments.  The skeleton's
*structure* — which states exist, which transitions connect them, where the
``failed`` label sits — never changes between samples; only the transition
rates do.  Building a fresh :class:`~repro.ctmc.ctmc.CTMC` and a fresh scipy
CSR matrix per sample therefore re-pays, on every sample, sparse setup work
whose result is bit-for-bit identical in everything except the ``data`` array.

This module eliminates that rebuild, and steps many samples at once:

* :class:`CsrBuffer` precomputes the CSR *pattern* (``indptr``/``indices``)
  of the uniformised matrix ``P = I + Q/Lambda`` once, together with a
  vectorised linear-form representation of every edge rate
  (``rate_e = const_e + sum_p coeff_ep * param_p``).  A refill loads a
  *batch* of assignments as diagonal blocks of one stacked operator: the
  pattern is tiled once per batch size, and one vectorised scatter writes
  every block's ``data`` in place — zero sparse-structure allocations per
  sample.  Small chains step a preallocated ``(blocks, n, n)`` dense stack
  with one batched ``np.matmul`` (sparse dispatch overhead dwarfs the
  arithmetic there); larger ones a block-diagonal CSR of ``P^T`` whose data
  is refreshed by a precomputed permutation (``x @ P`` through scipy would
  otherwise construct a fresh transposed matrix on *every* step).  The
  stacked operator is capped at :data:`BATCH_OPERATOR_BYTES`.
* :class:`TransientKernel` (forward label-probability curves) and
  :class:`CtmdpKernel` (backward bound curves, plus the per-sample gradient
  sweep) own one buffer plus the Poisson term cache and the workspaces.
  Every block keeps its own uniformisation rate, Poisson terms and
  truncation depth; the series runs to the deepest block and each block's
  weights are applied to its own prefix of the recorded series.  A block's
  stacked matvec slice, its row sums and its per-time dot products are the
  same floating-point operations a batch of one performs, so a sample's
  curve is bit-identical whatever batch it shares.

The rate-sweep engine (:mod:`repro.core.sweep`) drives one kernel per worker
process through :meth:`repro.core.study.CompiledModel.evaluate_many`; after
the first batch every further one costs only the refill and the stacked
uniformisation series itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from ..errors import AnalysisError, ModelError
from ..ioimc.rates import ParametricRate
from .builders import CtmcSkeleton, CtmdpSkeleton
from .ctmdp import VanishingResolver
from .transient import PoissonTermCache, validate_times

#: Below this state count the kernel steps with a preallocated dense matrix:
#: a CSR matvec costs ~10-20us of scipy dispatch regardless of size, which
#: dominates the arithmetic of aggregated DFT models (tens of states).
#: Overridable per buffer (``dense_limit=``).
DENSE_STATE_LIMIT = 256

#: The most bytes the stacked stepping operator of one batch may take: a
#: refill stacks at most ``CsrBuffer.max_blocks`` samples, however many a
#: caller hands in.
BATCH_OPERATOR_BYTES = 2 << 20

#: The most bytes of forward iterates the transient kernel keeps before
#: reducing them to goal and total masses in one pass.
HISTORY_BYTES = 1 << 18

Assignment = Optional[Mapping[str, float]]


def resolve_dense_limit(dense_limit: Optional[int] = None) -> int:
    """The effective dense/sparse crossover for a new buffer.

    An explicit ``dense_limit`` argument wins over the module default.
    """
    if dense_limit is None:
        return DENSE_STATE_LIMIT
    limit = int(dense_limit)
    if limit < 0:
        raise AnalysisError(f"the dense state limit must be >= 0, got {limit}")
    return limit


class _Tiling:
    """A buffer's pattern tiled across ``blocks`` diagonal blocks.

    Built once per batch size: the block-diagonal CSR of ``P`` (and of
    ``P^T`` on the sparse path) or the dense ``(blocks, n, n)`` stack, plus
    the per-block offsets of the edge scatter indices.
    """

    __slots__ = ("blocks", "matrix", "dense", "transposed", "slot_index", "source_index")

    def __init__(self, buffer: "CsrBuffer", blocks: int):
        num_states = buffer.skeleton.num_states
        nnz = len(buffer._indices)
        block = np.arange(blocks, dtype=np.int64)[:, None]

        def diagonal(indptr: np.ndarray, indices: np.ndarray) -> sparse.csr_matrix:
            return sparse.csr_matrix(
                (
                    np.zeros(blocks * nnz),
                    (indices + num_states * block).ravel(),
                    np.append((indptr[:-1] + nnz * block).ravel(), blocks * nnz),
                ),
                shape=(blocks * num_states, blocks * num_states),
            )

        self.blocks = blocks
        self.matrix = diagonal(buffer._indptr, buffer._indices)
        if buffer._dense_positions is not None:
            # Entries outside the pattern stay zero: refills only ever write
            # the pattern's positions.  One block is a plain matrix, so a
            # lone sample steps with the 1-D matmul, not the stacked one.
            square = (num_states, num_states)
            self.dense: Optional[np.ndarray] = np.zeros(
                square if blocks == 1 else (blocks,) + square
            )
            self.transposed: Optional[sparse.csr_matrix] = None
        else:
            self.dense = None
            self.transposed = diagonal(buffer._transposed_indptr, buffer._transposed_indices)
        self.slot_index = (buffer._slots + nnz * block).ravel()
        self.source_index = (buffer._sources + num_states * block).ravel()


class CsrBuffer:
    """Preallocated CSR pattern of a skeleton's uniformised matrix.

    The pattern (``indptr``/``indices``, including a diagonal entry per row)
    and the scatter map from skeleton edges into ``data`` slots are computed
    once in :meth:`__init__`; :meth:`refill_blocks` only evaluates the edge
    rates of a batch of assignments and rewrites ``data`` (and the dense or
    transposed stepping operator) in place, one diagonal block per sample.
    ``structure_builds`` and ``refills`` count exactly that split, so
    regression tests can pin "no pattern rebuild after the first sample".

    After a refill ``blocks`` samples are loaded; ``block_rates`` holds each
    block's uniformisation rate and ``uniformisation_rate`` the largest.
    ``matrix``, ``dense`` and ``transposed`` are the loaded batch's stacked
    operators (plain ``n x n`` matrices for one block).
    """

    __slots__ = (
        "skeleton",
        "matrix",
        "dense",
        "transposed",
        "structure_builds",
        "refills",
        "uniformisation_rate",
        "blocks",
        "block_rates",
        "_params",
        "_const",
        "_coeffs",
        "_nominals",
        "_slots",
        "_sources",
        "_targets",
        "_diag",
        "_indptr",
        "_indices",
        "_dense_positions",
        "_transpose_perm",
        "_transposed_indptr",
        "_transposed_indices",
        "_single",
        "_current",
    )

    #: The state :meth:`__getstate__` pickles; everything else is derived.
    _PERSISTENT = (
        "skeleton",
        "structure_builds",
        "refills",
        "_params",
        "_const",
        "_coeffs",
        "_nominals",
        "_slots",
        "_sources",
        "_targets",
        "_diag",
    )

    def __init__(
        self,
        skeleton: Union[CtmcSkeleton, CtmdpSkeleton],
        dense_limit: Optional[int] = None,
    ):
        # The buffer only reads num_states / edges / parameters, which CTMC
        # and CTMDP skeletons share: vanishing states of a CTMDP skeleton
        # simply have no outgoing edges, so their uniformised rows come out
        # as identity rows and the backward kernel overwrites them through
        # its vanishing-state resolver.
        dense_limit = resolve_dense_limit(dense_limit)
        self.skeleton = skeleton
        num_states = skeleton.num_states
        edges = skeleton.edges

        # --- CSR pattern: per row the sorted unique targets plus the diagonal.
        row_targets: List[set] = [set() for _ in range(num_states)]
        for source, target, _rate in edges:
            row_targets[source].add(target)
        indptr = np.zeros(num_states + 1, dtype=np.int64)
        indices: List[int] = []
        diag = np.empty(num_states, dtype=np.int64)
        slot_of: Dict[Tuple[int, int], int] = {}
        for row in range(num_states):
            columns = sorted(row_targets[row] | {row})
            base = len(indices)
            for offset, column in enumerate(columns):
                if column == row:
                    diag[row] = base + offset
                else:
                    slot_of[(row, column)] = base + offset
            indices.extend(columns)
            indptr[row + 1] = len(indices)
        self._diag = diag
        self._slots = np.fromiter(
            (slot_of[(source, target)] for source, target, _rate in edges),
            dtype=np.int64,
            count=len(edges),
        )
        self._sources = np.fromiter(
            (source for source, _target, _rate in edges),
            dtype=np.int64,
            count=len(edges),
        )
        self._targets = np.fromiter(
            (target for _source, target, _rate in edges),
            dtype=np.int64,
            count=len(edges),
        )

        # --- vectorised linear forms: rate_e = const_e + coeffs[e] @ params.
        params = skeleton.parameters
        index = {name: position for position, name in enumerate(params)}
        const = np.zeros(len(edges))
        coeffs = np.zeros((len(edges), len(params)))
        nominals = np.zeros(len(params))
        for edge, (_source, _target, rate) in enumerate(edges):
            if isinstance(rate, ParametricRate):
                const[edge] = rate.const
                for name, coefficient in rate.coeffs.items():
                    coeffs[edge, index[name]] = coefficient
                    nominals[index[name]] = rate.nominals[name]
            else:
                const[edge] = float(rate)
        self._params = params
        self._const = const
        self._coeffs = coeffs
        self._nominals = nominals
        self.structure_builds = 1
        self.refills = 0
        self._prepare(
            indptr, np.asarray(indices, dtype=np.int64), num_states <= dense_limit
        )

    def _prepare(self, indptr: np.ndarray, indices: np.ndarray, dense: bool) -> None:
        """Derive the stepping structures of the pattern; load no sample."""
        num_states = self.skeleton.num_states
        self._indptr = indptr
        self._indices = indices
        if dense:
            rows = np.repeat(np.arange(num_states, dtype=np.int64), np.diff(indptr))
            self._dense_positions = rows * num_states + indices
            self._transpose_perm = None
            self._transposed_indptr = self._transposed_indices = None
        else:
            self._dense_positions = None
            # CSC of P shares the pattern of CSR of P^T; tag the data with
            # positions once to learn the CSR -> transposed-CSR permutation.
            tagged = sparse.csr_matrix(
                (np.arange(len(indices), dtype=np.int64), indices, indptr),
                shape=(num_states, num_states),
            ).tocsc()
            self._transpose_perm = np.asarray(tagged.data, dtype=np.int64)
            self._transposed_indptr = np.asarray(tagged.indptr, dtype=np.int64)
            self._transposed_indices = np.asarray(tagged.indices, dtype=np.int64)
        self._single = _Tiling(self, 1)
        self._use(self._single)
        self.blocks = 0
        self.block_rates = np.zeros(0)
        self.uniformisation_rate = 1.0

    def __getstate__(self) -> Dict[str, object]:
        state = {name: getattr(self, name) for name in self._PERSISTENT}
        state["matrix"] = self._single.matrix
        state["dense"] = self._single.dense
        return state

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # the slot-state pickle of older stores
            state = state[1]
        for name in self._PERSISTENT:
            setattr(self, name, state[name])
        matrix = state["matrix"]
        self._prepare(
            np.asarray(matrix.indptr, dtype=np.int64),
            np.asarray(matrix.indices, dtype=np.int64),
            state["dense"] is not None,
        )

    # ------------------------------------------------------------- batches
    @property
    def max_blocks(self) -> int:
        """The most samples one refill stacks (:data:`BATCH_OPERATOR_BYTES`)."""
        num_states = self.skeleton.num_states
        if self._dense_positions is not None:
            block_bytes = num_states * num_states * 8
        else:
            # Data and indices of both block-diagonal CSRs.
            block_bytes = 2 * len(self._indices) * 16
        return max(1, BATCH_OPERATOR_BYTES // max(block_bytes, 1))

    def _tiling(self, blocks: int) -> _Tiling:
        """The one-block tiling (always kept), the loaded batch's, or a new one."""
        if blocks == 1:
            return self._single
        if self._current.blocks == blocks:
            return self._current
        return _Tiling(self, blocks)

    def _use(self, tiling: _Tiling) -> None:
        self._current = tiling
        self.matrix = tiling.matrix
        self.dense = tiling.dense
        self.transposed = tiling.transposed

    def release(self) -> bool:
        """Drop a loaded batch of several blocks, leaving nothing loaded.

        A batch's stacked operator is as large as :data:`BATCH_OPERATOR_BYTES`;
        releasing it after use keeps that memory from adding up across the
        compiled models a process holds.  A single block is kept.  Returns
        whether a batch was dropped.
        """
        if self._current is self._single:
            return False
        self._use(self._single)
        self.blocks = 0
        self.block_rates = np.zeros(0)
        return True

    def _evaluate_rates(
        self, assignments: Sequence[Assignment]
    ) -> Tuple[np.ndarray, List[Optional[ModelError]]]:
        """Every edge rate of every assignment whose rates are all positive.

        Returns the ``(loaded, edges)`` rate rows plus, per assignment,
        ``None`` or the :class:`~repro.errors.ModelError` of a non-positive
        rate — exactly the error of the non-buffered
        :meth:`CtmcSkeleton.instantiate` path.  Each row is the same matvec a
        single assignment computes.
        """
        values = np.empty((len(assignments), len(self._const)))
        if len(self._params):
            for row, assignment in zip(values, assignments):
                if assignment is None:
                    point = self._nominals
                else:
                    point = np.fromiter(
                        (
                            assignment.get(name, nominal)
                            for name, nominal in zip(self._params, self._nominals)
                        ),
                        dtype=float,
                        count=len(self._params),
                    )
                np.dot(self._coeffs, point, out=row)
            values += self._const
        else:
            values[:] = self._const
        positive = (values > 0.0).all(axis=1)
        errors: List[Optional[ModelError]] = [None] * len(assignments)
        if not positive.all():
            for row in np.flatnonzero(~positive):
                errors[row] = ModelError(
                    f"instantiating a parametric rate produced a non-positive value "
                    f"({float(values[row].min())}); rate-sweep samples must keep every "
                    f"rate positive"
                )
            values = values[positive]
        return values, errors

    def _accumulate_exit(
        self, values: np.ndarray, tiling: _Tiling
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-state exit rates of each block's edges, plus each natural Lambda.

        The single accumulation point behind :meth:`max_exit_rate` and
        :meth:`refill_blocks`, so the two cannot drift: both scatter the same
        edge values in edge order and apply the same ``Lambda = 1.0``
        fallback for a chain with no transitions at all.
        """
        blocks, num_states = len(values), self.skeleton.num_states
        exit_rates = np.bincount(
            tiling.source_index,
            weights=values.ravel(),
            minlength=blocks * num_states,
        ).reshape(blocks, num_states)
        rates = exit_rates.max(axis=1, initial=0.0)
        rates[rates <= 0.0] = 1.0
        return exit_rates, rates

    def max_exit_rate(self, assignment: Assignment = None) -> float:
        """The natural uniformisation rate (max exit rate) under ``assignment``.

        The loaded blocks are not touched, so a sweep can scan its whole grid
        for the largest Lambda before refilling (the shared-rate path of
        :class:`TransientKernel`).
        """
        values, (error,) = self._evaluate_rates([assignment])
        if error is not None:
            raise error
        return float(self._accumulate_exit(values, self._single)[1][0])

    def refill_blocks(
        self,
        assignments: Sequence[Assignment],
        rate_floor: Optional[float] = None,
    ) -> List[Optional[ModelError]]:
        """Load one diagonal block per assignment whose rates are all positive.

        Returns, per assignment, ``None`` (loaded, blocks in assignment
        order) or the error that kept it out; a failing assignment never
        changes the other blocks.  ``rate_floor`` raises every block's
        uniformisation rate to at least that value: uniformisation is exact
        for any Lambda >= the maximal exit rate, and a sweep that fixes one
        Lambda for a whole grid reuses one Poisson term table across all
        samples (see :meth:`TransientKernel.load`).
        """
        values, errors = self._evaluate_rates(assignments)
        blocks = len(values)
        self.blocks = blocks
        if not blocks:
            self._use(self._single)
            self.block_rates = np.zeros(0)
            return errors
        tiling = self._tiling(blocks)
        exit_rates, rates = self._accumulate_exit(values, tiling)
        if rate_floor is not None:
            rates = np.maximum(rates, float(rate_floor))
        nnz = len(self._indices)
        data = tiling.matrix.data.reshape(blocks, nnz)
        np.divide(
            np.bincount(tiling.slot_index, weights=values.ravel(), minlength=blocks * nnz)
            .reshape(blocks, nnz),
            rates[:, None],
            out=data,
        )
        # Edges never target their own source (the skeleton eliminates
        # self-loops), so the diagonal slots received no scatter contribution.
        data[:, self._diag] = 1.0 - exit_rates / rates[:, None]
        if tiling.dense is not None:
            tiling.dense.reshape(blocks, -1)[:, self._dense_positions] = data
        else:
            tiling.transposed.data.reshape(blocks, nnz)[:] = data[:, self._transpose_perm]
        self._use(tiling)
        self.block_rates = rates
        self.uniformisation_rate = float(rates.max())
        self.refills += blocks
        return errors

    def refill(
        self,
        assignment: Assignment = None,
        rate_floor: Optional[float] = None,
    ) -> Tuple[sparse.csr_matrix, float]:
        """Load ``assignment`` as the only block; return (matrix, Lambda).

        Raises the :class:`~repro.errors.ModelError` of a non-positive rate;
        a failed refill leaves the buffer reusable — the next refill rewrites
        everything.
        """
        (error,) = self.refill_blocks([assignment], rate_floor)
        if error is not None:
            raise error
        return self.matrix, self.uniformisation_rate

    def step(self, current: np.ndarray, workspace: np.ndarray) -> np.ndarray:
        """One uniformised step ``current @ P`` of every block, into ``workspace``.

        ``current`` and ``workspace`` are one block's ``(n,)`` vector, or one
        row vector per block stacked as ``(blocks, 1, n)``; returns
        ``workspace``.
        """
        if self.dense is not None:
            np.matmul(current, self.dense, out=workspace)
        else:
            # CSR-of-P^T matvec: computes x @ P without scipy materialising
            # a transposed matrix per step (which `vector @ csr` would do).
            workspace.ravel()[:] = self.transposed @ current.ravel()
        return workspace

    def step_forward(self, current: np.ndarray, workspace: np.ndarray) -> np.ndarray:
        """One backward value-iteration step ``P @ current`` of every block.

        The CTMDP kernel sweeps values backwards, so it multiplies from the
        left — the plain CSR (or the dense stack) is already the right
        operator, no transpose needed.  ``current`` and ``workspace`` are one
        block's ``(n,)`` vector, or one column vector per block stacked as
        ``(blocks, n, 1)``; the result goes into ``workspace``, which is
        returned.
        """
        if self.dense is not None:
            np.matmul(self.dense, current, out=workspace)
        else:
            workspace.ravel()[:] = self.matrix @ current.ravel()
        return workspace


class _SampleKernel:
    """What both kernels share: the buffer, loading and the Poisson terms.

    A kernel loaded through :meth:`load` answers curves of shape
    ``(times,)``; one loaded through :meth:`load_many` answers
    ``(blocks, times)``, one row per loaded assignment.
    """

    __slots__ = (
        "skeleton",
        "buffer",
        "term_cache",
        "_goal",
        "_work",
        "_loaded",
        "_batched",
        "_loaded_rates",
    )

    def __init__(self, skeleton, buffer: CsrBuffer):
        self.skeleton = skeleton
        self.buffer = buffer
        self.term_cache = PoissonTermCache()
        self._goal: Dict[str, np.ndarray] = {}
        self._work: Dict[tuple, Tuple[np.ndarray, ...]] = {}
        self._loaded = False
        self._batched = False
        self._loaded_rates: frozenset = frozenset()

    # ----------------------------------------------------------- structure
    @property
    def structure_builds(self) -> int:
        """How many times the CSR pattern was built (pinned to one)."""
        return self.buffer.structure_builds

    @property
    def refills(self) -> int:
        """How many rate instantiations reused the shared pattern."""
        return self.buffer.refills

    @property
    def blocks(self) -> int:
        """How many samples the last load stacked."""
        return self.buffer.blocks

    def goal_indices(self, label: str) -> np.ndarray:
        """Sorted state indices carrying ``label`` (cached; structure-only)."""
        cached = self._goal.get(label)
        if cached is None:
            cached = np.fromiter(
                (
                    state
                    for state, labels in enumerate(self.skeleton.labels)
                    if label in labels
                ),
                dtype=np.int64,
            )
            self._goal[label] = cached
        return cached

    # ------------------------------------------------------------- samples
    def load(self, assignment: Assignment = None, rate_floor: Optional[float] = None) -> float:
        """Refill the shared matrix for ``assignment`` alone; return Lambda.

        With a ``rate_floor`` (>= every sample's natural maximal exit rate)
        the uniformisation rate is pinned across samples, so the Poisson term
        table of each requested time survives from one load to the next — a
        grid sweep then builds its term arrays once instead of per sample.
        """
        (error,) = self._load([assignment], rate_floor, batched=False)
        if error is not None:
            raise error
        return self.buffer.uniformisation_rate

    def load_many(
        self, assignments: Sequence[Assignment], rate_floor: Optional[float] = None
    ) -> List[Optional[ModelError]]:
        """Load one block per assignment (see :meth:`CsrBuffer.refill_blocks`)."""
        return self._load(assignments, rate_floor, batched=True)

    def _load(self, assignments, rate_floor, batched: bool) -> List[Optional[ModelError]]:
        errors = self.buffer.refill_blocks(assignments, rate_floor=rate_floor)
        # Every rate*time cache key changes with the uniformisation rate, so
        # entries of rates no longer loaded would accumulate forever without
        # ever hitting.  While the loaded rates stay within the previous set
        # (a shared rate floor, one sample of the last batch, samples that
        # happen to agree) the cached term arrays are exactly the ones the
        # next curve evaluation needs — keep them.
        rates = frozenset(self.buffer.block_rates.tolist())
        if not rates <= self._loaded_rates:
            self.term_cache.clear()
            self._loaded_rates = rates
        self._loaded = self.buffer.blocks > 0
        self._batched = batched
        return errors

    def release(self) -> None:
        """Drop a loaded batch of several samples and its scratch.

        Nothing stays loaded; a single loaded sample is kept as it is (see
        :meth:`CsrBuffer.release`).
        """
        if self.buffer.release():
            self._work = {}
            self._loaded = False

    def _require_loaded(self, kind: str) -> None:
        if not self._loaded:
            raise AnalysisError(
                f"the {kind} kernel has no sample loaded; call load() first"
            )

    def _shaped(self, curves: np.ndarray) -> np.ndarray:
        """``(blocks, times)`` curves as the last load asked for them."""
        return curves if self._batched else curves[0]

    def _vector(self, row: bool) -> Tuple[int, ...]:
        """The shape :meth:`CsrBuffer.step` (``row``) or ``step_forward``
        takes: one block's ``(n,)`` vector, or the stacked matmul operand."""
        blocks, num_states = self.buffer.blocks, self.skeleton.num_states
        if blocks == 1:
            return (num_states,)
        return (blocks, 1, num_states) if row else (blocks, num_states, 1)

    def _buffers(self, *shapes: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
        """Scratch arrays of ``shapes``, kept while the batch keeps its size."""
        arrays = self._work.get(shapes)
        if arrays is None:
            arrays = tuple(np.zeros(shape) for shape in shapes)
            self._work = {shapes: arrays}
        return arrays

    def _block_terms(
        self,
        times: List[float],
        tolerance: float,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> Tuple[List[List[np.ndarray]], List[int]]:
        """Each block's Poisson term arrays per time, and its truncation depth."""
        cache = term_cache if term_cache is not None else self.term_cache
        products = [rate * time for rate in self.buffer.block_rates.tolist() for time in times]
        arrays = cache.get_many(products, tolerance)
        count = len(times)
        terms = [arrays[start : start + count] for start in range(0, len(arrays), count)]
        return terms, [max(len(array) for array in row) for row in terms]


def _weigh(terms: List[List[np.ndarray]], series: np.ndarray) -> np.ndarray:
    """Each block's term arrays dotted with its prefix of its recorded series.

    ``series`` is ``(blocks, depth)`` and C-contiguous, so every product is
    the same contiguous dot product a batch of one computes.
    """
    return np.fromiter(
        (
            array @ row[: len(array)]
            for block_terms, row in zip(terms, series)
            for array in block_terms
        ),
        dtype=float,
        count=series.shape[0] * len(terms[0]),
    ).reshape(len(terms), -1)


class TransientKernel(_SampleKernel):
    """One skeleton's reusable transient solver across many rate samples.

    Owns the shared CSR buffer, the Poisson term cache and the ``pi(0)``
    workspaces; :meth:`load` switches the kernel to one parameter assignment
    (:meth:`load_many` to a batch of them) and
    :meth:`probability_of_label_curve` runs the uniformisation sweep on the
    in-place refreshed operator.  ``dense_limit`` overrides the dense/sparse
    stepping crossover of the underlying buffer.
    """

    __slots__ = ()

    def __init__(
        self,
        skeleton: CtmcSkeleton,
        dense_limit: Optional[int] = None,
        buffer: Optional[CsrBuffer] = None,
    ):
        if buffer is not None:
            # A prebuilt buffer (e.g. the CSR pattern a skeleton store cached
            # alongside the skeleton) skips the pattern build entirely.
            if buffer.skeleton is not skeleton:
                raise ModelError(
                    "the CSR buffer was preallocated for a different skeleton"
                )
        else:
            buffer = CsrBuffer(skeleton, dense_limit=dense_limit)
        super().__init__(skeleton, buffer)

    def probability_of_label_curve(
        self,
        label: str,
        times: Sequence[float],
        tolerance: float = 1e-12,
    ) -> np.ndarray:
        """Probability of occupying a ``label``-state at each time, one sweep.

        The numerical scheme is identical to
        :func:`repro.ctmc.transient.probability_of_label_curve`; only the
        matrix comes from the shared buffer (call :meth:`load` or
        :meth:`load_many` first), the Poisson term arrays are cached across
        samples, and the per-time weights are applied after the shared
        matvec series instead of inside the step loop.
        """
        self._require_loaded("transient")
        times_list = validate_times(times)
        goal = self.goal_indices(label)
        blocks = self.buffer.blocks
        if not len(goal) or not times_list:
            return self._shaped(np.zeros((blocks, len(times_list))))

        terms, depths = self._block_terms(times_list, tolerance)
        depth = max(depths)

        # Shared matvec series: only the goal and total masses of each
        # iterate are needed.  The iterates are written into a history of up
        # to HISTORY_BYTES and reduced one chunk at a time, so a step costs
        # one matvec call; take() keeps the goal entries C-contiguous, so
        # each block's sums are the pairwise sums a lone vector gets.
        shape = self._vector(row=True)
        chunk = max(1, min(depth, HISTORY_BYTES // (8 * blocks * shape[-1])))
        history, spare = self._buffers((chunk,) + shape, shape)
        goal_series = np.empty((depth,) + shape[:-1])
        total_series = np.empty((depth,) + shape[:-1])
        buffer = self.buffer
        history[0] = 0.0
        history[0, ..., self.skeleton.initial] = 1.0
        start = 0
        while True:
            count = min(chunk, depth - start)
            for step in range(1, count):
                buffer.step(history[step - 1], history[step])
            iterates = history[:count]
            np.add.reduce(
                iterates.take(goal, axis=-1), axis=-1, out=goal_series[start : start + count]
            )
            np.add.reduce(iterates, axis=-1, out=total_series[start : start + count])
            start += count
            if start == depth:
                break
            history[0] = buffer.step(history[count - 1], spare)

        goal_mass = _weigh(terms, np.ascontiguousarray(goal_series.reshape(depth, -1).T))
        total_mass = _weigh(terms, np.ascontiguousarray(total_series.reshape(depth, -1).T))
        # Renormalise the (tiny) truncated mass, as transient_distributions does.
        np.divide(goal_mass, total_mass, out=goal_mass, where=total_mass > 0.0)
        return self._shaped(goal_mass)

    def point_values(
        self,
        label: str,
        times: Sequence[float],
        assignment: Assignment = None,
        tolerance: float = 1e-12,
    ) -> Dict[float, float]:
        """Load ``assignment`` and map each time to its label probability."""
        self.load(assignment)
        times_list = validate_times(times)
        curve = self.probability_of_label_curve(label, times_list, tolerance)
        return dict(zip(times_list, (float(value) for value in curve)))


class CtmdpKernel(_SampleKernel):
    """One CTMDP skeleton's reusable bound solver across many rate samples.

    The backward-sweep analogue of :class:`TransientKernel`: the uniformised
    CSR pattern and the vectorised linear-form rate table live in a shared
    :class:`CsrBuffer`, :meth:`load` / :meth:`load_many` refill the data in
    place, and :meth:`time_bounded_reachability_curve` replaces the per-state
    Python value iteration of :meth:`repro.ctmc.ctmdp.CTMDP` with stacked
    sparse (or small-dense) matvecs plus a topologically-ordered
    vanishing-state resolution (:class:`~repro.ctmc.ctmdp.VanishingResolver`,
    whose max/min reductions act on every block at once).

    Because every edge rate is an exact linear form
    ``rate_e = const_e + coeffs[e] @ params``, the derivative of the
    uniformised generator w.r.t. each parameter is a *constant* sparse
    matrix; :meth:`gradient_curve` rides an ``(states x params)`` derivative
    block along the same sweep of one loaded sample and returns the gradient
    of the bound curve w.r.t. every failure-rate parameter in one extra pass
    (Birnbaum-style component importance).

    Numerical conventions (both differ from the reference engine only within
    the truncation tolerance, which the differential tests pin):

    * the uniformisation rate is the maximal exit rate over *all* tangible
      states (label-independent, so one Lambda serves every label and both
      bound directions, and the Poisson term cache survives across them);
    * the truncated Poisson tail adds ``1 - accumulated`` on the maximise
      branch and ``(1 - accumulated) * v_final`` on the minimise branch — the
      iterates are non-decreasing in the step count, so the deepest computed
      iterate is a valid lower bound on every truncated term.
    """

    __slots__ = ("resolver", "_update")

    def __init__(
        self,
        skeleton: CtmdpSkeleton,
        dense_limit: Optional[int] = None,
    ):
        super().__init__(skeleton, CsrBuffer(skeleton, dense_limit=dense_limit))
        self.resolver = VanishingResolver(skeleton.num_states, skeleton.choices)
        #: Update indices by label, and stacked by (label, blocks).
        self._update: Dict[object, np.ndarray] = {}

    # ----------------------------------------------------------- structure
    @property
    def parameters(self) -> Tuple[str, ...]:
        """The skeleton's sorted rate-parameter names (gradient column order)."""
        return self.buffer._params

    def update_indices(self, label: str) -> np.ndarray:
        """Tangible non-``label`` states — the rows the matvec step rewrites.

        Goal states stay absorbing at value 1 and vanishing states are
        rewritten by the resolver, so neither takes the Markovian update.
        """
        cached = self._update.get(label)
        if cached is None:
            choices = self.skeleton.choices
            cached = np.fromiter(
                (
                    state
                    for state, labels in enumerate(self.skeleton.labels)
                    if label not in labels and not choices[state]
                ),
                dtype=np.int64,
            )
            self._update[label] = cached
        return cached

    # ------------------------------------------------------------- samples
    def max_exit_rate(self, assignment: Assignment = None) -> float:
        """The natural uniformisation rate under ``assignment`` (scan only)."""
        return self.buffer.max_exit_rate(assignment)

    def _column_stacks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The backward step buffers plus the resolver's view of the first.

        The view is the ``(n,)`` vector of a lone block — the resolver's
        per-state scalar path and successor tracking need one — and the
        ``(blocks, n)`` stack otherwise.
        """
        shape = self._vector(row=False)
        current, workspace = self._buffers(shape, shape)
        blocks = self.buffer.blocks
        values = current.reshape(blocks, -1)
        return current, workspace, values[0] if blocks == 1 else values

    def _stacked_update(self, label: str) -> np.ndarray:
        """:meth:`update_indices` of every loaded block, as flat stack indices.

        One 1-D gather/scatter moves all blocks' updates; it costs what a
        lone vector's fancy update costs, where indexing the stack's state
        axis would cost several times more.
        """
        blocks = self.buffer.blocks
        cached = self._update.get((label, blocks))
        if cached is None:
            offsets = self.skeleton.num_states * np.arange(blocks, dtype=np.int64)
            cached = (self.update_indices(label) + offsets[:, None]).ravel()
            self._update[(label, blocks)] = cached
        return cached

    # --------------------------------------------------------------- curves
    def _initial_values(self, goal: np.ndarray, maximize: bool) -> np.ndarray:
        values = np.zeros(self.skeleton.num_states)
        values[goal] = 1.0
        self.resolver.resolve(values, maximize)
        return values

    def time_bounded_reachability_curve(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> np.ndarray:
        """Optimal reach-``label`` probability at each of ``times``, one sweep.

        All time points (and all loaded blocks) share one backward value
        iteration up to the deepest Poisson truncation; each block's per-time
        weights are applied to its recorded initial-state series afterwards
        (the backward analogue of
        :meth:`TransientKernel.probability_of_label_curve`).
        """
        curve, _gradients = self._sweep(
            label, times, maximize, tolerance, term_cache, with_gradients=False
        )
        return self._shaped(curve)

    def gradient_curve(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The bound curve plus its gradient w.r.t. every rate parameter.

        Needs one sample loaded through :meth:`load`.  Returns
        ``(curve, gradients)`` where ``gradients[i, j]`` is the partial
        derivative of ``curve[i]`` w.r.t. ``self.parameters[j]``, computed
        forward-mode: ``dP/dparam_j`` is a constant sparse matrix
        (linear-form rates), so a ``(states x params)`` derivative block
        propagates alongside the value iteration, following the max/min
        successor selection through vanishing states.  The uniformisation
        rate is held fixed under differentiation, which is exact in the limit
        because the uniformised value is Lambda-invariant for any
        Lambda >= the maximal exit rate.
        """
        if self._batched:
            raise AnalysisError(
                "gradient sweeps run one sample at a time; load() a single assignment"
            )
        curve, gradients = self._sweep(
            label, times, maximize, tolerance, term_cache, with_gradients=True
        )
        assert gradients is not None
        return curve[0], gradients

    def reachability_bounds_curve(
        self,
        label: str,
        times: Sequence[float],
        tolerance: float = 1e-10,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(minimum, maximum) reach-``label`` curves over ``times``.

        Both directions share the loaded samples, their uniformisation rates
        and therefore every cached Poisson term array.
        """
        lower = self.time_bounded_reachability_curve(
            label, times, maximize=False, tolerance=tolerance
        )
        upper = self.time_bounded_reachability_curve(
            label, times, maximize=True, tolerance=tolerance
        )
        return lower, upper

    def optimal_choices(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
    ) -> Dict[int, Tuple[int, float]]:
        """The scheduler behind the bound: per-state argbest of the sweep.

        Needs one sample loaded through :meth:`load`.  Re-runs the backward
        value iteration of :meth:`time_bounded_reachability_curve` with the
        resolver recording, at every step, which successor each contested
        vanishing state (more than one choice) picks.  Returns
        ``{state: (chosen, agreement)}`` where ``chosen`` is the successor
        selected at the deepest iterate — the long-horizon decision the
        reported bound actually takes — and ``agreement`` is the fraction of
        sweep steps whose argbest matched it, a stability indicator across
        the time horizon (1.0 = the same choice at every step, i.e. a
        genuinely time-abstract scheduler).
        """
        self._require_loaded("CTMDP")
        if self._batched:
            raise AnalysisError(
                "schedulers are extracted one sample at a time; load() a single assignment"
            )
        times_list = validate_times(times)
        choices = self.skeleton.choices
        contested = [
            state
            for state in range(self.skeleton.num_states)
            if len(choices[state]) > 1
        ]
        if not contested or not times_list:
            return {}
        goal = self.goal_indices(label)
        if not len(goal):
            return {}
        values = np.zeros(self.skeleton.num_states)
        values[goal] = 1.0
        choice_now = np.full(self.skeleton.num_states, -1, dtype=np.int64)
        self.resolver.resolve(values, maximize, choice_out=choice_now)
        counts: Dict[int, Dict[int, int]] = {state: {} for state in contested}

        def record() -> None:
            for state in contested:
                picked = int(choice_now[state])
                counts[state][picked] = counts[state].get(picked, 0) + 1

        record()
        steps = 1
        if len(self.buffer._sources):
            _terms, (depth,) = self._block_terms(times_list, tolerance)
            update = self._stacked_update(label)
            current, workspace, vector = self._column_stacks()
            vector[:] = values
            flat, stepped = current.reshape(-1), workspace.reshape(-1)
            for _step in range(depth - 1):
                self.buffer.step_forward(current, workspace)
                flat[update] = stepped[update]
                self.resolver.resolve(vector, maximize, choice_out=choice_now)
                record()
                steps += 1
        return {
            state: (
                int(choice_now[state]),
                counts[state][int(choice_now[state])] / steps,
            )
            for state in contested
        }

    def _sweep(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool,
        tolerance: float,
        term_cache: Optional[PoissonTermCache],
        with_gradients: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(blocks, times)`` bound curves, plus the lone block's gradients."""
        self._require_loaded("CTMDP")
        times_list = validate_times(times)
        blocks = self.buffer.blocks
        num_params = len(self.buffer._params)
        empty = np.zeros((len(times_list), num_params)) if with_gradients else None
        if not times_list:
            return np.zeros((blocks, 0)), empty
        goal = self.goal_indices(label)
        if not len(goal):
            return np.zeros((blocks, len(times_list))), empty
        values = self._initial_values(goal, maximize)
        initial = self.skeleton.initial
        if not len(self.buffer._sources):
            # No Markovian transitions anywhere: nothing ever moves.
            return np.full((blocks, len(times_list)), float(values[initial])), empty

        buffer = self.buffer
        terms, depths = self._block_terms(times_list, tolerance, term_cache)
        depth = max(depths)
        update = self.update_indices(label)
        stacked_update = self._stacked_update(label)

        gradients = with_gradients and num_params > 0
        current, workspace, resolved = self._column_stacks()
        resolved[...] = values
        flat, stepped = current.reshape(-1), workspace.reshape(-1)
        # A live view of each block's initial-state value (0-d for one block).
        at_initial = resolved[..., initial]
        series = np.empty((depth,) + at_initial.shape)
        if gradients:
            rate = float(buffer.block_rates[0])
            derivative = np.zeros((self.skeleton.num_states, num_params))
            derivative_series = np.empty((depth, num_params))
            scatter = np.empty_like(derivative)
            sources = buffer._sources
            targets = buffer._targets
            coeffs = buffer._coeffs
        for step in range(depth):
            series[step] = at_initial
            if gradients:
                derivative_series[step] = derivative[initial]
            if step + 1 == depth:
                break
            buffer.step_forward(current, workspace)
            if gradients:
                # d(P v)/dparam = P dv + (dP/dparam) v, and dP/dparam has
                # off-diagonal entries coeff_e/Lambda with the matching
                # -sum(coeff)/Lambda on the diagonal, so its action on v is a
                # scatter of coeff_e * (v[target] - v[source]) / Lambda.
                contrib = coeffs * ((resolved[targets] - resolved[sources]) / rate)[:, None]
                scatter[:] = 0.0
                np.add.at(scatter, sources, contrib)
                if buffer.dense is not None:
                    propagated = buffer.dense @ derivative
                else:
                    propagated = buffer.matrix @ derivative
                derivative[update] = propagated[update] + scatter[update]
            flat[stacked_update] = stepped[stacked_update]
            self.resolver.resolve(
                resolved, maximize, companion=derivative if gradients else None
            )

        series = np.ascontiguousarray(series.reshape(depth, blocks).T)
        results = _weigh(terms, series)
        tail = 1.0 - np.fromiter(
            (array.sum() for block_terms in terms for array in block_terms),
            dtype=float,
            count=results.size,
        ).reshape(results.shape)
        gradient_rows: Optional[np.ndarray] = None
        if with_gradients:
            gradient_rows = np.zeros((len(times_list), num_params))
            if gradients:
                for row, array in enumerate(terms[0]):
                    gradient_rows[row] = array @ derivative_series[: len(array)]
        if maximize:
            raw = results + tail
            if gradient_rows is not None:
                # min(1, .) clips: where the tail pushed past 1 the bound is
                # locally constant, so its gradient vanishes.
                gradient_rows[raw[0] > 1.0] = 0.0
            results = np.minimum(1.0, raw)
        else:
            # Each block's tail takes its own deepest iterate.
            deepest = series[np.arange(blocks), np.asarray(depths) - 1]
            results = results + tail * deepest[:, None]
            if gradient_rows is not None and gradients:
                gradient_rows += tail[0][:, None] * derivative_series[depth - 1]
        return np.clip(results, 0.0, 1.0), gradient_rows
