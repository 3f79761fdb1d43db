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
  sample.  Chains of at most :data:`DENSE_STATE_LIMIT` states step a
  preallocated ``(blocks, n, n)`` dense stack with one batched
  ``np.matmul`` (sparse dispatch overhead dwarfs the arithmetic there);
  larger ones a block-diagonal CSR of ``P^T`` whose data
  is refreshed by a precomputed permutation (``x @ P`` through scipy would
  otherwise construct a fresh transposed matrix on *every* step).  The
  stacked operator is capped at :data:`BATCH_OPERATOR_BYTES`.
* :class:`TransientKernel` (forward label-probability curves, plus the
  MTTF and steady-state generator solves of each loaded block) and
  :class:`CtmdpKernel` (backward bound curves, plus the per-sample gradient
  sweep) own one buffer plus the Poisson term cache and the workspaces.
  Every block keeps its own uniformisation rate, Poisson terms and
  truncation depth; series step ``k`` runs only the leading blocks up to
  the last one whose depth exceeds ``k``, and each block's weights are
  applied to its own prefix of the recorded series.  With the blocks in
  descending order of rate (as
  :meth:`~repro.core.study.CompiledModel.evaluate_many` loads them) every
  block stops at its own depth.  A block's stacked matvec slice, its row
  sums and its per-time dot products are the same floating-point operations
  a batch of one performs, so a sample's curve is bit-identical whatever
  batch it shares and wherever in it.

The rate-sweep engine (:mod:`repro.core.sweep`) drives one kernel per worker
process through :meth:`repro.core.study.CompiledModel.evaluate_many`; after
the first batch every further one costs only the refill and the stacked
uniformisation series itself.  A concrete :class:`~repro.ctmc.ctmc.CTMC` or
:class:`~repro.ctmc.ctmdp.CTMDP` keeps a one-sample kernel of its own edges,
so this module holds the only uniformisation series of the package, its only
generator solves, and the one dense/sparse crossover
(:data:`DENSE_STATE_LIMIT`) of both.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from ..errors import AnalysisError, ModelError
from ..graph import bottom_components, strongly_connected_components
from ..ioimc.rates import ParametricRate
from .builders import CtmcSkeleton, CtmdpSkeleton
from .ctmdp import VanishingResolver
from .transient import PoissonTermCache, validate_times

#: Below this state count the kernel steps with a preallocated dense matrix:
#: a CSR matvec costs ~10-20us of scipy dispatch regardless of size, which
#: dominates the arithmetic of aggregated DFT models (tens of states).
#: Read when a buffer is built, and by every MTTF or steady-state solve,
#: which factorises a sparse matrix above it.
DENSE_STATE_LIMIT = 256

#: The most bytes the stacked stepping operator of one batch may take: a
#: refill stacks at most ``CsrBuffer.max_blocks`` samples, however many a
#: caller hands in.
BATCH_OPERATOR_BYTES = 2 << 20

#: The most bytes of forward iterates the transient kernel keeps before a
#: reducer (label masses or state distributions) reads them in one pass.
HISTORY_BYTES = 1 << 18

Assignment = Optional[Mapping[str, float]]


class _Tiling:
    """A buffer's pattern tiled across ``blocks`` diagonal blocks.

    Built once per batch size: the block-diagonal CSR of ``P`` (and of
    ``P^T`` on the sparse path) or the dense ``(blocks, n, n)`` stack, plus
    the per-block offsets of the edge scatter indices.  Both CSRs are
    block-major, so the first ``m`` blocks are a prefix of their arrays:
    :meth:`prefix` views them as an ``m``-block CSR, built once per ``m``
    and refreshed by every refill of this tiling, since it shares ``data``.
    """

    __slots__ = (
        "blocks",
        "matrix",
        "dense",
        "transposed",
        "slot_index",
        "source_index",
        "_prefixes",
    )

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
        self._prefixes: Dict[Tuple[int, bool], sparse.csr_matrix] = {}

    def prefix(self, blocks: int, transposed: bool) -> sparse.csr_matrix:
        """The first ``blocks`` diagonal blocks of ``matrix`` (or ``transposed``)."""
        key = (blocks, transposed)
        cached = self._prefixes.get(key)
        if cached is None:
            whole = self.transposed if transposed else self.matrix
            size = blocks * (whole.shape[0] // self.blocks)
            end = whole.indptr[size]
            cached = sparse.csr_matrix(
                (whole.data[:end], whole.indices[:end], whole.indptr[: size + 1]),
                shape=(size, size),
                copy=False,
            )
            # scipy copies a view of less than half its base array ("prune"),
            # but the prefix must share the data every refill rewrites.
            cached.data, cached.indices = whole.data[:end], whole.indices[:end]
            self._prefixes[key] = cached
        return cached


class CsrBuffer:
    """Preallocated CSR pattern of a skeleton's uniformised matrix.

    The pattern (``indptr``/``indices``, including a diagonal entry per row)
    and the scatter map from skeleton edges into ``data`` slots are computed
    once in :meth:`__init__`; :meth:`refill_blocks` only evaluates the edge
    rates of a batch of assignments and rewrites ``data`` (and the dense or
    transposed stepping operator) in place, one diagonal block per sample.
    ``structure_builds`` and ``refills`` count exactly that split, so
    regression tests can pin "no pattern rebuild after the first sample".

    After a refill ``blocks`` samples are loaded; ``edge_rates`` holds each
    block's evaluated edge rates (one row per block, in skeleton edge order),
    ``block_rates`` each block's uniformisation rate and
    ``uniformisation_rate`` the largest.
    ``matrix``, ``dense`` and ``transposed`` are the loaded batch's stacked
    operators (plain ``n x n`` matrices for one block); :meth:`step` and
    :meth:`step_forward` apply them to the first ``m`` blocks only, through
    ``dense[:m]`` or the tiling's ``m``-block CSR prefix.
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
        "edge_rates",
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

    def __init__(self, skeleton: Union[CtmcSkeleton, CtmdpSkeleton]):
        # The buffer only reads num_states / edges / parameters, which CTMC
        # and CTMDP skeletons share: vanishing states of a CTMDP skeleton
        # simply have no outgoing edges, so their uniformised rows come out
        # as identity rows and the backward kernel overwrites them through
        # its vanishing-state resolver.
        self.skeleton = skeleton
        num_states = skeleton.num_states
        edges = skeleton.edges

        # --- CSR pattern: per row the sorted unique targets plus the diagonal
        # (one sort of the row-major (row, column) keys), and each edge's slot.
        count = len(edges)
        self._sources = np.fromiter(
            (source for source, _target, _rate in edges), dtype=np.int64, count=count
        )
        self._targets = np.fromiter(
            (target for _source, target, _rate in edges), dtype=np.int64, count=count
        )
        states = np.arange(num_states, dtype=np.int64)
        keys = np.concatenate([self._sources, states]) * num_states + np.concatenate(
            [self._targets, states]
        )
        pattern, position = np.unique(keys, return_inverse=True)
        position = position.astype(np.int64).ravel()
        self._slots = position[:count]
        self._diag = position[count:]
        indptr = np.zeros(num_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(pattern // num_states, minlength=num_states), out=indptr[1:])
        indices = pattern % num_states

        # --- vectorised linear forms: rate_e = const_e + coeffs[e] @ params.
        params = skeleton.parameters
        const = np.fromiter(
            (
                rate.const if isinstance(rate, ParametricRate) else rate
                for _source, _target, rate in edges
            ),
            dtype=float,
            count=count,
        )
        coeffs = np.zeros((count, len(params)))
        nominals = np.zeros(len(params))
        if params:
            index = {name: column for column, name in enumerate(params)}
            for edge, (_source, _target, rate) in enumerate(edges):
                if isinstance(rate, ParametricRate):
                    for name, coefficient in rate.coeffs.items():
                        coeffs[edge, index[name]] = coefficient
                        nominals[index[name]] = rate.nominals[name]
        self._params = params
        self._const = const
        self._coeffs = coeffs
        self._nominals = nominals
        self.structure_builds = 1
        self.refills = 0
        self._prepare(indptr, indices, num_states <= DENSE_STATE_LIMIT)

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
        self.edge_rates = np.zeros((0, len(self._const)))
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
        self.edge_rates = self.edge_rates[:0]
        return True

    def evaluate_rates(
        self, assignments: Sequence[Assignment]
    ) -> Tuple[np.ndarray, List[Optional[ModelError]]]:
        """Every edge rate of every assignment, one row each, and its error.

        Returns the ``(assignments, edges)`` rate rows plus, per assignment,
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
        return values, errors

    def _exit_rates(
        self, values: np.ndarray, source_index: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's per-state exit rates and its uniformisation rate, the
        maximal exit rate (``1.0`` for a chain with no transitions at all)."""
        count, num_states = len(values), self.skeleton.num_states
        exit_rates = np.bincount(
            source_index, weights=values.ravel(), minlength=count * num_states
        ).reshape(count, num_states)
        rates = exit_rates.max(axis=1, initial=0.0)
        rates[rates <= 0.0] = 1.0
        return exit_rates, rates

    def uniformisation_rates(self, values: np.ndarray) -> np.ndarray:
        """The uniformisation rate each row of :meth:`evaluate_rates` loads with."""
        offsets = self.skeleton.num_states * np.arange(len(values), dtype=np.int64)
        return self._exit_rates(values, (self._sources + offsets[:, None]).ravel())[1]

    def refill_blocks(self, assignments: Sequence[Assignment]) -> List[Optional[ModelError]]:
        """Load one diagonal block per assignment whose rates are all positive.

        Returns, per assignment, ``None`` (loaded, blocks in assignment
        order) or the error that kept it out; a failing assignment never
        changes the other blocks.  Each block is uniformised at its own
        natural rate, its maximal exit rate (``Lambda = 1.0`` for a chain
        with no transitions at all).
        """
        return self.refill_rates(*self.evaluate_rates(assignments))

    def refill_rates(
        self, values: np.ndarray, errors: List[Optional[ModelError]]
    ) -> List[Optional[ModelError]]:
        """:meth:`refill_blocks` from the rows :meth:`evaluate_rates` returned.

        A row whose exit rates overflow (a state's rates sum to infinity)
        gets a :class:`~repro.errors.ModelError` and stays out, as a row
        with a non-positive rate does.
        """
        rows = values
        if any(errors):
            values = values[[error is None for error in errors]]
        blocks = len(values)
        self.blocks = blocks
        self.edge_rates = values
        if not blocks:
            self._use(self._single)
            self.block_rates = np.zeros(0)
            return errors
        tiling = self._tiling(blocks)
        exit_rates, rates = self._exit_rates(values, tiling.source_index)
        finite = np.isfinite(rates)
        if not finite.all():
            # The loaded rows are the assignments without an error, in order.
            loaded = iter(finite.tolist())
            errors = [
                error if error is not None or next(loaded) else ModelError(
                    "the Markovian exit rates of a state sum to inf: an exit rate "
                    "past the largest float cannot be uniformised"
                )
                for error in errors
            ]
            return self.refill_rates(rows, errors)
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

    def refill(self, assignment: Assignment = None) -> Tuple[sparse.csr_matrix, float]:
        """Load ``assignment`` as the only block; return (matrix, Lambda).

        Raises the :class:`~repro.errors.ModelError` of a non-positive rate;
        a failed refill leaves the buffer reusable — the next refill rewrites
        everything.
        """
        (error,) = self.refill_blocks([assignment])
        if error is not None:
            raise error
        return self.matrix, self.uniformisation_rate

    def step(
        self, current: np.ndarray, workspace: np.ndarray, blocks: Optional[int] = None
    ) -> np.ndarray:
        """One uniformised step ``current @ P`` of the first ``blocks`` blocks.

        ``current`` and ``workspace`` are one block's ``(n,)`` vector, or one
        row vector per loaded block stacked as ``(blocks, 1, n)``; the step
        writes the first ``blocks`` (default: all) of ``workspace``, which it
        returns, and leaves the others as they were.
        """
        if blocks is None or blocks == self.blocks:
            if self.dense is not None:
                np.matmul(current, self.dense, out=workspace)
            else:
                # CSR-of-P^T matvec: computes x @ P without scipy materialising
                # a transposed matrix per step (which `vector @ csr` would do).
                workspace.ravel()[:] = self.transposed @ current.ravel()
        elif self.dense is not None:
            np.matmul(current[:blocks], self.dense[:blocks], out=workspace[:blocks])
        else:
            size = blocks * self.skeleton.num_states
            workspace.ravel()[:size] = (
                self._current.prefix(blocks, transposed=True) @ current.ravel()[:size]
            )
        return workspace

    def step_forward(
        self, current: np.ndarray, workspace: np.ndarray, blocks: Optional[int] = None
    ) -> np.ndarray:
        """One backward value-iteration step ``P @ current`` of the first ``blocks`` blocks.

        The CTMDP kernel sweeps values backwards, so it multiplies from the
        left — the plain CSR (or the dense stack) is already the right
        operator, no transpose needed.  ``current`` and ``workspace`` are one
        block's ``(n,)`` vector, or one column vector per loaded block stacked
        as ``(blocks, n, 1)``; the step writes the first ``blocks`` (default:
        all) of ``workspace``, which it returns, and leaves the others.
        """
        if blocks is None or blocks == self.blocks:
            if self.dense is not None:
                np.matmul(self.dense, current, out=workspace)
            else:
                workspace.ravel()[:] = self.matrix @ current.ravel()
        elif self.dense is not None:
            np.matmul(self.dense[:blocks], current[:blocks], out=workspace[:blocks])
        else:
            size = blocks * self.skeleton.num_states
            workspace.ravel()[:size] = (
                self._current.prefix(blocks, transposed=False) @ current.ravel()[:size]
            )
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
    def load(self, assignment: Assignment = None) -> float:
        """Refill the shared matrix for ``assignment`` alone; return Lambda."""
        (error,) = self._load(*self.buffer.evaluate_rates([assignment]), batched=False)
        if error is not None:
            raise error
        return self.buffer.uniformisation_rate

    def load_many(self, assignments: Sequence[Assignment]) -> List[Optional[ModelError]]:
        """Load one block per assignment (see :meth:`CsrBuffer.refill_blocks`)."""
        return self._load(*self.buffer.evaluate_rates(assignments), batched=True)

    def load_rates(
        self, values: np.ndarray, errors: List[Optional[ModelError]]
    ) -> List[Optional[ModelError]]:
        """:meth:`load_many` from the rows :meth:`CsrBuffer.evaluate_rates` returned."""
        return self._load(values, errors, batched=True)

    def _load(self, values, errors, batched: bool) -> List[Optional[ModelError]]:
        errors = self.buffer.refill_rates(values, errors)
        # Every rate*time cache key changes with the uniformisation rate, so
        # entries of rates no longer loaded would accumulate forever without
        # ever hitting.  While the loaded rates stay within the previous set
        # (one sample of the last batch, samples that happen to agree) the
        # cached term arrays are exactly the ones the next curve evaluation
        # needs — keep them.
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
        self, times: List[float], tolerance: float
    ) -> Tuple[List[List[np.ndarray]], List[int]]:
        """Each block's Poisson term arrays per time, and its truncation depth."""
        products = [rate * time for rate in self.buffer.block_rates.tolist() for time in times]
        arrays = self.term_cache.get_many(products, tolerance)
        count = len(times)
        terms = [arrays[start : start + count] for start in range(0, len(arrays), count)]
        return terms, [max(len(array) for array in row) for row in terms]


def _active_blocks(depths: Sequence[int]) -> List[int]:
    """How many leading blocks series step ``k`` computes, for ``k < max(depths)``.

    Iterate ``k`` is needed by every block whose own depth exceeds ``k``, so
    step ``k`` runs the prefix up to the last such block; the count never
    grows with ``k``.  With blocks in descending depth order every block
    stops at its own depth; in any order a block still gets each iterate it
    reads, computed exactly as alone.
    """
    active: List[int] = []
    for block in range(len(depths) - 1, -1, -1):
        # The last block reaching past the steps counted so far.
        if depths[block] > len(active):
            active.extend([block + 1] * (depths[block] - len(active)))
    return active


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
    (:meth:`load_many` to a batch of them).  One forward series
    (:meth:`_forward_series`) runs on the in-place refreshed operator and
    feeds two reducers: :meth:`probability_of_label_curve` (label masses,
    any batch) and :meth:`transient_distributions` (full state
    distributions of one sample, from any initial distribution).  The MTTF
    and steady-state generator solves read any loaded block's rates, on
    reachability structure kept per label.  Every measure of a concrete
    :class:`~repro.ctmc.ctmc.CTMC` runs on such a kernel too.
    """

    __slots__ = ("_structures",)

    def __init__(self, skeleton: CtmcSkeleton, buffer: Optional[CsrBuffer] = None):
        if buffer is not None:
            # A prebuilt buffer (e.g. the CSR pattern a skeleton store cached
            # alongside the skeleton) skips the pattern build entirely.
            if buffer.skeleton is not skeleton:
                raise ModelError(
                    "the CSR buffer was preallocated for a different skeleton"
                )
        else:
            buffer = CsrBuffer(skeleton)
        super().__init__(skeleton, buffer)
        #: Per label (``None`` for the steady state): the states a generator
        #: solve runs on, or the structural error it raises.
        self._structures: Dict[Optional[str], Union[np.ndarray, AnalysisError]] = {}

    def probability_of_label_curve(
        self,
        label: str,
        times: Sequence[float],
        tolerance: float = 1e-12,
    ) -> np.ndarray:
        """Probability of occupying a ``label``-state at each time, one sweep.

        Call :meth:`load` (curve of shape ``(times,)``) or :meth:`load_many`
        (``(blocks, times)``) first.  All time points share one forward
        series; each time's Poisson weights are applied to the recorded goal
        and total masses afterwards, and the Poisson term arrays are cached
        across samples.
        """
        self._require_loaded("transient")
        times_list = validate_times(times)
        goal = self.goal_indices(label)
        blocks = self.buffer.blocks
        if not len(goal) or not times_list:
            return self._shaped(np.zeros((blocks, len(times_list))))

        terms, depths = self._block_terms(times_list, tolerance)
        depth = max(depths)

        # Only the goal and total masses of each iterate are needed; take()
        # keeps the goal entries C-contiguous, so each block's sums are the
        # pairwise sums a lone vector gets.
        shape = self._vector(row=True)
        goal_series = np.empty((depth,) + shape[:-1])
        total_series = np.empty((depth,) + shape[:-1])
        for start, iterates in self._forward_series(depths):
            stop = start + len(iterates)
            np.add.reduce(iterates.take(goal, axis=-1), axis=-1, out=goal_series[start:stop])
            np.add.reduce(iterates, axis=-1, out=total_series[start:stop])

        goal_mass = _weigh(terms, np.ascontiguousarray(goal_series.reshape(depth, -1).T))
        total_mass = _weigh(terms, np.ascontiguousarray(total_series.reshape(depth, -1).T))
        # Renormalise the (tiny) truncated mass, as transient_distributions does.
        np.divide(goal_mass, total_mass, out=goal_mass, where=total_mass > 0.0)
        return self._shaped(goal_mass)

    def transient_distributions(
        self,
        times: Sequence[float],
        tolerance: float = 1e-12,
        initial_distribution: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """State distributions at each of ``times`` from one forward series.

        Needs one sample loaded through :meth:`load`.  Returns an array of
        shape ``(len(times), num_states)`` whose ``i``-th row is the
        distribution at ``times[i]``, started from ``initial_distribution``
        (default: all mass on the skeleton's initial state).  Each row is
        renormalised by its (tiny) truncated mass, like the label curves.
        """
        self._require_loaded("transient")
        if self._batched:
            raise AnalysisError(
                "state distributions are computed one sample at a time; "
                "load() a single assignment"
            )
        times_list = validate_times(times)
        num_states = self.skeleton.num_states
        start_vector = None
        if initial_distribution is not None:
            start_vector = np.asarray(initial_distribution, dtype=float)
            if start_vector.shape != (num_states,):
                raise AnalysisError("initial distribution has the wrong dimension")
            if not math.isclose(float(start_vector.sum()), 1.0, rel_tol=1e-9, abs_tol=1e-9):
                raise AnalysisError("initial distribution must sum to one")
        result = np.zeros((len(times_list), num_states))
        if not times_list:
            return result

        (terms,), depths = self._block_terms(times_list, tolerance)
        for start, iterates in self._forward_series(depths, start_vector):
            for row, array in zip(result, terms):
                weights = array[start : start + len(iterates)]
                row += weights @ iterates[: len(weights)]
        totals = result.sum(axis=1, keepdims=True)
        np.divide(result, totals, out=result, where=totals > 0.0)
        return result

    def _forward_series(
        self, depths: Sequence[int], initial_distribution: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """The iterates ``pi(0) P^k``, ``k < depths[b]``, of every loaded block ``b``.

        Yields ``(start, iterates)`` chunks up to the deepest block:
        ``iterates[i]`` is step ``start + i``, in the shape
        :meth:`CsrBuffer.step` takes, prefixed by the chunk axis.  Step ``k``
        computes only the leading blocks that still need it
        (:func:`_active_blocks`); a block past its own depth keeps stale
        entries, which no reader looks at.  The iterates live in a reused
        history of up to :data:`HISTORY_BYTES`, valid until the generator
        resumes, so a step costs one matvec call and a reducer sees many
        steps at once.  ``pi(0)`` is all mass on the initial state unless a
        one-block ``initial_distribution`` is given.
        """
        active = _active_blocks(depths)
        depth = len(active)
        shape = self._vector(row=True)
        chunk = max(1, min(depth, HISTORY_BYTES // (8 * self.buffer.blocks * shape[-1])))
        history, spare = self._buffers((chunk,) + shape, shape)
        buffer = self.buffer
        if initial_distribution is None:
            history[0] = 0.0
            history[0, ..., self.skeleton.initial] = 1.0
        else:
            history[0] = initial_distribution
        start = 0
        while True:
            count = min(chunk, depth - start)
            for step in range(1, count):
                buffer.step(history[step - 1], history[step], active[start + step])
            yield start, history[:count]
            start += count
            if start == depth:
                return
            history[0] = buffer.step(history[count - 1], spare, active[start])

    # ------------------------------------------------------ generator solves
    def mean_time_to_label(self, label: str, block: int = 0) -> float:
        """Expected time until loaded block ``block`` first enters a ``label``-state.

        Solves ``Q h = -1`` on the non-``label`` states reached before a
        ``label``-state, with the block's evaluated rates (the MTTF for the
        ``failed`` label).  Raises :class:`~repro.errors.AnalysisError` if no
        state carries ``label`` or a ``label``-state is not reached with
        probability one from the initial state.
        """
        self._require_loaded("transient")
        states = self._structure(label, lambda: self._hitting_states(label))
        if not len(states):
            return 0.0  # the initial state carries the label
        hitting = self._solve(states, block, -np.ones(len(states)))
        if np.any(hitting < -1e-9):
            raise AnalysisError("mean time to failure computation produced negative times")
        return float(hitting[np.searchsorted(states, self.skeleton.initial)])

    def steady_state_distribution(self, block: int = 0) -> np.ndarray:
        """Long-run state distribution of loaded block ``block``.

        The chain must have exactly one bottom strongly-connected component
        reachable from the initial state; the stationary distribution of that
        component (zero elsewhere) is returned.
        """
        self._require_loaded("transient")
        states = self._structure(None, self._bottom_states)
        rhs = np.zeros(len(states))
        rhs[-1] = 1.0
        pi = self._solve(states, block, rhs, stationary=True)
        if np.any(pi < -1e-9):
            raise AnalysisError("stationary distribution has negative entries")
        pi = np.clip(pi, 0.0, None)
        distribution = np.zeros(self.skeleton.num_states)
        distribution[states] = pi / pi.sum()
        return distribution

    def steady_state_probability_of_label(self, label: str, block: int = 0) -> float:
        """Long-run probability of occupying a ``label``-state (unavailability)."""
        return float(self.steady_state_distribution(block)[self.goal_indices(label)].sum())

    def _solve(
        self, states: np.ndarray, block: int, rhs: np.ndarray, stationary: bool = False
    ) -> np.ndarray:
        """Solve ``Q x = rhs`` for block ``block``'s generator on ``states``.

        ``stationary`` solves ``Q^T x = rhs`` with the last equation replaced
        by ``sum(x) = 1`` instead.  Dense up to :data:`DENSE_STATE_LIMIT`
        states, a sparse LU factorisation above; a singular system raises
        :class:`~repro.errors.AnalysisError`.
        """
        rates = self.buffer.edge_rates[block]
        size = len(states)
        position = np.full(self.skeleton.num_states, -1, dtype=np.int64)
        position[states] = np.arange(size)
        sources, targets = position[self.buffer._sources], position[self.buffer._targets]
        # Every edge out of ``states`` takes its rate off the diagonal; one
        # that stays among them also adds it off the diagonal.
        leaving = sources >= 0
        inside = leaving & (targets >= 0)
        rows = np.concatenate([sources[inside], sources[leaving]])
        cols = np.concatenate([targets[inside], sources[leaving]])
        values = np.concatenate([rates[inside], -rates[leaving]])
        if stationary:  # Q^T, its last row replaced by ones
            keep = cols != size - 1
            rows, cols = cols[keep], rows[keep]
            rows = np.append(rows, [size - 1] * size)
            cols = np.append(cols, range(size))
            values = np.append(values[keep], [1.0] * size)
        try:
            if size <= DENSE_STATE_LIMIT:
                matrix = np.bincount(rows * size + cols, weights=values, minlength=size * size)
                return np.linalg.solve(matrix.reshape(size, size), rhs)
            # Imported here: scipy.sparse.linalg adds about 10 MB and 0.1 s to
            # every process, and only a solve above the crossover needs it.
            from scipy.sparse.linalg import splu

            matrix = sparse.csc_matrix((values, (rows, cols)), shape=(size, size))
            return splu(matrix).solve(rhs)
        except (np.linalg.LinAlgError, RuntimeError) as error:  # a singular matrix
            raise AnalysisError(f"the generator equations are singular ({error})") from error

    def _structure(self, key: Optional[str], build) -> np.ndarray:
        """``build()``'s sorted states, or the error it raised, once per key."""
        cached = self._structures.get(key)
        if cached is None:
            try:
                cached = build()
            except AnalysisError as error:
                cached = error
            self._structures[key] = cached
        if isinstance(cached, AnalysisError):
            raise AnalysisError(str(cached))
        return cached

    def _successor_lists(self) -> List[List[int]]:
        successors: List[List[int]] = [[] for _ in range(self.skeleton.num_states)]
        for source, target, _rate in self.skeleton.edges:
            successors[source].append(target)
        return successors

    def _hitting_states(self, label: str) -> np.ndarray:
        """The non-``label`` states reached before a ``label``-state."""
        goal = self.goal_indices(label)
        if not len(goal):
            raise AnalysisError(f"no state carries label {label!r}")
        successors = self._successor_lists()
        reaches = [False] * self.skeleton.num_states
        for state in goal.tolist():
            successors[state] = []
            reaches[state] = True
        reached: List[int] = []
        # Successors first: every edge leaving a component has its verdict.
        for component in strongly_connected_components(successors, [self.skeleton.initial]):
            if reaches[component[0]]:
                continue  # a label state
            if not any(reaches[t] for state in component for t in successors[state]):
                raise AnalysisError(
                    f"states labelled {label!r} are not reached with probability "
                    "one; the mean time to failure is infinite"
                )
            for state in component:
                reaches[state] = True
            reached.extend(component)
        return np.sort(np.asarray(reached, dtype=np.int64))

    def _bottom_states(self) -> np.ndarray:
        """The one bottom component reachable from the initial state."""
        bottoms = bottom_components(self._successor_lists(), roots=[self.skeleton.initial])
        if len(bottoms) > 1:
            raise AnalysisError(
                "the chain has several reachable terminal components; the long-run "
                "distribution depends on which one is entered"
            )
        return np.asarray(bottoms[0], dtype=np.int64)


class CtmdpKernel(_SampleKernel):
    """One CTMDP skeleton's reusable bound solver across many rate samples.

    The backward-sweep analogue of :class:`TransientKernel`: the uniformised
    CSR pattern and the vectorised linear-form rate table live in a shared
    :class:`CsrBuffer`, :meth:`load` / :meth:`load_many` refill the data in
    place, and :meth:`time_bounded_reachability_curve` runs the backward
    value iteration as stacked sparse (or small-dense) matvecs plus a
    topologically-ordered
    vanishing-state resolution (:class:`~repro.ctmc.ctmdp.VanishingResolver`,
    whose max/min reductions act on every block at once).

    Because every edge rate is an exact linear form
    ``rate_e = const_e + coeffs[e] @ params``, the derivative of the
    uniformised generator w.r.t. each parameter is a *constant* sparse
    matrix; :meth:`gradient_curve` rides an ``(states x params)`` derivative
    block along the same sweep of one loaded sample and returns the gradient
    of the bound curve w.r.t. every failure-rate parameter in one extra pass
    (Birnbaum-style component importance).

    Numerical conventions (both differ from the tests' per-state reference
    engine only within the truncation tolerance, which the differential tests
    pin):

    * the uniformisation rate is the maximal exit rate over *all* tangible
      states (label-independent, so one Lambda serves every label and both
      bound directions, and the Poisson term cache survives across them);
    * the truncated Poisson tail adds ``1 - accumulated`` on the maximise
      branch and ``(1 - accumulated) * v_final`` on the minimise branch — the
      iterates are non-decreasing in the step count, so the deepest computed
      iterate is a valid lower bound on every truncated term.
    """

    __slots__ = ("resolver", "_update")

    def __init__(self, skeleton: CtmdpSkeleton):
        super().__init__(skeleton, CsrBuffer(skeleton))
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
    ) -> np.ndarray:
        """Optimal reach-``label`` probability at each of ``times``, one sweep.

        All time points (and all loaded blocks) share one backward value
        iteration up to the deepest Poisson truncation; each block's per-time
        weights are applied to its recorded initial-state series afterwards
        (the backward analogue of
        :meth:`TransientKernel.probability_of_label_curve`).
        """
        curve, _gradients = self._sweep(
            label, times, maximize, tolerance, with_gradients=False
        )
        return self._shaped(curve)

    def gradient_curve(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
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
            label, times, maximize, tolerance, with_gradients=True
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
        terms, depths = self._block_terms(times_list, tolerance)
        active = _active_blocks(depths)
        depth = len(active)
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
            # Only the leading blocks that still need this step take it.
            live = active[step + 1]
            buffer.step_forward(current, workspace, live)
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
            if live == blocks:  # a lone block's ``resolved`` is its (n,) vector
                rows, values = stacked_update, resolved
            else:
                rows, values = stacked_update[: live * len(update)], resolved[:live]
            flat[rows] = stepped[rows]
            self.resolver.resolve(values, maximize, companion=derivative if gradients else None)

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
