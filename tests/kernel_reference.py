"""Per-sample reference series for the batched uniformisation kernels.

Each function loads one assignment as the only block of a kernel's buffer
and runs the series the way a lone sample was always run: one state vector,
1-D matvecs on the single block's operator, ``x[goal].sum()``-style
reductions and per-time dot products.  A batched kernel must reproduce these
curves bit for bit, whatever batch a sample shares.
"""

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.ctmc.kernel import CtmdpKernel, TransientKernel
from repro.ctmc.transient import poisson_terms


def _step(buffer, vector: np.ndarray, backward: bool) -> np.ndarray:
    if buffer.dense is not None:
        dense = buffer.dense
        return dense @ vector if backward else vector @ dense
    return buffer.matrix @ vector if backward else buffer.transposed @ vector


def per_sample_label_curve(
    kernel: TransientKernel,
    assignment: Optional[Mapping[str, float]],
    label: str,
    times: Sequence[float],
    tolerance: float = 1e-12,
) -> np.ndarray:
    """The label-probability curve of one sample, stepped alone."""
    buffer = kernel.buffer
    _matrix, rate = buffer.refill(assignment)
    terms = [poisson_terms(rate * time, tolerance) for time in times]
    depth = max(len(array) for array in terms)
    goal = kernel.goal_indices(label)
    goal_series, total_series = np.empty(depth), np.empty(depth)
    current = np.zeros(kernel.skeleton.num_states)
    current[kernel.skeleton.initial] = 1.0
    for step in range(depth):
        goal_series[step] = current[goal].sum()
        total_series[step] = current.sum()
        current = _step(buffer, current, backward=False)
    goal_mass = np.array([array @ goal_series[: len(array)] for array in terms])
    total_mass = np.array([array @ total_series[: len(array)] for array in terms])
    np.divide(goal_mass, total_mass, out=goal_mass, where=total_mass > 0.0)
    return goal_mass


def per_sample_bound_curve(
    kernel: CtmdpKernel,
    assignment: Optional[Mapping[str, float]],
    label: str,
    times: Sequence[float],
    maximize: bool,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """The reach-``label`` bound curve of one sample, swept alone."""
    buffer = kernel.buffer
    _matrix, rate = buffer.refill(assignment)
    terms = [poisson_terms(rate * time, tolerance) for time in times]
    depth = max(len(array) for array in terms)
    goal = kernel.goal_indices(label)
    update = kernel.update_indices(label)
    initial = kernel.skeleton.initial
    current = np.zeros(kernel.skeleton.num_states)
    current[goal] = 1.0
    kernel.resolver.resolve(current, maximize)
    series = np.empty(depth)
    for step in range(depth):
        series[step] = current[initial]
        if step + 1 == depth:
            break
        stepped = _step(buffer, current, backward=True)
        current[update] = stepped[update]
        kernel.resolver.resolve(current, maximize)
    results = np.array([array @ series[: len(array)] for array in terms])
    tail = 1.0 - np.array([array.sum() for array in terms])
    if maximize:
        results = np.minimum(1.0, results + tail)
    else:
        results = results + tail * float(series[depth - 1])
    return np.clip(results, 0.0, 1.0)
