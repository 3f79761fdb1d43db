"""Which public functions of each layer the traced run wraps, and the
per-layer metrics computed from the resulting spans.

Layer -> module -> wrapped public functions:

* ``conversion``    core.conversion   DftToIoimcConverter.convert
* ``composition``   ioimc.composition parallel
* ``reduction``     ioimc.reduction   aggregate
* ``bisimulation``  ioimc.bisimulation minimize_weak, minimize_strong
* ``builders``      ctmc.builders     ctmc/ctmdp (skeleton) from_ioimc
* ``kernel``        ctmc.kernel, ctmc.transient   the series entry points;
  their step calls (CsrBuffer.step/step_forward, SweepWeights.column) and
  operator builds (CsrBuffer(), CTMC.uniformized_matrix) are counted
* service layers    dft.galileo.parse, dft.hashing.canonical_profile,
  StudyResult.to_dict, service.store (load, store, build_entry) and
  core.study.evaluate_skeleton_query
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.core import conversion, study
from repro.core.results import StudyResult
from repro.ctmc import builders, kernel, transient
from repro.ctmc.ctmc import CTMC
from repro.dft import galileo, hashing
from repro.ioimc import bisimulation, composition, reduction
from repro.service import store

from tracer import Tracer


def _times_arg(args, kwargs, position: int):
    times = kwargs.get("times", args[position] if len(args) > position else ())
    return max(times) if len(times) else 0.0


def _kernel_lambda_t(args, kwargs, _result) -> dict:
    return {"lambda_t": args[0].buffer.uniformisation_rate * _times_arg(args, kwargs, 2)}


def _ctmc_lambda_t(position: int):
    def describe(args, kwargs, _result) -> dict:
        rate = args[0].max_exit_rate()
        rate = rate if rate > 0.0 else 1.0  # as CTMC.uniformized_matrix
        return {"lambda_t": rate * _times_arg(args, kwargs, position)}

    return describe


def _sizes(args, _kwargs, result) -> dict:
    return {"in": args[0].num_states, "out": result.num_states}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (undo with ``tracer.uninstall``)."""
    tracer.wrap(conversion.DftToIoimcConverter, "convert", "conversion")
    tracer.wrap(
        composition,
        "parallel",
        "composition",
        lambda _args, _kwargs, result: {"states": result.num_states},
    )
    tracer.wrap(reduction, "aggregate", "reduction")
    tracer.wrap(bisimulation, "minimize_weak", "bisimulation", _sizes)
    tracer.wrap(bisimulation, "minimize_strong", "bisimulation", _sizes)
    for name in (
        "ctmc_skeleton_from_ioimc",
        "ctmdp_skeleton_from_ioimc",
        "ctmc_from_ioimc",
        "ctmdp_from_ioimc",
    ):
        tracer.wrap(builders, name, "builders")

    tracer.wrap(kernel.TransientKernel, "probability_of_label_curve", "kernel", _kernel_lambda_t)
    tracer.wrap(kernel.CtmdpKernel, "time_bounded_reachability_curve", "kernel", _kernel_lambda_t)
    tracer.wrap(kernel.CtmdpKernel, "gradient_curve", "kernel", _kernel_lambda_t)
    tracer.wrap(transient, "probability_of_label_curve", "kernel", _ctmc_lambda_t(2))
    tracer.wrap(transient, "transient_distributions", "kernel", _ctmc_lambda_t(1))
    tracer.count(kernel.CsrBuffer, "step", "kernel.steps")
    tracer.count(kernel.CsrBuffer, "step_forward", "kernel.steps")
    tracer.count(transient.SweepWeights, "column", "kernel.steps")
    tracer.count(kernel.CsrBuffer, "__init__", "kernel.structure_builds")
    tracer.count(CTMC, "uniformized_matrix", "kernel.structure_builds")

    tracer.wrap(galileo, "parse", "galileo.parse")
    tracer.wrap(hashing, "canonical_profile", "hashing.profile")
    tracer.wrap(StudyResult, "to_dict", "app.encode")
    tracer.wrap(store.SkeletonStore, "load", "store.load")
    tracer.wrap(store.SkeletonStore, "store", "store.write")
    tracer.wrap(store, "build_entry", "store.build")
    tracer.wrap(study, "evaluate_skeleton_query", "app.evaluate")


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def pipeline_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the analysis pipeline (0 where a layer never ran)."""
    spans = tracer.spans
    composition_spans = tracer.outermost("composition")
    reduction_spans = set(tracer.outermost("reduction"))
    bisimulation_spans = tracer.outermost("bisimulation")
    minimiser_rounds = sum(1 for index in bisimulation_spans if spans[index][3] in reduction_spans)
    sizes = [spans[index][4] for index in bisimulation_spans]
    steps = tracer.counts["kernel.steps"]
    kernel_spans = tracer.outermost("kernel")
    kernel_seconds = tracer.total("kernel")
    return {
        "conversion.s": tracer.total("conversion"),
        "composition.s": tracer.total("composition"),
        "composition.calls": len(composition_spans),
        "composition.peak_states": max(
            (spans[index][4]["states"] for index in composition_spans), default=0
        ),
        "reduction.self_s": tracer.self_time("reduction"),
        "reduction.rounds": minimiser_rounds / len(reduction_spans) if reduction_spans else 0.0,
        "bisimulation.s": tracer.total("bisimulation"),
        "bisimulation.calls": len(bisimulation_spans),
        "bisimulation.states_in": sum(size["in"] for size in sizes),
        "bisimulation.useful_ratio": (
            sum(1 for size in sizes if size["out"] < size["in"]) / len(sizes) if sizes else 0.0
        ),
        "builders.s": tracer.total("builders"),
        "kernel.matvecs": steps,
        "kernel.s_per_matvec": kernel_seconds / steps if steps else 0.0,
        "kernel.lambda_t": _mean([spans[index][4]["lambda_t"] for index in kernel_spans]),
        "kernel.structure_builds": tracer.counts["kernel.structure_builds"],
    }


def mean_ms(tracer: Tracer, name: str, kind: str = "") -> float:
    """Mean duration (ms) of outermost ``name`` spans, optionally only those
    inside a request span whose ``kind`` attribute equals ``kind``."""
    durations = [
        tracer.duration(index)
        for index in tracer.outermost(name)
        if not kind or tracer.scope_attr(index, "kind") == kind
    ]
    return _mean(durations) * 1000.0
