"""The three benchmark workloads.

Each workload has a set-up (timed as ``setup_s``), a pass over its ops,
output checks made outside the timed region, and a traced run that gives
the per-layer metrics.  Why each workload exists is written in
``perfbench/README.md``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import RateSweep, Study, SweepStudy, Unreliability, UnreliabilityBounds
from repro import StudyOptions, SweepResult, substitute_parameters
from repro.dft import galileo
from repro.ioimc.reduction import AggregationOptions
from repro.service.app import AnalysisService
from repro.service.store import SkeletonStore
from repro.systems import cardiac_assist_system, cascaded_pand_system

import inputs
import layers
import yardstick
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (listed in .gitignore).
WORK_DIR = ROOT / ".perfbench-work"
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: Independent engine for values not recorded in reference.json: the
#: signature-refinement minimiser the repository keeps as its oracle.
ORACLE_OPTIONS = StudyOptions(aggregation=AggregationOptions(minimiser="signature"))
TOLERANCE = 1e-9
#: The transient solvers' default truncation tolerance: two correct engines
#: may differ by this much on a value of any size.
ABSOLUTE = 1e-12
#: Sweep rows checked against a fresh per-sample evaluate (CPS, race bank).
#: The CPS spot checks run in every pass as the sweep's timed cold ops; the
#: race-bank ones (several times slower) run once, in the checks.
SPOT_CHECKS = (3, 2)
#: Passes each way behind ``trace.overhead`` (a single pass of either kind
#: can land in one of the host's slow spells).
TRACE_REPEATS = 3


@dataclass
class OpLog:
    """Ops attempted and failed, and the latency of each completed op."""

    attempted: int = 0
    failed: int = 0
    #: Latencies (ms) of warm and cold ops, keyed by op: an op repeated in
    #: every pass keeps one list of its repeats.  In-process workloads record
    #: them at the yardstick's reference speed (see ``yardstick.py``).
    warm: Dict[object, List[float]] = field(default_factory=dict)
    cold: Dict[object, List[float]] = field(default_factory=dict)
    #: Seconds of every timed unit (an op; for ``rate_sweep`` also each
    #: sweep run's own work outside its rows) per repeat, and the ops each
    #: unit completes.
    units: Dict[object, List[float]] = field(default_factory=dict)
    unit_ops: Dict[object, int] = field(default_factory=dict)
    passes: int = 0
    problems: List[str] = field(default_factory=list)
    #: Timings recorded in the current pass, as (repeats, index).
    _pass: List[Tuple[List[float], int]] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def warm_op(self, op, milliseconds: float) -> None:
        self._add(self.warm, op, milliseconds)

    def cold_op(self, op, milliseconds: float) -> None:
        self._add(self.cold, op, milliseconds)

    def unit(self, key, ops: int, seconds: float) -> None:
        self._add(self.units, key, seconds)
        self.unit_ops[key] = ops

    def _add(self, table: Dict[object, List[float]], key, value: float) -> None:
        repeats = table.setdefault(key, [])
        repeats.append(value)
        self._pass.append((repeats, len(repeats) - 1))

    def end_pass(self, factor: float) -> None:
        """Multiply every timing recorded since the last pass by ``factor``."""
        for repeats, index in self._pass:
            repeats[index] *= factor
        self._pass.clear()
        self.passes += 1


def values_of(result) -> Tuple[float, ...]:
    """The numbers of a study result's first measure (point values or bounds)."""
    measure = result.measures[0]
    if measure.values is not None:
        return tuple(measure.values)
    return tuple(measure.lower) + tuple(measure.upper)


def close_to(actual, expected) -> bool:
    """Equal to ``TOLERANCE`` relative, or within the solvers' absolute
    truncation tolerance ``ABSOLUTE`` (which decides for tiny values)."""
    return len(actual) == len(expected) and all(
        math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=ABSOLUTE)
        for a, b in zip(actual, expected)
    )


def run_cold_op(log: OpLog, values: Dict[object, tuple], key, op: Callable) -> None:
    """Time one repeat of the cold op ``key`` and keep its values in
    ``values``; a repeat that disagrees with an earlier one fails."""
    log.attempted += 1
    try:
        start = time.perf_counter()
        result = op()
        log.cold_op(key, (time.perf_counter() - start) * 1000.0)
    except Exception as error:  # an op failure is counted, not fatal
        log.fail(f"cold {key}: {error!r}")
        return
    if values.setdefault(key, result) != result:
        log.fail(f"cold {key}: repeats differ, {values[key]} and {result}")


def paper_digits_match(value: float, paper: str) -> bool:
    """``value`` truncated to the digits the paper prints equals ``paper``."""
    digits = len(paper.split(".")[1])
    return f"{math.floor(value * 10**digits) / 10**digits:.{digits}f}" == paper


class Workload:
    """Set-up, one pass of ops, checks and the traced run of one workload."""

    name = ""
    #: Whether timings (and ``setup_s``) are scaled by the yardstick.
    scaled = True

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, log: OpLog) -> None:
        """Run one pass over the workload's ops."""
        raise NotImplementedError

    def timed(self, seconds: float, log: OpLog) -> None:
        """Whole passes until ``seconds`` have passed, each scaled to the
        yardstick's reference speed by the faster of the yardstick's runs
        just before and just after it (a single run is sometimes slowed by
        an interrupt).

        Passes take turns on the CPUs the process may use: on a shared host
        one CPU can be slowed by other tenants for many seconds while the
        other is not.
        """
        cpus = sorted(os.sched_getaffinity(0))
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                os.sched_setaffinity(0, {cpus[log.passes % len(cpus)]})
                before = yardstick.seconds()
                self.run_pass(log)
                log.end_pass(yardstick.REFERENCE_S / min(before, yardstick.seconds()))
        finally:
            os.sched_setaffinity(0, cpus)

    def check(self, log: OpLog) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Stop whatever runs beside the workload (the service's server)."""

    def close(self) -> None:
        """Stop and remove everything the workload made."""
        self.stop()

    def peak_rss_mb(self) -> float:
        return peak_rss_of("self")

    def trace(self, seed: int, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        """Untraced passes, then traced ones; returns the per-layer metrics.

        The spans come from the first traced pass, whose instance also sets
        up under the tracer, so model builds done in set-up show in the
        layer times.  ``trace.overhead`` compares the fastest of
        ``TRACE_REPEATS`` untraced and traced passes, taken in turns; these
        later traced passes record into a throwaway tracer.
        """
        self.setup(seed)
        self.run_pass(OpLog())  # warm-up: one-time costs stay out of both passes
        traced_run = type(self)()
        layers.install(tracer)
        try:
            traced_run.setup(seed)
            traced = timed_pass(traced_run, log)
        finally:
            tracer.uninstall()
        traced_run.check(log)
        metrics = layers.pipeline_metrics(tracer)
        metrics.update(traced_run.layer_metrics())
        metrics["trace.pass_s"] = traced
        untraced_passes, traced_passes = [], []
        throwaway = Tracer()
        for _ in range(TRACE_REPEATS):
            untraced_passes.append(timed_pass(self))
            layers.install(throwaway)
            try:
                traced_passes.append(timed_pass(traced_run))
            finally:
                throwaway.uninstall()
        metrics["trace.overhead"] = min(traced_passes) / min(untraced_passes) - 1.0
        return metrics

    def layer_metrics(self) -> Dict[str, float]:
        """Workload-specific per-layer metrics of a traced pass."""
        return {}


def timed_pass(workload: Workload, log: Optional[OpLog] = None) -> float:
    """Seconds of one pass of ``workload``."""
    start = time.perf_counter()
    workload.run_pass(OpLog() if log is None else log)
    return time.perf_counter() - start


def peak_rss_of(pid) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ------------------------------------------------------------------ cold ladder

class ColdLadder(Workload):
    """A fresh, cache-less Study per tree; one op is one tree."""

    name = "cold_ladder"

    def setup(self, seed: int) -> None:
        self.items = inputs.cold_ladder_inputs(seed)
        self.outputs: List[tuple] = []

    def run_pass(self, log: OpLog) -> None:
        for item in self.items:
            log.attempted += 1
            try:
                start = time.perf_counter()
                study = Study(item.tree)
                cold = study.evaluate(item.query)
                middle = time.perf_counter()
                # The warm op re-asks the model the cold op just built.
                warm = study.evaluate(item.query)
                end = time.perf_counter()
            except Exception as error:  # an op failure is counted, not fatal
                log.fail(f"{item.name}: {error!r}")
                continue
            log.cold_op(item.name, (middle - start) * 1000.0)
            log.warm_op(item.name, (end - middle) * 1000.0)
            log.unit(item.name, 1, end - start)
            self.outputs.append((item, values_of(cold), values_of(warm)))

    def check(self, log: OpLog) -> None:
        references = REFERENCE["cold_ladder"]
        expected: Dict[str, Tuple[float, ...]] = {}
        for item in self.items:
            if item.reference:
                expected[item.name] = tuple(references[item.reference])
            else:
                expected[item.name] = values_of(
                    Study(item.tree, ORACLE_OPTIONS).evaluate(item.query)
                )
        paper = REFERENCE["paper"]
        for item, cold, warm in self.outputs:
            problem = None
            if warm != cold:
                problem = f"warm re-query {warm} differs from the cold result {cold}"
            elif not close_to(cold, expected[item.name]):
                problem = f"{cold} differs from the expected {expected[item.name]}"
            elif item.name in paper and not paper_digits_match(cold[0], paper[item.name]):
                problem = f"{cold[0]} does not match the paper's {paper[item.name]}"
            if problem:
                log.fail(f"{item.name}: {problem}")


# ------------------------------------------------------------------- rate sweep

def _fresh_values(tree, sample, query) -> tuple:
    """``query`` on a fresh Study of ``tree`` (with ``sample`` substituted)."""
    if sample is not None:
        tree = substitute_parameters(tree, sample)
    return values_of(Study(tree).evaluate(query))


@dataclass
class SweepPart:
    kind: str  # "ctmc" or "ctmdp"
    tree: object
    study: SweepStudy
    sweep: RateSweep
    #: Results of the first and the latest pass (earlier ones are dropped,
    #: so memory does not grow with the number of passes).
    first: Optional[SweepResult] = None
    last: Optional[SweepResult] = None


class RateSweepWorkload(Workload):
    """Warm serial SweepStudy.run on skeletons built in set-up; one op is one
    row.  The cold ops are spot-check rows on a fresh per-sample Study."""

    name = "rate_sweep"

    def setup(self, seed: int) -> None:
        cps_tree, race_tree = inputs.cps_sweep_tree(), inputs.race_sweep_tree()
        cps_samples, race_samples = inputs.rate_sweep_samples(seed, race_tree.parameters)
        self.parts = [
            SweepPart(
                "ctmc",
                cps_tree,
                SweepStudy(cps_tree),
                RateSweep(Unreliability(inputs.CPS_SWEEP_TIMES), cps_samples),
            ),
            SweepPart(
                "ctmdp",
                race_tree,
                SweepStudy(race_tree),
                RateSweep(UnreliabilityBounds(inputs.RACE_SWEEP_TIMES), race_samples),
            ),
        ]
        for part in self.parts:
            part.study.skeleton
        rng = random.Random(f"perfbench:rate_sweep:spot:{seed}")
        self.spots = {
            part.kind: [
                (
                    (part.kind, index),
                    partial(_fresh_values, part.tree, part.sweep.samples[index], part.sweep.query),
                )
                for index in rng.sample(range(len(part.sweep.samples)), count)
            ]
            for part, count in zip(self.parts, SPOT_CHECKS)
        }
        self.cold_values: Dict[object, tuple] = {}

    def run_pass(self, log: OpLog) -> None:
        for part in self.parts:
            samples = len(part.sweep.samples)
            log.attempted += samples
            try:
                start = time.perf_counter()
                result = part.study.run(part.sweep)
                seconds = time.perf_counter() - start
            except Exception as error:  # an op failure is counted, not fatal
                for _ in range(samples):
                    log.fail(f"{part.kind} sweep: {error!r}")
                continue
            for index, row in enumerate(result.rows):
                if row.error:
                    log.fail(f"{part.kind} row {row.sample}: {row.error}")
                else:
                    log.warm_op((part.kind, index), row.wall_seconds * 1000.0)
                    log.unit((part.kind, index), 1, row.wall_seconds)
            # The run's own work outside its rows (kernel set-up, collation).
            rows_seconds = sum(row.wall_seconds for row in result.rows)
            log.unit((part.kind, "run"), 0, seconds - rows_seconds)
            if part.first is None:
                part.first = result
            part.last = result
        for key, op in self.spots["ctmc"]:
            run_cold_op(log, self.cold_values, key, op)

    def check(self, log: OpLog) -> None:
        for key, op in self.spots["ctmdp"]:
            try:
                self.cold_values[key] = op()
            except Exception as error:  # a failed check is counted, not fatal
                log.fail(f"ctmdp spot {key}: {error!r}")
        rows = {}
        for part in self.parts:
            if part.first is None:
                continue
            for index, (row, again) in enumerate(zip(part.first.rows, part.last.rows)):
                rows[(part.kind, index)] = row
                if row.measures != again.measures:
                    log.fail(f"{part.kind} row {row.sample} changed between passes")
        for key, fresh in self.cold_values.items():
            if key in rows and not close_to(values_of(rows[key]), fresh):
                log.fail(f"{key[0]} row {rows[key].sample}: {values_of(rows[key])} != fresh {fresh}")

    def layer_metrics(self) -> Dict[str, float]:
        metrics = {}
        for part in self.parts:
            timings = part.last.timings if part.last else {}
            metrics[f"sweep.{part.kind}.instantiate_s"] = timings.get("instantiate", 0.0)
            metrics[f"sweep.{part.kind}.solve_s"] = timings.get("solve", 0.0)
        return metrics


# --------------------------------------------------------------- service mixed

STARTUP_TIMEOUT = 60.0
#: Served responses re-checked in-process, besides every cold one.
CHECKED_WARM = {"cas": 20, "cps": 4}


class Server:
    """A ``repro serve`` subprocess on an ephemeral port over ``store_dir``."""

    def __init__(self, store_dir: Path):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--cache-dir", str(store_dir), "--port", "0"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = self._banner()
            address = banner.split()[2].split("//")[1]
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def _banner(self) -> str:
        lines: List[str] = []
        reader = threading.Thread(
            target=lambda: lines.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(STARTUP_TIMEOUT)
        if not lines or not lines[0].startswith("serving on "):
            raise RuntimeError(f"server did not start: {lines[0] if lines else 'timeout'}")
        # Keep draining output so a chatty server never blocks on a full pipe.
        threading.Thread(target=self.process.stdout.read, daemon=True).start()
        return lines[0]

    def peak_rss_mb(self) -> float:
        return peak_rss_of(self.process.pid)

    def pin(self, cpu: int) -> None:
        """Run every thread of the server on ``cpu``."""
        for thread in os.listdir(f"/proc/{self.process.pid}/task"):
            try:
                os.sched_setaffinity(int(thread), {cpu})
            except ProcessLookupError:  # the thread has just ended
                pass

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def post_analyze(connection: http.client.HTTPConnection, text: str) -> Tuple[int, bytes]:
    body = json.dumps({"tree": text}).encode()
    connection.request(
        "POST", "/analyze", body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def local_values(text: str, **options) -> Tuple[float, ...]:
    """The in-process Study result of ``text``, as the service asks it."""
    study = Study(galileo.parse(text, name="<request>"), **options)
    query = UnreliabilityBounds([1.0]) if study.is_nondeterministic else Unreliability([1.0])
    return values_of(study.evaluate(query))


def served_values(response: dict) -> Tuple[float, ...]:
    measure = response["measures"][0]
    if "values" in measure:
        return tuple(measure["values"])
    return tuple(measure["lower"]) + tuple(measure["upper"])


class ServiceMixed(Workload):
    """A ``repro serve`` subprocess driven by one closed-loop client; one op
    is one ``/analyze`` request."""

    name = "service_mixed"
    #: Client latencies hold the server's fixed network stalls, which a
    #: slow host does not stretch: they stay as measured.
    scaled = False

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.work: Optional[Path] = None

    def setup(self, seed: int) -> None:
        self.requests = inputs.service_requests(seed)
        WORK_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="service-", dir=WORK_DIR))
        self.store_dir = self.work / "store"
        self.responses: Dict[int, tuple] = {}
        try:
            self.server = Server(self.store_dir)
            connection = self._connect()
            try:
                for tree in (cardiac_assist_system(), cascaded_pand_system()):
                    status, _body = post_analyze(connection, galileo.write(tree))
                    if status != 200:
                        raise RuntimeError(f"store warm-up request failed with {status}")
            finally:
                connection.close()
        except BaseException:
            self.close()
            raise

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.server.host, self.server.port, timeout=120)

    def _drive(self, blocks: int, deadline: float, log: OpLog) -> None:
        """Send whole request blocks closed-loop until ``deadline``; each block
        counts as a pass.

        Like the in-process passes, blocks take turns on the CPUs: the
        server runs on one and the client on the other.
        """
        cpus = sorted(os.sched_getaffinity(0))
        connection = self._connect()
        try:
            for block in range(blocks):
                if time.perf_counter() >= deadline:
                    break
                self.server.pin(cpus[block % len(cpus)])
                os.sched_setaffinity(0, {cpus[(block + 1) % len(cpus)]})
                for index in range(block * inputs.BLOCK_SIZE, (block + 1) * inputs.BLOCK_SIZE):
                    request = self.requests[index]
                    log.attempted += 1
                    sent = time.perf_counter()
                    try:
                        status, body = post_analyze(connection, request.text)
                    except (OSError, http.client.HTTPException) as error:
                        connection.close()
                        connection = self._connect()
                        status, body = 0, repr(error).encode()
                    seconds = time.perf_counter() - sent
                    latency = seconds * 1000.0
                    self.responses[index] = (status, body, latency)
                    if status != 200:
                        log.fail(f"request {index} ({request.kind}): status {status} {body[:200]!r}")
                        continue
                    (log.cold_op if request.kind == "cold" else log.warm_op)(index, latency)
                    log.unit(index, 1, seconds)
                log.end_pass(1.0)
        finally:
            os.sched_setaffinity(0, cpus)
            connection.close()

    def timed(self, seconds: float, log: OpLog) -> None:
        self._drive(inputs.SERVICE_BLOCKS, time.perf_counter() + seconds, log)

    def run_pass(self, log: OpLog) -> None:
        self._drive(inputs.SERVICE_PASS_BLOCKS, math.inf, log)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.stop()
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)

    def check(self, log: OpLog) -> None:
        """Needs the server stopped; reads the store it left behind."""
        store = SkeletonStore(self.store_dir)
        checked = {kind: 0 for kind in CHECKED_WARM}
        for index in sorted(self.responses):
            status, body, _latency = self.responses[index]
            request = self.requests[index]
            if status != 200:
                continue  # already counted as failed
            response = json.loads(body)
            expected_cache = "miss" if request.kind == "cold" else "hit"
            if response["service"]["cache"] != expected_cache:
                log.fail(f"request {index} ({request.kind}): cache {response['service']['cache']}")
                continue
            if request.kind != "cold":
                if checked[request.kind] >= CHECKED_WARM[request.kind]:
                    continue
                checked[request.kind] += 1
            served = served_values(response)
            local = local_values(request.text, skeleton_cache=store)
            # A cache-less Study checks the store's entry, the skeleton codec
            # and the rate translation, which the same-store Study shares.
            fresh = local_values(request.text)
            if served != local:
                log.fail(f"request {index} ({request.kind}): served {served} != in-process {local}")
            elif not close_to(served, fresh):
                log.fail(f"request {index} ({request.kind}): served {served} != cache-less {fresh}")

    # ---------------------------------------------------------------- traced run
    def trace(self, seed: int, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        """Client latency over HTTP, then the same requests in-process through
        ``AnalysisService.handle``, untraced and traced."""
        self.setup(seed)
        try:
            http_log = OpLog()
            self.run_pass(http_log)
            count = len(self.responses)
            client_ms = {
                kind: [
                    self.responses[index][2]
                    for index in range(count)
                    if self.requests[index].kind == kind and self.responses[index][0] == 200
                ]
                for kind in ("cas", "cps")
            }
            self.stop()
            warmed = self.work / "warmed"
            service = AnalysisService(SkeletonStore(warmed))
            keys = {}
            for kind, tree in (("cas", cardiac_assist_system()), ("cps", cascaded_pand_system())):
                _status, response = service.handle("POST", "/analyze", {"tree": galileo.write(tree)})
                keys[kind] = response["service"]["key"]
            requests = self.requests[:count]
            shutil.copytree(warmed, self.work / "untraced")
            shutil.copytree(warmed, self.work / "traced")

            untraced_service = AnalysisService(SkeletonStore(self.work / "untraced"))
            start = time.perf_counter()
            for request in requests:
                json.dumps(untraced_service.handle("POST", "/analyze", {"tree": request.text})[1])
            untraced = time.perf_counter() - start

            traced_store = SkeletonStore(self.work / "traced")
            traced_service = AnalysisService(traced_store)
            layers.install(tracer)
            try:
                start = time.perf_counter()
                for request in requests:
                    log.attempted += 1
                    with tracer.span("app.handle", {"kind": request.kind}):
                        status, response = traced_service.handle(
                            "POST", "/analyze", {"tree": request.text}
                        )
                        with tracer.span("app.encode"):
                            json.dumps(response)
                    if status != 200:
                        log.fail(f"in-process {request.kind} request: status {status}")
                traced = time.perf_counter() - start
            finally:
                tracer.uninstall()
            log.failed += http_log.failed
            log.problems += http_log.problems

            metrics = layers.pipeline_metrics(tracer)
            lookups = traced_store.hits + traced_store.misses
            metrics["store.hit_ratio"] = traced_store.hits / lookups if lookups else 0.0
            handles = len(requests)
            metrics["galileo.parse_ms"] = layers.mean_ms(tracer, "galileo.parse")
            metrics["hashing.profile_ms"] = layers.mean_ms(tracer, "hashing.profile")
            metrics["app.encode_ms"] = tracer.total("app.encode") / handles * 1000.0
            handle_cas = [
                tracer.duration(index) * 1000.0
                for index in tracer.outermost("app.handle")
                if tracer.spans[index][4]["kind"] == "cas"
            ]
            metrics["http.overhead_ms"] = statistics.median(client_ms["cas"]) - statistics.median(handle_cas)
            for kind in ("cas", "cps"):
                metrics[f"app.handle_ms.{kind}"] = layers.mean_ms(tracer, "app.handle", kind)
                metrics[f"app.evaluate_ms.{kind}"] = layers.mean_ms(tracer, "app.evaluate", kind)
                metrics[f"store.load_ms.{kind}"] = layers.mean_ms(tracer, "store.load", kind)
                entry = traced_store.load(keys[kind])
                metrics[f"store.entry_kb.{kind}"] = traced_store.path_of(keys[kind]).stat().st_size / 1024.0
                metrics[f"store.skeleton_states.{kind}"] = entry.model.states
                tree = cardiac_assist_system() if kind == "cas" else cascaded_pand_system()
                metrics[f"store.lumping_ratio.{kind}"] = (
                    entry.model.states / Study(tree).markov_model.num_states
                )
            metrics["store.build_ms"] = layers.mean_ms(tracer, "store.build")
            metrics["store.write_ms"] = layers.mean_ms(tracer, "store.write")
            metrics["trace.pass_s"] = traced
            metrics["trace.overhead"] = traced / untraced - 1.0
            return metrics
        finally:
            self.close()


WORKLOADS = {
    workload.name: workload
    for workload in (ColdLadder, RateSweepWorkload, ServiceMixed)
}
