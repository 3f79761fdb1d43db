"""Seeded inputs of every workload, and the seed self-test.

Every random tree, rate jitter and sample list is drawn from a
``random.Random`` keyed on the workload name and the ``--seed`` argument,
so the same seed always yields byte-identical Galileo texts and sample
lists.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro import Unreliability, UnreliabilityBounds, with_rate_parameters
from repro.dft import galileo
from repro.dft.elements import BasicEvent
from repro.dft.hashing import structural_hash
from repro.dft.tree import DynamicFaultTree
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_family,
    cascaded_pand_system,
    pand_race_bank,
    random_dft,
)

#: Random trees per cold-ladder pass (half ``fdep``, half ``shared_spares``).
#: Their structures are ``random_dft`` seeds ``0..7``; the workload seed
#: draws their rates.  With seed-drawn structures the ladder's latency
#: median moved by about 15% from seed to seed (it lands among these
#: trees), so the seed varies only what leaves the cost unchanged.  With
#: the fixed trees a pass takes under a second, so each tree repeats some
#: twenty-five times in a run and its median repeat is steady.
LADDER_RANDOM_TREES = 8
#: Basic events of every random tree.
RANDOM_TREE_EVENTS = 8

#: CPS events whose failure rate is bound to the swept parameter ``lam``.
CPS_SWEPT_EVENTS = tuple(f"{m}{i}" for m in ("A", "C", "D") for i in range(1, 5))
#: Few enough rows that a pass takes about half a second, so every row
#: repeats some thirty-five times in a run and its median repeat is steady.
CPS_SWEEP_SAMPLES = 240
CPS_SWEEP_TIMES = (0.5, 1.0, 2.0)
RACE_SWEEP_CHANNELS = 5
#: Race-bank rows take about ten times a CPS row; as 13% of the rows they
#: put warm_p90_ms among themselves rather than on the edge between the two.
RACE_SWEEP_SAMPLES = 36
RACE_SWEEP_TIMES = (0.25, 0.5, 1.0, 2.0)

#: One service block: 7 warm CAS-structure, 3 warm CPS-structure and two
#: cold requests, shuffled.  Whole blocks keep the 70/30 warm mix and the
#: cold share the same in every run, whatever its length.
BLOCK_CAS, BLOCK_CPS, BLOCK_COLD = 7, 3, 2
BLOCK_SIZE = BLOCK_CAS + BLOCK_CPS + BLOCK_COLD
#: Blocks generated per run (the timed body stops when time is up).
SERVICE_BLOCKS = 60
#: Blocks of one fixed pass (traced run): 200 warm + 40 cold requests.
SERVICE_PASS_BLOCKS = 20
#: Multiplicative per-event rate jitter of warm requests.
JITTER = (0.8, 1.25)


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"perfbench:{workload}:{stream}:{seed}")


# ---------------------------------------------------------------- cold ladder

@dataclass(frozen=True)
class LadderTree:
    name: str
    tree: DynamicFaultTree
    bounds: bool
    #: Reference key in ``reference.json`` (fixed trees only).
    reference: str = ""

    @property
    def query(self):
        return UnreliabilityBounds([1.0]) if self.bounds else Unreliability([1.0])


def cold_ladder_inputs(seed: int) -> List[LadderTree]:
    fixed = [
        LadderTree("cas", cardiac_assist_system(), False, "cas"),
        LadderTree("cps", cascaded_pand_system(), False, "cps"),
        LadderTree("cascaded_4x5", cascaded_pand_family(4, 5), False, "cascaded_4x5"),
        LadderTree("race_bank_4", pand_race_bank(4), True, "race_bank_4"),
    ]
    rng = _rng("cold_ladder", seed, "rates")
    randoms = [
        LadderTree(
            f"random_{index}",
            jittered(random_dft(RANDOM_TREE_EVENTS, seed=index, **_pattern(index)), rng),
            True,
        )
        for index in range(LADDER_RANDOM_TREES)
    ]
    return fixed + randoms


def _pattern(index: int) -> Dict[str, bool]:
    return {"fdep": True} if index % 2 == 0 else {"shared_spares": True}


def jittered(tree: DynamicFaultTree, rng: random.Random) -> DynamicFaultTree:
    """A copy of ``tree`` with every failure rate scaled by seeded jitter.

    The structural hash ignores concrete rates, so a jittered copy is the
    same structure under a fresh rate assignment.
    """
    copy = DynamicFaultTree(tree.name)
    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            element = replace(
                element, failure_rate=element.failure_rate * rng.uniform(*JITTER)
            )
        copy.add(element)
    copy.set_top(tree.top)
    return copy


# ----------------------------------------------------------------- rate sweep

def cps_sweep_tree() -> DynamicFaultTree:
    return with_rate_parameters(
        cascaded_pand_system(), {event: "lam" for event in CPS_SWEPT_EVENTS}
    )


def race_sweep_tree() -> DynamicFaultTree:
    return with_rate_parameters(pand_race_bank(RACE_SWEEP_CHANNELS))


def rate_sweep_samples(
    seed: int, race_parameters: Dict[str, float]
) -> Tuple[List[Dict[str, float]], List[Dict[str, float]]]:
    """(CPS ``lam`` samples, race-bank rate-scaled samples)."""
    rng = _rng("rate_sweep", seed, "samples")
    cps = [{"lam": lam} for lam in stratified(rng, CPS_SWEEP_SAMPLES, 0.05, 2.0)]
    race = [
        {name: nominal * scale for name, nominal in race_parameters.items()}
        for scale in stratified(rng, RACE_SWEEP_SAMPLES, 0.35, 2.9)
    ]
    return cps, race


def stratified(rng: random.Random, count: int, low: float, high: float) -> List[float]:
    """``count`` shuffled draws from ``[low, high)``, one from each of
    ``count`` equal strata.

    A row's cost grows with its rates, so the latency percentiles follow
    the sample quantiles: stratified draws pin those quantiles from seed to
    seed while every draw still comes from the seed.
    """
    width = (high - low) / count
    values = [low + width * (index + rng.random()) for index in range(count)]
    rng.shuffle(values)
    return values


# -------------------------------------------------------------------- service

@dataclass(frozen=True)
class Request:
    kind: str  # "cas", "cps" or "cold"
    text: str


def service_requests(seed: int, blocks: int = SERVICE_BLOCKS) -> List[Request]:
    """The seeded request stream: ``blocks`` shuffled blocks of ``BLOCK_SIZE`` requests.

    Cold trees have pairwise distinct structures, none equal to CAS or CPS,
    so every cold request is a store miss.  Block ``b`` always holds the
    same two cold structures (``cold_structures``) and the seed draws their
    rates: with seed-drawn structures ``cold_p50_ms`` moved with the mix of
    trees a seed happened to draw.
    """
    rng = _rng("service_mixed", seed, "requests")
    cas, cps = cardiac_assist_system(), cascaded_pand_system()
    structures = cold_structures(blocks * BLOCK_COLD)
    requests: List[Request] = []
    for block_index in range(blocks):
        block = [Request("cas", galileo.write(jittered(cas, rng))) for _ in range(BLOCK_CAS)]
        block += [Request("cps", galileo.write(jittered(cps, rng))) for _ in range(BLOCK_CPS)]
        block += [
            Request("cold", galileo.write(jittered(tree, rng)))
            for tree in structures[block_index * BLOCK_COLD : (block_index + 1) * BLOCK_COLD]
        ]
        rng.shuffle(block)
        requests.extend(block)
    return requests


def cold_structures(count: int) -> List[DynamicFaultTree]:
    """``count`` random trees of pairwise distinct structures, none CAS or
    CPS, the same for every seed: ``random_dft`` seeds 0, 1, ... in turn,
    alternating ``fdep`` and ``shared_spares``, skipping repeated structures."""
    seen = {structural_hash(cardiac_assist_system()), structural_hash(cascaded_pand_system())}
    trees: List[DynamicFaultTree] = []
    index = 0
    while len(trees) < count:
        tree = random_dft(RANDOM_TREE_EVENTS, seed=index, **_pattern(index))
        index += 1
        tree_hash = structural_hash(tree)
        if tree_hash not in seen:
            seen.add(tree_hash)
            trees.append(tree)
    return trees


# ------------------------------------------------------------------ self-test

def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _seeded_inputs(seed: int, service_blocks: int) -> Dict[str, object]:
    ladder = [galileo.write(item.tree) for item in cold_ladder_inputs(seed)]
    cps, race = rate_sweep_samples(seed, race_sweep_tree().parameters)
    service = [
        [request.kind, request.text]
        for request in service_requests(seed, service_blocks)
    ]
    return {"ladder": ladder, "cps": cps, "race": race, "service": service}


def self_test(seed: int, service_blocks: int = 4) -> List[str]:
    """Problems with the seeding, or an empty list.

    The same seed must give byte-identical Galileo texts and sample lists;
    the next seed must give different random trees.
    """
    first = _seeded_inputs(seed, service_blocks)
    again = _seeded_inputs(seed, service_blocks)
    other = _seeded_inputs(seed + 1, service_blocks)
    problems = [
        f"seed {seed} gave different {key} inputs on a second generation"
        for key in first
        if _digest(first[key]) != _digest(again[key])
    ]
    ladder_random = slice(len(first["ladder"]) - LADDER_RANDOM_TREES, None)
    if first["ladder"][ladder_random] == other["ladder"][ladder_random]:
        problems.append(f"seeds {seed} and {seed + 1} gave the same random ladder trees")
    def cold(inputs):
        return [text for kind, text in inputs["service"] if kind == "cold"]

    if cold(first) == cold(other):
        problems.append(f"seeds {seed} and {seed + 1} gave the same cold service trees")
    return problems
