"""Shared benchmark workload builders.

Importable both from the pytest benchmarks (``bench_scalability.py``) and the
dependency-free CI smoke script (``smoke_fig2.py``), so the two always
measure the *same* workload — only :mod:`repro` imports allowed here.
"""

from repro.core import convert
from repro.ioimc import IOIMC, parallel, signature
from repro.systems import cascaded_pand_family


def largest_minimisation_workload(num_modules: int, events_per_module: int):
    """The biggest weak-minimisation input the family instance can produce.

    Mirrors the aggregation engine: the two largest module chains are each
    fused with a consumer they communicate with, the two composites are
    composed, and every output no remaining community member listens to is
    hidden — a large, tau-heavy intermediate exactly like the products the
    weak minimiser sees mid-aggregation.
    """
    tree = cascaded_pand_family(num_modules, events_per_module)
    members = sorted(convert(tree).models(), key=lambda m: -m.num_states)
    chains = members[:2]
    used = set(chains)
    composites = []
    for chain in chains:
        partner = next(
            m
            for m in members
            if m not in used and (m.signature.inputs & chain.signature.outputs)
        )
        used.add(partner)
        composites.append(parallel(chain, partner, fuse=True))
    product = parallel(composites[0], composites[1], fuse=True)
    external = set()
    for other in members:
        if other not in used:
            external |= other.signature.inputs
    hideable = product.signature.outputs - external
    return product.hide(hideable) if hideable else product


def tau_heavy_chain(num_states: int) -> IOIMC:
    """A long interactive chain, two internal steps for every visible one.

    Every state sits at a distinct distance from the chain's end, so no two
    states are bisimilar and the quotient equals the input — the refinement
    loop must split all the way down to singletons.  That makes the chain the
    adversarial case for refinement scheduling: an engine that reprocesses
    ever-larger blocks does quadratic work, where keeping the largest part
    of every split in place re-signs each state only O(log n) times.
    """
    model = IOIMC(
        "tau-chain", signature(outputs=("observe",), internals=("tick",))
    )
    for _ in range(num_states):
        model.add_state()
    for state in range(num_states - 1):
        model.add_interactive(state, "tick" if state % 3 else "observe", state + 1)
    model.set_initial(0)
    return model
