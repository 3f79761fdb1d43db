"""``parallel`` keeps a component's rate object where it sums nothing."""

from repro.ioimc import IOIMC, signature
from repro.ioimc.composition import parallel
from repro.ioimc.rates import ParametricRate


def _parametric_chain(name: str, parameters) -> IOIMC:
    model = IOIMC(name, signature())
    current = model.add_state(initial=True)
    for parameter in parameters:
        nxt = model.add_state()
        model.add_markovian(current, ParametricRate(0.0, {parameter: 1.0}, {parameter: 0.5}), nxt)
        current = nxt
    return model


def test_unsummed_moves_hold_the_component_rate_objects():
    left = _parametric_chain("left", ["a", "b"])
    right = _parametric_chain("right", ["c", "d", "e"])
    component_rates = {
        id(rate)
        for model in (left, right)
        for state in model.states()
        for rate, _target in model.markovian_out(state)
    }
    product = parallel(left, right)
    moves = [rate for state in product.states() for rate, _target in product.markovian_out(state)]
    # Every product state interleaves one left and one right move to
    # different targets, so no move sums two rates.
    assert len(moves) == 2 * 4 + 3 * 3
    assert all(id(rate) in component_rates for rate in moves)
