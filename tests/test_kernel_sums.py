"""The recurrent kernels' batched work keeps the bits of a step-by-step loop.

The weight gradients are one ordered sum per gate and weight instead of one
outer product and one add per step; the input projections and the LSTM's
input gradient are stacked GEMVs instead of one GEMV per step and gate. The
sums are compared with step-by-step loops written here, the whole kernels
with the per-step tape of `recurrence_oracle`. Values spread over 1e-6..10
with both signs, so a sum taken in another order, with other accumulators or
with a fused multiply-add differs in its last bits.
"""

import numpy as np
import pytest
import recurrence_oracle

from absalab import layers
from absalab.autograd import Tensor
from absalab.layers import CellParams

LENGTHS = (1, 2, 8, 20, 130)
WIDTHS = ((1, 1), (1, 16), (1, 128), (16, 1), (600, 1), (7, 5), (600, 128))  # (d, h)


def spread(rng, *shape):
    """float32 values of both signs whose magnitudes span 1e-6..10."""
    return (rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 1, size=shape)).astype(np.float32)


def loop_outer_sum(a, b):
    total = np.zeros((a.shape[1], b.shape[1]), dtype=np.float32)
    for r in range(a.shape[0]):
        total += np.outer(a[r], b[r])
    return total


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("d, h", WIDTHS)
def test_outer_sum_adds_each_row_in_order(n, d, h):
    rng = np.random.default_rng(n * 1000 + d * 10 + h)
    a, b = spread(rng, n, d), spread(rng, n, h)
    out = np.full((d, h), np.nan, dtype=np.float32)  # every entry must be written
    layers._outer_sum(a, b, out)
    assert out.tobytes() == loop_outer_sum(a, b).tobytes()


def loop_weight_grads(x, order, recurrent, dz, deferred):
    """The term-by-term sums: one outer product and one add per step and gate."""
    n, gates = len(order), dz.shape[0]
    gw = np.zeros((gates, x.shape[1], dz.shape[2]), dtype=np.float32)
    gu = np.zeros((gates, recurrent[0].shape[1], dz.shape[2]), dtype=np.float32)
    gb = np.zeros((gates, dz.shape[2]), dtype=np.float32)
    back = range(n - 1, -1, -1)
    for k in range(gates):
        for j in range(n) if k == deferred else back:  # row n - 1 - j holds the j-th computed step
            gw[k] += np.outer(x[order[j]], dz[k, n - 1 - j])
        for j in back:
            gu[k] += np.outer(recurrent[k][n - 1 - j], dz[k, n - 1 - j])
            gb[k] += dz[k, n - 1 - j]
    return gw, gu, gb


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("d, h", WIDTHS)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("gates, deferred", [(4, None), (4, 2), (3, 0)])
def test_weight_grads_match_the_step_loop(n, d, h, reverse, gates, deferred):
    rng = np.random.default_rng(n * 1000 + d * 10 + h + gates)
    order = list(range(n - 1, -1, -1) if reverse else range(n))
    x, dz = spread(rng, n, d), spread(rng, gates, n, h)
    recurrent = [spread(rng, n, h) for _ in range(gates)]
    cell = CellParams(d, h, *(Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
                              for shape in ((gates, d, h), (gates, h, h), (gates, h))))
    layers._add_weight_grads(cell, x[order[::-1]], recurrent, dz, deferred)
    for param, want in zip((cell.w, cell.u, cell.b), loop_weight_grads(x, order, recurrent, dz, deferred)):
        assert np.array_equal(param.grad, want)


def make_cell(seed, d, h, gates):
    """A cell with uniform weights scaled to its widths, so few gates saturate."""
    rng = np.random.default_rng(seed)
    return CellParams(d, h, *(Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32) / np.float32(np.sqrt(d + h)),
                                     requires_grad=True) for shape in ((gates, d, h), (gates, h, h), (gates, h))))


def weighted_sum(states):
    """A loss that reads every entry of `states` through its own fixed weight."""
    return (states * Tensor(spread(np.random.default_rng(7), *states.shape))).sum()


def lstm_outputs(run_lstm, x, h, direction, read_final):
    inputs, cell = Tensor(x, requires_grad=True), make_cell(1, x.shape[1], h, 4)
    states, final = run_lstm(inputs, cell, direction)
    read = final if read_final else states
    weighted_sum(read).backward()
    return {"states": read.data, "w": cell.w.grad, "u": cell.u.grad, "b": cell.b.grad, "inputs": inputs.grad}


def bigru_outputs(run_bigru, x, h):
    fwd, bwd = make_cell(1, x.shape[1], h, 3), make_cell(2, x.shape[1], h, 3)
    states = run_bigru(Tensor(x), fwd, bwd)
    weighted_sum(states).backward()
    grads = {f"{side}/{name}": getattr(cell, name).grad for side, cell in (("fwd", fwd), ("bwd", bwd))
             for name in ("w", "u", "b")}
    return {"states": states.data, **grads}


# At hidden width 200 one GEMV over the four gates side by side gives other
# float32 bits than one GEMV per gate; at the widths above it does not.
KERNEL_SHAPES = ([(n, d, h) for n in (1, 2, 8, 20) for d, h in WIDTHS]
                 + [(130, 600, 128), (8, 7, 200), (20, 600, 200)])


# Every row or the final state, in either direction: the models read every
# row of a forward LSTM (ATAE, IAN, the multitask head) and the final state
# of either direction (TC-LSTM).
@pytest.mark.parametrize("n, d, h", KERNEL_SHAPES)
@pytest.mark.parametrize("direction, read_final", [("forward", False), ("forward", True), ("backward", True),
                                                   ("backward", False)])
def test_lstm_kernel_matches_the_per_step_tape(n, d, h, direction, read_final):
    x = spread(np.random.default_rng(n + d), n, d)
    got = lstm_outputs(layers.run_lstm, x, h, direction, read_final)
    want = lstm_outputs(recurrence_oracle.run_lstm, x, h, direction, read_final)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("n, d, h", KERNEL_SHAPES)
def test_bigru_kernel_matches_the_per_step_tape(n, d, h):
    x = spread(np.random.default_rng(n + d), n, d)
    got, want = bigru_outputs(layers.run_bigru, x, h), bigru_outputs(recurrence_oracle.run_bigru, x, h)
    for name in want:
        assert np.array_equal(got[name], want[name]), name
