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
from bitwise import assert_same_bits

from absalab import autograd as ag
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


def check_weight_grads(n, d, h, reverse, gates, deferred, signed_zeros):
    """`_add_weight_grads` against the term-by-term sums, byte for byte."""
    rng = np.random.default_rng(n * 1000 + d * 10 + h + gates)
    order = list(range(n - 1, -1, -1) if reverse else range(n))
    x, dz = spread(rng, n, d), spread(rng, gates, n, h)
    recurrent = [spread(rng, n, h) for _ in range(gates)]
    cell = CellParams(d, h, *(Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
                              for shape in ((gates, d, h), (gates, h, h), (gates, h))))
    if signed_zeros:  # a column of -0.0 terms, added onto gradients that hold -0.0
        dz[:, :, 0] = -0.0
        for param in (cell.w, cell.u, cell.b):
            param.grad = np.full_like(param.data, -0.0)
    layers._add_weight_grads(cell, x[order[::-1]], recurrent, dz, deferred)
    for name, want in zip("wub", loop_weight_grads(x, order, recurrent, dz, deferred)):
        if signed_zeros:
            want = np.float32(-0.0) + want
        assert_same_bits(getattr(cell, name).grad, want, name)


STEP_LOOP_CASES = [pytest.mark.parametrize("n", LENGTHS), pytest.mark.parametrize("d, h", WIDTHS),
                   pytest.mark.parametrize("reverse", [False, True]),
                   pytest.mark.parametrize("gates, deferred", [(4, None), (4, 2), (3, 0)])]


def step_loop_cases(test):
    for mark in reversed(STEP_LOOP_CASES):  # applied as stacked decorators would be, last first
        test = mark(test)
    return test


@step_loop_cases
def test_weight_grads_match_the_step_loop(n, d, h, reverse, gates, deferred):
    check_weight_grads(n, d, h, reverse, gates, deferred, signed_zeros=False)


@step_loop_cases
def test_weight_grads_keep_signed_zeros(n, d, h, reverse, gates, deferred):
    check_weight_grads(n, d, h, reverse, gates, deferred, signed_zeros=True)


def make_cell(seed, d, h, gates, dtype=np.float32):
    """A cell with uniform weights scaled to its widths, so few gates saturate."""
    rng = np.random.default_rng(seed)
    return CellParams(d, h, *(Tensor(rng.uniform(-1, 1, size=shape).astype(dtype) / dtype(np.sqrt(d + h)),
                                     requires_grad=True) for shape in ((gates, d, h), (gates, h, h), (gates, h))))


def weighted_sum(states):
    """A loss that reads every entry of `states` through its own fixed weight."""
    return (states * Tensor(spread(np.random.default_rng(7), *states.shape))).sum()


def lstm_outputs(run_lstm, x, h, reading, read_final):
    """`reading="backward"` hands the LSTM a reversed view of `x`'s rows;
    `read_final` reads the last row of the states, as TC-LSTM does."""
    rows = x[::-1] if reading == "backward" else x
    inputs, cell = Tensor(rows, requires_grad=True), make_cell(1, x.shape[1], h, 4)
    states = run_lstm(inputs, cell)
    read = states[-1] if read_final else states
    weighted_sum(read).backward()
    return {"states": read.data, "w": cell.w.grad, "u": cell.u.grad, "b": cell.b.grad, "inputs": inputs.grad}


def backward_from(out, grad):
    """The tape's walk from `out`, entered with `grad` instead of a scalar loss's 1."""
    out.grad = grad
    for node in reversed(ag._toposort(out)):
        if node._backward is not None:
            node._backward(node.grad)


def bigru_outputs(run_bigru, x, h, shared=False, upstream=None):
    """`shared` passes one cell as both directions, its gradients already
    holding values, so the order of its three-term sums shows; `upstream` is
    the states' gradient, or None for `weighted_sum`'s."""
    fwd = make_cell(1, x.shape[1], h, 3, x.dtype.type)
    bwd = fwd if shared else make_cell(2, x.shape[1], h, 3, x.dtype.type)
    if shared:
        for param in (fwd.w, fwd.u, fwd.b):
            param.grad = spread(np.random.default_rng(5), *param.shape).astype(x.dtype)
    states = run_bigru(Tensor(x), fwd, bwd)
    if upstream is None:
        weighted_sum(states).backward()
    else:
        backward_from(states, upstream)
    cells = (("fwd", fwd),) if shared else (("fwd", fwd), ("bwd", bwd))
    grads = {f"{side}/{name}": getattr(cell, name).grad for side, cell in cells for name in ("w", "u", "b")}
    return {"states": states.data, **grads}


# At hidden width 200 one GEMV over the four gates side by side gives other
# float32 bits than one GEMV per gate; at the widths above it does not.
KERNEL_SHAPES = ([(n, d, h) for n in (1, 2, 8, 20) for d, h in WIDTHS]
                 + [(130, 600, 128), (8, 7, 200), (20, 600, 200)])


# Every row or the last row, of the rows as given or a reversed view: the
# models read every row (ATAE, IAN, the multitask head) and the last row
# (TC-LSTM's final state, whose right context is the sentence read from its end).
@pytest.mark.parametrize("n, d, h", KERNEL_SHAPES)
@pytest.mark.parametrize("reading, read_final", [("forward", False), ("forward", True), ("backward", True),
                                                 ("backward", False)])
def test_lstm_kernel_matches_the_per_step_tape(n, d, h, reading, read_final):
    x = spread(np.random.default_rng(n + d), n, d)
    got = lstm_outputs(layers.run_lstm, x, h, reading, read_final)
    want = lstm_outputs(recurrence_oracle.run_lstm, x, h, reading, read_final)
    for name in want:
        assert_same_bits(got[name], want[name], name)


@pytest.mark.parametrize("n, d, h", KERNEL_SHAPES)
def test_bigru_kernel_matches_the_per_step_tape(n, d, h):
    x = spread(np.random.default_rng(n + d), n, d)
    got, want = bigru_outputs(layers.run_bigru, x, h), bigru_outputs(recurrence_oracle.run_bigru, x, h)
    for name in want:
        assert_same_bits(got[name], want[name], name)


def signed_zero_upstream(rng, n, h):
    """A states gradient with whole zero rows, a whole -0.0 last row (where
    the forward cell's walk starts) and -0.0 in every other entry of some rows."""
    grad = spread(rng, n, 2 * h)
    grad[::3] = 0.0
    grad[1::3, ::2] = -0.0
    grad[n - 1] = -0.0
    return grad


@pytest.mark.parametrize("n, d, h", [(1, 7, 5), (2, 7, 5), (8, 7, 5), (20, 300, 32), (20, 300, 1), (3, 64, 200)])
@pytest.mark.parametrize("case", ["one cell both ways", "float64", "signed-zero upstream"])
def test_bigru_kernel_cases_match_the_per_step_tape(n, d, h, case):
    rng = np.random.default_rng(n + d + h)
    x = spread(rng, n, d).astype(np.float64 if case == "float64" else np.float32)
    kwargs = {"shared": case == "one cell both ways",
              "upstream": signed_zero_upstream(rng, n, h) if case == "signed-zero upstream" else None}
    got = bigru_outputs(layers.run_bigru, x, h, **kwargs)
    want = bigru_outputs(recurrence_oracle.run_bigru, x, h, **kwargs)
    for name in want:
        assert_same_bits(got[name], want[name], name)
