"""The sequence kernels and every model's loss agree with the per-step tape in float64.

Each case runs once with the kernels of `absalab.layers` and once with the
per-step tape of `recurrence_oracle` swapped in, in float64, and compares
the outputs and every parameter and input gradient: the largest absolute
difference over the largest absolute value must stay within 1e-12. A model's
gradients share one scale, the largest absolute value of any of them: a
gradient can be a sum whose terms nearly cancel (ATAE's attention score at
hidden width 1 after two Adam steps is 3.4e-6), and a sum taken in another
order differs from it by about the float64 rounding of its terms. Unlike
the float32 bit tests of `test_kernel_sums` and `test_recurrence_kernels`,
this bound holds whatever order the kernels sum their terms in, so a kernel
that batches its steps into GEMMs must pass it too. The cases are theirs:
one-step sequences, hidden width 1, both reading orders, TC-LSTM's empty
context and one cell used as both directions of the BiGRU.
"""

import numpy as np
import pytest
import recurrence_oracle

from absalab import autograd as ag
from absalab import layers
from absalab.ae import AeModel, AspectSpan, ae_loss
from absalab.alsa import AlsaSample, InputMode, MultitaskModel, alsa_loss, create_alsa_model, multitask_loss
from absalab.autograd import Tensor
from absalab.layers import CellParams
from absalab.optim import AdamConfig, ParamStore, adam_step, forward_backward

BOUND = 1e-12


def max_abs(values) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def relative_error(got, want, scale=None) -> float:
    """max |got - want| over `scale`, by default max |want|; the plain difference where the scale is 0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64, (got.dtype, got.shape, want.shape)
    diff, scale = max_abs(got - want), max_abs(want) if scale is None else scale
    return diff / scale if scale else diff


def assert_close(got: dict, want: dict, what: str, scales=None) -> None:
    """Each entry of `got` against `want`, over its scale in `scales` if given there."""
    assert got.keys() == want.keys(), what
    for name in want:
        if want[name] is None:
            assert got[name] is None, f"{what}: {name}: a gradient where the tape made none"
            continue
        error = relative_error(got[name], want[name], (scales or {}).get(name))
        assert error <= BOUND, f"{what}: {name}: relative error {error:.3g}"


def spread(rng, *shape):
    """float64 values of both signs whose magnitudes span 1e-6..10."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 1, size=shape)


def make_cell(seed, d, h, gates):
    """A cell with uniform weights scaled to its widths, so few gates saturate."""
    rng = np.random.default_rng(seed)
    return CellParams(d, h, *(Tensor(rng.uniform(-1, 1, size=shape) / np.sqrt(d + h), requires_grad=True)
                              for shape in ((gates, d, h), (gates, h, h), (gates, h))))


def backward_from(out, grad):
    """The tape's walk from `out`, entered with `grad` instead of a scalar loss's 1."""
    out.grad = grad
    for node in reversed(ag._toposort(out)):
        if node._backward is not None:
            node._backward(node.grad)


# -- the kernels alone ------------------------------------------------------------------

WIDTHS = ((1, 1), (1, 16), (1, 128), (16, 1), (600, 1), (7, 5), (600, 128))  # (d, h)
KERNEL_SHAPES = ([(n, d, h) for n in (1, 2, 8, 20) for d, h in WIDTHS]
                 + [(130, 600, 128), (8, 7, 200), (20, 600, 200)])


def lstm_outputs(run_lstm, x, h, reading, read_final):
    """`reading="backward"` hands the LSTM a reversed view of `x`'s rows;
    `read_final` reads the last row of the states, as TC-LSTM does."""
    inputs = Tensor(x[::-1] if reading == "backward" else x, requires_grad=True)
    cell = make_cell(1, x.shape[1], h, 4)
    states = run_lstm(inputs, cell)
    read = states[-1] if read_final else states
    backward_from(read, spread(np.random.default_rng(7), *read.shape))
    return {"states": read.data, "w": cell.w.grad, "u": cell.u.grad, "b": cell.b.grad, "inputs": inputs.grad}


@pytest.mark.parametrize("n, d, h", KERNEL_SHAPES)
@pytest.mark.parametrize("reading, read_final", [("forward", False), ("forward", True), ("backward", True),
                                                 ("backward", False)])
def test_lstm_kernel_matches_the_per_step_tape(n, d, h, reading, read_final):
    x = spread(np.random.default_rng(n + d), n, d)
    assert_close(lstm_outputs(layers.run_lstm, x, h, reading, read_final),
                 lstm_outputs(recurrence_oracle.run_lstm, x, h, reading, read_final), f"lstm {n, d, h}")


def bigru_outputs(run_bigru, x, h, shared, upstream):
    """`shared` passes one cell as both directions, its gradients already holding values."""
    fwd = make_cell(1, x.shape[1], h, 3)
    bwd = fwd if shared else make_cell(2, x.shape[1], h, 3)
    if shared:
        for param in (fwd.w, fwd.u, fwd.b):
            param.grad = spread(np.random.default_rng(5), *param.shape)
    states = run_bigru(Tensor(x), fwd, bwd)
    backward_from(states, upstream)
    cells = (("fwd", fwd),) if shared else (("fwd", fwd), ("bwd", bwd))
    return {"states": states.data, **{f"{side}/{name}": getattr(cell, name).grad
                                      for side, cell in cells for name in ("w", "u", "b")}}


def zero_row_upstream(rng, n, h):
    """A states gradient with whole zero rows, the last one among them (where the forward cell's walk starts)."""
    grad = spread(rng, n, 2 * h)
    grad[::3] = 0.0
    grad[n - 1] = 0.0
    return grad


BIGRU_CASES = ([(n, d, h, "two cells") for n, d, h in KERNEL_SHAPES]
               + [(n, d, h, case) for n, d, h in [(1, 7, 5), (2, 7, 5), (8, 7, 5), (20, 300, 32), (20, 300, 1),
                                                  (3, 64, 200)]
                  for case in ("one cell both ways", "zero-row upstream")])


@pytest.mark.parametrize("n, d, h, case", BIGRU_CASES)
def test_bigru_kernel_matches_the_per_step_tape(n, d, h, case):
    rng = np.random.default_rng(n + d + h)
    x = spread(rng, n, d)
    upstream = zero_row_upstream(rng, n, h) if case == "zero-row upstream" else spread(rng, n, 2 * h)
    shared = case == "one cell both ways"
    assert_close(bigru_outputs(layers.run_bigru, x, h, shared, upstream),
                 bigru_outputs(recurrence_oracle.run_bigru, x, h, shared, upstream), f"bigru {n, d, h} {case}")


# -- every model's loss -----------------------------------------------------------------

D, ALSA_HIDDEN, AE_HIDDEN, VOCAB = 300, 128, 32, 50
EMBEDDINGS = np.random.default_rng(0).normal(size=(VOCAB, D))
TOKENS = tuple(int(i) for i in np.random.default_rng(1).integers(0, VOCAB, 20))


def sample(n, start, end, label=1):
    return AlsaSample(TOKENS[:n], AspectSpan(start, end), label, f"s{n}-{start}", "laptop")


def bio(n, start, end):
    return ["O"] * start + ["B"] + ["I"] * (end - start) + ["O"] * (n - end - 1)


def alsa_case(architecture, samples, mode=InputMode.plain(), d_in=D, hidden=ALSA_HIDDEN):
    def build(store):
        return create_alsa_model(store, architecture, d_in, hidden, rng=np.random.default_rng(2), dtype=np.float64)

    return build, [lambda model, s=s: alsa_loss(model, s, mode, EMBEDDINGS) for s in samples]


def tagging_case(multitask, spans, hidden=AE_HIDDEN):
    def build(store):
        if multitask:
            return MultitaskModel.create(store, EMBEDDINGS, hidden, ALSA_HIDDEN, rng=np.random.default_rng(3),
                                         dtype=np.float64)
        return AeModel.create(store, EMBEDDINGS, hidden, rng=np.random.default_rng(3), dtype=np.float64)

    if multitask:
        return build, [lambda m, n=n, s=s, e=e: multitask_loss(m, TOKENS[:n], bio(n, s, e), AspectSpan(s, e), 2)
                       for n, s, e in spans]
    return build, [lambda m, n=n, s=s, e=e: ae_loss(m, TOKENS[:n], bio(n, s, e)) for n, s, e in spans]


MODEL_CASES = {
    # aspect first, then last: one context is empty and the other has one token
    "tclstm": alsa_case("tclstm", [sample(2, 0, 0), sample(2, 1, 1), sample(20, 6, 8), sample(20, 0, 0)]),
    "atae": alsa_case("atae", [sample(20, 6, 8), sample(1, 0, 0), sample(12, 3, 3)]),
    "ian-one-token-aspect": alsa_case("ian", [sample(20, 5, 5), sample(9, 2, 2), sample(1, 0, 0)]),
    "atae-widened": alsa_case("atae", [sample(20, 6, 8), sample(7, 6, 6), sample(12, 0, 1)],
                              InputMode.noise(64, seed=4), D + 64),
    "ae": tagging_case(False, [(20, 6, 8), (1, 0, 0), (12, 3, 3)]),
    "multitask": tagging_case(True, [(20, 6, 8), (1, 0, 0), (12, 3, 3)]),
    "atae-hidden-1": alsa_case("atae", [sample(20, 6, 8), sample(1, 0, 0), sample(12, 3, 3)], hidden=1),
    "ae-hidden-1": tagging_case(False, [(20, 6, 8), (1, 0, 0), (12, 3, 3)], hidden=1),
}


def loss_and_gradients(store, loss):
    value = forward_backward(store, loss)
    return {"loss": np.float64(value), **{name: store.gradient(name).copy() for name in store.names()}}


def gradient_scales(store, want):
    """Every gradient's scale: the largest absolute value of any of them."""
    scale = max(max_abs(want[name]) for name in store.names())
    return {name: scale for name in store.names()}


@pytest.mark.parametrize("case", list(MODEL_CASES))
def test_model_losses_match_the_per_step_tape(case):
    """Each loss in turn, on the parameters the kernels' earlier Adam steps left."""
    build, losses = MODEL_CASES[case]
    store = ParamStore()
    model = build(store)
    for step, loss in enumerate(losses):
        with pytest.MonkeyPatch.context() as patch:
            recurrence_oracle.swap_in(patch)
            want = loss_and_gradients(store, lambda: loss(model))
        got = loss_and_gradients(store, lambda: loss(model))
        assert_close(got, want, f"{case}: step {step}", gradient_scales(store, want))
        adam_step(store, AdamConfig(lr=0.01))
