"""The sequence kernels train bit for bit like the per-step tape.

Each case trains one seeded float32 model twice for a few Adam steps:
once with `run_lstm`/`run_bigru` as shipped, once with the per-step tape
of `recurrence_oracle` swapped in. Every gradient and every parameter
must be equal after every step.
"""

import numpy as np
import pytest
import recurrence_oracle
from bitwise import assert_same_bits

from absalab.ae import AeModel, AspectSpan, ae_loss
from absalab.alsa import AlsaSample, InputMode, MultitaskModel, alsa_loss, create_alsa_model, multitask_loss
from absalab.optim import AdamConfig, ParamStore, adam_step, forward_backward

D, ALSA_HIDDEN, AE_HIDDEN, VOCAB = 300, 128, 32, 50
EMBEDDINGS = np.random.default_rng(0).normal(size=(VOCAB, D)).astype(np.float32)
TOKENS = tuple(int(i) for i in np.random.default_rng(1).integers(0, VOCAB, 20))


def sample(n, start, end, label=1):
    return AlsaSample(TOKENS[:n], AspectSpan(start, end), label, f"s{n}-{start}", "laptop")


def bio(n, start, end):
    return ["O"] * start + ["B"] + ["I"] * (end - start) + ["O"] * (n - end - 1)


def alsa_case(architecture, samples, mode=InputMode.plain(), d_in=D, hidden=ALSA_HIDDEN):
    def build(store):
        return create_alsa_model(store, architecture, d_in, hidden, rng=np.random.default_rng(2))

    return build, [lambda model, s=s: alsa_loss(model, s, mode, EMBEDDINGS) for s in samples]


def tagging_case(multitask, spans, hidden=AE_HIDDEN):
    def build(store):
        if multitask:
            return MultitaskModel.create(store, EMBEDDINGS, hidden, ALSA_HIDDEN, rng=np.random.default_rng(3))
        return AeModel.create(store, EMBEDDINGS, hidden, rng=np.random.default_rng(3))

    losses = []
    for n, start, end in spans:
        if multitask:
            losses.append(lambda m, n=n, s=start, e=end: multitask_loss(m, TOKENS[:n], bio(n, s, e), AspectSpan(s, e), 2))
        else:
            losses.append(lambda m, n=n, s=start, e=end: ae_loss(m, TOKENS[:n], bio(n, s, e)))
    return build, losses


CASES = {
    # aspect first, then last: one context is empty and the other has one token
    "tclstm": alsa_case("tclstm", [sample(2, 0, 0), sample(2, 1, 1), sample(20, 6, 8), sample(20, 0, 0)]),
    "atae": alsa_case("atae", [sample(20, 6, 8), sample(1, 0, 0), sample(12, 3, 3)]),
    "ian-one-token-aspect": alsa_case("ian", [sample(20, 5, 5), sample(9, 2, 2), sample(1, 0, 0)]),
    "atae-widened": alsa_case("atae", [sample(20, 6, 8), sample(7, 6, 6), sample(12, 0, 1)],
                              InputMode.noise(64, seed=4), D + 64),
    "ae": tagging_case(False, [(20, 6, 8), (1, 0, 0), (12, 3, 3)]),
    "multitask": tagging_case(True, [(20, 6, 8), (1, 0, 0), (12, 3, 3)]),
    # hidden width 1: every recurrent-weight gradient is a 1 x 1 sum over the steps
    "atae-hidden-1": alsa_case("atae", [sample(20, 6, 8), sample(1, 0, 0), sample(12, 3, 3)], hidden=1),
    "ae-hidden-1": tagging_case(False, [(20, 6, 8), (1, 0, 0), (12, 3, 3)], hidden=1),
}


def train_and_record(build, losses):
    store = ParamStore()
    model = build(store)
    adam = AdamConfig(lr=0.01)
    record = []
    for loss in losses:
        forward_backward(store, lambda: loss(model))
        record.append({name: store.gradient(name).copy() for name in store.names()})
        adam_step(store, adam)
        record.append(store.state_dict())
    return record


@pytest.mark.parametrize("case", list(CASES))
def test_kernels_train_bit_identically_to_the_per_step_tape(case, monkeypatch):
    build, losses = CASES[case]
    assert len(losses) >= 3
    kernels = train_and_record(build, losses)
    recurrence_oracle.swap_in(monkeypatch)
    tape = train_and_record(build, losses)
    for i, (got, want) in enumerate(zip(kernels, tape)):
        what = f"{'gradients' if i % 2 == 0 else 'parameters'} of step {i // 2}"
        for name in want:
            assert_same_bits(got[name], want[name], f"{case}: {name} in the {what}")
