"""The tagging and sentiment losses put a fixed number of nodes on the
tape, whatever the sentence length.

The BiGRU, each LSTM sequence and the CRF scores are one node each per
sentence, so a node per token creeping back into `ae_loss`,
`multitask_loss` or `alsa_loss` shows here as a count that grows with n.
"""

import numpy as np
import pytest

from absalab.ae import AeModel, AspectSpan, ae_loss
from absalab.alsa import AlsaSample, InputMode, MultitaskModel, alsa_loss, create_alsa_model, multitask_loss
from absalab.optim import ParamStore

LENGTHS = (2, 20, 60)
EMBEDDINGS = np.random.default_rng(0).uniform(-0.25, 0.25, size=(64, 12)).astype(np.float32)


def count_tape_nodes(loss) -> int:
    """Distinct tensors reachable from `loss` through `_parents`."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def sentence_loss(task, n):
    """The loss of one n-token sentence whose last two tokens are the aspect;
    for a sentiment model, of an (n + 2)-token sentence whose aspect is the
    tokens 1..n, so both TC-LSTM contexts hold a token."""
    rng = np.random.default_rng(1)
    if task in ("tclstm", "atae", "ian"):
        model = create_alsa_model(ParamStore(), task, d_in=EMBEDDINGS.shape[1], hidden=4, rng=rng)
        sample = AlsaSample(tuple(i % len(EMBEDDINGS) for i in range(n + 2)), AspectSpan(1, n), 0, "s", "d")
        return alsa_loss(model, sample, InputMode.plain(), EMBEDDINGS)
    ids = [i % len(EMBEDDINGS) for i in range(n)]
    gold = ["O"] * (n - 2) + ["B", "I"]
    if task == "ae":
        return ae_loss(AeModel.create(ParamStore(), EMBEDDINGS, 4, rng=rng), ids, gold)
    model = MultitaskModel.create(ParamStore(), EMBEDDINGS, 4, 5, rng=rng)
    return multitask_loss(model, ids, gold, AspectSpan(n - 2, n - 1), 1)


@pytest.mark.parametrize("task", ["ae", "multitask", "tclstm", "atae", "ian"])
def test_tape_size_does_not_grow_with_the_sentence(task):
    counts = {n: count_tape_nodes(sentence_loss(task, n)) for n in LENGTHS}
    assert len(set(counts.values())) == 1, f"{task}: tape nodes by sentence length {counts}"
