"""Per-op CRF scores on the autograd tape: the oracle for the CRF nodes.

`log_partition` and `path_score` here build one tape node per operation
(`take`, `reshape`, `add`, `logsumexp`, `sum`), so the tape itself does the
backward. The one-node scores in `absalab.crf` must reproduce these runs
bit for bit: the same values and the same gradients, summed in the same
order. `swap_in` puts the oracle in place of them; `crf.nll` looks both up
in its module, so that covers every caller.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from absalab import autograd as ag
from absalab import crf
from absalab.autograd import Tensor
from absalab.crf import NUM_LABELS, CrfParams


def logsumexp(t: Tensor, axis=None) -> Tensor:
    """Log of summed exponentials, max-shifted for stability."""
    t = ag._wrap(t)
    m = np.max(t.data, axis=axis, keepdims=True)
    data = np.log(np.sum(np.exp(t.data - m), axis=axis, keepdims=True)) + m
    full = data
    data = np.squeeze(data, axis=axis) if axis is not None else data.reshape(())

    def backward(g):
        weights = np.exp(t.data - full)
        if axis is None:
            ag._accumulate(t, g * weights)
        else:
            ag._accumulate(t, np.expand_dims(g, axis) * weights)

    return ag._node(data, (t,), backward)


def reshape(t: Tensor, shape) -> Tensor:
    t = ag._wrap(t)
    try:
        data = t.data.reshape(shape)
    except ValueError:
        raise ag.ShapeError("reshape", t.shape, detail=f"cannot reshape to {shape}") from None

    def backward(g):
        ag._accumulate(t, g.reshape(t.data.shape))

    return ag._node(data, (t,), backward)


def path_score(emissions, labels: Sequence[str], params: CrfParams) -> Tensor:
    """Unnormalized score of one label path."""
    e = crf._emissions_tensor(emissions)
    idx = crf.label_indices(labels)
    n = e.data.shape[0]
    if len(idx) != n:
        raise ValueError(f"label count {len(idx)} does not match {n} emission rows")
    if n == 0:
        raise ValueError("path_score requires at least one position")
    score = params.start[int(idx[0])] + params.end[int(idx[-1])]
    score = score + e[np.arange(n), idx].sum()
    if n > 1:
        score = score + params.transitions[idx[:-1], idx[1:]].sum()
    return score


def log_partition(emissions, params: CrfParams) -> Tensor:
    """log sum over all 3^n paths of exp(path score), by forward recursion."""
    e = crf._emissions_tensor(emissions)
    n = e.data.shape[0]
    if n == 0:
        raise ValueError("log_partition requires at least one position")
    alpha = params.start + e[0]
    for i in range(1, n):
        alpha = logsumexp(reshape(alpha, (NUM_LABELS, 1)) + params.transitions, axis=0) + e[i]
    return logsumexp(alpha + params.end)


def swap_in(monkeypatch) -> None:
    """Replace the one-node scores with the oracle."""
    monkeypatch.setattr(crf, "log_partition", log_partition)
    monkeypatch.setattr(crf, "path_score", path_score)
