"""Linear-chain CRF over BIO labels.

Scores factor as start + per-token emissions + adjacent-label transitions
+ end. The log-partition runs the forward recursion in log space; Viterbi
decodes the MAP path; a brute-force enumerator over all 3^n paths serves
as the test oracle for both.

`log_partition` and `path_score` each put one node on the tape. Their
hand-written backward adds every term in the order in which a tape of one
node per operation (`tests/crf_oracle.py`) adds it, so the gradients keep
that tape's bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import glorot_uniform
from .optim import ParamStore

LABELS = ("B", "I", "O")
LABEL_TO_INDEX = {"B": 0, "I": 1, "O": 2}
NUM_LABELS = 3

MAX_ENUMERATION_LENGTH = 8  # 3**8 = 6561 paths; anything longer blows up


@dataclass
class CrfParams:
    """Emission projection plus transition/start/end score tables.

    transitions[a, b] scores label a followed by label b, in the fixed
    label order (B, I, O).
    """

    emission_weight: Tensor
    emission_bias: Tensor
    transitions: Tensor
    start: Tensor
    end: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, input_dim: int,
               rng: np.random.Generator, dtype=np.float32) -> "CrfParams":
        return cls(
            store.param(f"{name}/emission_weight", glorot_uniform(rng, (input_dim, NUM_LABELS), input_dim, NUM_LABELS, dtype)),
            store.param(f"{name}/emission_bias", np.zeros(NUM_LABELS, dtype=dtype)),
            store.param(f"{name}/transitions", np.zeros((NUM_LABELS, NUM_LABELS), dtype=dtype)),
            store.param(f"{name}/start", np.zeros(NUM_LABELS, dtype=dtype)),
            store.param(f"{name}/end", np.zeros(NUM_LABELS, dtype=dtype)),
        )


def label_indices(labels: Sequence[str]) -> np.ndarray:
    try:
        return np.asarray([LABEL_TO_INDEX[l] for l in labels], dtype=np.intp)
    except KeyError as err:
        raise ValueError(f"unknown BIO label {err.args[0]!r}") from None


def _emissions_tensor(emissions) -> Tensor:
    t = emissions if isinstance(emissions, Tensor) else Tensor(np.asarray(emissions))
    if t.data.ndim != 2 or t.data.shape[1] != NUM_LABELS:
        raise ag.ShapeError("crf", t.shape, detail=f"emissions must be n x {NUM_LABELS}")
    return t


def path_score(emissions, labels: Sequence[str], params: CrfParams) -> Tensor:
    """Unnormalized score of one label path."""
    e = _emissions_tensor(emissions)
    idx = label_indices(labels)
    n = e.data.shape[0]
    if len(idx) != n:
        raise ValueError(f"label count {len(idx)} does not match {n} emission rows")
    if n == 0:
        raise ValueError("path_score requires at least one position")
    first, last = int(idx[0]), int(idx[-1])
    rows, pairs = (np.arange(n), idx), (idx[:-1], idx[1:])
    score = params.start.data[first] + params.end.data[last] + e.data[rows].sum()
    if n > 1:
        score = score + params.transitions.data[pairs].sum()
    # the summed tables and their fancy keys, in the per-op tape's backward order
    sums = [(params.transitions, pairs), (e, rows)] if n > 1 else [(e, rows)]

    def backward(g):
        # then end and start; a repeated transition pair adds in index order
        for table, key in sums:
            if table.requires_grad:
                gg = np.zeros_like(table.data)
                np.add.at(gg, key, g.astype(table.dtype, copy=False))
                ag._accumulate(table, gg)
        for table, i in ((params.end, last), (params.start, first)):
            if table.requires_grad:
                if table.grad is None:
                    table.grad = np.zeros_like(table.data)
                table.grad[i] += g.astype(table.dtype, copy=False)

    parents = (params.start, params.end, e, params.transitions)  # what the score reads
    return ag._node(score, parents if n > 1 else parents[:3], backward)


def log_partition(emissions, params: CrfParams) -> Tensor:
    """log sum over all 3^n paths of exp(path score), by forward recursion."""
    e = _emissions_tensor(emissions)
    x = e.data
    n = x.shape[0]
    if n == 0:
        raise ValueError("log_partition requires at least one position")
    start, transitions, end = params.start, params.transitions, params.end
    alpha = alpha0 = start.data + x[0]
    steps = []  # per later token: scores[prev, next] and their column log-sum-exp
    for i in range(1, n):
        s = alpha.reshape(NUM_LABELS, 1) + transitions.data
        m = s.max(axis=0, keepdims=True)
        full = np.log(np.exp(s - m).sum(axis=0, keepdims=True)) + m
        alpha = full[0] + x[i]
        steps.append((s, full))
    t = alpha + end.data
    m = t.max(keepdims=True)
    total = np.log(np.exp(t - m).sum(keepdims=True)) + m

    # The per-op tape stores each intermediate gradient as zeros + term,
    # which turns -0.0 into +0.0. The terms below skip that add, and no bit
    # moves: a -0.0 term (only when g < 0 and a weight underflows to 0.0)
    # stays a zero through the products and sums, and adding +-0.0 leaves a
    # gradient slot as it is, since a slot starts at +0.0 and so never holds
    # -0.0. The casts are the tape's: each of its nodes keeps its own dtype.
    def backward(g):
        gt = g * np.exp(t - total)
        ag._accumulate(end, gt)
        ga = gt.astype(alpha.dtype, copy=False)
        if e.requires_grad and e.grad is None:  # rows are read as views: add into them in place
            e.grad = np.zeros_like(x)
        for i in range(n - 1, 0, -1):
            if e.requires_grad:
                e.grad[i] += ga.astype(x.dtype, copy=False)
            s, full = steps[i - 1]
            gs = ga[None] * np.exp(s - full)
            ag._accumulate(transitions, gs)
            ga = gs.sum(axis=1, keepdims=True).reshape(NUM_LABELS)
        ga = ga.astype(alpha0.dtype, copy=False)
        ag._accumulate(start, ga)
        if e.requires_grad:
            e.grad[0] += ga.astype(x.dtype, copy=False)

    parents = (start, e, transitions, end) if n > 1 else (start, e, end)  # what the recursion reads
    return ag._node(total.reshape(()), parents, backward)


def nll(emissions, gold: Sequence[str], params: CrfParams) -> Tensor:
    """Negative log-likelihood of the gold path; non-negative."""
    return log_partition(emissions, params) - path_score(emissions, gold, params)


def viterbi(emissions, params: CrfParams) -> list[str]:
    """MAP label path; score ties prefer the lower label index (B < I < O)."""
    e = np.asarray(emissions.data if isinstance(emissions, Tensor) else emissions, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != NUM_LABELS:
        raise ag.ShapeError("viterbi", e.shape, detail=f"emissions must be n x {NUM_LABELS}")
    n = e.shape[0]
    if n == 0:
        raise ValueError("viterbi requires at least one position")
    trans = np.asarray(params.transitions.data, dtype=np.float64)
    best = np.asarray(params.start.data, dtype=np.float64) + e[0]
    pointers = np.zeros((n, NUM_LABELS), dtype=np.intp)
    for i in range(1, n):
        candidate = best[:, None] + trans  # [prev, next]
        pointers[i] = np.argmax(candidate, axis=0)  # argmax picks lowest index on ties
        best = candidate[pointers[i], np.arange(NUM_LABELS)] + e[i]
    best = best + np.asarray(params.end.data, dtype=np.float64)
    label = int(np.argmax(best))
    path = [label]
    for i in range(n - 1, 0, -1):
        label = int(pointers[i][label])
        path.append(label)
    path.reverse()
    return [LABELS[i] for i in path]


def brute_force_oracle(emissions, params: CrfParams) -> tuple[float, list[str]]:
    """Exact log-partition and best path by enumerating every label path.

    Independent of the recursions above: scores are summed term by term per
    enumerated path. Guarded to n <= 8.
    """
    e = np.asarray(emissions.data if isinstance(emissions, Tensor) else emissions, dtype=np.float64)
    n = e.shape[0]
    if n == 0:
        raise ValueError("brute_force_oracle requires at least one position")
    if n > MAX_ENUMERATION_LENGTH:
        raise ValueError(f"brute_force_oracle limited to n <= {MAX_ENUMERATION_LENGTH}, got {n}")
    trans = np.asarray(params.transitions.data, dtype=np.float64)
    start = np.asarray(params.start.data, dtype=np.float64)
    end = np.asarray(params.end.data, dtype=np.float64)
    scores = []
    best_score = -np.inf
    best_path: tuple[int, ...] = ()
    for path in itertools.product(range(NUM_LABELS), repeat=n):
        s = start[path[0]] + end[path[-1]]
        for i, label in enumerate(path):
            s += e[i, label]
        for a, b in zip(path, path[1:]):
            s += trans[a, b]
        scores.append(s)
        if s > best_score:  # strict: first (lexicographically smallest) max wins
            best_score = s
            best_path = path
    log_z = float(np.logaddexp.reduce(np.asarray(scores)))
    return log_z, [LABELS[i] for i in best_path]
