"""Linear-chain CRF over BIO labels.

Scores factor as start + per-token emissions + adjacent-label transitions
+ end. The log-partition runs the forward recursion in log space; Viterbi
decodes the MAP path; a brute-force enumerator over all 3^n paths serves
as the test oracle for both.
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
    score = params.start[int(idx[0])] + params.end[int(idx[-1])]
    score = score + e[np.arange(n), idx].sum()
    if n > 1:
        score = score + params.transitions[idx[:-1], idx[1:]].sum()
    return score


def log_partition(emissions, params: CrfParams) -> Tensor:
    """log sum over all 3^n paths of exp(path score), by forward recursion."""
    e = _emissions_tensor(emissions)
    n = e.data.shape[0]
    if n == 0:
        raise ValueError("log_partition requires at least one position")
    alpha = params.start + e[0]
    for i in range(1, n):
        alpha = ag.logsumexp(alpha.reshape(NUM_LABELS, 1) + params.transitions, axis=0) + e[i]
    return ag.logsumexp(alpha + params.end)


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
