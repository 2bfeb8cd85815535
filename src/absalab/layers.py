"""Neural building blocks shared by the tagging and sentiment models.

All parameter containers are plain dataclasses of leaf tensors registered
in a :class:`~absalab.optim.ParamStore`; the ops below are pure functions
of (parameters, inputs) and are safe to call concurrently once parameters
are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .optim import ParamStore


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


# Initial bias of each gate, in the gate order of `gru_step` and `lstm_step`.
GRU = (0.0, 0.0, 0.0)  # update, reset, candidate
LSTM = (0.0, 1.0, 0.0, 0.0)  # in, forget (starts at 1.0), out, cell


@dataclass
class CellParams:
    """Weights of one directional recurrent cell, stacked gate by gate.

    `w` is gates x input_dim x hidden_dim, `u` gates x hidden_dim x
    hidden_dim and `b` gates x hidden_dim, so each gate's block is one
    contiguous array and the step functions multiply gate by gate.
    """

    input_dim: int
    hidden_dim: int
    w: Tensor
    u: Tensor
    b: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, input_dim: int, hidden_dim: int,
               rng: np.random.Generator, gate_biases: tuple[float, ...], dtype=np.float32) -> "CellParams":
        # registered empty, then filled gate by gate: no full-size temporary
        gates = len(gate_biases)
        w = store.param(f"{name}/w", np.empty((gates, input_dim, hidden_dim), dtype=dtype))
        u = store.param(f"{name}/u", np.empty((gates, hidden_dim, hidden_dim), dtype=dtype))
        b = store.param(f"{name}/b", np.repeat(np.asarray(gate_biases, dtype=dtype)[:, None], hidden_dim, axis=1))
        for k in range(gates):  # per gate: input weights, then recurrent weights
            w.data[k] = glorot_uniform(rng, (input_dim, hidden_dim), input_dim, hidden_dim, dtype)
            u.data[k] = glorot_uniform(rng, (hidden_dim, hidden_dim), hidden_dim, hidden_dim, dtype)
        return cls(input_dim, hidden_dim, w, u, b)


@dataclass
class AttentionParams:
    """Additive attention: project concat(key, query), score with a vector."""

    proj: Tensor
    bias: Tensor
    score: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, key_dim: int, query_dim: int,
               rng: np.random.Generator, dtype=np.float32) -> "AttentionParams":
        in_dim = key_dim + query_dim  # the projection keeps the key width
        proj = store.param(f"{name}/proj", glorot_uniform(rng, (in_dim, key_dim), in_dim, key_dim, dtype))
        bias = store.param(f"{name}/bias", np.zeros(key_dim, dtype=dtype))
        score = store.param(f"{name}/score", glorot_uniform(rng, (key_dim,), key_dim, 1, dtype))
        return cls(proj, bias, score)


@dataclass
class HeadParams:
    """Affine classifier head producing one logit per sentiment class."""

    input_dim: int
    weight: Tensor
    bias: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, input_dim: int, num_classes: int,
               rng: np.random.Generator, dtype=np.float32) -> "HeadParams":
        weight = store.param(f"{name}/weight", glorot_uniform(rng, (input_dim, num_classes), input_dim, num_classes, dtype))
        bias = store.param(f"{name}/bias", np.zeros(num_classes, dtype=dtype))
        return cls(input_dim, weight, bias)


# -- ops ------------------------------------------------------------------------


def embed(token_ids, embedding_matrix) -> Tensor:
    """Look up one embedding row per token id in a frozen embedding table."""
    ids = np.asarray(token_ids, dtype=np.intp)
    matrix = np.asarray(embedding_matrix)
    if ids.size and (ids.min() < 0 or ids.max() >= matrix.shape[0]):
        raise IndexError(f"token id out of range [0, {matrix.shape[0]})")
    return Tensor(matrix[ids])


def _gate_blocks(cell: CellParams) -> list[tuple[Tensor, Tensor, Tensor]]:
    """(w, u, b) of each gate as tape nodes; taken once per sequence."""
    return [(cell.w[k], cell.u[k], cell.b[k]) for k in range(cell.b.data.shape[0])]


def gru_step(gates: list[tuple[Tensor, Tensor, Tensor]], x: Tensor, h: Tensor) -> Tensor:
    (w_z, u_z, b_z), (w_r, u_r, b_r), (w_c, u_c, b_c) = gates
    z = ag.sigmoid(x @ w_z + h @ u_z + b_z)
    r = ag.sigmoid(x @ w_r + h @ u_r + b_r)
    cand = ag.tanh(x @ w_c + (r * h) @ u_c + b_c)
    return (1.0 - z) * h + z * cand


def lstm_step(gates: list[tuple[Tensor, Tensor, Tensor]], x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    (w_i, u_i, b_i), (w_f, u_f, b_f), (w_o, u_o, b_o), (w_g, u_g, b_g) = gates
    i = ag.sigmoid(x @ w_i + h @ u_i + b_i)
    f = ag.sigmoid(x @ w_f + h @ u_f + b_f)
    o = ag.sigmoid(x @ w_o + h @ u_o + b_o)
    g = ag.tanh(x @ w_g + h @ u_g + b_g)
    c_next = f * c + i * g
    h_next = o * ag.tanh(c_next)
    return h_next, c_next


def _scan(cell: CellParams, inputs: Tensor, reverse: bool, lstm: bool) -> list[Tensor]:
    """One cell's hidden state at each row of `inputs` (aligned with the rows), from zero states."""
    n = inputs.data.shape[0]
    gates = _gate_blocks(cell)
    h = c = Tensor(np.zeros(cell.hidden_dim, dtype=inputs.data.dtype))
    states: list[Tensor] = [None] * n  # type: ignore[list-item]
    for i in range(n - 1, -1, -1) if reverse else range(n):
        if lstm:
            h, c = lstm_step(gates, inputs[i], h, c)
        else:
            h = gru_step(gates, inputs[i], h)
        states[i] = h
    return states


def run_bigru(inputs: Tensor, fwd: CellParams, bwd: CellParams) -> Tensor:
    """Bidirectional GRU over `inputs` (n x d), zero initial states.

    Row i of the output concatenates the forward state after consuming
    rows 0..i with the backward state after consuming rows n-1..i, so the
    output width is exactly 2 * hidden_dim.
    """
    n = inputs.data.shape[0]
    if n == 0:
        raise ValueError("run_bigru requires at least one input row")
    if inputs.data.shape[1] != fwd.input_dim or inputs.data.shape[1] != bwd.input_dim:
        raise ag.ShapeError("run_bigru", inputs.shape, (fwd.input_dim,), (bwd.input_dim,),
                            detail="input width must match both cells")
    forward_states = _scan(fwd, inputs, reverse=False, lstm=False)
    backward_states = _scan(bwd, inputs, reverse=True, lstm=False)
    return ag.stack_rows([ag.concat([f, b]) for f, b in zip(forward_states, backward_states)])


def run_lstm(inputs: Tensor, cell: CellParams, direction: str = "forward") -> tuple[Tensor, Tensor]:
    """LSTM over `inputs` rows; returns (all_states, final_state).

    `direction="backward"` consumes rows right to left; all_states rows stay
    aligned with input positions. Empty input yields a 0 x hidden state
    matrix and a zero final state.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    n = inputs.data.shape[0]
    dtype = inputs.data.dtype
    if n == 0:
        return Tensor(np.zeros((0, cell.hidden_dim), dtype=dtype)), Tensor(np.zeros(cell.hidden_dim, dtype=dtype))
    if inputs.data.shape[1] != cell.input_dim:
        raise ag.ShapeError("run_lstm", inputs.shape, (cell.input_dim,))
    reverse = direction == "backward"
    states = _scan(cell, inputs, reverse, lstm=True)
    return ag.stack_rows(states), states[0] if reverse else states[-1]


def additive_attention(keys: Tensor, query: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor]:
    """Score each key against the query; return (alpha, alpha-weighted sum).

    score_i = v . tanh(W [key_i ; query] + b); alpha = softmax(scores).
    """
    n = keys.data.shape[0]
    if n == 0:
        raise ValueError("additive_attention requires at least one key")
    scores = ag.tanh(append_to_rows(keys, query) @ params.proj + params.bias) @ params.score
    alpha = ag.softmax(scores)
    pooled = alpha @ keys
    return alpha, pooled


def classify(features: Tensor, head: HeadParams) -> Tensor:
    """Affine map to class logits; softmax happens downstream."""
    if features.data.shape != (head.input_dim,):
        raise ag.ShapeError("classify", features.shape, (head.input_dim,))
    return features @ head.weight + head.bias


def max_pool_rows(states: Tensor) -> Tensor:
    """Coordinate-wise maximum over rows."""
    if states.data.shape[0] == 0:
        raise ValueError("max_pool_rows requires at least one row")
    return ag.tmax(states, axis=0)


def append_to_rows(matrix: Tensor, vec: Tensor) -> Tensor:
    """Concatenate `vec` onto every row of `matrix`."""
    n = matrix.data.shape[0]
    if n == 0:
        return Tensor(np.zeros((0, matrix.data.shape[1] + vec.data.shape[0]), dtype=matrix.data.dtype))
    return ag.concat([matrix, ag.stack_rows([vec] * n)], axis=1)
