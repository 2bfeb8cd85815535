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


# Initial bias of each gate, in the kernels' gate order.
GRU = (0.0, 0.0, 0.0)  # update, reset, candidate
LSTM = (0.0, 1.0, 0.0, 0.0)  # in, forget (starts at 1.0), out, cell


@dataclass
class CellParams:
    """Weights of one directional recurrent cell, stacked gate by gate.

    `w` is gates x input_dim x hidden_dim, `u` gates x hidden_dim x
    hidden_dim and `b` gates x hidden_dim: one contiguous block per gate.
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


# Each kernel below runs a whole sequence on the tape and keeps the float32
# bits of a per-step tape (`tests/recurrence_oracle.py`): its numpy calls
# forward, (x @ w[k] + h @ u[k]) + b[k] per gate, and its order of backward
# terms. Batching keeps them: a matmul over stacked (1, d) @ (d, h) or
# (d, h) @ (h, 1) blocks makes one GEMV per block, and einsum adds each
# rounded product into `out` row by row. Not exact: one GEMV over the
# concatenated gates, a GEMM over the steps, `X.T @ dZ`, or einsum into a
# 1 x 1 output (a dot kernel with several accumulators) or given a reversed
# view and `out=` (another row order). The BiGRU stacks its two directions'
# per-step GEMVs in one matmul, which keeps the bits; so would one einsum
# over both directions' weight gradients, but it is slower than one call per
# direction, and stacking the two `w` copies more than it saves at n <= 3.


def _outer_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Set `out` to 0 + outer(a[0], b[0]) + outer(a[1], b[1]) + ..., added in that order."""
    if out.shape == (1, 1):  # accumulate adds in sequence by definition
        out[0, 0] = np.add.accumulate(np.insert(a[:, 0] * b[:, 0], 0, 0))[-1]
    else:
        np.einsum("ti,tj->ij", a, b, out=out)


def _add_weight_grads(cell: CellParams, inputs: np.ndarray, recurrent: list[np.ndarray], dz: np.ndarray,
                      deferred: int | None) -> None:
    """Add a sequence's gradient into the cell's (w, u, b). Row r of `inputs`,
    `recurrent[k]` and `dz[k]` is the r-th step back from the last computed:
    its input, gate k's recurrent vector and pre-activation gradient, added in
    that order; gate `deferred`'s input-weight terms add from the first step."""
    gw, gu = np.empty_like(cell.w.data), np.empty_like(cell.u.data)
    for k in range(len(gw)):
        rows, grads = (inputs[::-1].copy(), dz[k][::-1].copy()) if k == deferred else (inputs, dz[k])
        _outer_sum(rows, grads, gw[k])
        _outer_sum(recurrent[k], dz[k], gu[k])
    # Row by row from the first; that sum differs from one begun at 0 only
    # in a zero's sign, and adding 0.0 gives the +0.0 that one begun at 0 ends on.
    gb = np.add.accumulate(dz, axis=1)[:, -1] + 0.0
    for param, g in ((cell.w, gw), (cell.u, gu), (cell.b, gb)):
        ag._accumulate(param, g)


def run_lstm(inputs: Tensor, cell: CellParams) -> Tensor:
    """LSTM over the rows of `inputs`, first to last; returns the n x hidden states. A
    caller that reads right to left passes its rows reversed; the final state is the last row."""
    x, w, u, b = inputs.data, cell.w.data, cell.u.data, cell.b.data
    n = x.shape[0]
    if n == 0:
        raise ValueError("run_lstm requires at least one input row")
    if x.shape[1] != cell.input_dim:
        raise ag.ShapeError("run_lstm", inputs.shape, (cell.input_dim,))
    xw = np.matmul(x[:, None, None, :], w)[:, :, 0]  # row t, gate k: x[t] @ w[k]
    hs, cs = np.zeros((2, n + 1, cell.hidden_dim), dtype=x.dtype)  # row t + 1: h and c after step t
    gates = np.empty((n, 4, cell.hidden_dim), dtype=x.dtype)  # i, f, o, g
    tanh_c = np.empty((n, cell.hidden_dim), dtype=x.dtype)
    for t in range(n):
        z = (xw[t] + np.matmul(hs[t], u)) + b
        gates[t, :3] = ag.logistic(z[:3])
        i, f, o, g = gates[t]
        np.tanh(z[3], out=g)
        np.add(f * cs[t], i * g, out=cs[t + 1])
        np.multiply(o, np.tanh(cs[t + 1], out=tanh_c[t]), out=hs[t + 1])

    def backward(grad):
        one_minus, d_g, d_tanh_c = 1.0 - gates[:, :3], 1.0 - gates[:, 3] * gates[:, 3], 1.0 - tanh_c * tanh_c
        dz = np.empty((4, n, cell.hidden_dim), dtype=x.dtype)  # gate, steps before the last-computed
        dh, dc_next = grad[n - 1], -0.0  # -0.0 + v is v, bit for bit: the last step has no later cell
        for j in range(n - 1, -1, -1):
            d, (i, f, o, g), (one_minus_i, one_minus_f, one_minus_o) = dz[:, n - 1 - j], gates[j], one_minus[j]
            dc = dc_next + (dh * o) * d_tanh_c[j]
            np.multiply((dc * g) * i, one_minus_i, out=d[0])
            np.multiply((dc * cs[j]) * f, one_minus_f, out=d[1])
            np.multiply((dh * tanh_c[j]) * o, one_minus_o, out=d[2])
            np.multiply(dc * i, d_g[j], out=d[3])
            dc_next = dc * f
            if j:  # the downstream row, then the recurrent terms in the gate order 3, 0, 1, 2
                terms = np.matmul(u, d[..., None])[..., 0]
                dh = (((grad[j - 1] + terms[3]) + terms[0]) + terms[1]) + terms[2]
        if inputs.requires_grad:  # row r: w[k] @ dz[k, r] over the gates 3, 0, 1, 2, as for h above
            terms = np.matmul(w[:, None], dz[..., None])[..., 0]
            gx = ((terms[3] + terms[0]) + terms[1]) + terms[2]
            ag._accumulate(inputs, gx[::-1])
        _add_weight_grads(cell, x[::-1].copy(), [hs[n - 1::-1].copy()] * 4, dz, None)

    return ag._node(hs[1:], (inputs, cell.w, cell.u, cell.b), backward)


def run_bigru(inputs: Tensor, fwd: CellParams, bwd: CellParams) -> Tensor:
    """Bidirectional GRU over `inputs` (n x d), zero initial states.

    Row i of the output concatenates the forward state after consuming
    rows 0..i with the backward state after consuming rows n-1..i, so the
    output width is exactly 2 * hidden_dim. The input rows are frozen
    (embedding rows): an input that requires grad is an error.
    """
    x = inputs.data
    n, h = x.shape[0], fwd.hidden_dim
    if n == 0:
        raise ValueError("run_bigru requires at least one input row")
    if x.shape[1] != fwd.input_dim or x.shape[1] != bwd.input_dim:
        raise ag.ShapeError("run_bigru", inputs.shape, (fwd.input_dim,), (bwd.input_dim,),
                            detail="input width must match both cells")
    if bwd.hidden_dim != h:
        raise ag.ShapeError("run_bigru", (h,), (bwd.hidden_dim,), detail="forward and backward hidden_dim must be equal")
    if inputs.requires_grad:
        raise ValueError("run_bigru takes frozen input rows, got an input that requires grad")
    # One loop steps both directions on arrays stacked gate by direction
    # (forward, backward), each state a (1, h) row; the backward cell reads
    # the rows reversed.
    x_rev = x[::-1].copy()
    xw = np.stack([np.matmul(rows[:, None, None, :], cell.w.data) for rows, cell in ((x, fwd), (x_rev, bwd))], axis=2)
    u = np.stack([fwd.u.data, bwd.u.data], axis=1)
    b = np.stack([fwd.b.data, bwd.b.data], axis=1)[:, :, None]
    xw_zr, xw_cand, u_zr, u_cand, b_zr, b_cand = xw[:, :2], xw[:, 2], u[:2], u[2], b[:2], b[2]
    states = np.zeros((n + 1, 2, 1, h), dtype=x.dtype)  # row t + 1: both states after step t
    rh, cand_all = np.empty((2, n, 2, 1, h), dtype=x.dtype)
    zr_all = np.empty((n, 2, 2, 1, h), dtype=x.dtype)  # step, gate (update, reset), direction
    for t in range(n):
        prev = states[t]
        zr_all[t] = ag.logistic((xw_zr[t] + np.matmul(prev, u_zr)) + b_zr)
        z, r = zr_all[t]
        cand = np.tanh((xw_cand[t] + np.matmul(np.multiply(r, prev, out=rh[t]), u_cand)) + b_cand, out=cand_all[t])
        np.add((1.0 - z) * prev, z * cand, out=states[t + 1])

    def backward(grad):
        g = grad.reshape(n, 2, 1, h)
        # Output row i pairs forward state i with backward state i, so the walk
        # enters the backward cell at its last step: there a step's own row
        # gradient joins dh before the recurrent terms (after them in the
        # forward cell), and the update gate's input terms add from the first
        # step. Padded with -0.0 (-0.0 + v and v + -0.0 are v, bit for bit),
        # both orders are one sum.
        pre, post = np.full((2, n, 2, 1, h), -0.0, dtype=g.dtype)
        pre[:, 1], post[:, 0] = g[::-1, 1], g[:, 0]
        one_minus, d_tanh = 1.0 - zr_all, 1.0 - cand_all * cand_all
        u_t = u.transpose(0, 1, 3, 2)  # row @ u[k].T makes the GEMV of u[k] @ column
        u_t_zr, u_t_cand = u_t[:2], u_t[2]
        dz = np.empty((n, 3, 2, 1, h), dtype=x.dtype)  # steps before the last-computed, gate, direction
        dh = np.stack([g[n - 1, 0], g[0, 1]])
        for j in range(n - 1, -1, -1):
            d, prev, cand = dz[n - 1 - j], states[j], cand_all[j]
            (z, r), (one_minus_z, one_minus_r) = zr_all[j], one_minus[j]
            d_rh = np.matmul(np.multiply(dh * z, d_tanh[j], out=d[2]), u_t_cand)
            np.multiply((dh * cand - dh * prev) * z, one_minus_z, out=d[0])
            np.multiply((d_rh * prev) * r, one_minus_r, out=d[1])
            if j:
                d_z, d_r = np.matmul(d[:2], u_t_zr)
                dh = ((((pre[j - 1] + d_rh * r) + d_r) + dh * one_minus_z) + d_z) + post[j - 1]
        # The backward cell's sums go first, as the per-step tape's walk adds
        # them; the order shows only when one cell is both directions.
        for c, cell, rows, deferred in ((1, bwd, np.ascontiguousarray(x), 0), (0, fwd, x_rev, None)):
            h_back = states[n - 1::-1, c, 0].copy()
            _add_weight_grads(cell, rows, [h_back, h_back, rh[::-1, c, 0].copy()],
                              np.ascontiguousarray(dz[:, :, c, 0].transpose(1, 0, 2)), deferred)

    return ag._node(np.concatenate([states[1:, 0, 0], states[:0:-1, 1, 0]], axis=1),
                    (fwd.w, fwd.u, fwd.b, bwd.w, bwd.u, bwd.b), backward)


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
        raise ValueError("append_to_rows requires at least one row")
    return ag.concat([matrix, ag.stack_rows([vec] * n)], axis=1)
