"""Per-step recurrences on the autograd tape: the oracle for the sequence kernels.

`run_lstm` and `run_bigru` here build one tape node per gate operation, so
the tape itself does backpropagation through time. The kernels in
`absalab.layers` must reproduce these runs bit for bit in float32: the same
states and the same gradients, summed in the same order. `swap_in` puts
the oracle in place of the kernels under every name that refers to them.
"""

from __future__ import annotations

import numpy as np

from absalab import ae, alsa, layers
from absalab import autograd as ag
from absalab.autograd import Tensor
from absalab.layers import CellParams


def sigmoid(t: Tensor) -> Tensor:
    """The gates' sigmoid as a tape node, over the kernels' `ag.logistic`."""
    data = ag.logistic(t.data)

    def backward(g):
        ag._accumulate(t, g * data * (1.0 - data))

    return ag._node(data, (t,), backward)


def _gate_blocks(cell: CellParams) -> list[tuple[Tensor, Tensor, Tensor]]:
    """(w, u, b) of each gate as tape nodes; taken once per sequence."""
    return [(cell.w[k], cell.u[k], cell.b[k]) for k in range(cell.b.data.shape[0])]


def gru_step(gates: list[tuple[Tensor, Tensor, Tensor]], x: Tensor, h: Tensor) -> Tensor:
    (w_z, u_z, b_z), (w_r, u_r, b_r), (w_c, u_c, b_c) = gates
    z = sigmoid(x @ w_z + h @ u_z + b_z)
    r = sigmoid(x @ w_r + h @ u_r + b_r)
    cand = ag.tanh(x @ w_c + (r * h) @ u_c + b_c)
    return (1.0 - z) * h + z * cand


def lstm_step(gates: list[tuple[Tensor, Tensor, Tensor]], x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    (w_i, u_i, b_i), (w_f, u_f, b_f), (w_o, u_o, b_o), (w_g, u_g, b_g) = gates
    i = sigmoid(x @ w_i + h @ u_i + b_i)
    f = sigmoid(x @ w_f + h @ u_f + b_f)
    o = sigmoid(x @ w_o + h @ u_o + b_o)
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


def run_lstm(inputs: Tensor, cell: CellParams) -> Tensor:
    """LSTM over the rows of `inputs`, first to last; returns the n x hidden states."""
    n = inputs.data.shape[0]
    if n == 0:
        raise ValueError("run_lstm requires at least one input row")
    if inputs.data.shape[1] != cell.input_dim:
        raise ag.ShapeError("run_lstm", inputs.shape, (cell.input_dim,))
    return ag.stack_rows(_scan(cell, inputs, reverse=False, lstm=True))


def swap_in(monkeypatch) -> None:
    """Replace the kernels with the oracle in every module that names them."""
    for module in (layers, alsa):
        monkeypatch.setattr(module, "run_lstm", run_lstm)
    for module in (layers, ae):
        monkeypatch.setattr(module, "run_bigru", run_bigru)
