"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` together with an optional gradient
slot and a backward closure, forming a node in a dynamically built tape.
Calling :meth:`Tensor.backward` on a scalar loss walks the tape in reverse
topological order and accumulates ``d loss / d leaf`` into every leaf that
was created with ``requires_grad=True``.

The op set is exactly what the sequence models in this package need:
broadcast arithmetic, matrix products, ``tanh``, row-wise reductions,
softmax heads, concatenation and indexing. The gates' sigmoid is the array
function ``logistic``: the sequence kernels in ``absalab.layers`` run a
whole sequence as one node, and the CRF scores in ``absalab.crf`` are one
node each. Everything runs in whatever dtype the operands carry, so the
same graph code serves single-precision training and double-precision
gradient checking.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when a primitive receives incompatible operand shapes."""

    def __init__(self, op: str, *shapes, detail: str = ""):
        self.op = op
        self.shapes = tuple(shapes)
        msg = f"{op}: incompatible shapes " + " and ".join(str(s) for s in shapes)
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class Tensor:
    """Dense real-valued array and node of the backward tape.

    `data` is always a numpy array; `grad` stays ``None`` until backward
    reaches the node. Tensors built from other tensors inherit
    ``requires_grad`` so constant subgraphs never record closures.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item", self.shape, detail="expected a scalar")
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # -- graph construction -------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all reachable leaves."""
        if self.data.size != 1:
            raise ShapeError("backward", self.shape, detail="loss must be a scalar")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a leaf tensor; the data array is copied."""
    return Tensor(np.array(data, dtype=dtype), requires_grad=requires_grad)


def _wrap(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative postorder over nodes that can carry gradient.

    Iterative on purpose: the models' tapes are 19-49 nodes, but the
    per-step oracles in `tests/` chain thousands of nodes, which would
    overflow Python's recursion limit.
    """
    order: list[Tensor] = []
    visited = {id(root)}
    stack: list[tuple[Tensor, Iterable[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.grad = None
    needs = any(p.requires_grad for p in parents)
    out.requires_grad = needs
    out._parents = tuple(parents) if needs else ()
    out._backward = backward if needs else None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, _wrap(a).dtype)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product of two matrices, or of one matrix and one vector."""
    a, b = _wrap(a), _wrap(b)
    a_vec, b_vec = a.data.ndim == 1, b.data.ndim == 1
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2) or (a_vec and b_vec):
        raise ShapeError("matmul", a.shape, b.shape, detail="operands must be 1-D or 2-D and not both 1-D")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        if a_vec:  # (m,)@(m,k) -> (k,)
            _accumulate(a, b.data @ g)
            _accumulate(b, np.outer(a.data, g))
        elif b_vec:  # (n,m)@(m,) -> (n,)
            _accumulate(a, np.outer(g, b.data))
            _accumulate(b, a.data.T @ g)
        else:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)

    return _node(data, (a, b), backward)


# -- elementwise nonlinearities ------------------------------------------------


def tanh(t: Tensor) -> Tensor:
    t = _wrap(t)
    data = np.tanh(t.data)

    def backward(g):
        _accumulate(t, g * (1.0 - data * data))

    return _node(data, (t,), backward)


def logistic(x: np.ndarray) -> np.ndarray:
    """The sigmoid of an array, in its dtype, as the sequence kernels' gates use it."""
    # Stable in both tails: exp of a non-positive argument only.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# -- reductions ----------------------------------------------------------------


def tsum(t: Tensor, axis=None) -> Tensor:
    t = _wrap(t)
    data = t.data.sum(axis=axis)

    def backward(g):
        _accumulate(t, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), t.data.shape).copy())

    return _node(data, (t,), backward)


def tmean(t: Tensor, axis=None) -> Tensor:
    t = _wrap(t)
    n = t.data.size if axis is None else t.data.shape[axis]
    if n == 0:
        raise ShapeError("mean", t.shape, detail="empty reduction")
    return mul(tsum(t, axis=axis), 1.0 / n)


def tmax(t: Tensor, axis: int) -> Tensor:
    """Maximum along an axis; gradient flows to the first argmax."""
    t = _wrap(t)
    if t.data.size == 0:
        raise ShapeError("max", t.shape, detail="empty reduction")
    idx = np.argmax(t.data, axis=axis)
    idx_keep = np.expand_dims(idx, axis)
    data = np.take_along_axis(t.data, idx_keep, axis=axis).squeeze(axis)

    def backward(g):
        gg = np.zeros_like(t.data)
        np.put_along_axis(gg, idx_keep, np.expand_dims(g, axis), axis=axis)
        _accumulate(t, gg)

    return _node(data, (t,), backward)


# -- vector heads ---------------------------------------------------------------


def softmax(t: Tensor) -> Tensor:
    """Softmax of a 1-D score vector; strictly positive, sums to one."""
    t = _wrap(t)
    if t.data.ndim != 1:
        raise ShapeError("softmax", t.shape, detail="expected a 1-D vector")
    shifted = t.data - np.max(t.data)
    e = np.exp(shifted)
    data = e / e.sum()

    def backward(g):
        _accumulate(t, data * (g - np.dot(g, data)))

    return _node(data, (t,), backward)


def log_softmax(t: Tensor) -> Tensor:
    t = _wrap(t)
    if t.data.ndim != 1:
        raise ShapeError("log_softmax", t.shape, detail="expected a 1-D vector")
    shifted = t.data - np.max(t.data)
    data = shifted - np.log(np.exp(shifted).sum())

    def backward(g):
        _accumulate(t, g - np.exp(data) * g.sum())

    return _node(data, (t,), backward)


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Categorical cross-entropy of one sample against an integer class."""
    logits = _wrap(logits)
    if not 0 <= label < logits.data.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.data.shape[0]} classes")
    return mul(take(log_softmax(logits), int(label)), -1.0)


# -- structure ops -----------------------------------------------------------------


def take(t: Tensor, key) -> Tensor:
    """Indexing/slicing; integer-array keys accumulate through duplicates."""
    t = _wrap(t)
    try:
        data = t.data[key]
    except IndexError as err:
        raise ShapeError("take", t.shape, detail=str(err)) from None
    fancy = _is_fancy(key)

    def backward(g):
        if fancy:
            gg = np.zeros_like(t.data)
            np.add.at(gg, key, g)
            _accumulate(t, gg)
            return
        if t.grad is None:  # a basic key selects a view: add into it in place
            t.grad = np.zeros_like(t.data)
        t.grad[key] += g

    return _node(np.asarray(data), (t,), backward)


def _is_fancy(key) -> bool:
    return any(isinstance(k, (np.ndarray, list)) for k in (key if isinstance(key, tuple) else (key,)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat", detail="nothing to concatenate")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in ts]) from None
    sizes = [t.data.shape[axis] for t in ts]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(ts, np.split(g, bounds, axis=axis)):
            _accumulate(t, piece)

    return _node(data, ts, backward)


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row."""
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("stack_rows", detail="nothing to stack")
    try:
        data = np.stack([t.data for t in ts], axis=0)
    except ValueError:
        raise ShapeError("stack_rows", *[t.shape for t in ts]) from None

    def backward(g):
        for i, t in enumerate(ts):
            _accumulate(t, g[i])

    return _node(data, ts, backward)

