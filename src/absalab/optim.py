"""Named parameter stores, Adam updates and finite-difference gradient checks."""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor (Kingma & Ba 2015)
SHARED_ROW = 4096  # floats: smaller tensors share rows of this length, larger ones get their own
BLOCK = 65536  # floats per Adam block: a block's four rows and its work row stay in cache
ALIGN = 64  # bytes: every tensor's rows start on a cache line


@dataclass
class AdamConfig:
    """Adam's step size plus an optional decoupled L2 weight.

    L2 regularization is applied as gradient augmentation (``lambda * theta``
    added to the gradient before the moment updates), so reported losses stay
    pure cross-entropy.
    """

    lr: float = 0.001
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be non-negative, got {self.l2_lambda}")


@dataclass
class _Entry:
    tensor: Tensor
    m: np.ndarray
    v: np.ndarray


@dataclass
class _Pack:
    """A zeroed 4 x k array whose rows hold values, gradients, m and v, each
    row starting on a cache line (k floats are a whole number of lines);
    its first `used` columns are taken. Never reallocated: the tensors in
    it are views."""

    rows: np.ndarray
    used: int = 0


@dataclass
class ParamStore:
    """Uniquely named trainable tensors with gradient and moment slots.

    A tensor's value, gradient, m and v are views of the four rows of one
    packed array: a tensor of at least `SHARED_ROW` floats has its own,
    smaller ones share one per dtype, each starting on a cache line. Adam
    then runs over packed blocks instead of tensor by tensor.

    A store (and any in-flight computation over it) belongs to a single
    thread; separate stores can train concurrently without shared state.
    """

    _entries: dict[str, _Entry] = field(default_factory=dict)
    _packs: list[_Pack] = field(default_factory=list)
    _shared: dict[np.dtype, _Pack] = field(default_factory=dict)  # per dtype, the pack small tensors go to
    step: int = 0
    _grads_populated: bool = False

    def param(self, name: str, values) -> Tensor:
        """Register a new trainable tensor and return its leaf node."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.asarray(values)
        line = ALIGN // arr.itemsize
        padded = -(-arr.size // line) * line  # the next tensor starts on a cache line
        if arr.size >= SHARED_ROW:
            pack = self._new_pack(arr.dtype, padded)
        else:
            pack = self._shared.get(arr.dtype)
            if pack is None or pack.used + arr.size > SHARED_ROW:
                pack = self._shared[arr.dtype] = self._new_pack(arr.dtype, SHARED_ROW)
        start = pack.used
        pack.used += padded
        data, grad, m, v = (row[start:start + arr.size].reshape(arr.shape) for row in pack.rows)
        data[...] = arr
        t = Tensor(data, requires_grad=True)
        t.grad = grad
        self._entries[name] = _Entry(t, m, v)
        return t

    def _new_pack(self, dtype: np.dtype, columns: int) -> _Pack:
        # A zeroed, page-aligned mapping of its own rather than malloc's:
        # glibc raises its mmap threshold to the size of a freed mapped
        # block, so freeing a malloc'd pack of megabytes kept later
        # temporaries on the heap, and the benchmark's alsa-train peak RSS
        # rose 2%.
        buf = mmap.mmap(-1, 4 * columns * dtype.itemsize)
        pack = _Pack(np.frombuffer(buf, dtype).reshape(4, columns))
        self._packs.append(pack)
        return pack

    def names(self) -> list[str]:
        return list(self._entries)

    def value(self, name: str) -> np.ndarray:
        return self._entries[name].tensor.data

    def gradient(self, name: str) -> np.ndarray:
        return self._entries[name].tensor.grad

    def zero_grads(self) -> None:
        for pack in self._packs:
            pack.rows[1, :pack.used] = 0

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: e.tensor.data.copy() for name, e in self._entries.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter value in place.

        The name set must equal the store's and every shape must match;
        nothing is written unless all entries pass.
        """
        for name in values:
            if name not in self._entries:
                raise KeyError(f"unknown parameter {name!r}")
        arrays = {}
        for name, entry in self._entries.items():
            if name not in values:
                raise KeyError(f"missing parameter {name!r}")
            arr = np.asarray(values[name])
            if arr.shape != entry.tensor.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {entry.tensor.data.shape}")
            arrays[name] = arr
        for name, arr in arrays.items():
            self._entries[name].tensor.data[...] = arr


def forward_backward(store: ParamStore, loss_fn) -> float:
    """Evaluate a scalar loss and populate every gradient slot of the store.

    Parameters untouched by the computation keep an exact zero gradient.
    """
    if store._grads_populated:  # a backward may have written the slots since adam_step cleared them
        store.zero_grads()
    loss = loss_fn()
    if not isinstance(loss, Tensor):
        raise TypeError(f"loss_fn must return a Tensor, got {type(loss).__name__}")
    value = loss.item()
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value}")
    store._grads_populated = True  # before backward: one that raises part-way leaves slots to clear
    loss.backward()
    return value


def adam_step(store: ParamStore, cfg: AdamConfig) -> None:
    """Bias-corrected Adam update over every entry; clears gradients."""
    if not store._grads_populated:
        raise RuntimeError("adam_step before any forward_backward: gradients never populated")
    store.step += 1
    t = store.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    # In place, block by block over the packed rows, with the expressions and
    # operation order of the textbook update, so float32 results stay
    # bit-identical; padding stays zero. The gradient row doubles as work
    # space and is cleared while the block is still in cache.
    for pack in store._packs:
        for start in range(0, pack.used, BLOCK):
            theta, g, m, v = pack.rows[:, start:min(start + BLOCK, pack.used)]
            scratch = np.empty_like(theta)
            if cfg.l2_lambda > 0:
                g += np.multiply(cfg.l2_lambda, theta, out=scratch)
            m *= BETA1  # m = beta1 * m + (1 - beta1) * g
            m += np.multiply(1.0 - BETA1, g, out=scratch)
            v *= BETA2  # v = beta2 * v + (1 - beta2) * (g * g)
            v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=scratch), out=scratch)
            step = np.multiply(cfg.lr, np.divide(m, bc1, out=g), out=g)  # lr * m_hat
            denom = np.add(np.sqrt(np.divide(v, bc2, out=scratch), out=scratch), EPS, out=scratch)
            theta -= np.divide(step, denom, out=scratch)
            g[...] = 0
    store._grads_populated = False


def grad_check(
    store: ParamStore,
    loss_fn,
    epsilon: float = 1e-4,
    max_coords_per_param: int = 6,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples up to `max_coords_per_param` coordinates per parameter (all of
    them when the tensor is small). Meant to run on double-precision stores;
    single precision drowns the difference quotient in rounding noise. The
    default step suits losses of order unity: small enough that truncation
    is negligible, large enough that near-zero gradient coordinates are not
    swamped by roundoff in the difference quotient.
    """
    forward_backward(store, loss_fn)
    analytic = {name: store.gradient(name).copy() for name in store.names()}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in store.names():
        data = store.value(name)
        flat = data.reshape(-1)
        n = flat.shape[0]
        if n == 0:
            continue
        coords = np.arange(n) if n <= max_coords_per_param else rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            original = flat[c]
            flat[c] = original + epsilon
            plus = loss_fn().item()
            flat[c] = original - epsilon
            minus = loss_fn().item()
            flat[c] = original
            if not np.isfinite(plus) or not np.isfinite(minus):
                raise FloatingPointError(f"non-finite loss while perturbing {name}[{c}]")
            numeric = (plus - minus) / (2.0 * epsilon)
            a = float(analytic[name].reshape(-1)[c])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
    return worst
