import numpy as np
import numpy.testing as npt
import pytest

from absalab import autograd as ag
from absalab.ae import AeModel
from absalab.alsa import MultitaskModel, create_alsa_model
from absalab.optim import BETA1, BETA2, BLOCK, EPS, AdamConfig, ParamStore, adam_step, forward_backward, grad_check


def test_adam_config_validation():
    AdamConfig(lr=0.001)
    AdamConfig(lr=0.0)  # an Adam step that moves nothing
    for kwargs in ({"lr": -1.0}, {"lr": 0.001, "l2_lambda": -0.1}, {"lr": float("nan")}, {"lr": float("inf")},
                   {"l2_lambda": float("nan")}, {"lr": float("inf"), "l2_lambda": float("inf")}):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            AdamConfig(**kwargs)


def test_duplicate_parameter_names_rejected():
    store = ParamStore()
    store.param("w", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        store.param("w", np.zeros(2))


def test_load_values_requires_exact_names_and_writes_nothing_on_error():
    store = ParamStore()
    store.param("a", np.zeros(2))
    store.param("b", np.zeros(3))
    with pytest.raises(KeyError, match="missing parameter 'b'"):
        store.load_values({"a": np.ones(2)})
    with pytest.raises(KeyError, match="unknown parameter 'c'"):
        store.load_values({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})
    with pytest.raises(ValueError, match="shape mismatch for 'b'"):
        store.load_values({"a": np.ones(2), "b": np.ones(4)})
    npt.assert_array_equal(store.value("a"), np.zeros(2))


def test_forward_backward_populates_touched_and_untouched():
    store = ParamStore()
    a = store.param("a", np.array([1.0, 2.0]))
    store.param("b", np.array([[3.0]]))
    loss = forward_backward(store, lambda: (a * a).sum())
    assert loss == pytest.approx(5.0)
    npt.assert_allclose(store.gradient("a"), [2.0, 4.0])
    npt.assert_array_equal(store.gradient("b"), [[0.0]])  # untouched -> zero


def test_forward_backward_rejects_non_tensor_and_non_finite():
    store = ParamStore()
    p = store.param("p", np.array(1.0))
    with pytest.raises(TypeError):
        forward_backward(store, lambda: 1.0)
    with pytest.raises(FloatingPointError):
        forward_backward(store, lambda: p * np.inf)


def test_forward_backward_after_a_backward_that_raised_gives_exact_gradients():
    store = ParamStore()
    p = store.param("p", np.array([1.0, 2.0]))

    def half_done():
        def backward(grad):
            ag._accumulate(p, np.array([5.0, 5.0]))  # writes the slot, then fails
            raise RuntimeError("backward failed part-way")

        return ag._node(np.array(1.0), (p,), backward)

    with pytest.raises(RuntimeError, match="part-way"):
        forward_backward(store, half_done)
    for _ in range(2):  # the second time with no adam_step in between
        forward_backward(store, lambda: (p * p).sum())
        npt.assert_array_equal(store.gradient("p"), [2.0, 4.0])


def test_first_adam_step_magnitude_is_lr():
    store = ParamStore()
    p = store.param("p", np.array(1.0))
    forward_backward(store, lambda: p * 1.0)  # gradient exactly 1
    adam_step(store, AdamConfig(lr=0.001))
    assert float(store.value("p")) == pytest.approx(0.999, abs=1e-6)
    assert store.step == 1
    npt.assert_array_equal(store.gradient("p"), 0.0)  # cleared


def test_zero_gradient_zero_l2_is_identity():
    store = ParamStore()
    p = store.param("p", np.array([1.5, -2.5]))
    before = store.value("p").copy()
    forward_backward(store, lambda: (p * 0.0).sum())
    adam_step(store, AdamConfig(lr=0.1))
    npt.assert_array_equal(store.value("p"), before)


def test_l2_augmentation_first_step_decreases_by_lr():
    # g = 0 but l2 contributes 0.001 * 1.0; first-step Adam update = lr * sign
    store = ParamStore()
    p = store.param("p", np.array(1.0))
    forward_backward(store, lambda: p * 0.0)
    adam_step(store, AdamConfig(lr=0.001, l2_lambda=0.001))
    assert float(store.value("p")) == pytest.approx(1.0 - 0.001, abs=1e-5)


def test_adam_step_requires_populated_gradients():
    store = ParamStore()
    store.param("p", np.array(1.0))
    with pytest.raises(RuntimeError, match="never populated"):
        adam_step(store, AdamConfig(lr=0.001))


def test_adam_matches_reference_implementation(rng):
    # independent reference: textbook bias-corrected Adam in plain numpy, with the usual constants
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
    store = ParamStore()
    w = store.param("w", rng.normal(size=(3, 2)))
    cfg = AdamConfig(lr=0.01, l2_lambda=0.003)
    theta = store.value("w").copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, 6):
        forward_backward(store, lambda: (w * w).sum())
        g = 2 * theta + cfg.l2_lambda * theta
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        theta = theta - cfg.lr * (m / (1 - BETA1**t)) / (np.sqrt(v / (1 - BETA2**t)) + EPS)
        adam_step(store, cfg)
        npt.assert_allclose(store.value("w"), theta, atol=1e-12)

    # float32: the in-place update rounds exactly like these out-of-place expressions
    store = ParamStore()
    w = store.param("w", rng.normal(size=(4, 3, 5)).astype(np.float32))
    target = ag.Tensor(rng.normal(size=(4, 3, 5)).astype(np.float32))
    theta = store.value("w").copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, 8):
        forward_backward(store, lambda: ((w - target) * (w - target)).sum())
        g = store.gradient("w").copy()
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        g = g + cfg.l2_lambda * theta
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        theta -= (cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(theta.dtype, copy=False)
        adam_step(store, cfg)
        assert store.value("w").dtype == np.float32
        assert store.value("w").tobytes() == theta.tobytes()


def test_forward_backward_is_deterministic():
    def run():
        store = ParamStore()
        p = store.param("p", np.linspace(-1, 1, 6).reshape(2, 3))
        loss = forward_backward(store, lambda: ag.tanh(p).sum())
        return loss, store.gradient("p").tobytes()

    first, second = run(), run()
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_grad_check_quadratic_is_exact():
    store = ParamStore()
    p = store.param("p", np.array(3.0))
    err = grad_check(store, lambda: p * p, epsilon=1e-6)
    assert err < 1e-8


def test_grad_check_reports_offending_coordinate():
    store = ParamStore()
    p = store.param("p", np.array([1e-8]))

    def loss():
        return p[0] * (np.nan if p.data[0] < 0 else 1.0)  # NaN once perturbed below zero

    with pytest.raises(FloatingPointError, match=r"p\[0\]"):
        grad_check(store, loss, epsilon=1e-6)


def test_grad_check_samples_deterministically(rng):
    store = ParamStore()
    w = store.param("w", rng.normal(size=(20,)))
    errs = {grad_check(store, lambda: (ag.tanh(w) * w).sum(), max_coords_per_param=4, seed=3) for _ in range(3)}
    assert len(errs) == 1


# -- packed rows -----------------------------------------------------------------------

# 0-d, empty, and either side of the shared-row length and of Adam's block;
# 4095 first, so the small tensors after it open a shared pack that still has room
PACKED_SHAPES = [(4095,), (), (0, 3), (1,), (64, 64), (4097,), (65535,), (4, 128, 128), (65537,), (2 * 65536 + 3,)]


def _textbook_adam(theta, m, v, g, t, cfg):
    """One bias-corrected Adam step on one tensor, out of place."""
    if cfg.l2_lambda > 0:
        g = g + cfg.l2_lambda * theta
    m[...] = BETA1 * m + (1.0 - BETA1) * g
    v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
    theta -= cfg.lr * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)


def _mixed_store(rng):
    """Every packed shape in float32 and in float64, registered alternately, with a square-distance loss."""
    store, terms = ParamStore(), []

    def add(name, shape, dtype):
        w = store.param(name, rng.normal(size=shape).astype(dtype))
        target = ag.Tensor(rng.normal(size=shape).astype(dtype))
        terms.append(((w - target) * (w - target)).sum)

    for i, shape in enumerate(PACKED_SHAPES):
        for dtype in (np.float32, np.float64):
            add(f"p{i}/{np.dtype(dtype).name}", shape, dtype)

    def loss():
        total = terms[0]()
        for term in terms[1:]:
            total = total + term()
        return total

    return store, add, loss


@pytest.mark.parametrize("l2_lambda", [0.0, 0.003])
def test_packed_adam_keeps_the_bits_of_the_per_tensor_update(rng, l2_lambda):
    store, add, loss = _mixed_store(rng)
    cfg = AdamConfig(lr=0.01, l2_lambda=l2_lambda)
    reference = {}
    for t in range(1, 6):
        if t == 3:  # registered after steps ran: one into a stepped shared pack, one with its own
            add("late/small", (7,), np.float32)
            add("late/large", (70000,), np.float64)
        for name in store.names():
            reference.setdefault(name, [store.value(name).copy(), np.zeros_like(store.value(name)),
                                        np.zeros_like(store.value(name))])
        forward_backward(store, loss)
        for name, (theta, m, v) in reference.items():
            _textbook_adam(theta, m, v, store.gradient(name).copy(), t, cfg)
        adam_step(store, cfg)
        for name, (theta, m, v) in reference.items():
            entry = store._entries[name]
            assert entry.tensor.data.dtype == theta.dtype, name
            for got, want in ((entry.tensor.data, theta), (entry.m, m), (entry.v, v)):
                assert got.tobytes() == want.tobytes(), (name, t)
            assert not store.gradient(name).any(), name


def test_packed_views_are_aligned_disjoint_and_padding_stays_zero(rng):
    store, add, loss = _mixed_store(rng)
    add("late", (5,), np.float32)
    for _ in range(3):
        forward_backward(store, loss)
        adam_step(store, AdamConfig(lr=0.01, l2_lambda=0.003))
    spans = []
    covered = {id(pack): np.zeros(pack.rows.shape, dtype=bool) for pack in store._packs}
    for name, entry in store._entries.items():
        for row, view in enumerate((entry.tensor.data, entry.tensor.grad, entry.m, entry.v)):
            assert view.flags.c_contiguous and view.ctypes.data % 64 == 0, (name, row)
            if view.size == 0:
                continue
            spans.append((view.ctypes.data, view.ctypes.data + view.nbytes, name))
            (pack,) = [p for p in store._packs if np.shares_memory(p.rows, view)]
            offset = (view.ctypes.data - pack.rows.ctypes.data) // view.itemsize
            assert offset // pack.rows.shape[1] == row, name
            covered[id(pack)].reshape(-1)[offset:offset + view.size] = True
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        assert end <= start, (first, second)
    for pack in store._packs:
        padding = pack.rows[~covered[id(pack)]]
        assert padding.tobytes() == bytes(padding.nbytes)


def test_grad_check_and_load_values_write_through_the_packed_views(rng):
    store = ParamStore()
    shapes = [(), (3,), (4097,), (2, 5)]
    ws = [store.param(f"w{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]

    def loss():
        total = (ag.tanh(ws[0]) * ws[0]).sum()
        for w in ws[1:]:
            total = total + (ag.tanh(w) * w).sum()
        return total

    before = {name: store.value(name).tobytes() for name in store.names()}
    assert grad_check(store, loss, epsilon=1e-6) < 1e-6  # a perturbation the loss never saw would read as 1
    assert {name: store.value(name).tobytes() for name in store.names()} == before
    new = {name: rng.normal(size=shape) for name, shape in zip(store.names(), shapes)}
    store.load_values(new)
    for name, w in zip(store.names(), ws):
        (pack,) = [p for p in store._packs if np.shares_memory(p.rows, w.data)]
        start = (w.data.ctypes.data - pack.rows.ctypes.data) // w.data.itemsize
        assert pack.rows[0, start:start + w.data.size].tobytes() == new[name].tobytes(), name
    forward_backward(store, loss)
    adam_step(store, AdamConfig(lr=0.01))  # the tensors the loss reads are the ones Adam moves
    assert all(w.data.tobytes() != new[name].tobytes() for name, w in zip(store.names(), ws) if w.data.size)


def _benchmark_store(name):
    store, rng, words = ParamStore(), np.random.default_rng(0), np.zeros((3, 300), dtype=np.float32)
    if name == "ae":
        AeModel.create(store, words, 32, rng=rng)
    elif name == "multitask":
        MultitaskModel.create(store, words, 32, 128, rng=rng)
    else:
        create_alsa_model(store, name, 300, 128, rng=rng)
    return store


# Adam blocks per step at the benchmark's sizes (300-d vectors, hidden 128, BiGRU hidden 32),
# against one pass per tensor before the rows were packed: tclstm 8, atae 8, ian 14, ae 11, multitask 19.
@pytest.mark.parametrize("name, blocks", [("tclstm", 13), ("atae", 8), ("ian", 11), ("ae", 4), ("multitask", 8)])
def test_adam_block_count_of_the_benchmark_stores(name, blocks):
    store = _benchmark_store(name)
    assert sum(-(-pack.used // BLOCK) for pack in store._packs) == blocks
