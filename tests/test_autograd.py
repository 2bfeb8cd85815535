import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absalab import autograd as ag
from absalab.autograd import ShapeError, Tensor, tensor
from bitwise import assert_same_bits
from crf_oracle import logsumexp
from recurrence_oracle import sigmoid


def leaf(values, dtype=np.float64):
    return tensor(values, requires_grad=True, dtype=dtype)


def numeric_grad(fn, x: np.ndarray, eps=1e-6) -> np.ndarray:
    out = np.zeros_like(x)
    flat = x.reshape(-1)
    grad = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        grad[i] = (plus - minus) / (2 * eps)
    return out


def test_sum_of_parameter_has_all_ones_gradient():
    p = leaf([[1.0, 2.0], [3.0, 4.0]])
    loss = p.sum()
    loss.backward()
    npt.assert_array_equal(p.grad, np.ones((2, 2)))


def test_zero_times_parameter_has_zero_gradient():
    p = leaf([5.0, -3.0])
    loss = (p * 0.0).sum()
    loss.backward()
    npt.assert_array_equal(p.grad, np.zeros(2))


def test_softmax_cross_entropy_gradient_closed_form():
    # softmax(z) - onehot for z = [0,0,0], class 0
    z = leaf([0.0, 0.0, 0.0])
    loss = ag.cross_entropy(z, 0)
    loss.backward()
    npt.assert_allclose(z.grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)
    numeric = numeric_grad(lambda: ag.cross_entropy(z, 0).item(), z.data)
    npt.assert_allclose(z.grad, numeric, atol=1e-8)


def test_backward_requires_scalar():
    p = leaf([1.0, 2.0])
    with pytest.raises(ShapeError):
        (p * 2.0).backward()


@pytest.mark.parametrize("shapes", [((2, 3), (4, 2)), ((3,), (2, 2)), ((2, 2), (3,)), ((3,), (3,))])
def test_matmul_shape_mismatch_names_primitive(shapes):
    a, b = Tensor(np.zeros(shapes[0])), Tensor(np.zeros(shapes[1]))
    with pytest.raises(ShapeError, match="matmul"):
        ag.matmul(a, b)


def test_add_shape_mismatch_is_structured():
    with pytest.raises(ShapeError, match="add"):
        ag.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [((3,), (3, 4)), ((2, 3), (3,)), ((2, 3), (3, 4))],
)
def test_matmul_gradients_match_finite_differences(rng, a_shape, b_shape):
    a = leaf(rng.normal(size=a_shape))
    b = leaf(rng.normal(size=b_shape))

    def loss():
        return ((a @ b) * (a @ b)).sum()

    loss().backward()
    ga, gb = a.grad.copy(), b.grad.copy()
    npt.assert_allclose(ga, numeric_grad(lambda: loss().item(), a.data), atol=1e-6)
    npt.assert_allclose(gb, numeric_grad(lambda: loss().item(), b.data), atol=1e-6)


def test_broadcast_add_unbroadcasts_gradient(rng):
    m = leaf(rng.normal(size=(4, 3)))
    v = leaf(rng.normal(size=(3,)))
    (m + v).sum().backward()
    npt.assert_array_equal(v.grad, np.full(3, 4.0))
    npt.assert_array_equal(m.grad, np.ones((4, 3)))


def test_take_accumulates_duplicate_rows(rng):
    m = leaf(rng.normal(size=(5, 2)))
    picked = m[[2, 2, 0]]
    picked.sum().backward()
    expected = np.zeros((5, 2))
    expected[2] = 2.0
    expected[0] = 1.0
    npt.assert_array_equal(m.grad, expected)
    # basic keys add into the selected view of the same gradient slot
    (m[2].sum() + m[1:3, 0].sum() * 2.0).backward()
    expected[2] += [3.0, 1.0]
    expected[1, 0] += 2.0
    npt.assert_array_equal(m.grad, expected)


def test_concat_and_stack_split_gradients(rng):
    a = leaf(rng.normal(size=(2, 3)))
    b = leaf(rng.normal(size=(1, 3)))
    ag.concat([a, b], axis=0).sum().backward()
    npt.assert_array_equal(a.grad, np.ones((2, 3)))
    npt.assert_array_equal(b.grad, np.ones((1, 3)))

    v = leaf(rng.normal(size=(3,)))
    stacked = ag.stack_rows([v, v, v])
    (stacked * 2.0).sum().backward()
    npt.assert_array_equal(v.grad, np.full(3, 6.0))


def test_max_routes_gradient_to_argmax():
    m = leaf([[1.0, 5.0], [5.0, 2.0]])
    ag.tmax(m, axis=0).sum().backward()
    npt.assert_array_equal(m.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_max_tie_routes_gradient_to_first_row():
    m = leaf([[5.0, 5.0], [5.0, 2.0]])
    ag.tmax(m, axis=0).sum().backward()
    npt.assert_array_equal(m.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_logsumexp_matches_reference_and_gradient(rng):
    x = leaf(rng.normal(size=(4, 3)))
    out = logsumexp(x, axis=0)
    ref = np.log(np.exp(x.data).sum(axis=0))
    npt.assert_allclose(out.data, ref, atol=1e-12)
    out.sum().backward()
    npt.assert_allclose(x.grad, numeric_grad(lambda: logsumexp(x, axis=0).sum().item(), x.data), atol=1e-6)


def test_logsumexp_is_overflow_safe():
    x = Tensor(np.array([1000.0, 1000.0]))
    out = logsumexp(x)
    assert np.isfinite(out.data)
    npt.assert_allclose(out.item(), 1000.0 + np.log(2.0), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_is_normalized_and_positive(logits):
    out = ag.softmax(Tensor(np.asarray(logits, dtype=np.float64)))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert (out.data > 0).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=6), st.floats(-5, 5))
def test_softmax_shift_invariance(logits, shift):
    a = ag.softmax(Tensor(np.asarray(logits))).data
    b = ag.softmax(Tensor(np.asarray(logits) + shift)).data
    npt.assert_allclose(a, b, atol=1e-9)


def test_sigmoid_tanh_gradients(rng):
    x = leaf(rng.normal(size=7))
    (sigmoid(x) * ag.tanh(x)).sum().backward()
    npt.assert_allclose(
        x.grad,
        numeric_grad(lambda: (sigmoid(x) * ag.tanh(x)).sum().item(), x.data),
        atol=1e-7,
    )


def test_sigmoid_saturates_without_overflow():
    out = ag.logistic(np.array([-500.0, 500.0]))
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out, [0.0, 1.0], atol=1e-12)


def _two_divide_logistic(x):
    """The reference: `ag.logistic` in its earlier form, both quotients and then a cast."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d).astype(x.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logistic_keeps_the_bits_of_the_two_divide_form(dtype):
    magnitudes = np.concatenate([np.geomspace(1e-8, 1e3, 4001),
                                 10.0 ** np.random.default_rng(0).uniform(-8, 3, 4000)])
    x = np.concatenate([magnitudes, -magnitudes, [0.0, -0.0, np.inf, -np.inf]]).astype(dtype)
    for shaped in (x, x[:3 * 128].reshape(3, 128)):  # the LSTM's stacked gates are (3, hidden)
        assert_same_bits(ag.logistic(shaped), _two_divide_logistic(shaped), f"logistic {np.dtype(dtype)}")


def test_graph_reuse_accumulates(rng):
    x = leaf([2.0])
    y = x * x  # reused node
    (y + y).sum().backward()
    npt.assert_allclose(x.grad, [8.0])


def test_deep_chain_does_not_hit_recursion_limit():
    x = leaf([1.0])
    y = x
    for _ in range(5000):
        y = y * 1.0
    y.sum().backward()
    npt.assert_allclose(x.grad, [1.0])
