import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absalab import alsa
from absalab import autograd as ag
from absalab.ae import AspectSpan
from absalab.alsa import create_alsa_model, tclstm_forward
from absalab.autograd import Tensor
from absalab.layers import (
    GRU,
    LSTM,
    AttentionParams,
    CellParams,
    HeadParams,
    additive_attention,
    append_to_rows,
    classify,
    embed,
    glorot_uniform,
    max_pool_rows,
    run_bigru,
    run_lstm,
)
from absalab.optim import ParamStore, grad_check


def make_gru(store, name, d, h, seed=0, dtype=np.float64):
    return CellParams.create(store, name, d, h, np.random.default_rng(seed), GRU, dtype)


def make_lstm(store, name, d, h, seed=0, dtype=np.float64):
    return CellParams.create(store, name, d, h, np.random.default_rng(seed), LSTM, dtype)


def zero_params(store):
    for name in store.names():
        store.value(name)[...] = 0.0


# -- embed -----------------------------------------------------------------------


def test_embed_picks_matrix_rows():
    matrix = np.eye(3, dtype=np.float32)
    out = embed([0], matrix)
    npt.assert_array_equal(out.data, [[1, 0, 0]])


def test_embed_empty_sequence_is_zero_by_d():
    out = embed([], np.zeros((4, 7), dtype=np.float32))
    assert out.data.shape == (0, 7)


def test_embed_repeated_ids_give_identical_rows(rng):
    matrix = rng.normal(size=(5, 3))
    out = embed([2, 2], matrix)
    npt.assert_array_equal(out.data[0], out.data[1])


def test_embed_out_of_range_errors():
    for ids in ([3], [-1], [0, -1], [-(2 ** 62), 1], [0, 2 ** 62]):
        with pytest.raises(IndexError, match=r"token id out of range \[0, 3\)"):
            embed(ids, np.zeros((3, 2)))


# -- GRU --------------------------------------------------------------------------


def test_bigru_zero_everything_is_fixed_point():
    # zero weights: update gate 0.5, candidate 0 -> h stays 0
    store = ParamStore()
    fwd = make_gru(store, "f", 3, 4)
    bwd = make_gru(store, "b", 3, 4)
    zero_params(store)
    out = run_bigru(Tensor(np.zeros((5, 3))), fwd, bwd)
    npt.assert_array_equal(out.data, np.zeros((5, 8)))


def test_bigru_output_width_is_twice_hidden():
    store = ParamStore()
    fwd = make_gru(store, "f", 6, 32)
    bwd = make_gru(store, "b", 6, 32)
    out = run_bigru(Tensor(np.random.default_rng(0).normal(size=(4, 6))), fwd, bwd)
    assert out.data.shape == (4, 64)


def test_bigru_single_step_concatenates_directions(rng):
    store = ParamStore()
    fwd = make_gru(store, "f", 3, 2, seed=1)
    bwd = make_gru(store, "b", 3, 2, seed=2)
    x = Tensor(rng.normal(size=(1, 3)))
    out = run_bigru(x, fwd, bwd)
    fwd_only = run_bigru(x, fwd, fwd)
    bwd_only = run_bigru(x, bwd, bwd)
    npt.assert_allclose(out.data[0][:2], fwd_only.data[0][:2])
    npt.assert_allclose(out.data[0][2:], bwd_only.data[0][2:])


def test_bigru_reversal_symmetry(rng):
    store = ParamStore()
    fwd = make_gru(store, "f", 3, 4, seed=1)
    bwd = make_gru(store, "b", 3, 4, seed=2)
    x = rng.normal(size=(6, 3))
    out = run_bigru(Tensor(x), fwd, bwd).data
    flipped = run_bigru(Tensor(x[::-1].copy()), bwd, fwd).data
    # reversing inputs and swapping cells reverses rows and swaps halves
    recombined = np.concatenate([flipped[::-1, 4:], flipped[::-1, :4]], axis=1)
    npt.assert_allclose(out, recombined, atol=1e-12)


def test_bigru_rejects_empty_input():
    store = ParamStore()
    fwd = make_gru(store, "f", 3, 4)
    bwd = make_gru(store, "b", 3, 4)
    with pytest.raises(ValueError):
        run_bigru(Tensor(np.zeros((0, 3))), fwd, bwd)


def test_bigru_rejects_cells_of_unequal_width():
    # the output is 2 * hidden_dim wide, and the directions step as one stack
    store = ParamStore()
    fwd = make_gru(store, "f", 3, 4)
    bwd = make_gru(store, "b", 3, 5)
    with pytest.raises(ag.ShapeError, match=r"\(4,\) and \(5,\).*hidden_dim"):
        run_bigru(Tensor(np.zeros((2, 3))), fwd, bwd)


def test_bigru_rejects_input_that_requires_grad():
    # its input is frozen embedding rows; a gradient for it would be dropped
    store = ParamStore()
    fwd = make_gru(store, "f", 3, 4)
    bwd = make_gru(store, "b", 3, 4)
    with pytest.raises(ValueError, match="frozen"):
        run_bigru(Tensor(np.zeros((2, 3)), requires_grad=True), fwd, bwd)


# -- LSTM -------------------------------------------------------------------------


def test_lstm_refuses_empty_input():
    store = ParamStore()
    cell = make_lstm(store, "l", 3, 4)
    with pytest.raises(ValueError, match="at least one input row"):
        run_lstm(Tensor(np.zeros((0, 3))), cell)


def test_lstm_empty_input_yields_zero_final_state(monkeypatch):
    # the empty input is TC-LSTM's left context of an aspect at the sentence
    # start: the model reads no LSTM there and passes a zero final state on
    model = create_alsa_model(ParamStore(), "tclstm", d_in=3, hidden=4, rng=np.random.default_rng(0))
    features = []
    monkeypatch.setattr(alsa, "classify", lambda x, head: features.append(x.data) or classify(x, head))
    tclstm_forward(model, Tensor(np.ones((3, 3), dtype=np.float32)), AspectSpan(0, 0))
    (left, right), = [np.split(x, 2) for x in features]
    assert left.dtype == np.float32
    npt.assert_array_equal(left, np.zeros(4))
    assert np.any(right != 0)


def test_lstm_zero_weights_zero_input_single_step():
    store = ParamStore()
    cell = make_lstm(store, "l", 3, 4)
    zero_params(store)
    states = run_lstm(Tensor(np.zeros((1, 3))), cell)
    npt.assert_array_equal(states.data, np.zeros((1, 4)))


def test_lstm_forget_bias_initialized_to_one():
    store = ParamStore()
    cell = make_lstm(store, "l", 3, 4)
    npt.assert_array_equal(cell.b.data[1], np.ones(4))
    npt.assert_array_equal(cell.b.data[[0, 2, 3]], np.zeros((3, 4)))


@pytest.mark.parametrize("gate_biases", [GRU, LSTM], ids=["gru", "lstm"])
def test_cell_gate_blocks_are_the_per_gate_draws(gate_biases):
    # per gate, the input weights are drawn before the recurrent weights
    d, h = 3, 5
    cell = CellParams.create(ParamStore(), "c", d, h, np.random.default_rng(7), gate_biases)
    rng = np.random.default_rng(7)
    assert cell.w.data.shape == (len(gate_biases), d, h)
    assert cell.u.data.shape == (len(gate_biases), h, h)
    assert cell.b.data.shape == (len(gate_biases), h)
    for k in range(len(gate_biases)):
        npt.assert_array_equal(cell.w.data[k], glorot_uniform(rng, (d, h), d, h))
        npt.assert_array_equal(cell.u.data[k], glorot_uniform(rng, (h, h), h, h))
        assert cell.w.data[k].flags.c_contiguous and cell.u.data[k].flags.c_contiguous


@pytest.mark.parametrize("reading", ["forward", "backward"])
def test_every_cell_coordinate_passes_grad_check(rng, reading):
    # all coordinates of w, u and b, so every gate's block is checked; the
    # loss reads the LSTM's states and, as TC-LSTM does, their last row; a
    # backward reading hands the cells a reversed view of the rows
    store = ParamStore()
    gru = make_gru(store, "g", 2, 3, seed=1)
    lstm = make_lstm(store, "l", 2, 3, seed=2)
    rows = rng.normal(size=(3, 2))
    x = Tensor(rows[::-1] if reading == "backward" else rows)
    gru_proj = Tensor(rng.normal(size=(6, 2)))
    lstm_proj = Tensor(rng.normal(size=(3, 3)))

    def loss():
        states = run_lstm(x, lstm)
        final = states[-1]
        return (run_bigru(x, gru, gru) @ gru_proj).sum() + (states @ lstm_proj).sum() + (final * final).sum()

    assert grad_check(store, loss, max_coords_per_param=max(store.value(n).size for n in store.names())) < 1e-6


# -- attention ---------------------------------------------------------------------


def attention_fixture(key_dim=4, query_dim=3, seed=0):
    store = ParamStore()
    params = AttentionParams.create(store, "attn", key_dim, query_dim, np.random.default_rng(seed), dtype=np.float64)
    return store, params


def test_attention_identical_keys_split_evenly(rng):
    _, params = attention_fixture()
    key = rng.normal(size=4)
    keys = Tensor(np.stack([key, key]))
    alpha, pooled = additive_attention(keys, Tensor(rng.normal(size=3)), params)
    npt.assert_allclose(alpha.data, [0.5, 0.5], atol=1e-12)
    npt.assert_allclose(pooled.data, key, atol=1e-12)


def test_attention_single_key_gets_weight_one(rng):
    _, params = attention_fixture()
    key = rng.normal(size=4)
    alpha, pooled = additive_attention(Tensor(key[None, :]), Tensor(rng.normal(size=3)), params)
    npt.assert_allclose(alpha.data, [1.0])
    npt.assert_allclose(pooled.data, key)


def test_attention_zero_scoring_vector_is_uniform(rng):
    _, params = attention_fixture()
    params.score.data[...] = 0.0
    keys = Tensor(rng.normal(size=(5, 4)))
    alpha, _ = additive_attention(keys, Tensor(rng.normal(size=3)), params)
    npt.assert_allclose(alpha.data, np.full(5, 0.2), atol=1e-12)


def test_attention_rejects_empty_keys(rng):
    _, params = attention_fixture()
    with pytest.raises(ValueError):
        additive_attention(Tensor(np.zeros((0, 4))), Tensor(rng.normal(size=3)), params)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_attention_alpha_is_probability_and_permutation_equivariant(n, seed):
    rng = np.random.default_rng(seed)
    _, params = attention_fixture(seed=seed % 1000)
    keys = rng.normal(size=(n, 4))
    query = Tensor(rng.normal(size=3))
    alpha, _ = additive_attention(Tensor(keys), query, params)
    assert (alpha.data >= 0).all()
    assert abs(alpha.data.sum() - 1.0) < 1e-6
    perm = rng.permutation(n)
    alpha_perm, _ = additive_attention(Tensor(keys[perm]), query, params)
    npt.assert_allclose(alpha_perm.data, alpha.data[perm], atol=1e-9)


# -- head / pooling -----------------------------------------------------------------


def head_fixture(d=4, seed=0):
    store = ParamStore()
    return store, HeadParams.create(store, "head", d, 3, np.random.default_rng(seed), dtype=np.float64)


def test_classify_zero_parameters_gives_uniform_logits(rng):
    store, head = head_fixture()
    zero_params(store)
    logits = classify(Tensor(rng.normal(size=4)), head)
    npt.assert_array_equal(logits.data, np.zeros(3))
    npt.assert_allclose(ag.softmax(logits).data, np.full(3, 1 / 3), atol=1e-12)


def test_classify_bias_selects_argmax(rng):
    store, head = head_fixture()
    zero_params(store)
    head.bias.data[...] = [1.0, 0.0, 0.0]
    logits = classify(Tensor(rng.normal(size=4)), head)
    assert int(np.argmax(logits.data)) == 0


def test_classify_probabilities_normalize(rng):
    _, head = head_fixture()
    logits = classify(Tensor(rng.normal(size=4)), head)
    assert abs(ag.softmax(logits).data.sum() - 1.0) < 1e-9


def test_classify_dimension_mismatch():
    _, head = head_fixture(d=4)
    with pytest.raises(ag.ShapeError, match="classify"):
        classify(Tensor(np.zeros(5)), head)


def test_max_pool_rows_examples():
    npt.assert_array_equal(max_pool_rows(Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))).data, [1.0, 1.0])
    single = np.array([[0.3, -0.7, 2.0]])
    npt.assert_array_equal(max_pool_rows(Tensor(single)).data, single[0])
    with pytest.raises(ValueError):
        max_pool_rows(Tensor(np.zeros((0, 3))))


def test_max_pool_rows_permutation_invariant(rng):
    m = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    npt.assert_array_equal(max_pool_rows(Tensor(m)).data, max_pool_rows(Tensor(m[perm])).data)


def test_append_to_rows(rng):
    m = rng.normal(size=(3, 2))
    v = rng.normal(size=4)
    out = append_to_rows(Tensor(m), Tensor(v))
    assert out.data.shape == (3, 6)
    npt.assert_array_equal(out.data[:, :2], m)
    for row in out.data:
        npt.assert_array_equal(row[2:], v)


def test_append_to_rows_refuses_no_rows():
    with pytest.raises(ValueError, match="at least one row"):
        append_to_rows(Tensor(np.zeros((0, 2))), Tensor(np.ones(4)))


# -- gradients through compositions ---------------------------------------------------


def test_composed_layer_gradients_pass_grad_check(rng):
    store = ParamStore()
    gen = np.random.default_rng(11)
    fwd = CellParams.create(store, "f", 3, 4, gen, GRU, np.float64)
    bwd = CellParams.create(store, "b", 3, 4, gen, GRU, np.float64)
    attn = AttentionParams.create(store, "a", 8, 8, gen, dtype=np.float64)
    head = HeadParams.create(store, "h", 8, 3, gen, np.float64)
    x = rng.normal(size=(5, 3))

    def loss():
        states = run_bigru(Tensor(x), fwd, bwd)
        pooled_query = max_pool_rows(states)
        _, pooled = additive_attention(states, pooled_query, attn)
        return ag.cross_entropy(classify(pooled, head), 1)

    assert grad_check(store, loss, max_coords_per_param=3) < 1e-4
