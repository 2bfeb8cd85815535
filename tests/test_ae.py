import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absalab.ae import (
    AeModel,
    AspectSpan,
    ae_forward,
    ae_loss,
    decode_spans,
    encode_spans,
    export_transfer,
)
from absalab.optim import AdamConfig, ParamStore, adam_step, forward_backward, grad_check


def tiny_model(vocab=10, d=6, hidden=4, seed=0, dtype=np.float64):
    store = ParamStore()
    emb = np.random.default_rng(seed).normal(size=(vocab, d)).astype(dtype)
    model = AeModel.create(store, emb, hidden_dim=hidden, rng=np.random.default_rng(seed + 1), dtype=dtype)
    return store, model


def test_aspect_span_validation():
    AspectSpan(0, 0)
    AspectSpan(2, 5)
    with pytest.raises(ValueError):
        AspectSpan(3, 2)
    with pytest.raises(ValueError):
        AspectSpan(-1, 2)


def test_default_transfer_width_is_64():
    store = ParamStore()
    emb = np.zeros((5, 8), dtype=np.float32)
    model = AeModel.create(store, emb, rng=np.random.default_rng(0))
    emissions, transfer = ae_forward(model, [0, 1, 2, 3])
    assert model.transfer_dim == 64
    assert transfer.data.shape == (4, 64)
    assert emissions.data.shape == (4, 3)


@pytest.mark.parametrize("n", [1, 2, 7, 23, 50])
def test_emission_shape_contract(n):
    store, model = tiny_model()
    ids = [i % 10 for i in range(n)]
    emissions, transfer = ae_forward(model, ids)
    assert emissions.data.shape == (n, 3)
    assert transfer.data.shape == (n, model.transfer_dim)


def test_forward_is_deterministic():
    _, model = tiny_model()
    ids = [1, 2, 3]
    e1, t1 = ae_forward(model, ids)
    e2, t2 = ae_forward(model, ids)
    assert e1.data.tobytes() == e2.data.tobytes()
    assert t1.data.tobytes() == t2.data.tobytes()


def test_empty_sentence_rejected():
    _, model = tiny_model()
    with pytest.raises(ValueError):
        ae_forward(model, [])


def test_zero_parameter_loss_is_log9_for_two_tokens():
    store, model = tiny_model()
    for name in store.names():
        store.value(name)[...] = 0.0
    loss = ae_loss(model, [0, 1], ["B", "O"])
    assert loss.item() == pytest.approx(np.log(9.0), abs=1e-12)


def test_loss_non_negative_on_random_inputs(rng):
    _, model = tiny_model(seed=3)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        ids = rng.integers(0, 10, size=n).tolist()
        gold = [("B", "I", "O")[i] for i in rng.integers(0, 3, size=n)]
        assert ae_loss(model, ids, gold).item() >= 0.0


def test_loss_length_mismatch():
    _, model = tiny_model()
    with pytest.raises(ValueError):
        ae_loss(model, [0, 1, 2], ["B", "O"])


def test_overfit_single_sentence_under_500_steps():
    store, model = tiny_model(dtype=np.float32, seed=5)
    ids = [1, 4, 2, 7, 3]
    gold = ["O", "B", "I", "O", "O"]
    cfg = AdamConfig(lr=0.01)
    loss = None
    for _ in range(500):
        loss = forward_backward(store, lambda: ae_loss(model, ids, gold))
        adam_step(store, cfg)
        if loss < 0.01:
            break
    assert loss is not None and loss < 0.01


def test_gradients_pass_grad_check_with_frozen_embeddings():
    store, model = tiny_model(seed=9)
    ids = [0, 3, 5, 7]
    gold = ["O", "B", "I", "O"]
    err = grad_check(store, lambda: ae_loss(model, ids, gold), max_coords_per_param=3)
    assert err < 1e-4
    assert not any("embeddings" in name for name in store.names())


# -- transfer export --------------------------------------------------------------------


def test_export_matches_forward_bit_for_bit():
    _, model = tiny_model()
    ids = [2, 5, 1]
    _, transfer = ae_forward(model, ids)
    exported = export_transfer(model, ids)
    assert exported.tobytes() == transfer.data.tobytes()
    assert exported.shape == (3, model.transfer_dim)


def test_export_is_detached_from_the_graph():
    store, model = tiny_model()
    exported = export_transfer(model, [1, 2])
    assert isinstance(exported, np.ndarray)
    exported[...] = 0.0  # mutating the export must not touch model state
    _, transfer = ae_forward(model, [1, 2])
    assert not np.allclose(transfer.data, 0.0)


def test_cross_domain_export_width_matches():
    # a model exports the same width regardless of which sentences it sees
    _, model = tiny_model()
    a = export_transfer(model, [0, 1, 2])
    b = export_transfer(model, [9, 8])
    assert a.shape[1] == b.shape[1] == model.transfer_dim


# -- span decoding ------------------------------------------------------------------------


def test_decode_spans_examples():
    assert decode_spans(["B", "I", "O"]) == [AspectSpan(0, 1)]
    assert decode_spans(["O", "B", "B"]) == [AspectSpan(1, 1), AspectSpan(2, 2)]
    assert decode_spans(["O", "I", "I", "O"]) == [AspectSpan(1, 2)]
    assert decode_spans([]) == []
    assert decode_spans(["O", "O"]) == []
    assert decode_spans(["I"]) == [AspectSpan(0, 0)]
    assert decode_spans(["B", "B", "I"]) == [AspectSpan(0, 0), AspectSpan(1, 2)]


def test_decode_rejects_unknown_labels():
    with pytest.raises(ValueError):
        decode_spans(["B", "Q"])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
def test_decode_encode_round_trip(length, seed):
    gen = np.random.default_rng(seed)
    spans = []
    cursor = 0
    while cursor < length:
        start = cursor + int(gen.integers(0, 3))
        if start >= length:
            break
        end = min(length - 1, start + int(gen.integers(0, 3)))
        spans.append(AspectSpan(start, end))
        cursor = end + 1  # adjacent spans allowed
    labels = encode_spans(spans, length)
    assert decode_spans(labels) == spans


def test_encode_rejects_overlap_and_overflow():
    with pytest.raises(ValueError):
        encode_spans([AspectSpan(0, 2), AspectSpan(2, 3)], 5)
    with pytest.raises(ValueError):
        encode_spans([AspectSpan(0, 5)], 3)
