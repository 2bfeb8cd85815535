import numpy as np
import numpy.testing as npt
import pytest
import recurrence_oracle

from absalab import alsa
from absalab import autograd as ag
from absalab.ae import AspectSpan
from absalab.alsa import (
    AlsaSample,
    InputMode,
    MultitaskModel,
    _noise_seed,
    alsa_forward,
    alsa_loss,
    atae_forward,
    build_input,
    create_alsa_model,
    ian_forward,
    majority_predict,
    multitask_forward,
    multitask_loss,
    predict_label,
    tclstm_forward,
)
from absalab.autograd import Tensor
from absalab.crf import nll as crf_nll
from absalab.layers import run_lstm
from absalab.optim import ParamStore, forward_backward, grad_check


def sample_of(n=5, span=(1, 2), label=0, sid="s0"):
    return AlsaSample(token_ids=tuple(range(n)), span=AspectSpan(*span), label=label,
                      sentence_id=sid, domain="laptop")


def embeddings_of(vocab=10, d=6, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=(vocab, d)).astype(dtype)


def model_of(arch, d_in=6, hidden=4, seed=1, dtype=np.float64):
    store = ParamStore()
    model = create_alsa_model(store, arch, d_in=d_in, hidden=hidden,
                              rng=np.random.default_rng(seed), dtype=dtype)
    return store, model


# -- samples and input modes ----------------------------------------------------------


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_of(n=3, span=(1, 3))
    with pytest.raises(ValueError):
        AlsaSample((0, 1), AspectSpan(0, 0), 5, "x", "laptop")


def test_plain_input_keeps_embedding_width():
    emb = np.zeros((10, 300), dtype=np.float32)
    words, aspect = build_input(sample_of(), InputMode.plain(), emb)
    assert words.data.shape == (5, 300)
    assert aspect.data.shape == (2, 300)


def test_transfer_input_widens_to_364():
    emb = np.zeros((10, 300), dtype=np.float32)
    mode = InputMode.transfer({"s0": np.ones((5, 64), dtype=np.float32)}, extra_dim=64)
    words, aspect = build_input(sample_of(), mode, emb)
    assert words.data.shape == (5, 364)
    assert aspect.data.shape == (2, 364)
    npt.assert_array_equal(words.data[:, 300:], 1.0)


def test_noise_input_is_seed_stable():
    emb = embeddings_of()
    mode = InputMode.noise(8, seed=4)
    first, _ = build_input(sample_of(), mode, emb)
    second, _ = build_input(sample_of(), mode, emb)
    assert first.data.tobytes() == second.data.tobytes()
    other_sentence, _ = build_input(sample_of(sid="s1"), mode, emb)
    assert not np.array_equal(first.data[:, 6:], other_sentence.data[:, 6:])


def test_noise_input_single_token_width_one():
    words, aspect = build_input(sample_of(n=1, span=(0, 0)), InputMode.noise(1, seed=5), embeddings_of(dtype=np.float32))
    assert words.data.shape == (1, 7) and aspect.data.shape == (1, 7)
    assert words.data.dtype == np.float32 and np.isfinite(words.data).all()
    # the float64 draw, cast once: a float32 draw would take another generator path
    draw = np.random.default_rng(_noise_seed(5, "s0")).standard_normal((1, 1))
    assert words.data[:, 6:].tobytes() == draw.astype(np.float32).tobytes()


def test_missing_transfer_rows_error_names_sentence():
    mode = InputMode.transfer({}, extra_dim=4)
    with pytest.raises(KeyError, match="s0"):
        build_input(sample_of(), mode, embeddings_of())


def test_transfer_row_count_mismatch_is_error():
    mode = InputMode.transfer({"s0": np.zeros((3, 4))}, extra_dim=4)
    with pytest.raises(ValueError, match="shape"):
        build_input(sample_of(n=5), mode, embeddings_of())


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown input mode 'bogus'"):
        InputMode("bogus")


@pytest.mark.parametrize("bad_id", [-1, 10])
@pytest.mark.parametrize("mode", [InputMode.plain(), InputMode.noise(2, seed=1)], ids=["plain", "noise"])
def test_token_id_outside_the_embedding_table_is_refused(bad_id, mode):
    # a negative id would otherwise read a row from the end of the table
    sample = AlsaSample((0, bad_id, 2), AspectSpan(1, 1), 0, "s0", "laptop")
    with pytest.raises(IndexError, match=r"token id out of range \[0, 10\)"):
        build_input(sample, mode, embeddings_of())
    _, model = model_of("atae")
    with pytest.raises(IndexError, match=r"token id out of range \[0, 10\)"):
        alsa_loss(model, sample, mode, embeddings_of())


def test_aspect_mean_examples():
    # the aspect representation is the mean of the aspect rows
    npt.assert_array_equal(Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])).mean(axis=0).data, [0.5, 0.5])
    row = np.array([[2.0, 3.0]])
    npt.assert_array_equal(Tensor(row).mean(axis=0).data, row[0])
    m = np.random.default_rng(0).normal(size=(4, 3))
    perm = m[[2, 0, 3, 1]]
    npt.assert_allclose(Tensor(m).mean(axis=0).data, Tensor(perm).mean(axis=0).data, atol=1e-12)
    with pytest.raises(ValueError, match="empty reduction"):
        Tensor(np.zeros((0, 3))).mean(axis=0)


@pytest.mark.parametrize("forward", [tclstm_forward, atae_forward, ian_forward])
def test_forward_refuses_a_span_past_the_last_row(forward):
    _, model = model_of(forward.__name__.split("_")[0])
    words, _ = build_input(sample_of(n=3, span=(1, 2)), InputMode.plain(), embeddings_of())
    with pytest.raises(ValueError, match=r"outside sentence of 3 rows"):
        forward(model, words, AspectSpan(2, 3))


# -- tclstm ------------------------------------------------------------------------------


def test_tclstm_context_sizes_via_whole_sentence_span():
    # aspect covering the whole sentence leaves both contexts empty, so the
    # logits reduce to the head bias over concat(0, 0)
    store, model = model_of("tclstm")
    emb = embeddings_of()
    words, _ = build_input(sample_of(n=4, span=(0, 3)), InputMode.plain(), emb)
    logits, attention = tclstm_forward(model, words, AspectSpan(0, 3))
    assert attention == {}
    npt.assert_allclose(logits.data, model.head.bias.data, atol=1e-12)


def test_tclstm_logits_shape_and_determinism():
    store, model = model_of("tclstm")
    emb = embeddings_of()
    words, _ = build_input(sample_of(), InputMode.plain(), emb)
    a, _ = tclstm_forward(model, words, AspectSpan(1, 2))
    b, _ = tclstm_forward(model, words, AspectSpan(1, 2))
    assert a.data.shape == (3,)
    assert a.data.tobytes() == b.data.tobytes()


def test_tclstm_left_context_excludes_target():
    # identical sentences except inside the span give identical logits when
    # the aspect mean is forced equal: contexts exclude target words
    store, model = model_of("tclstm")
    emb = embeddings_of()
    ids_a = (0, 1, 2, 3, 4)
    ids_b = (0, 1, 2, 5, 4)  # differs only at position 3
    span = AspectSpan(2, 3)
    words_a, _ = build_input(sample_of(), InputMode.plain(), emb)
    base, _ = tclstm_forward(model, words_a, span)
    # rebuild words for ids_b but overwrite the aspect rows with ids_a's rows
    rows_b = emb[list(ids_b)].copy()
    rows_b[2:4] = emb[list(ids_a)][2:4]
    again, _ = tclstm_forward(model, Tensor(rows_b), span)
    npt.assert_allclose(base.data, again.data, atol=1e-12)


def test_tclstm_right_lstm_reads_from_the_sentence_end(monkeypatch):
    # the right LSTM's final state is a step loop from the last row down to
    # the row after the aspect, and differs from the loop run the other way
    store, model = model_of("tclstm")
    n, span = 6, AspectSpan(1, 2)
    words, _ = build_input(sample_of(n=n, span=(1, 2)), InputMode.plain(), embeddings_of())
    finals = {}

    def recording(inputs, cell):
        states = run_lstm(inputs, cell)
        finals[id(cell)] = states.data[-1]
        return states

    monkeypatch.setattr(alsa, "run_lstm", recording)
    tclstm_forward(model, words, span)
    target = words[span.start : span.end + 1].mean(axis=0)
    gates = recurrence_oracle._gate_blocks(model.lstm_right)

    def step_loop(rows):
        h = c = Tensor(np.zeros(model.lstm_right.hidden_dim))
        for t in rows:
            h, c = recurrence_oracle.lstm_step(gates, ag.concat([words[t], target]), h, c)
        return h.data

    got = finals[id(model.lstm_right)]
    npt.assert_array_equal(got, step_loop(range(n - 1, span.end, -1)))
    assert not np.allclose(got, step_loop(range(span.end + 1, n)))


# -- atae --------------------------------------------------------------------------------


def test_atae_alpha_normalizes(rng):
    store, model = model_of("atae")
    emb = embeddings_of()
    words, _ = build_input(sample_of(), InputMode.plain(), emb)
    logits, attention = atae_forward(model, words, AspectSpan(1, 2))
    assert list(attention) == ["sentence"]
    alpha = attention["sentence"]
    assert logits.data.shape == (3,)
    assert alpha.data.shape == (5,)
    assert abs(alpha.data.sum() - 1.0) < 1e-6
    assert (alpha.data >= 0).all()


def test_atae_single_token_alpha_is_one():
    store, model = model_of("atae")
    emb = embeddings_of()
    sample = sample_of(n=1, span=(0, 0))
    words, _ = build_input(sample, InputMode.plain(), emb)
    _, attention = atae_forward(model, words, sample.span)
    npt.assert_allclose(attention["sentence"].data, [1.0])


def test_atae_zero_scoring_vector_gives_uniform_alpha():
    store, model = model_of("atae")
    model.attention.score.data[...] = 0.0
    emb = embeddings_of()
    words, _ = build_input(sample_of(), InputMode.plain(), emb)
    _, attention = atae_forward(model, words, AspectSpan(1, 2))
    npt.assert_allclose(attention["sentence"].data, np.full(5, 0.2), atol=1e-12)


# -- ian ----------------------------------------------------------------------------------


def test_ian_alphas_normalize():
    store, model = model_of("ian")
    emb = embeddings_of()
    words, _ = build_input(sample_of(), InputMode.plain(), emb)
    logits, attention = ian_forward(model, words, AspectSpan(1, 2))
    assert sorted(attention) == ["aspect", "sentence"]
    alpha_sentence, alpha_aspect = attention["sentence"], attention["aspect"]
    assert logits.data.shape == (3,)
    assert alpha_sentence.data.shape == (5,)
    assert alpha_aspect.data.shape == (2,)
    assert abs(alpha_sentence.data.sum() - 1.0) < 1e-6
    assert abs(alpha_aspect.data.sum() - 1.0) < 1e-6


def test_ian_single_word_sentence_and_aspect():
    store, model = model_of("ian")
    emb = embeddings_of()
    sample = sample_of(n=1, span=(0, 0))
    words, _ = build_input(sample, InputMode.plain(), emb)
    _, attention = ian_forward(model, words, sample.span)
    npt.assert_allclose(attention["sentence"].data, [1.0])
    npt.assert_allclose(attention["aspect"].data, [1.0])


# -- shared properties -----------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["tclstm", "atae", "ian"])
def test_transfer_width_zero_is_bit_identical_to_plain(arch):
    store, model = model_of(arch, d_in=6, dtype=np.float32)
    emb = embeddings_of(dtype=np.float32)
    sample = sample_of()
    plain_words, _ = build_input(sample, InputMode.plain(), emb)
    plain_logits, _ = alsa_forward(model, plain_words, sample.span)
    for degenerate in (InputMode.transfer({"s0": np.zeros((5, 0), dtype=np.float32)}, extra_dim=0),
                       InputMode.noise(0, seed=4)):
        widened_words, _ = build_input(sample, degenerate, emb)
        assert widened_words.data.dtype == np.float32 and widened_words.data.shape == (5, 6)
        widened_logits, _ = alsa_forward(model, widened_words, sample.span)
        assert plain_logits.data.tobytes() == widened_logits.data.tobytes()


@pytest.mark.parametrize("arch", ["tclstm", "atae", "ian"])
def test_alsa_losses_pass_grad_check(arch):
    store, model = model_of(arch)
    emb = embeddings_of()
    sample = sample_of(label=2)
    err = grad_check(store, lambda: alsa_loss(model, sample, InputMode.plain(), emb),
                     max_coords_per_param=3)
    assert err < 1e-4, f"{arch}: {err}"


@pytest.mark.parametrize("arch", ["tclstm", "atae", "ian"])
def test_alpha_shift_invariance_via_attention_bias(arch):
    if arch == "tclstm":
        pytest.skip("no attention head")
    store, model = model_of(arch)
    emb = embeddings_of()
    sample = sample_of()
    words, _ = build_input(sample, InputMode.plain(), emb)
    _, alphas_before = alsa_forward(model, words, sample.span)
    # shifting every attention score by a constant leaves alpha unchanged;
    # realized here by construction of softmax over scores
    for alpha in alphas_before.values():
        shifted = ag.softmax(Tensor(np.log(np.maximum(alpha.data, 1e-12)) + 3.0)).data
        npt.assert_allclose(shifted, alpha.data, atol=1e-9)


# -- multitask ----------------------------------------------------------------------------------


def multitask_fixture(seed=2):
    store = ParamStore()
    emb = embeddings_of(dtype=np.float64)
    model = MultitaskModel.create(store, emb, shared_hidden=3, alsa_hidden=4,
                                  rng=np.random.default_rng(seed), dtype=np.float64)
    return store, model


def test_multitask_joint_loss_is_sum_of_parts():
    store, model = multitask_fixture()
    ids = [0, 2, 4, 6]
    bio = ["O", "B", "I", "O"]
    span = AspectSpan(1, 2)
    emissions, logits, attention = multitask_forward(model, ids, span)
    separate = crf_nll(emissions, bio, model.tagger.crf).item() + ag.cross_entropy(logits, 1).item()
    joint = multitask_loss(model, ids, bio, span, 1).item()
    assert joint == pytest.approx(separate, abs=1e-9)
    assert abs(attention["sentence"].data.sum() - 1.0) < 1e-6


def test_multitask_shared_encoder_gets_gradient_from_either_head():
    store, model = multitask_fixture()
    ids = [0, 2, 4, 6]
    bio = ["O", "B", "I", "O"]
    span = AspectSpan(1, 2)
    shared_names = [n for n in store.names() if "gru" in n]

    forward_backward(store, lambda: crf_nll(multitask_forward(model, ids, span)[0], bio, model.tagger.crf))
    tagging_grads = sum(np.abs(store.gradient(n)).sum() for n in shared_names)
    forward_backward(store, lambda: ag.cross_entropy(multitask_forward(model, ids, span)[1], 0))
    sentiment_grads = sum(np.abs(store.gradient(n)).sum() for n in shared_names)
    assert tagging_grads > 0
    assert sentiment_grads > 0


def test_multitask_gradients_pass_grad_check():
    store, model = multitask_fixture()
    err = grad_check(store, lambda: multitask_loss(model, [0, 2, 4, 6], ["O", "B", "I", "O"], AspectSpan(1, 2), 1),
                     max_coords_per_param=3)
    assert err < 1e-4


# -- majority ---------------------------------------------------------------------------------


def test_majority_predicts_modal_label_from_table_counts():
    train = [0] * 994 + [1] * 870 + [2] * 464  # laptop training distribution
    preds = majority_predict(train, 5)
    assert preds == [0] * 5


def test_majority_tie_breaks_to_earliest_label():
    assert majority_predict([0, 1], 2) == [0, 0]
    assert majority_predict([2, 1], 1) == [1]


def test_majority_rejects_empty_and_bad_labels():
    with pytest.raises(ValueError):
        majority_predict([], 3)
    with pytest.raises(ValueError):
        majority_predict([0, 7], 3)


def test_predict_label_matches_argmax():
    store, model = model_of("atae")
    emb = embeddings_of()
    sample = sample_of()
    words, _ = build_input(sample, InputMode.plain(), emb)
    logits, _ = atae_forward(model, words, sample.span)
    assert predict_label(model, sample, InputMode.plain(), emb) == int(np.argmax(logits.data))
