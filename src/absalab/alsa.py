"""Aspect-level sentiment classifiers and their widened-input variants.

Three architectures (context LSTM pair, attention LSTM, interactive
attention) each map (word matrix, aspect span) to three class logits
and their attention weights by name.
Input widening concatenates per-token auxiliary rows onto the word
vectors: learned transfer rows (``transfer``), or fixed seeded noise of
the same width (``noise``). With width 0 the widened graph degenerates
bit-for-bit into the plain one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from . import autograd as ag
from . import crf as crf_mod
from .ae import AeModel, AspectSpan, ae_forward
from .autograd import Tensor
from .layers import (
    LSTM,
    AttentionParams,
    CellParams,
    HeadParams,
    additive_attention,
    append_to_rows,
    classify,
    embed,
    max_pool_rows,
    run_lstm,
)
from .optim import ParamStore

POSITIVE, NEGATIVE, NEUTRAL = 0, 1, 2
LABEL_NAMES = ("positive", "negative", "neutral")
POLARITY_TO_LABEL = {"positive": POSITIVE, "negative": NEGATIVE, "neutral": NEUTRAL}
NUM_CLASSES = 3
INPUT_MODES = ("plain", "transfer", "noise")


@dataclass(frozen=True)
class AlsaSample:
    """One (sentence, aspect, polarity) classification instance."""

    token_ids: tuple[int, ...]
    span: AspectSpan
    label: int
    sentence_id: str
    domain: str
    tokens: tuple[str, ...] | None = None  # surfaces, kept for attention dumps

    def __post_init__(self):
        if self.label not in (POSITIVE, NEGATIVE, NEUTRAL):
            raise ValueError(f"label must be 0, 1 or 2, got {self.label}")
        if self.span.end >= len(self.token_ids):
            raise ValueError(f"span {self.span} outside sentence of {len(self.token_ids)} tokens")


@dataclass(frozen=True)
class InputMode:
    """How word vectors are (optionally) widened before a classifier.

    plain: embedding rows as they are.
    transfer: concatenate cached per-sentence transfer rows (keyed by
        sentence id in `source`).
    noise: concatenate a fixed standard-normal matrix per sentence, seeded
        by (seed, sentence id) so it is stable across epochs and runs.
    """

    variant: str
    source: Mapping[str, np.ndarray] | None = None
    extra_dim: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in INPUT_MODES:
            raise ValueError(f"unknown input mode {self.variant!r}")

    @classmethod
    def plain(cls) -> "InputMode":
        return cls("plain")

    @classmethod
    def transfer(cls, source: Mapping[str, np.ndarray], extra_dim: int) -> "InputMode":
        return cls("transfer", source=source, extra_dim=extra_dim)

    @classmethod
    def noise(cls, extra_dim: int, seed: int = 0) -> "InputMode":
        return cls("noise", extra_dim=extra_dim, seed=seed)


def _noise_seed(base_seed: int, sentence_id: str) -> int:
    return (base_seed << 32) ^ zlib.crc32(sentence_id.encode("utf-8"))


def build_input(sample: AlsaSample, mode: InputMode, embeddings: np.ndarray) -> tuple[Tensor, Tensor]:
    """Word matrix (n x d_in) and its aspect rows (p x d_in) for one sample."""
    rows = embed(sample.token_ids, embeddings).data
    n = rows.shape[0]
    if mode.variant == "transfer":
        if mode.source is None or sample.sentence_id not in mode.source:
            raise KeyError(f"no cached transfer rows for sentence {sample.sentence_id!r}")
        extra = np.asarray(mode.source[sample.sentence_id])
        if extra.shape != (n, mode.extra_dim):
            raise ValueError(f"transfer rows for sentence {sample.sentence_id!r} have shape {extra.shape}, "
                             f"expected {(n, mode.extra_dim)}")
    elif mode.variant == "noise":
        extra = np.random.default_rng(_noise_seed(mode.seed, sample.sentence_id)).standard_normal((n, mode.extra_dim))
    if mode.variant != "plain":
        rows = np.concatenate([rows, extra.astype(rows.dtype, copy=False)], axis=1)
    return Tensor(rows), Tensor(rows[sample.span.start : sample.span.end + 1])


# -- architectures ----------------------------------------------------------------


@dataclass
class TcLstmModel:
    """Two context LSTMs around the target, aspect mean appended to inputs."""

    lstm_left: CellParams
    lstm_right: CellParams
    head: HeadParams


@dataclass
class AtaeModel:
    """Single LSTM over aspect-appended words with additive attention."""

    lstm: CellParams
    attention: AttentionParams
    head: HeadParams


@dataclass
class IanModel:
    """Separate aspect/sentence LSTMs attending over each other's states."""

    lstm_aspect: CellParams
    lstm_sentence: CellParams
    attn_aspect: AttentionParams
    attn_sentence: AttentionParams
    head: HeadParams


AlsaModel = Union[TcLstmModel, AtaeModel, IanModel]

ARCHITECTURES = ("tclstm", "atae", "ian")


def create_alsa_model(store: ParamStore, architecture: str, d_in: int, hidden: int = 128, *,
                      rng: np.random.Generator, dtype=np.float32, name: str = "alsa") -> AlsaModel:
    if architecture == "tclstm":
        return TcLstmModel(
            CellParams.create(store, f"{name}/lstm_left", 2 * d_in, hidden, rng, LSTM, dtype),
            CellParams.create(store, f"{name}/lstm_right", 2 * d_in, hidden, rng, LSTM, dtype),
            HeadParams.create(store, f"{name}/head", 2 * hidden, NUM_CLASSES, rng, dtype),
        )
    if architecture == "atae":
        return AtaeModel(
            CellParams.create(store, f"{name}/lstm", 2 * d_in, hidden, rng, LSTM, dtype),
            AttentionParams.create(store, f"{name}/attention", hidden, d_in, rng, dtype=dtype),
            HeadParams.create(store, f"{name}/head", hidden, NUM_CLASSES, rng, dtype),
        )
    if architecture == "ian":
        return IanModel(
            CellParams.create(store, f"{name}/lstm_aspect", d_in, hidden, rng, LSTM, dtype),
            CellParams.create(store, f"{name}/lstm_sentence", d_in, hidden, rng, LSTM, dtype),
            AttentionParams.create(store, f"{name}/attn_aspect", hidden, hidden, rng, dtype=dtype),
            AttentionParams.create(store, f"{name}/attn_sentence", hidden, hidden, rng, dtype=dtype),
            HeadParams.create(store, f"{name}/head", 2 * hidden, NUM_CLASSES, rng, dtype),
        )
    raise ValueError(f"unknown architecture {architecture!r}")


def _aspect_rows(word_matrix: Tensor, span: AspectSpan) -> Tensor:
    """The aspect's rows of the word matrix; refuses a span past its last row."""
    n = word_matrix.data.shape[0]
    if span.end >= n:
        raise ValueError(f"span {span} outside sentence of {n} rows")
    return word_matrix[span.start : span.end + 1]


def tclstm_forward(model: TcLstmModel, word_matrix: Tensor, span: AspectSpan) -> tuple[Tensor, dict[str, Tensor]]:
    """Left/right context LSTM final states, concatenated into the head;
    returns (logits, {}), as TC-LSTM has no attention.

    Contexts exclude the target words; each context row is concatenated
    with the aspect mean before entering its LSTM. The left LSTM reads from
    the sentence start toward the aspect, the right one from the sentence
    end toward it. An empty context contributes a zero final state.
    """
    target = _aspect_rows(word_matrix, span).mean(axis=0)
    n = word_matrix.data.shape[0]
    contexts = ((word_matrix[: span.start], model.lstm_left), (word_matrix[n - 1 : span.end : -1], model.lstm_right))
    finals = [run_lstm(append_to_rows(rows, target), cell)[-1] if rows.data.shape[0]
              else Tensor(np.zeros(cell.hidden_dim, dtype=rows.data.dtype)) for rows, cell in contexts]
    return classify(ag.concat(finals), model.head), {}


def atae_forward(model: AtaeModel, word_matrix: Tensor, span: AspectSpan) -> tuple[Tensor, dict[str, Tensor]]:
    """Attention-pooled LSTM states; returns (logits, {"sentence": alpha over tokens})."""
    a = _aspect_rows(word_matrix, span).mean(axis=0)
    states = run_lstm(append_to_rows(word_matrix, a), model.lstm)
    alpha, pooled = additive_attention(states, a, model.attention)
    return classify(pooled, model.head), {"sentence": alpha}


def ian_forward(model: IanModel, word_matrix: Tensor, span: AspectSpan) -> tuple[Tensor, dict[str, Tensor]]:
    """Interactive attention; returns (logits, {"sentence": alpha, "aspect": alpha})."""
    aspect_states = run_lstm(_aspect_rows(word_matrix, span), model.lstm_aspect)
    sentence_states = run_lstm(word_matrix, model.lstm_sentence)
    pooled_aspect_query = max_pool_rows(aspect_states)
    pooled_sentence_query = max_pool_rows(sentence_states)
    alpha_aspect, aspect_rep = additive_attention(aspect_states, pooled_sentence_query, model.attn_aspect)
    alpha_sentence, sentence_rep = additive_attention(sentence_states, pooled_aspect_query, model.attn_sentence)
    logits = classify(ag.concat([aspect_rep, sentence_rep]), model.head)
    return logits, {"sentence": alpha_sentence, "aspect": alpha_aspect}


def alsa_forward(model: AlsaModel, word_matrix: Tensor, span: AspectSpan) -> tuple[Tensor, dict[str, Tensor]]:
    """Architecture dispatch; returns (logits, attention vectors by name)."""
    if isinstance(model, TcLstmModel):
        return tclstm_forward(model, word_matrix, span)
    if isinstance(model, AtaeModel):
        return atae_forward(model, word_matrix, span)
    if isinstance(model, IanModel):
        return ian_forward(model, word_matrix, span)
    raise TypeError(f"not an ALSA model: {type(model).__name__}")


def alsa_loss(model: AlsaModel, sample: AlsaSample, mode: InputMode, embeddings: np.ndarray) -> Tensor:
    word_matrix, _ = build_input(sample, mode, embeddings)
    logits, _ = alsa_forward(model, word_matrix, sample.span)
    return ag.cross_entropy(logits, sample.label)


def predict_label(model: AlsaModel, sample: AlsaSample, mode: InputMode, embeddings: np.ndarray) -> int:
    word_matrix, _ = build_input(sample, mode, embeddings)
    logits, _ = alsa_forward(model, word_matrix, sample.span)
    return int(np.argmax(logits.data))


# -- multi-task model ---------------------------------------------------------------


@dataclass
class MultitaskModel:
    """The BiGRU-CRF tagger with an ATAE head on its shared BiGRU encoding.

    The ATAE head reads the tagger's per-token states (width
    2 * shared_hidden) in place of word vectors; one loss sums both tasks.
    """

    tagger: AeModel
    sentiment: AtaeModel

    @classmethod
    def create(cls, store: ParamStore, embedding_matrix, shared_hidden: int = 32, alsa_hidden: int = 128, *,
               rng: np.random.Generator, dtype=np.float32, name: str = "multitask") -> "MultitaskModel":
        tagger = AeModel.create(store, embedding_matrix, shared_hidden, rng=rng, dtype=dtype, name=name)
        sentiment = create_alsa_model(store, "atae", 2 * shared_hidden, alsa_hidden, rng=rng, dtype=dtype, name=name)
        return cls(tagger, sentiment)


def multitask_forward(model: MultitaskModel, token_ids: Sequence[int],
                      span: AspectSpan) -> tuple[Tensor, Tensor, dict[str, Tensor]]:
    """Both heads over the shared encoding; returns (emissions, logits, attention by name)."""
    emissions, shared = ae_forward(model.tagger, token_ids)
    return (emissions, *atae_forward(model.sentiment, shared, span))


def multitask_loss(model: MultitaskModel, token_ids: Sequence[int], gold_bio: Sequence[str],
                   span: AspectSpan, label: int) -> Tensor:
    """Equal-weight sum of the CRF tagging loss and the classification loss."""
    emissions, logits, _ = multitask_forward(model, token_ids, span)
    return crf_mod.nll(emissions, gold_bio, model.tagger.crf) + ag.cross_entropy(logits, label)


# -- majority baseline ----------------------------------------------------------------


def majority_predict(train_labels: Sequence[int], test_size: int) -> list[int]:
    """Constant prediction of the modal training label; ties pick the
    earliest label in (positive, negative, neutral) order."""
    labels = np.asarray(train_labels, dtype=np.intp)
    if labels.size == 0:
        raise ValueError("majority_predict requires a non-empty training set")
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        raise ValueError("labels must lie in {0, 1, 2}")
    modal = int(np.argmax(np.bincount(labels, minlength=NUM_CLASSES)))
    return [modal] * test_size
