"""Aspect extraction: embeddings -> BiGRU -> CRF, plus BIO span decoding.

The trained BiGRU's per-token output doubles as the transfer representation
handed to the sentiment models; :func:`export_transfer` returns it detached
so no gradient ever flows back into a frozen extractor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import crf
from .autograd import Tensor
from .layers import GRU, CellParams, embed, run_bigru
from .optim import ParamStore


@dataclass(frozen=True, order=True)
class AspectSpan:
    """Inclusive token-index span of one aspect term."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")


@dataclass
class AeModel:
    """BiGRU-CRF tagger over a fixed embedding table."""

    embeddings: np.ndarray
    gru_fwd: CellParams
    gru_bwd: CellParams
    crf: crf.CrfParams

    @property
    def transfer_dim(self) -> int:
        return self.gru_fwd.hidden_dim + self.gru_bwd.hidden_dim

    @classmethod
    def create(cls, store: ParamStore, embedding_matrix, hidden_dim: int = 32, *,
               rng: np.random.Generator, dtype=np.float32, name: str = "ae") -> "AeModel":
        matrix = np.asarray(embedding_matrix, dtype=dtype)
        d = matrix.shape[1]
        fwd = CellParams.create(store, f"{name}/gru_fwd", d, hidden_dim, rng, GRU, dtype)
        bwd = CellParams.create(store, f"{name}/gru_bwd", d, hidden_dim, rng, GRU, dtype)
        params = crf.CrfParams.create(store, f"{name}/crf", 2 * hidden_dim, rng, dtype)
        return cls(matrix, fwd, bwd, params)


def ae_forward(model: AeModel, token_ids: Sequence[int]) -> tuple[Tensor, Tensor]:
    """Per-token label scores and the transfer representation matrix.

    Returns (emissions n x 3, transfer n x transfer_dim).
    """
    if len(token_ids) == 0:
        raise ValueError("ae_forward requires a non-empty sentence")
    words = embed(token_ids, model.embeddings)
    transfer = run_bigru(words, model.gru_fwd, model.gru_bwd)
    emissions = transfer @ model.crf.emission_weight + model.crf.emission_bias
    return emissions, transfer


def ae_loss(model: AeModel, token_ids: Sequence[int], gold: Sequence[str]) -> Tensor:
    """CRF negative log-likelihood of the gold BIO labeling."""
    if len(gold) != len(token_ids):
        raise ValueError(f"gold length {len(gold)} does not match sentence length {len(token_ids)}")
    emissions, _ = ae_forward(model, token_ids)
    return crf.nll(emissions, gold, model.crf)


def export_transfer(model: AeModel, token_ids: Sequence[int]) -> np.ndarray:
    """Frozen transfer matrix for one sentence (n x transfer_dim), detached."""
    _, transfer = ae_forward(model, token_ids)
    return transfer.data.copy()


def decode_spans(labels: Sequence[str]) -> list[AspectSpan]:
    """Spans matching B I*; a stray I (no B/I before it) opens a span."""
    spans = []
    start = None
    for i, label in enumerate(labels):
        if label == "B":
            if start is not None:
                spans.append(AspectSpan(start, i - 1))
            start = i
        elif label == "I":
            if start is None:
                start = i  # stray I repaired to B
        elif label == "O":
            if start is not None:
                spans.append(AspectSpan(start, i - 1))
                start = None
        else:
            raise ValueError(f"unknown BIO label {label!r}")
    if start is not None:
        spans.append(AspectSpan(start, len(labels) - 1))
    return spans


def encode_spans(spans: Sequence[AspectSpan], length: int) -> list[str]:
    """Inverse of decode_spans for non-overlapping span sets."""
    labels = ["O"] * length
    for span in sorted(spans):
        if span.end >= length:
            raise ValueError(f"span {span} exceeds sentence length {length}")
        if any(labels[i] != "O" for i in range(span.start, span.end + 1)):
            raise ValueError(f"span {span} overlaps another span")
        labels[span.start] = "B"
        for i in range(span.start + 1, span.end + 1):
            labels[i] = "I"
    return labels

