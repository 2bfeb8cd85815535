"""Tiny seeded corpora with unambiguous structure, for demos and tests.

Aspect words always name aspects, sentiment markers fully determine the
polarity, so small models can reach perfect scores quickly and alignment
round-trips are exact.
"""

from __future__ import annotations

import numpy as np

from .ae import AspectSpan, encode_spans
from .alsa import POLARITY_TO_LABEL, AlsaSample
from .data import Vocabulary

ASPECT_WORDS = ("battery", "screen", "keyboard", "pizza", "service", "fan")
MULTIWORD_SECOND = "life"
CONTEXT_WORDS = ("the", "a", "is", "was", "really", "works", "here", "and", "today", "overall")
SENTIMENT_MARKERS = {"positive": "great", "negative": "awful", "neutral": "ordinary"}

_ALL_TOKENS = ASPECT_WORDS + (MULTIWORD_SECOND,) + CONTEXT_WORDS + tuple(SENTIMENT_MARKERS.values())


def synthetic_vocabulary(dim: int = 12) -> Vocabulary:
    return Vocabulary.random(_ALL_TOKENS, dim=dim)


def synthetic_tagging_corpus(num_sentences: int = 10, seed: int = 3) -> list[tuple[list[str], list[str]]]:
    """Sentences of (tokens, BIO gold); every aspect word opens a span and
    'life' extends the span of the word before it."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(num_sentences):
        aspect = ASPECT_WORDS[rng.integers(len(ASPECT_WORDS))]
        multiword = bool(rng.integers(2))
        prefix = [str(CONTEXT_WORDS[rng.integers(len(CONTEXT_WORDS))]) for _ in range(int(rng.integers(1, 3)))]
        suffix = [str(CONTEXT_WORDS[rng.integers(len(CONTEXT_WORDS))]) for _ in range(int(rng.integers(1, 3)))]
        aspect_tokens = [aspect, MULTIWORD_SECOND] if multiword else [aspect]
        tokens = prefix + aspect_tokens + suffix
        start = len(prefix)
        span = AspectSpan(start, start + len(aspect_tokens) - 1)
        corpus.append((tokens, encode_spans([span], len(tokens))))
    return corpus


def synthetic_alsa_samples(num_samples: int = 20, seed: int = 5) -> tuple[list[AlsaSample], Vocabulary]:
    """Samples shaped 'the <aspect> is <marker> ...' with label-determining
    markers; roughly balanced across the three polarities."""
    rng = np.random.default_rng(seed)
    vocab = synthetic_vocabulary()
    polarities = list(POLARITY_TO_LABEL)
    samples = []
    for i in range(num_samples):
        polarity = polarities[i % len(polarities)]
        aspect = ASPECT_WORDS[rng.integers(len(ASPECT_WORDS))]
        marker = SENTIMENT_MARKERS[polarity]
        tail = [str(CONTEXT_WORDS[rng.integers(len(CONTEXT_WORDS))]) for _ in range(int(rng.integers(0, 3)))]
        tokens = ["the", aspect, "is", marker] + tail
        samples.append(
            AlsaSample(
                token_ids=vocab.ids(tokens),
                span=AspectSpan(1, 1),
                label=POLARITY_TO_LABEL[polarity],
                sentence_id=f"synthetic-{i}",
                domain="synthetic",
                tokens=tuple(tokens),
            )
        )
    return samples, vocab
