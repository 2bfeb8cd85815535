"""Seeded SemEval-shaped inputs for the benchmark.

Writes ``{domain}_train.xml``, ``{domain}_test.xml`` and a whitespace
vector file into a directory, the same files a user hands to absalab.
The same seed gives byte-identical files. ``domain`` is ``laptop`` or
``restaurant`` and selects that domain's shape.

Matched to the SemEval-2014 Task 4 training sets (Pontiki et al., 2014,
"SemEval-2014 Task 4: Aspect Based Sentiment Analysis", Tables 1-2):

* aspect terms per sentence: laptop 2358 in 3045 sentences (0.77),
  restaurant 3693 in 3041 (1.21). ``ASPECT_PATTERN`` asks for 0.80 and
  1.20; a 3800-sentence load holds 0.78 and 1.17, as short sentences
  cannot fit every aspect they are given;
* polarity of aspect terms: laptop 987 positive, 866 negative, 460
  neutral, 45 conflict; restaurant 2164, 805, 633, 91 (``POLARITY_COUNTS``).

Chosen, not matched (no figure for them is at hand):

* how the aspects spread over 0-4 per sentence: half the laptop and a
  third of the restaurant sentences carry none, the rest 1-4, so that
  the means above hold;
* sentence lengths: long-tailed (log-normal, median about 17 tokens,
  clipped to 4..80). Lengths are stratified: a corpus of N sentences
  always holds the same N quantiles of that distribution in a seeded
  order, so a run's cost does not swing with how many long sentences a
  seed happened to draw; words, aspects and labels are drawn freely.
  Aspect counts follow the length rank through ``ASPECT_PATTERN`` too, so
  how many classification samples the long sentences yield is not left
  to chance either;
* aspect widths (``ASPECT_LENGTH_P``, about a quarter multi-word), how
  often a comma follows a word (``PUNCT_P``), and the vector file: most
  corpus words plus several times as many words that never occur, so
  most of its lines are scanned and skipped.

Run as a script it prints the shape facts of one generated load:
``python3 perfbench/gen.py --out DIR --seed 1 --sentences 200 --test 60``.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from statistics import NormalDist
from xml.sax.saxutils import escape, quoteattr

import numpy as np

DIM = 300
MEDIAN_LENGTH = 17.0
LENGTH_SIGMA = 0.6
MIN_LENGTH, MAX_LENGTH = 4, 80
# aspect counts by length rank, in every 20 sentences:
# laptop 10x0, 7x1, 1x2, 1x3, 1x4 (mean 0.80); restaurant 7x0, 6x1, 4x2, 2x3, 1x4 (1.20)
ASPECT_PATTERN = {
    "laptop": (0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 1, 0, 4, 0, 1, 0, 1),
    "restaurant": (1, 0, 2, 1, 0, 3, 2, 0, 1, 4, 0, 2, 1, 0, 3, 1, 0, 2, 1, 0),
}
# positive, negative, neutral, conflict aspect terms in the training set
POLARITY_COUNTS = {"laptop": (987, 866, 460, 45), "restaurant": (2164, 805, 633, 91)}
POLARITIES = ("positive", "negative", "neutral", "conflict")
ASPECT_LENGTH_P = (0.72, 0.23, 0.05)  # P(1..3 words)
PUNCT_P = 0.07  # share of filler slots holding a comma
VECTOR_HIT = 0.92  # share of corpus words present in the vector file

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """`count` fresh lowercase words of 3-10 letters, none in `taken`."""
    out: list[str] = []
    while len(out) < count:
        word = "".join(_LETTERS[rng.integers(0, 26, size=int(rng.integers(3, 11)))])
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


class Lexicon:
    """Filler words with Zipf frequencies, aspect heads and sentiment cues."""

    def __init__(self, rng: np.random.Generator, fillers: int):
        taken: set[str] = set()
        self.fillers = _words(rng, fillers, taken)
        ranks = np.arange(1, fillers + 1, dtype=np.float64)
        weights = 1.0 / ranks**1.05
        self.filler_cdf = np.cumsum(weights / weights.sum())
        self.aspects = _words(rng, max(40, fillers // 25), taken)
        self.cues = {p: _words(rng, 12, taken) for p in ("positive", "negative", "neutral")}
        self.distractor_pool = taken  # every word made so far, extended by `distractors`
        self._rng = rng

    def filler(self, rng: np.random.Generator) -> str:
        return self.fillers[int(np.searchsorted(self.filler_cdf, rng.random()))]

    def distractors(self, count: int) -> list[str]:
        return _words(self._rng, count, self.distractor_pool)


def stratified_shapes(count: int, rng: np.random.Generator, pattern: tuple[int, ...]) -> list[tuple[int, int]]:
    """(length, aspect count) per sentence, in a seeded order.

    Lengths are the `count` mid-quantiles of the clipped log-normal. The
    aspect count follows the length rank through `pattern`, so every
    seed pairs the same lengths with the same counts and only the order,
    words, positions and labels change.
    """
    normal = NormalDist()
    lengths = [
        min(MAX_LENGTH, max(MIN_LENGTH, round(MEDIAN_LENGTH * math.exp(LENGTH_SIGMA * normal.inv_cdf((i + 0.5) / count)))))
        for i in range(count)
    ]
    shapes = [(length, pattern[i % len(pattern)]) for i, length in enumerate(lengths)]
    return [shapes[i] for i in rng.permutation(count)]


def _sentence(rng: np.random.Generator, lex: Lexicon, length: int, k: int, pol_p: np.ndarray):
    """Tokens of one sentence with up to `k` aspects as (first, last, polarity)."""
    spans: list[tuple[int, int, str]] = []
    tokens: list[str | None] = [None] * length
    tokens[-1] = "." if rng.random() < 0.8 else "!"
    for _ in range(k):
        width = int(rng.choice(len(ASPECT_LENGTH_P), p=ASPECT_LENGTH_P)) + 1
        for _attempt in range(8):
            start = int(rng.integers(0, length - width))  # never over the final mark
            # keep one free slot on each side so aspects never touch
            lo, hi = max(0, start - 1), min(length - 1, start + width + 1)
            if all(tokens[i] is None for i in range(lo, hi)):
                break
        else:
            continue
        head = lex.aspects[int(rng.integers(len(lex.aspects)))]
        words = [head] + [lex.filler(rng) for _ in range(width - 1)]
        for i, w in enumerate(words):
            tokens[start + i] = w
        polarity = POLARITIES[int(rng.choice(len(POLARITIES), p=pol_p))]
        spans.append((start, start + width - 1, polarity))
    for first, last, polarity in spans:
        cue_polarity = "positive" if polarity == "conflict" else polarity
        for slot in (last + 2, first - 2, last + 3):
            if 0 <= slot < length and tokens[slot] is None:
                cues = lex.cues[cue_polarity]
                tokens[slot] = cues[int(rng.integers(len(cues)))]
                break
    for i in range(length):
        if tokens[i] is None:
            # a comma after an aspect makes it punctuation-adjacent
            tokens[i] = "," if i > 0 and tokens[i - 1] != "," and rng.random() < PUNCT_P else lex.filler(rng)
    spans.sort()
    return tokens, spans


def _render(tokens: list[str]) -> tuple[str, list[tuple[int, int]]]:
    """Text with punctuation attached to the previous word, plus offsets."""
    parts: list[str] = []
    offsets = []
    pos = 0
    for i, tok in enumerate(tokens):
        if i > 0 and tok not in (",", ".", "!"):
            parts.append(" ")
            pos += 1
        offsets.append((pos, pos + len(tok)))
        parts.append(tok)
        pos += len(tok)
    text = "".join(parts)
    return text[0].upper() + text[1:], offsets


def _xml(domain: str, split: str, sentences) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<sentences>"]
    for sid, text, aspects in sentences:
        lines.append(f'    <sentence id="{domain}-{split}-{sid}">')
        lines.append(f"        <text>{escape(text)}</text>")
        if aspects:
            lines.append("        <aspectTerms>")
            for term, polarity, start, end in aspects:
                lines.append(f"            <aspectTerm term={quoteattr(term)} polarity=\"{polarity}\" "
                             f"from=\"{start}\" to=\"{end}\"/>")
            lines.append("        </aspectTerms>")
        lines.append("    </sentence>")
    lines.append("</sentences>")
    return "\n".join(lines) + "\n"


def _split(rng, lex, domain, split, count):
    records = []
    facts = {"lengths": [], "aspects": [], "multiword": 0, "conflict": 0, "punct_adjacent": 0}
    words: set[str] = set()
    counts = np.array(POLARITY_COUNTS[domain], dtype=np.float64)
    for sid, (length, k) in enumerate(stratified_shapes(count, rng, ASPECT_PATTERN[domain])):
        tokens, spans = _sentence(rng, lex, length, k, counts / counts.sum())
        text, offsets = _render(tokens)
        aspects = []
        for first, last, polarity in spans:
            start, end = offsets[first][0], offsets[last][1]
            aspects.append((text[start:end], polarity, start, end))
            facts["multiword"] += last > first
            facts["conflict"] += polarity == "conflict"
            facts["punct_adjacent"] += last + 1 < length and tokens[last + 1] in (",", ".", "!")
        records.append((sid, text, aspects))
        facts["lengths"].append(length)
        facts["aspects"].append(len(spans))
        words.update(tokens)
    return _xml(domain, split, records), facts, words


def write_vectors(path: Path, rng: np.random.Generator, words: list[str]) -> None:
    """One `word v1 ... v300` line per word, values in [-1, 1] to 3 places."""
    table = [f"{q / 1000:.3f}" for q in range(-1000, 1001)]
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(words), 512):
            chunk = words[start : start + 512]
            values = rng.integers(0, 2001, size=(len(chunk), DIM)).tolist()
            fh.write("".join(w + " " + " ".join([table[q] for q in row]) + "\n" for w, row in zip(chunk, values)))


def generate(out_dir, seed: int, domain: str, train_sentences: int, test_sentences: int,
             vector_factor: float = 4.0, fillers: int = 3000) -> dict:
    """Write one domain's XML pair and vector file; return its shape facts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, train_sentences, test_sentences])
    lex = Lexicon(rng, fillers)
    facts = {}
    vocab: set[str] = set()
    for split, count in (("train", train_sentences), ("test", test_sentences)):
        xml, split_facts, words = _split(rng, lex, domain, split, count)
        (out / f"{domain}_{split}.xml").write_text(xml, encoding="utf-8")
        facts[split] = split_facts
        vocab |= words
    corpus_words = sorted(vocab)
    hits = [w for w in corpus_words if rng.random() < VECTOR_HIT]
    distractors = lex.distractors(max(0, int(vector_factor * len(corpus_words)) - len(hits)))
    lines = hits + distractors
    lines = [lines[i] for i in rng.permutation(len(lines))]
    write_vectors(out / "vectors.txt", rng, lines)
    return shape_facts(facts, len(corpus_words), len(hits), len(lines))


def shape_facts(facts: dict, vocab_size: int, hits: int, vector_lines: int) -> dict:
    lengths = np.array(facts["train"]["lengths"] + facts["test"]["lengths"])
    aspects = np.array(facts["train"]["aspects"] + facts["test"]["aspects"])
    total_aspects = int(aspects.sum())
    return {
        "sentences": int(lengths.size),
        "length_quantiles": {q: int(np.quantile(lengths, float(q))) for q in ("0.1", "0.5", "0.9", "0.99", "1.0")},
        "tokens": int(lengths.sum()),
        "aspects_per_sentence": {str(k): int((aspects == k).sum()) for k in range(5)},
        "aspects_per_sentence_mean": round(float(aspects.mean()), 4),
        "ma_sentence_share": round(float((aspects > 1).sum() / lengths.size), 4),
        "multiword_aspects": sum(facts[s]["multiword"] for s in facts),
        "conflict_aspects": sum(facts[s]["conflict"] for s in facts),
        "punct_adjacent_aspects": sum(facts[s]["punct_adjacent"] for s in facts),
        "aspects": total_aspects,
        "vocabulary": vocab_size,
        "vector_lines": vector_lines,
        "vocabulary_hit_ratio": round(hits / vocab_size, 4),
        "vector_line_hit_ratio": round(hits / vector_lines, 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--domain", default="laptop", choices=sorted(ASPECT_PATTERN))
    parser.add_argument("--sentences", type=int, required=True)
    parser.add_argument("--test", type=int, required=True)
    parser.add_argument("--vector-factor", type=float, default=4.0)
    parser.add_argument("--fillers", type=int, default=3000)
    args = parser.parse_args()
    facts = generate(args.out, args.seed, args.domain, args.sentences, args.test,
                     args.vector_factor, args.fillers)
    print(json.dumps(facts, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
