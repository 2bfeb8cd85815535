"""SemEval-2014 Task 4 ingestion and text preprocessing.

Covers XML parsing, the whitespace+punctuation tokenizer, aspect token spans
by character overlap (and BIO gold from them), embedding loading with a shared
UNK row, and the single/multi-aspect dataset slicing. All transforms are pure and
deterministic; offsets always refer to the original sentence text.
"""

from __future__ import annotations

import hashlib
import json
import re
import string
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ae import AspectSpan, encode_spans
from .alsa import LABEL_NAMES, POLARITY_TO_LABEL, AlsaSample
from .checkpoint import atomic_write

UNK_INIT_RANGE = 0.25
UNK_SEED = 13
RANDOM_INIT_RANGE = 0.5  # rows of Vocabulary.random
RANDOM_ROW_SALT = 7919  # seeds Vocabulary.random's rows, with each token's digest
_TOKEN = re.compile(r"[{0}]|[^\s{0}]+".format(re.escape(string.punctuation)))
VECTOR_BATCH = 256  # wanted vector lines parsed per np.loadtxt call
VECTOR_BLOCK = 1 << 16  # bytes of a vector file read at once; below glibc's 128 KiB mmap threshold
_READER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"  # whitespace around a field to numpy's reader, not to float()

POLARITIES = ("positive", "negative", "neutral", "conflict")


class IngestError(ValueError):
    """Malformed input file or annotation."""


@dataclass(frozen=True)
class Token:
    text: str  # lowercased surface
    char_start: int
    char_end: int  # exclusive offset into the original sentence


@dataclass(frozen=True)
class RawAspect:
    term: str
    polarity: str
    char_from: int
    char_to: int


@dataclass(frozen=True)
class ParsedSentence:
    sentence_id: str
    text: str
    aspects: tuple[RawAspect, ...]
    tokens: tuple[Token, ...]
    spans: tuple[AspectSpan | None, ...]  # one per aspect; None for a conflict aspect covering no token


def parse_semeval(xml_text: str) -> list[ParsedSentence]:
    """Parse a Task-4 style XML document into tokenized sentence records.

    Sentences without aspect terms are kept (they make useful all-O
    tagging examples). Conflict-polarity aspects are kept here and
    filtered later when building classification samples. A repeated
    sentence id, text that yields no token, and a non-conflict aspect that
    covers no token raise with the sentence id.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as err:
        line, col = err.position
        raise IngestError(f"malformed XML at line {line}, column {col}: {err.msg}") from None
    sentences = []
    first_at: dict[str, int] = {}  # sentence id -> 1-based position of its first sentence
    for i, node in enumerate(root.iter("sentence")):
        sid = node.get("id", str(i))
        if first_at.setdefault(sid, i + 1) != i + 1:
            raise IngestError(f"sentence {sid!r}: duplicate sentence id (first at sentence {first_at[sid]})")
        text_node = node.find("text")
        if text_node is None or text_node.text is None:
            raise IngestError(f"sentence {sid!r} has no text element")
        aspects = []
        for term_node in node.iter("aspectTerm"):
            attrs = {}
            for attr in ("term", "polarity", "from", "to"):
                value = term_node.get(attr)
                if value is None:
                    raise IngestError(f"sentence {sid!r}: aspectTerm missing attribute {attr!r}")
                attrs[attr] = value
            if attrs["polarity"] not in POLARITIES:
                raise IngestError(f"sentence {sid!r}: unknown polarity {attrs['polarity']!r}")
            for attr in ("from", "to"):
                try:
                    attrs[attr] = int(attrs[attr])
                except ValueError:
                    raise IngestError(f"sentence {sid!r}: aspectTerm attribute {attr!r} is not an integer: "
                                      f"{attrs[attr]!r}") from None
            char_from, char_to = attrs["from"], attrs["to"]
            if not 0 <= char_from < char_to <= len(text_node.text):
                raise IngestError(f"sentence {sid!r}: aspect offsets [{char_from}, {char_to}) out of range")
            aspects.append(RawAspect(attrs["term"], attrs["polarity"], char_from, char_to))
        try:
            tokens = tuple(tokenize(text_node.text))
            spans = tuple(aspect_token_span(tokens, aspect) for aspect in aspects)
            for aspect, span in zip(aspects, spans):
                if span is None and aspect.polarity != "conflict":
                    raise IngestError(f"aspect {aspect.term!r} [{aspect.char_from}, {aspect.char_to}) matches no token")
        except IngestError as err:
            raise IngestError(f"sentence {sid!r}: {err}") from None
        sentences.append(ParsedSentence(sid, text_node.text, tuple(aspects), tokens, spans))
    return sentences


def read_semeval(path) -> list[ParsedSentence]:
    """:func:`parse_semeval` of one XML file; its errors name the file."""
    try:
        return parse_semeval(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise IngestError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    except IngestError as err:
        raise IngestError(f"{path}: {err}") from None


def tokenize(text: str) -> list[Token]:
    """Lowercased whitespace tokens, each ASCII punctuation mark split off; offsets index the original text."""
    if not text or not text.strip():
        raise IngestError("cannot tokenize empty or whitespace-only text")
    return [Token(m.group().lower(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def aspect_token_span(tokens: Sequence[Token], aspect: RawAspect) -> AspectSpan | None:
    """Token span of one aspect by character overlap; None when no token overlaps it."""
    hits = [i for i, t in enumerate(tokens) if t.char_start < aspect.char_to and aspect.char_from < t.char_end]
    return AspectSpan(hits[0], hits[-1]) if hits else None


@dataclass
class Vocabulary:
    """Dense token-id map over an embedding matrix with a shared UNK row."""

    token_to_id: dict[str, int]
    matrix: np.ndarray
    unk_id: int

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token.lower(), self.unk_id)

    def ids(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.id_of(t) for t in tokens)

    @classmethod
    def random(cls, tokens: Sequence[str], dim: int) -> "Vocabulary":
        """Random vocabulary for synthetic corpora and fixtures. Each token's
        row is drawn from a generator seeded by a fixed salt and a SHA-256
        digest of the token's UTF-8 bytes, and the UNK row from the salt
        alone, so a token has one row in every vocabulary of one width."""
        uniq = sorted(set(t.lower() for t in tokens))
        digests = [hashlib.sha256(t.encode("utf-8", "surrogatepass")).digest() for t in uniq]
        seeds = [[RANDOM_ROW_SALT, int.from_bytes(digest, "little")] for digest in digests] + [RANDOM_ROW_SALT]
        matrix = np.array([np.random.default_rng(seed).uniform(-RANDOM_INIT_RANGE, RANDOM_INIT_RANGE, size=dim)
                           for seed in seeds], dtype=np.float32)
        mapping = {t: i for i, t in enumerate(uniq)}
        return cls(mapping, matrix, unk_id=len(uniq))


def _parse_vectors(path, queue: list[tuple[int, str, str]], found: dict[str, np.ndarray | None]) -> None:
    """Parse the queued (line number, token, components) lines into `found`
    and empty the queue.

    numpy's C reader converts an ASCII field with the parser `float()` uses,
    and `astype(np.float32)` is the cast `np.asarray(..., dtype=np.float32)`
    applies, so the bits match. A batch the reader refuses (a bad component,
    or forms only `float()` reads, such as `1_0` or non-ASCII digits), one
    with an empty row (which the reader would skip) and one with a character
    the reader strips as whitespace and `float()` does not are parsed line
    by line, so values and the first bad line stay `float()`'s. A row that
    is not finite in float32 is a bad line too.
    """
    if not queue:
        return
    texts = [components for _, _, components in queue]
    rows = None
    if all(texts) and not any(ch in text for text in texts for ch in _READER_ONLY_SPACE):
        try:
            rows = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None, quotechar=None,
                              ndmin=2).astype(np.float32)
        except ValueError:
            pass
    if rows is None:  # lazily, so a non-finite row before a non-numeric one is reported first
        rows = (_parse_vector(path, lineno, components) for lineno, _, components in queue)
    for (lineno, token, _), row in zip(queue, rows):
        if not np.isfinite(row).all():
            raise IngestError(f"{path}: line {lineno}: non-finite vector component for {token!r}")
        found[token] = row
    queue.clear()


def _parse_vector(path, lineno: int, components: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in components.split(" ")], dtype=np.float32)
    except ValueError:
        raise IngestError(f"{path}: line {lineno}: non-numeric vector component") from None


def _vector_lines(buf: bytearray, size: int, at_end: bool) -> tuple[int, list, list, list, list]:
    """The complete lines of `buf[:size]`: the bytes they span, and per line
    its start, the next line's start, its space count and whether it holds
    a byte that is not ASCII.

    `\\n`, `\\r\\n` and `\\r` each end a line. A `\\r` that ends the block
    waits for the next block, which may begin with its `\\n`; at the end of
    the file a last line without a break counts too.
    """
    a = np.frombuffer(buf, np.uint8, size)
    scan = size - 1 if size and not at_end and a[size - 1] == 13 else size
    breaks = np.flatnonzero(a[:scan] <= 13)  # one pass; the other control bytes drop out below
    breaks = breaks[(a[breaks] == 10) | (a[breaks] == 13)]
    nexts, kinds = breaks + 1, a[breaks]
    if (kinds == 13).any():  # a \r\n is one break: its line ends after the \n
        pair = (kinds[:-1] == 13) & (kinds[1:] == 10) & (breaks[1:] == nexts[:-1])
        nexts = nexts[np.append(~pair, True)]
    if at_end and (nexts[-1] if len(nexts) else 0) < size:
        nexts = np.append(nexts, size)
    if not len(nexts):
        return 0, [], [], [], []
    starts = np.append(0, nexts[:-1])
    lines = a[:nexts[-1]]
    # a line's count never passes its length, so 16 bits hold it unless the block reaches 64 KiB
    spaces = np.add.reduceat(lines == 32, starts, dtype=np.uint16 if len(lines) < 1 << 16 else np.intp)
    non_ascii = np.maximum.reduceat(lines, starts) > 127
    return int(nexts[-1]), starts.tolist(), nexts.tolist(), spaces.tolist(), non_ascii.tolist()


def load_embeddings(path, vocabulary_tokens: Iterable[str]) -> Vocabulary:
    """Load whitespace-separated embedding vectors for the requested tokens.

    Tokens absent from the file share one UNK id whose row is drawn
    uniformly from [-0.25, 0.25] with a fixed seed. The first line sets
    the vector width and every later line must match it. The file is read
    as bytes, in blocks; numpy finds each block's lines and counts their
    spaces, so every line's width is checked, and a line that is not ASCII
    must be UTF-8. A line's first field is looked up as bytes; components
    are decoded and parsed only on the first line of each wanted token, in
    batches that keep `float()`'s values and report the first bad line in
    the file.
    """
    dim = None
    wanted = {t.lower() for t in vocabulary_tokens}
    by_bytes = {t.encode("utf-8", "surrogatepass"): t for t in wanted}  # no line with a surrogate gets past its decode
    found: dict[str, np.ndarray | None] = {}  # None: queued, not yet parsed
    queue: list[tuple[int, str, str]] = []  # wanted lines not yet parsed
    lineno = 0
    buf = bytearray(VECTOR_BLOCK)
    kept = 0  # bytes at the start of buf of a line not yet ended
    with open(path, "rb") as fh:
        while True:
            if kept == len(buf):  # one line fills the buffer
                buf.extend(bytes(VECTOR_BLOCK))
            got = fh.readinto(memoryview(buf)[kept:])
            size = kept + got
            stop, *lines = _vector_lines(buf, size, at_end=not got)
            for start, next_start, width, non_ascii in zip(*lines):
                lineno += 1
                if non_ascii:
                    try:
                        buf[start:next_start].decode("utf-8")
                    except UnicodeDecodeError as err:
                        _parse_vectors(path, queue, found)  # its lines come first in the file
                        raise IngestError(f"{path}: line {lineno}: not UTF-8 text: {err.reason} "
                                          f"at byte {err.start}") from None
                if dim is None:
                    if width < 1:
                        raise IngestError(f"{path}: line {lineno}: vector has no values")
                    dim = width
                if width != dim:
                    _parse_vectors(path, queue, found)  # its lines come first in the file
                    raise IngestError(f"{path}: line {lineno}: vector has {width} values, expected {dim}")
                cut = buf.find(b" ", start, next_start)
                token = by_bytes.get(bytes(buf[start:cut]))
                if token is None or token in found:
                    continue
                found[token] = None
                queue.append((lineno, token, buf[cut + 1:next_start].rstrip(b"\r\n").decode("utf-8")))
                if len(queue) == VECTOR_BATCH:
                    _parse_vectors(path, queue, found)
            if not got:
                break
            kept = size - stop
            buf[:kept] = buf[stop:size]
    _parse_vectors(path, queue, found)
    if dim is None:
        raise IngestError(f"{path}: no vectors to take the width from")
    ordered = sorted(found)
    rng = np.random.default_rng(UNK_SEED)
    unk_row = rng.uniform(-UNK_INIT_RANGE, UNK_INIT_RANGE, size=dim).astype(np.float32)
    matrix = np.zeros((len(ordered) + 1, dim), dtype=np.float32)
    mapping = {}
    for i, token in enumerate(ordered):
        mapping[token] = i
        matrix[i] = found[token]
    unk_id = len(ordered)
    matrix[unk_id] = unk_row
    for token in sorted(wanted - set(ordered)):
        mapping[token] = unk_id
    return Vocabulary(mapping, matrix, unk_id)


# -- dataset assembly ------------------------------------------------------------------


@dataclass
class SentenceData:
    """One preprocessed sentence: tokens, tagging gold, sample spans."""

    sentence_id: str
    text: str
    domain: str
    tokens: tuple[Token, ...]
    bio: list[str] | None  # None when aspect alignment failed


@dataclass
class Dataset:
    """Preprocessed corpus for one domain and split."""

    domain: str
    sentences: list[SentenceData] = field(default_factory=list)
    samples: list[AlsaSample] = field(default_factory=list)


def collect_tokens(parsed: Iterable[ParsedSentence]) -> list[str]:
    return [t.text for record in parsed for t in record.tokens]


def _add_sentence(dataset: Dataset, vocab: Vocabulary, sentence: SentenceData,
                  labelled: Sequence[tuple[AspectSpan, int]]) -> None:
    """Append one sentence and a sample per (span, label); the samples share
    one token-id tuple and one surface tuple."""
    dataset.sentences.append(sentence)
    if not labelled:
        return
    surfaces = tuple(t.text for t in sentence.tokens)
    token_ids = vocab.ids(surfaces)
    dataset.samples.extend(AlsaSample(token_ids, span, label, sentence.sentence_id, sentence.domain, surfaces)
                           for span, label in labelled)


def build_dataset(parsed: Iterable[ParsedSentence], domain: str, vocab: Vocabulary) -> Dataset:
    """Index a parsed corpus: BIO gold and samples from the parsed spans.

    Classification samples drop conflict-polarity aspects; tagging gold
    keeps them (they are real aspect terms). Sentences with overlapping
    aspects, or with a conflict aspect that covers no token, are excluded
    from tagging gold (bio=None) but still yield classification samples.
    """
    dataset = Dataset(domain)
    for record in parsed:
        try:
            bio = encode_spans(record.spans, len(record.tokens)) if None not in record.spans else None
        except ValueError:  # overlapping aspects
            bio = None
        labelled = [(span, POLARITY_TO_LABEL[a.polarity])
                    for a, span in zip(record.aspects, record.spans) if a.polarity != "conflict"]
        _add_sentence(dataset, vocab, SentenceData(record.sentence_id, record.text, domain, record.tokens, bio),
                      labelled)
    return dataset


def polarity_counts(samples: Sequence[AlsaSample]) -> tuple[int, int, int]:
    counts = [0, 0, 0]
    for s in samples:
        counts[s.label] += 1
    return tuple(counts)  # type: ignore[return-value]


def split_sa_ma(samples: Sequence[AlsaSample]) -> tuple[list[AlsaSample], list[AlsaSample]]:
    """Partition samples into single-aspect and multi-aspect sentences.

    A sample is multi-aspect iff its sentence id is shared with at least
    one other sample in the list.
    """
    by_sentence: dict[str, int] = {}
    for s in samples:
        by_sentence[s.sentence_id] = by_sentence.get(s.sentence_id, 0) + 1
    sa = [s for s in samples if by_sentence[s.sentence_id] == 1]
    ma = [s for s in samples if by_sentence[s.sentence_id] > 1]
    return sa, ma


# -- processed-dataset cache --------------------------------------------------------


TRAILER_KEY = "sentence_count"  # the dataset cache's last record: {"sentence_count": N, "sha256": H}


def _trailer(count: int, records) -> str:
    """The cache's last line: the record count and `records`, the sha256 of the record lines' bytes."""
    return json.dumps({TRAILER_KEY: count, "sha256": records.hexdigest()}) + "\n"


def write_dataset_cache(path, dataset: Dataset) -> None:
    """Line-delimited JSON cache of a preprocessed dataset.

    One record per sentence: sentence_id, domain, text, tokens (surface,
    char_start, char_end), bio (list or null), and samples (span start/end,
    label, polarity name); then a trailer record, `{"sentence_count": N,
    "sha256": H}` with H the sha256 of the record lines' bytes, so a reader
    can tell a cut or changed file. Field-by-field documentation lives in
    the README.
    """
    samples_by_sentence: dict[str, list[dict]] = {}
    for s in dataset.samples:
        samples_by_sentence.setdefault(s.sentence_id, []).append(
            {"start": s.span.start, "end": s.span.end, "label": s.label,
             "polarity": LABEL_NAMES[s.label]}
        )
    records = hashlib.sha256()
    with atomic_write(path, "wb") as fh:
        for sent in dataset.sentences:
            record = {
                "sentence_id": sent.sentence_id,
                "domain": sent.domain,
                "text": sent.text,
                "tokens": [[t.text, t.char_start, t.char_end] for t in sent.tokens],
                "bio": sent.bio,
                "samples": samples_by_sentence.get(sent.sentence_id, []),
            }
            line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
            records.update(line)
            fh.write(line)
        fh.write(_trailer(len(dataset.sentences), records).encode("utf-8"))


def _typed(values, types: Sequence[type], what: str) -> list:
    """`values` if it is a list of exactly `types` (a bool is not an int); else a ValueError naming `what`."""
    if type(values) is not list or list(map(type, values)) != list(types):
        raise ValueError(f"{what} must be [{', '.join(t.__name__ for t in types)}], got {values!r}")
    return values


def _labelled_span(s: dict) -> tuple[AspectSpan, int]:
    start, end, label = _typed([s["start"], s["end"], s["label"]], (int, int, int), "sample start, end and label")
    if POLARITY_TO_LABEL.get(s["polarity"]) != label:
        raise ValueError(f"sample polarity {s['polarity']!r} does not match label {label}")
    return AspectSpan(start, end), label


def read_dataset_cache(path, vocab: Vocabulary) -> Dataset:
    """Inverse of :func:`write_dataset_cache`; a bad record, a record after
    the trailer, a wrong count or checksum and a missing trailer name the
    file and line."""
    dataset = Dataset(domain="")
    records = hashlib.sha256()
    first_line: dict[str, int] = {}  # sentence id -> line of its first record
    lineno, trailer_line = 0, None
    with open(path, "rb") as fh:  # decoded line by line, so undecodable bytes have a line
        for lineno, line in enumerate(fh, start=1):
            try:
                record = json.loads(line.decode("utf-8"))
                if trailer_line is not None:
                    raise ValueError(f"record after the trailer on line {trailer_line}")
                if type(record) is dict and TRAILER_KEY in record:
                    (count,) = _typed([record[TRAILER_KEY]], (int,), "trailer sentence_count")
                    if not line.endswith(b"\n"):
                        raise ValueError("trailer without its newline: the file is cut short")
                    if count != len(dataset.sentences):
                        raise ValueError(f"trailer counts {count} sentences, the file has {len(dataset.sentences)}")
                    expected = _trailer(count, records)
                    if line != expected.encode("utf-8"):
                        raise ValueError(f"trailer does not match the records: expected {expected.rstrip()}")
                    trailer_line = lineno
                    continue
                records.update(line)
                tokens = tuple(Token(*_typed(t, (str, int, int), "token")) for t in record["tokens"])
                dataset.domain, bio = record["domain"], record["bio"]
                if bio is not None and (type(bio) is not list or len(bio) != len(tokens)
                                        or any(label not in ("B", "I", "O") for label in bio)):
                    raise ValueError(f"bio must be null or one B/I/O label for each of the {len(tokens)} tokens")
                sentence = SentenceData(record["sentence_id"], record["text"], record["domain"], tokens, bio)
                first = first_line.setdefault(sentence.sentence_id, lineno)
                labelled = [_labelled_span(s) for s in record["samples"]]
                _add_sentence(dataset, vocab, sentence, labelled)
            except KeyError as err:
                raise IngestError(f"{path}: line {lineno}: missing field {err.args[0]!r}") from None
            except UnicodeDecodeError as err:
                raise IngestError(f"{path}: line {lineno}: not UTF-8 text: {err.reason} at byte {err.start}") from None
            except json.JSONDecodeError as err:
                raise IngestError(f"{path}: line {lineno}: malformed JSON at column {err.colno}: {err.msg}") from None
            except (IndexError, TypeError, AttributeError, ValueError) as err:
                raise IngestError(f"{path}: line {lineno}: malformed record: {err}") from None
            if first != lineno:
                raise IngestError(f"{path}: line {lineno}: duplicate sentence id {sentence.sentence_id!r} "
                                  f"(first on line {first})")
    if trailer_line is None:
        raise IngestError(f"{path}: line {lineno + 1}: no trailer record: the file is cut short")
    return dataset
