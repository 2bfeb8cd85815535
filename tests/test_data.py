import builtins
import hashlib
import json
import re
import string

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absalab.ae import AspectSpan, decode_spans, encode_spans
from absalab.data import (
    UNK_INIT_RANGE,
    UNK_SEED,
    VECTOR_BATCH,
    Dataset,
    IngestError,
    RawAspect,
    Token,
    Vocabulary,
    aspect_token_span,
    build_dataset,
    collect_tokens,
    load_embeddings,
    parse_semeval,
    polarity_counts,
    read_dataset_cache,
    read_semeval,
    split_sa_ma,
    tokenize,
    write_dataset_cache,
)


# -- tokenize -----------------------------------------------------------------------


def test_tokenize_splits_punctuation():
    tokens = tokenize("Great battery!")
    assert [t.text for t in tokens] == ["great", "battery", "!"]
    assert [(t.char_start, t.char_end) for t in tokens] == [(0, 5), (6, 13), (13, 14)]


def test_tokenize_keeps_digits_with_words():
    assert [t.text for t in tokenize("windows 8")] == ["windows", "8"]


def test_tokenize_offsets_reproduce_non_space_characters():
    text = "The battery-life (8h!) is great, really."
    tokens = tokenize(text)
    stitched = "".join(text[t.char_start:t.char_end] for t in tokens)
    assert stitched == "".join(text.split())


def test_tokenize_offsets_point_into_original_text():
    text = "LOUD Fans?!"
    for token in tokenize(text):
        assert text[token.char_start:token.char_end].lower() == token.text


def test_tokenize_rejects_empty():
    with pytest.raises(IngestError):
        tokenize("   ")
    with pytest.raises(IngestError):
        tokenize("")


def _reference_tokenize(text):
    """The character loop the one-regex tokenizer replaced: whitespace by
    `str.isspace`, each ASCII punctuation character its own token."""
    if not text or not text.strip():
        raise IngestError("cannot tokenize empty or whitespace-only text")
    punctuation = set(string.punctuation)
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] in punctuation:
            tokens.append(Token(text[i].lower(), i, i + 1))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in punctuation:
            j += 1
        tokens.append(Token(text[i:j].lower(), i, j))
        i = j
    return tokens


def test_regex_whitespace_is_str_isspace_on_every_code_point():
    space = re.compile(r"\s")
    differ = [hex(c) for c in range(0x110000) if bool(space.fullmatch(chr(c))) != chr(c).isspace()]
    assert differ == []


_TEXT_CHARS = "".join([" \t\n\r\x0b\x0c\x85\xa0\u2028\u3000",  # whitespace
                       "\x1c\x1d\x1e\x1f",  # information separators, also whitespace to isspace()
                       string.punctuation, "，“”’…¿—",  # ASCII and non-ASCII punctuation
                       "aZ9ßİéΣ"])  # letters and a digit; İ lowercases to two characters


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(_TEXT_CHARS), max_size=30))
def test_tokenize_matches_the_character_loop(text):
    outcomes = []
    for tokenizer in (tokenize, _reference_tokenize):
        try:
            outcomes.append(tokenizer(text))
        except IngestError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


# -- parse_semeval -------------------------------------------------------------------


def test_parse_single_sentence_with_two_aspects():
    xml = """<sentences><sentence id="a1">
        <text>Good screen, bad battery.</text>
        <aspectTerms>
          <aspectTerm term="screen" polarity="positive" from="5" to="11"/>
          <aspectTerm term="battery" polarity="negative" from="17" to="24"/>
        </aspectTerms></sentence></sentences>"""
    parsed = parse_semeval(xml)
    assert len(parsed) == 1
    record = parsed[0]
    assert record.sentence_id == "a1"
    assert len(record.aspects) == 2
    assert record.aspects[0] == RawAspect("screen", "positive", 5, 11)


def test_parse_keeps_sentences_without_aspects(laptop_train_xml):
    parsed = parse_semeval(laptop_train_xml)
    assert len(parsed) == 6
    assert any(not p.aspects for p in parsed)


def test_parse_malformed_xml_reports_location():
    with pytest.raises(IngestError, match="line"):
        parse_semeval("<sentences><sentence></sentences>")


def test_parse_missing_attribute_names_sentence():
    xml = """<sentences><sentence id="s9"><text>ok food.</text>
      <aspectTerms><aspectTerm term="food" polarity="positive" from="3"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(IngestError, match="s9"):
        parse_semeval(xml)


@pytest.mark.parametrize("attr", ["from", "to"])
def test_parse_non_integer_offset_names_sentence_and_attribute(attr):
    offsets = {"from": "0", "to": "2", attr: "x4"}
    xml = f"""<sentences><sentence id="s5"><text>hi there</text>
      <aspectTerms><aspectTerm term="hi" polarity="positive" from="{offsets['from']}" to="{offsets['to']}"/>
      </aspectTerms></sentence></sentences>"""
    with pytest.raises(IngestError, match=f"sentence 's5'.*'{attr}'.*'x4'"):
        parse_semeval(xml)


def test_read_semeval_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.xml"
    path.write_text("<sentences><sentence></sentences>", encoding="utf-8")
    with pytest.raises(IngestError, match=r"broken\.xml: malformed XML at line 1"):
        read_semeval(path)


def test_read_semeval_names_the_file_of_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.xml"
    raw = '<sentences><sentence id="1"><text>caf\u00e9 ok</text></sentence></sentences>'.encode("latin-1")
    path.write_bytes(raw)
    at = raw.index("\u00e9".encode("latin-1"))
    with pytest.raises(IngestError, match=re.escape(f"{path}: not UTF-8 text: invalid continuation byte at byte {at}")):
        read_semeval(path)


def test_parse_tolerates_aspect_categories_and_entities():
    # the real restaurant files carry aspectCategories siblings and XML entities
    xml = """<sentences><sentence id="r7">
        <text>Best caf&#233; &amp; bar around!</text>
        <aspectTerms>
          <aspectTerm term="caf&#233;" polarity="positive" from="5" to="9"/>
        </aspectTerms>
        <aspectCategories><aspectCategory category="ambience" polarity="positive"/></aspectCategories>
        </sentence></sentences>"""
    parsed = parse_semeval(xml)
    assert parsed[0].text == "Best café & bar around!"
    assert parsed[0].aspects == (RawAspect("café", "positive", 5, 9),)
    assert encode_spans(parsed[0].spans, len(parsed[0].tokens)) == ["O", "B", "O", "O", "O", "O"]


def test_unicode_offsets_round_trip():
    text = "Cafés’ crème brûlée was “great”!"
    tokens = tokenize(text)
    stitched = "".join(text[t.char_start:t.char_end] for t in tokens)
    assert stitched == "".join(text.split())


def test_parse_rejects_bad_offsets_and_polarity():
    bad_offsets = """<sentences><sentence id="s1"><text>hi</text>
      <aspectTerms><aspectTerm term="hi" polarity="positive" from="0" to="99"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(IngestError):
        parse_semeval(bad_offsets)
    bad_polarity = """<sentences><sentence id="s1"><text>hi there</text>
      <aspectTerms><aspectTerm term="hi" polarity="meh" from="0" to="2"/></aspectTerms>
      </sentence></sentences>"""
    with pytest.raises(IngestError, match="polarity"):
        parse_semeval(bad_polarity)


def test_parse_rejects_a_duplicate_sentence_id(tmp_path):
    twice = ('<sentences><sentence id="s0"><text>ok</text></sentence><sentence id="s1"><text>a</text>'
             '</sentence><sentence id="s1"><text>b</text></sentence></sentences>')
    with pytest.raises(IngestError, match=re.escape("sentence 's1': duplicate sentence id (first at sentence 2)")):
        parse_semeval(twice)
    path = tmp_path / "twice.xml"
    path.write_text(twice, encoding="utf-8")
    with pytest.raises(IngestError, match=re.escape(f"{path}: sentence 's1': duplicate sentence id")):
        read_semeval(path)
    # a sentence without an id takes its 0-based index as its id
    indexed = '<sentences><sentence id="1"><text>a</text></sentence><sentence><text>b</text></sentence></sentences>'
    with pytest.raises(IngestError, match=re.escape("sentence '1': duplicate sentence id (first at sentence 1)")):
        parse_semeval(indexed)


# -- BIO gold -------------------------------------------------------------------------


def _built(text, *aspects):
    """The one sentence of `text` with `(term, polarity, from, to)` aspects,
    through parse_semeval and build_dataset: (parsed record, dataset)."""
    terms = "".join(f'<aspectTerm term="{term}" polarity="{polarity}" from="{a}" to="{b}"/>'
                    for term, polarity, a, b in aspects)
    parsed = parse_semeval(f'<sentences><sentence id="s1"><text>{text}</text>'
                           f"<aspectTerms>{terms}</aspectTerms></sentence></sentences>")
    return parsed[0], build_dataset(parsed, "laptop", Vocabulary.random(collect_tokens(parsed), dim=4, seed=0))


def test_bio_gold_basic():
    record, dataset = _built("the battery life rocks", ("battery life", "positive", 4, 16))
    assert record.spans == (AspectSpan(1, 2),)
    assert dataset.sentences[0].bio == ["O", "B", "I", "O"]


def test_bio_gold_partial_token_overlap_marks_token():
    _, dataset = _built("batteries everywhere", ("battery", "positive", 0, 7))  # substring of 'batteries'
    assert dataset.sentences[0].bio == ["B", "O"]
    assert [s.span for s in dataset.samples] == [AspectSpan(0, 0)]


def test_bio_gold_no_aspects_is_all_o():
    record, dataset = _built("nothing here")
    assert record.spans == ()
    assert dataset.sentences[0].bio == ["O", "O"] == encode_spans(record.spans, 2)


def test_bio_gold_zero_token_aspect():
    # "a  b": a=0..1, b=3..4; the range 1..2 hits the gap only
    with pytest.raises(IngestError, match=r"sentence 's1': aspect 'ghost' \[1, 2\) matches no token"):
        _built("a  b", ("ghost", "neutral", 1, 2))
    record, dataset = _built("a  b", ("ghost", "conflict", 1, 2))
    assert record.spans == (None,)
    assert dataset.sentences[0].bio is None
    assert dataset.samples == []


def test_bio_gold_overlapping_aspects_is_none_with_samples_kept():
    record, dataset = _built("great battery life here", ("battery life", "positive", 6, 18),
                             ("life", "negative", 14, 18))
    with pytest.raises(ValueError, match="overlap"):
        encode_spans(record.spans, len(record.tokens))
    assert dataset.sentences[0].bio is None
    assert [(s.span, s.label) for s in dataset.samples] == [(AspectSpan(1, 2), 0), (AspectSpan(2, 2), 1)]


def test_aspect_token_span_matches_decode():
    text = "the battery life rocks"
    tokens = tokenize(text)
    aspect = RawAspect("battery life", "positive", 4, 16)
    span = aspect_token_span(tokens, aspect)
    assert span == AspectSpan(1, 2)
    assert decode_spans(encode_spans([span], len(tokens))) == [span]
    assert aspect_token_span(tokenize("a  b"), RawAspect("ghost", "conflict", 1, 2)) is None


def test_bio_round_trip_over_all_fixture_sentences(laptop_train_xml, restaurant_train_xml,
                                                   laptop_test_xml, restaurant_test_xml):
    # the BIO gold decodes to exactly the per-aspect token spans
    for xml in (laptop_train_xml, restaurant_train_xml, laptop_test_xml, restaurant_test_xml):
        parsed = parse_semeval(xml)
        dataset = build_dataset(parsed, "laptop", Vocabulary.random(collect_tokens(parsed), dim=4, seed=0))
        for record, sentence in zip(parsed, dataset.sentences, strict=True):
            expected = sorted(aspect_token_span(record.tokens, a) for a in record.aspects)
            assert sorted(record.spans) == expected
            assert decode_spans(sentence.bio) == expected


# -- embeddings ---------------------------------------------------------------------


def test_load_embeddings_fixture_rows(fixtures_dir):
    vocab = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "battery", "zzz"])
    npt.assert_allclose(vocab.matrix[vocab.id_of("the")], [0.1, 0.2, 0.3, 0.4, 0.5])
    npt.assert_allclose(vocab.matrix[vocab.id_of("battery")], [-0.5, 0.25, 0.0, 1.0, -1.0])
    assert vocab.id_of("zzz") == vocab.unk_id
    assert vocab.dim == 5


def test_load_embeddings_unknown_row_is_deterministic(fixtures_dir):
    a = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "zzz"])
    b = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "zzz"])
    npt.assert_array_equal(a.matrix, b.matrix)
    assert a.token_to_id == b.token_to_id
    assert (np.abs(a.matrix[a.unk_id]) <= 0.25).all()


def test_load_embeddings_dim_mismatch_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 0.2\nbroken\n", encoding="utf-8")
    with pytest.raises(IngestError, match="line 2"):
        load_embeddings(bad, ["the", "broken"])


def test_load_embeddings_non_numeric_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 oops\n", encoding="utf-8")
    with pytest.raises(IngestError, match="non-numeric"):
        load_embeddings(bad, ["the"])


def test_load_embeddings_checks_width_of_skipped_lines(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 0.2\nother 0.3\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"bad\.txt: line 2: vector has 1 values, expected 2"):
        load_embeddings(bad, ["the"])


def test_load_embeddings_parses_only_wanted_lines(tmp_path):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("other 0.3 oops\nthe 0.1 0.2\nthe 0.5 nope\n", encoding="utf-8")
    vocab = load_embeddings(vectors, ["the"])  # skipped lines are never parsed
    npt.assert_array_equal(vocab.matrix[vocab.id_of("the")], np.float32([0.1, 0.2]))


def test_load_embeddings_without_a_width_takes_the_first_lines(fixtures_dir, tmp_path):
    vocab = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "screen"])
    assert vocab.matrix.shape[1] == 5
    for text, message in (("", "no vectors"), ("the\nscreen 0.1\n", "line 1: vector has no values")):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError, match=message):
            load_embeddings(vectors, ["the"])


def _reference_load_embeddings(path, vocabulary_tokens):
    """The per-line loader the batched one replaced: `float()` on every
    component of a wanted line, each line decoded on its own (split at
    \\n, \\r\\n or \\r, as the text reader splits), errors raised as the
    line is read."""
    wanted = {t.lower() for t in vocabulary_tokens}
    found = {}
    expected_dim = None
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise IngestError(f"{path}: line {lineno}: not UTF-8 text: {err.reason} at byte {err.start}") from None
        width = line.count(" ")
        if expected_dim is None:
            if width < 1:
                raise IngestError(f"{path}: line {lineno}: vector has no values")
            expected_dim = width
        if width != expected_dim:
            raise IngestError(f"{path}: line {lineno}: vector has {width} values, expected {expected_dim}")
        token = line.partition(" ")[0]
        if token not in wanted or token in found:
            continue
        try:
            found[token] = np.asarray([float(x) for x in line.split(" ")[1:]], dtype=np.float32)
        except ValueError:
            raise IngestError(f"{path}: line {lineno}: non-numeric vector component") from None
        if not np.isfinite(found[token]).all():
            raise IngestError(f"{path}: line {lineno}: non-finite vector component for {token!r}")
    if expected_dim is None:
        raise IngestError(f"{path}: no vectors to take the width from")
    ordered = sorted(found)
    matrix = np.zeros((len(ordered) + 1, expected_dim), dtype=np.float32)
    mapping = {token: i for i, token in enumerate(ordered)}
    for token, i in mapping.items():
        matrix[i] = found[token]
    unk_id = len(ordered)
    matrix[unk_id] = np.random.default_rng(UNK_SEED).uniform(-UNK_INIT_RANGE, UNK_INIT_RANGE,
                                                             size=expected_dim).astype(np.float32)
    for token in sorted(wanted - set(ordered)):
        mapping[token] = unk_id
    return Vocabulary(mapping, matrix, unk_id)


def _assert_same_as_reference(path, tokens):
    """Require both loaders to give the same vocabulary, as (mapping, matrix
    bytes, unk_id), or the same error, as (type, message); return it."""
    outcomes = []
    for loader in (load_embeddings, _reference_load_embeddings):
        try:
            vocab = loader(path, tokens)
        except ValueError as err:  # IngestError among them
            outcomes.append((type(err), str(err)))
        else:
            outcomes.append((vocab.token_to_id, vocab.matrix.tobytes(), vocab.unk_id))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


_SPECIAL_COMPONENTS = ("-0.0", "1e-50", "-1e-50")  # finite in float32; the others have their own test
_NON_FINITE_COMPONENTS = ("nan", "inf", "-inf", "1e400", "3.4028236e38")
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@st.composite
def _vector_files(draw):
    """(text, wanted tokens, width): random doubles within float32's range
    written as repr, %.3f and %.7g plus special values, over enough lines to
    span batches."""
    width = draw(st.integers(1, 4))
    n_lines = draw(st.integers(1, VECTOR_BATCH + 80))
    doubles = st.floats(-_FLOAT32_MAX, _FLOAT32_MAX, width=64)
    component = st.one_of(doubles.map(repr), doubles.map(lambda x: "%.3f" % x),
                          doubles.map(lambda x: "%.7g" % x), st.sampled_from(_SPECIAL_COMPONENTS))
    tokens = draw(st.lists(st.sampled_from([f"w{i}" for i in range(n_lines + 5)]), min_size=n_lines, max_size=n_lines))
    lines = [" ".join([token] + draw(st.lists(component, min_size=width, max_size=width))) for token in tokens]
    wanted = draw(st.lists(st.sampled_from(sorted(set(tokens)) + ["absent"]), max_size=len(tokens) + 1))
    return "\n".join(lines) + "\n", wanted, width


@settings(max_examples=40, deadline=None)
@given(case=_vector_files())
def test_load_embeddings_matches_the_per_line_reference(tmp_path_factory, case):
    text, wanted, width = case
    vectors = tmp_path_factory.mktemp("vectors") / "vectors.txt"
    vectors.write_text(text, encoding="utf-8")
    outcome = _assert_same_as_reference(vectors, wanted)
    assert len(outcome) == 3  # loaded, not an error
    token_to_id, matrix_bytes, unk_id = outcome
    assert len(matrix_bytes) == (unk_id + 1) * width * 4  # the file's width


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")  # 3.4028236e38, in both
@pytest.mark.parametrize("component", _NON_FINITE_COMPONENTS)
@pytest.mark.parametrize("wanted_before", [0, VECTOR_BATCH + 9])
def test_load_embeddings_rejects_a_non_finite_vector(tmp_path, component, wanted_before):
    vectors = tmp_path / "vectors.txt"
    tokens = [f"f{i}" for i in range(wanted_before)] + ["the", "bad", "late"]
    for tail in ([], ["late 0.1 oops"]):  # a later non-numeric line sends the batch through float()
        lines = _filler_lines(wanted_before) + ["the 0.5 -0.0", f"bad 0.1 {component}"] + tail
        vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert _assert_same_as_reference(vectors, tokens) == (
            IngestError, f"{vectors}: line {wanted_before + 2}: non-finite vector component for 'bad'")
        vocab = load_embeddings(vectors, ["the"])  # a skipped line stays unparsed
        assert vocab.matrix[vocab.id_of("the")].tobytes() == np.float32([0.5, -0.0]).tobytes()


def _filler_lines(n, width=2):
    return [f"f{i} " + " ".join(["0.5"] * width) for i in range(n)]


def test_load_embeddings_reads_forms_only_float_accepts(tmp_path):
    vectors = tmp_path / "vectors.txt"
    lines = ["the 1_0 0.25", "arabic \u0661\u0662 -\u0663.\u0665", "plain 0.1 0.2", "spaced \u20030.5 1.5\u00a0"]
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tokens = ["the", "arabic", "plain", "spaced"]
    _assert_same_as_reference(vectors, tokens)
    vocab = load_embeddings(vectors, tokens)
    npt.assert_array_equal(vocab.matrix[vocab.id_of("the")], np.float32([10.0, 0.25]))
    npt.assert_array_equal(vocab.matrix[vocab.id_of("arabic")], np.float32([12.0, -3.5]))
    npt.assert_array_equal(vocab.matrix[vocab.id_of("spaced")], np.float32([0.5, 1.5]))


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_load_embeddings_refuses_what_float_refuses(tmp_path, separator):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"the 0.1 0.2\nbad 0.5{separator} 0.25\n", encoding="utf-8")
    assert _assert_same_as_reference(vectors, ["the", "bad"]) == (
        IngestError, f"{vectors}: line 2: non-numeric vector component")


@pytest.mark.parametrize("wanted_before", [0, VECTOR_BATCH + 9])
@pytest.mark.parametrize("non_numeric_first", [True, False])
def test_load_embeddings_reports_the_first_fault_in_the_file(tmp_path, wanted_before, non_numeric_first):
    lines = _filler_lines(wanted_before + 1)  # the last filler line is unwanted; the first sets the width
    faults = ["bad 0.1 oops", "short 0.1"]
    lines += faults if non_numeric_first else faults[::-1]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tokens = [f"f{i}" for i in range(wanted_before)] + ["bad", "short"]
    first_line = wanted_before + 2
    expected = (f"{vectors}: line {first_line}: non-numeric vector component" if non_numeric_first
                else f"{vectors}: line {first_line}: vector has 1 values, expected 2")
    assert _assert_same_as_reference(vectors, tokens) == (IngestError, expected)


def test_load_embeddings_keeps_the_first_line_of_a_token_across_batches(tmp_path):
    lines = ["the 0.1 0.2"] + _filler_lines(VECTOR_BATCH + 3) + ["the 0.7 0.8", "the 0.9 nope"]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tokens = ["the"] + [f"f{i}" for i in range(VECTOR_BATCH + 3)]
    vocab = load_embeddings(vectors, tokens)
    npt.assert_array_equal(vocab.matrix[vocab.id_of("the")], np.float32([0.1, 0.2]))
    _assert_same_as_reference(vectors, tokens)


@pytest.mark.parametrize("newline", ["\r\n", "\r", "no final newline"])
def test_load_embeddings_reads_every_line_ending_alike(tmp_path, newline):
    lines = ["the 0.1 0.2", "other 0.3 0.4", "battery -1e-3 5"]
    lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
    lf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = "\n".join(lines) if newline == "no final newline" else newline.join(lines) + newline
    other.write_bytes(text.encode("utf-8"))
    tokens = ["the", "battery", "zzz"]
    a, b = load_embeddings(lf, tokens), load_embeddings(other, tokens)
    assert a.token_to_id == b.token_to_id and a.unk_id == b.unk_id
    assert a.matrix.tobytes() == b.matrix.tobytes()
    _assert_same_as_reference(other, tokens)


def test_load_embeddings_reports_a_bad_line_before_undecodable_bytes(tmp_path):
    vectors = tmp_path / "vectors.txt"
    head = "\n".join(["the 0.1 0.2", "bad 0.1 oops"] + _filler_lines(2000)) + "\n"
    vectors.write_bytes(head.encode("utf-8") + b"\xff 0.1 0.2\n")  # far past the first decoded chunk
    assert _assert_same_as_reference(vectors, ["the", "bad"]) == (
        IngestError, f"{vectors}: line 2: non-numeric vector component")
    vectors.write_bytes(b"the 0.1 0.2\n\xff 0.1 0.2\n")
    assert _assert_same_as_reference(vectors, ["the"]) == (
        IngestError, f"{vectors}: line 2: not UTF-8 text: invalid start byte at byte 0")


@pytest.mark.parametrize("filler", [0, 2000])  # in the first decoded chunk, or far past it
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_embeddings_reports_the_first_of_a_width_error_and_undecodable_bytes(tmp_path, filler, newline):
    vectors = tmp_path / "vectors.txt"
    head = newline.join(["the 0.1 0.2"] + _filler_lines(filler)) + newline
    short, undecodable = b"short 0.1" + newline.encode(), b"caf\xc3 0.1 0.2" + newline.encode()
    for lines, expected in (([short, undecodable], "vector has 1 values, expected 2"),
                            ([undecodable, short], "not UTF-8 text: invalid continuation byte at byte 3")):
        vectors.write_bytes(head.encode("utf-8") + b"".join(lines) + b"ok 0.1 0.2" + newline.encode())
        assert _assert_same_as_reference(vectors, ["the", "short", "caf"]) == (
            IngestError, f"{vectors}: line {filler + 2}: {expected}")
    vectors.write_bytes(head.encode("utf-8") + b"cut 0.1 0.\xe2\x82")  # ends inside a character
    assert _assert_same_as_reference(vectors, ["the"]) == (
        IngestError, f"{vectors}: line {filler + 2}: not UTF-8 text: unexpected end of data at byte 10")


def test_load_embeddings_reports_an_empty_one_wide_vector(tmp_path):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("a 1\nthe \nb 2\n", encoding="utf-8")  # numpy's reader would skip the empty row
    for tokens in (["a", "the", "b"], ["the"]):
        assert _assert_same_as_reference(vectors, tokens) == (
            IngestError, f"{vectors}: line 2: non-numeric vector component")


def test_load_embeddings_breaks_lines_only_at_newlines(tmp_path):
    vectors = tmp_path / "vectors.txt"
    lines = ["caf\u00e9\x85 0.1 0.2", "a\u2028b 0.3 0.4", "c\x85d\u2029 0.5 0.6"] + _filler_lines(3)
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tokens = ["caf\u00e9\x85", "a\u2028b", "f1", "zzz"]
    vocab = load_embeddings(vectors, tokens)
    npt.assert_array_equal(vocab.matrix[vocab.id_of("a\u2028b")], np.float32([0.3, 0.4]))
    assert len(_assert_same_as_reference(vectors, tokens)) == 3  # loaded, not an error


def test_load_embeddings_opens_its_file_once(tmp_path, monkeypatch):
    vectors = tmp_path / "vectors.txt"
    head = "\n".join(["the 0.1 0.2"] + _filler_lines(2000)) + "\n"
    vectors.write_bytes(head.encode("utf-8") + b"caf\xc3 0.1 0.2\n")
    opened = []

    def counting_open(file, *args, real_open=builtins.open, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with pytest.raises(IngestError, match=re.escape(f"{vectors}: line 2002: not UTF-8 text: invalid continuation")):
        load_embeddings(vectors, ["the"])
    assert opened == [vectors]


def test_vocabulary_ids_are_dense():
    vocab = Vocabulary.random(["b", "a", "c"], dim=4, seed=1)
    ids = sorted(set(vocab.token_to_id.values()) | {vocab.unk_id})
    assert ids == list(range(len(vocab)))
    assert vocab.matrix.shape == (4, 4)


# -- fixture corpus counts -------------------------------------------------------------


def laptop_train_dataset(xml):
    parsed = parse_semeval(xml)
    vocab = Vocabulary.random(collect_tokens(parsed), dim=8, seed=0)
    return build_dataset(parsed, "laptop", vocab)


def test_fixture_polarity_counts_drop_conflict(laptop_train_xml):
    dataset = laptop_train_dataset(laptop_train_xml)
    assert polarity_counts(dataset.samples) == (1, 3, 1)
    assert len(dataset.samples) == 5  # conflict aspect dropped
    assert all(s.bio is not None for s in dataset.sentences)


def test_fixture_conflict_tokens_still_tagged(laptop_train_xml):
    dataset = laptop_train_dataset(laptop_train_xml)
    by_id = {s.sentence_id: s for s in dataset.sentences}
    assert by_id["lt5"].bio is not None
    assert "B" in by_id["lt5"].bio  # trackpad kept for tagging gold


def test_fixture_sa_ma_split(laptop_train_xml):
    dataset = laptop_train_dataset(laptop_train_xml)
    sa, ma = split_sa_ma(dataset.samples)
    assert (len(sa), len(ma)) == (3, 2)
    assert len(sa) + len(ma) == len(dataset.samples)
    assert {s.sentence_id for s in ma} == {"lt2"}


def test_split_sa_ma_small_example():
    from absalab.alsa import AlsaSample

    mk = lambda sid: AlsaSample((0, 1), AspectSpan(0, 0), 0, sid, "d")
    sa, ma = split_sa_ma([mk("x"), mk("x"), mk("y")])
    assert len(ma) == 2 and len(sa) == 1


def test_sample_span_tokens_contain_aspect_term(laptop_train_xml):
    parsed = parse_semeval(laptop_train_xml)
    vocab = Vocabulary.random(collect_tokens(parsed), dim=8, seed=0)
    dataset = build_dataset(parsed, "laptop", vocab)
    by_id = {p.sentence_id: p for p in parsed}
    for sample in dataset.samples:
        text = by_id[sample.sentence_id].text
        tokens = tokenize(text)
        span_text = text[tokens[sample.span.start].char_start:tokens[sample.span.end].char_end]
        matching = [a for a in by_id[sample.sentence_id].aspects
                    if a.polarity != "conflict"]
        assert any(a.term.lower() in span_text.lower() or span_text.lower() in a.term.lower()
                   for a in matching)


def test_parse_tokenize_align_deterministic(laptop_train_xml):
    first = laptop_train_dataset(laptop_train_xml)
    second = laptop_train_dataset(laptop_train_xml)
    assert [s.sentence_id for s in first.sentences] == [s.sentence_id for s in second.sentences]
    assert first.samples == second.samples


# -- dataset cache -----------------------------------------------------------------------


def test_dataset_cache_round_trip(tmp_path, laptop_train_xml):
    parsed = parse_semeval(laptop_train_xml)
    vocab = Vocabulary.random(collect_tokens(parsed), dim=8, seed=0)
    dataset = build_dataset(parsed, "laptop", vocab)
    path = tmp_path / "cache.jsonl"
    write_dataset_cache(path, dataset)
    loaded = read_dataset_cache(path, vocab)
    assert loaded.domain == "laptop"
    assert len(loaded.sentences) == len(dataset.sentences)
    assert loaded.samples == dataset.samples
    assert [s.bio for s in loaded.sentences] == [s.bio for s in dataset.sentences]


def _cache_lines(tmp_path, laptop_train_xml):
    parsed = parse_semeval(laptop_train_xml)
    vocab = Vocabulary.random(collect_tokens(parsed), dim=8, seed=0)
    path = tmp_path / "cache.jsonl"
    write_dataset_cache(path, build_dataset(parsed, "laptop", vocab))
    return path, vocab, path.read_text(encoding="utf-8").splitlines()


def _cache_text(*records) -> str:
    """A hand-written cache: one JSON line per record, then the trailer with their count and sha256."""
    body = "".join(json.dumps(record) + "\n" for record in records)
    trailer = {"sentence_count": len(records), "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest()}
    return body + json.dumps(trailer) + "\n"


def test_dataset_cache_keeps_skipped_sentence_count(tmp_path):
    xml = """<sentences><sentence id="o1"><text>great battery life here</text><aspectTerms>
      <aspectTerm term="battery life" polarity="positive" from="6" to="18"/>
      <aspectTerm term="life" polarity="negative" from="14" to="18"/>
      </aspectTerms></sentence><sentence id="o2"><text>fine screen</text></sentence></sentences>"""
    parsed = parse_semeval(xml)
    vocab = Vocabulary.random(collect_tokens(parsed), dim=4, seed=0)
    dataset = build_dataset(parsed, "laptop", vocab)
    assert [s.bio is None for s in dataset.sentences] == [True, False]
    assert len(dataset.samples) == 2  # overlapping aspects still yield samples
    path = tmp_path / "cache.jsonl"
    write_dataset_cache(path, dataset)
    loaded = read_dataset_cache(path, vocab)
    assert [s.bio is None for s in loaded.sentences] == [True, False]
    assert loaded.samples == dataset.samples


def test_dataset_cache_malformed_line_names_file_and_line(tmp_path, laptop_train_xml):
    path, vocab, lines = _cache_lines(tmp_path, laptop_train_xml)
    lines[2] = lines[2][:-5]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"cache\.jsonl: line 3: malformed JSON"):
        read_dataset_cache(path, vocab)


def test_dataset_cache_missing_field_names_file_and_line(tmp_path, laptop_train_xml):
    path, vocab, lines = _cache_lines(tmp_path, laptop_train_xml)
    record = json.loads(lines[1])
    del record["tokens"]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"cache\.jsonl: line 2: missing field 'tokens'"):
        read_dataset_cache(path, vocab)


def test_dataset_cache_undecodable_bytes_name_file_and_line(tmp_path, laptop_train_xml):
    path, vocab, lines = _cache_lines(tmp_path, laptop_train_xml)
    raw = [line.encode("utf-8") for line in lines]
    raw[3] = raw[3][:11] + b"\xff" + raw[3][11:]
    path.write_bytes(b"\n".join(raw) + b"\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 4: not UTF-8 text: invalid start byte at byte 11")):
        read_dataset_cache(path, vocab)


def _read_cache_or_error(path, vocab):
    """What a damaged cache may give: a Dataset, or an IngestError naming the file and line."""
    try:
        dataset = read_dataset_cache(path, vocab)
    except IngestError as err:
        assert str(err).startswith(f"{path}: line "), err
        return err
    assert isinstance(dataset, Dataset)
    return dataset


def test_dataset_cache_cut_at_any_byte_loads_or_names_the_file(tmp_path, laptop_train_xml):
    path, vocab, lines = _cache_lines(tmp_path, laptop_train_xml)
    whole = path.read_bytes()
    assert json.loads(lines[-1])["sentence_count"] == 6 and len(lines) == 7
    for cut in range(len(whole)):  # a line's end and just before its newline included
        path.write_bytes(whole[:cut])
        assert isinstance(_read_cache_or_error(path, vocab), IngestError), cut
    path.write_bytes(whole[:whole.index(b"\n", len(whole) // 2) + 1])  # 3 of the 6 sentences
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 4: no trailer record: the file is cut short")):
        read_dataset_cache(path, vocab)
    path.write_bytes(whole[:-1])
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 7: malformed record: trailer without its newline")):
        read_dataset_cache(path, vocab)


@pytest.mark.parametrize("edit, problem", [
    (lambda lines: lines[:2] + lines[3:], "line 6: malformed record: trailer counts 6 sentences, the file has 5"),
    (lambda lines: lines[:-1] + ['{"sentence_count": 7}'], "line 7: malformed record: trailer counts 7 sentences"),
    (lambda lines: lines[:-1] + ['{"sentence_count": 6.0}'],
     "line 7: malformed record: trailer sentence_count must be [int], got [6.0]"),
    (lambda lines: lines + [lines[1]], "line 8: malformed record: record after the trailer on line 7"),
    (lambda lines: lines + [lines[-1]], "line 8: malformed record: record after the trailer on line 7"),
    (lambda lines: lines[:-1], "line 7: no trailer record: the file is cut short"),
    (lambda lines: [], "line 1: no trailer record: the file is cut short"),
], ids=["dropped-record", "count-too-high", "float-count", "record-after", "second-trailer", "no-trailer", "empty"])
def test_dataset_cache_trailer_must_count_the_sentences_and_end_the_file(tmp_path, laptop_train_xml, edit, problem):
    path, vocab, lines = _cache_lines(tmp_path, laptop_train_xml)
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    with pytest.raises(IngestError, match=re.escape(f"{path}: {problem}")):
        read_dataset_cache(path, vocab)


def test_dataset_cache_of_no_sentences_is_its_trailer(tmp_path):
    path = tmp_path / "cache.jsonl"
    write_dataset_cache(path, Dataset(domain="laptop"))
    assert path.read_text(encoding="utf-8") == _cache_text()
    loaded = read_dataset_cache(path, Vocabulary.random(["the"], dim=4, seed=0))
    assert (loaded.sentences, loaded.samples) == ([], [])


_INVALID_UTF8 = (b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xc0\xaf", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dataset_cache_with_flipped_bytes_is_refused_by_name(tmp_path_factory, laptop_train_xml, data):
    path, vocab, _ = _cache_lines(tmp_path_factory.mktemp("cache"), laptop_train_xml)
    damaged = bytearray(path.read_bytes())
    for at in data.draw(st.lists(st.integers(0, len(damaged) - 1), min_size=1, max_size=4, unique=True), label="at"):
        damaged[at] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(damaged))
    assert isinstance(_read_cache_or_error(path, vocab), IngestError)


def test_dataset_cache_with_a_flipped_letter_in_a_text_names_the_trailer(tmp_path, laptop_train_xml):
    path, vocab, _ = _cache_lines(tmp_path, laptop_train_xml)
    whole = path.read_bytes()
    at = whole.index(b'"text": "', whole.index(b"\n")) + len(b'"text": "')  # in the second record
    assert chr(whole[at]).isalpha()
    path.write_bytes(whole[:at] + bytes([whole[at] ^ 0x20]) + whole[at + 1:])  # the letter's other case
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 7: malformed record: trailer does not match the "
                                                    'records: expected {"sentence_count": 6, "sha256": "')):
        read_dataset_cache(path, vocab)


@settings(max_examples=150, deadline=None)
@given(at=st.integers(0, 10**6), invalid=st.sampled_from(_INVALID_UTF8))
def test_dataset_cache_with_invalid_utf8_names_its_line(tmp_path_factory, laptop_train_xml, at, invalid):
    path, vocab, _ = _cache_lines(tmp_path_factory.mktemp("cache"), laptop_train_xml)
    whole = path.read_bytes()
    at %= len(whole) + 1
    path.write_bytes(whole[:at] + invalid + whole[at:])
    line = whole[:at].count(b"\n") + 1
    outcome = _read_cache_or_error(path, vocab)
    assert isinstance(outcome, IngestError) and f"{path}: line {line}: not UTF-8 text: " in str(outcome), outcome


@pytest.mark.parametrize("bio", [["B", "X", "O"], "BO", ["B"], ["B", "O", "O", "O"], [["B"], "O", "O"]])
def test_dataset_cache_bad_bio_names_file_and_line(tmp_path, bio):
    path = tmp_path / "cache.jsonl"
    ok = {"sentence_id": "s1", "domain": "laptop", "text": "a b c", "bio": None, "samples": [],
          "tokens": [["a", 0, 1], ["b", 2, 3], ["c", 4, 5]]}
    path.write_text(_cache_text(ok, {**ok, "sentence_id": "s2", "bio": bio}), encoding="utf-8")
    vocab = Vocabulary.random(["a", "b", "c"], dim=4, seed=0)
    with pytest.raises(IngestError, match=r"cache\.jsonl: line 2: malformed record: bio must be null or one B/I/O"):
        read_dataset_cache(path, vocab)
    path.write_text(_cache_text({**ok, "bio": ["B", "I", "O"]}), encoding="utf-8")
    assert read_dataset_cache(path, vocab).sentences[0].bio == ["B", "I", "O"]


CACHE_RECORD = {"sentence_id": "s1", "domain": "laptop", "text": "the battery", "bio": ["O", "B"],
                "tokens": [["the", 0, 3], ["battery", 4, 11]],
                "samples": [{"start": 1, "end": 1, "label": 1, "polarity": "negative"}]}
MISTYPED_RECORDS = {
    "string-tokens": ({"tokens": ["the", "battery"]}, "token must be [str, int, int], got 'the'"),
    "float-offset": ({"tokens": [["the", 0, 3.0], ["battery", 4, 11]]},
                     "token must be [str, int, int], got ['the', 0, 3.0]"),
    "float-span-and-label": ({"samples": [{"start": 0.0, "end": 1.5, "label": 1.0, "polarity": "negative"}]},
                             "sample start, end and label must be [int, int, int], got [0.0, 1.5, 1.0]"),
    "bool-span": ({"samples": [{"start": False, "end": True, "label": 1, "polarity": "negative"}]},
                  "sample start, end and label must be [int, int, int], got [False, True, 1]"),
    "bool-label": ({"samples": [{"start": 1, "end": 1, "label": True, "polarity": "negative"}]},
                   "sample start, end and label must be [int, int, int], got [1, 1, True]"),
    "contradicting-polarity": ({"samples": [{"start": 1, "end": 1, "label": 1, "polarity": "positive"}]},
                               "sample polarity 'positive' does not match label 1"),
}


def test_dataset_cache_reads_its_example_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_text(CACHE_RECORD), encoding="utf-8")
    loaded = read_dataset_cache(path, Vocabulary.random(["the", "battery"], dim=4, seed=0))
    assert loaded.sentences[0].tokens == (Token("the", 0, 3), Token("battery", 4, 11))
    assert [(s.span, s.label) for s in loaded.samples] == [(AspectSpan(1, 1), 1)]


@pytest.mark.parametrize("fields, problem", list(MISTYPED_RECORDS.values()), ids=list(MISTYPED_RECORDS))
def test_dataset_cache_rejects_a_mistyped_record(tmp_path, fields, problem):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(CACHE_RECORD) + "\n" + json.dumps({**CACHE_RECORD, "sentence_id": "s2", **fields})
                    + "\n", encoding="utf-8")
    vocab = Vocabulary.random(["the", "battery"], dim=4, seed=0)
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 2: malformed record: {problem}")):
        read_dataset_cache(path, vocab)


def test_dataset_cache_rejects_a_duplicate_sentence_id(tmp_path, laptop_train_xml):
    path, vocab, lines = _cache_lines(tmp_path, laptop_train_xml)
    record = json.loads(lines[1])
    lines.insert(-1, json.dumps(record))  # before the trailer
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line {len(lines) - 1}: duplicate sentence id "
                                                    f"{record['sentence_id']!r} (first on line 2)")):
        read_dataset_cache(path, vocab)


# -- ingest errors name the file and the sentence -------------------------------------


def _one_sentence_xml(text: str, aspect: str = "") -> str:
    return (f'<sentences><sentence id="s1"><text>ok</text></sentence><sentence id="s2"><text>{text}</text>'
            f"<aspectTerms>{aspect}</aspectTerms></sentence></sentences>")


UNTOKENIZABLE = {
    "whitespace-text": (_one_sentence_xml("   "), "cannot tokenize empty or whitespace-only text"),
    "whitespace-aspect": (_one_sentence_xml("a  b", '<aspectTerm term=" " polarity="positive" from="1" to="2"/>'),
                          r"aspect ' ' \[1, 2\) matches no token"),
}


@pytest.mark.parametrize("case", sorted(UNTOKENIZABLE))
def test_untokenizable_sentence_names_file_and_sentence(case, tmp_path, capsys):
    from absalab.cli import main
    from absalab.harness import ExperimentConfig, load_domain

    xml, message = UNTOKENIZABLE[case]
    path = tmp_path / "laptop_train.xml"
    path.write_text(xml, encoding="utf-8")
    expected = f"{re.escape(str(path))}: sentence 's2': {message}"
    with pytest.raises(IngestError, match=expected):
        load_domain(ExperimentConfig(data_dir=str(tmp_path), embedding_dim=4), require=("train",))
    assert main(["ingest", "--xml", str(path)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert re.search(f"IngestError: {expected}", error)


def test_conflict_aspect_covering_no_token_loads_without_tagging_gold(tmp_path):
    from absalab.harness import ExperimentConfig, load_domain

    xml = _one_sentence_xml("a  b", '<aspectTerm term=" " polarity="conflict" from="1" to="2"/>'
                                    '<aspectTerm term="b" polarity="negative" from="3" to="4"/>')
    (tmp_path / "laptop_train.xml").write_text(xml, encoding="utf-8")
    datasets, _ = load_domain(ExperimentConfig(data_dir=str(tmp_path), embedding_dim=4), require=("train",))
    by_id = {s.sentence_id: s for s in datasets["train"].sentences}
    assert by_id["s2"].bio is None
    assert sum(s.bio is None for s in datasets["train"].sentences) == 1
    assert [(s.sentence_id, s.span) for s in datasets["train"].samples] == [("s2", AspectSpan(1, 1))]
