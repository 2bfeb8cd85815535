import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from absalab.ae import AspectSpan, decode_spans
from absalab.data import (
    IngestError,
    RawAspect,
    Token,
    Vocabulary,
    align_bio,
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
    tokens = tokenize(parsed[0].text)
    assert align_bio(tokens, parsed[0].aspects) == ["O", "B", "O", "O", "O", "O"]


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


# -- align_bio -----------------------------------------------------------------------


def test_align_bio_basic():
    text = "the battery life rocks"
    tokens = tokenize(text)
    aspect = RawAspect("battery life", "positive", 4, 16)
    assert align_bio(tokens, [aspect]) == ["O", "B", "I", "O"]


def test_align_bio_partial_token_overlap_marks_token():
    text = "batteries everywhere"
    tokens = tokenize(text)
    aspect = RawAspect("battery", "positive", 0, 7)  # substring of 'batteries'
    assert align_bio(tokens, [aspect]) == ["B", "O"]


def test_align_bio_no_aspects_is_all_o():
    assert align_bio(tokenize("nothing here"), []) == ["O", "O"]


def test_align_bio_zero_token_aspect_errors():
    tokens = tokenize("short text")
    aspect = RawAspect("ghost", "neutral", 5, 6)  # inside the space gap? no: offsets 5..6 = ' t'
    # use a range that falls strictly within whitespace by constructing a wider text
    tokens = tokenize("a  b")  # offsets: a=0..1, b=3..4; range 1..2 hits the gap only
    assert align_bio(tokens, []) == ["O", "O"]
    with pytest.raises(IngestError, match="ghost"):
        align_bio(tokens, [RawAspect("ghost", "neutral", 1, 2)])


def test_align_bio_overlapping_aspects_error():
    tokens = tokenize("great battery life here")
    a = RawAspect("battery life", "positive", 6, 18)
    b = RawAspect("life", "negative", 14, 18)
    with pytest.raises(IngestError, match="overlap"):
        align_bio(tokens, [a, b])


def test_aspect_token_span_matches_decode():
    text = "the battery life rocks"
    tokens = tokenize(text)
    aspect = RawAspect("battery life", "positive", 4, 16)
    span = aspect_token_span(tokens, aspect)
    assert span == AspectSpan(1, 2)
    assert decode_spans(align_bio(tokens, [aspect])) == [span]


def test_bio_round_trip_over_all_fixture_sentences(laptop_train_xml, restaurant_train_xml,
                                                   laptop_test_xml, restaurant_test_xml):
    # aligning then decoding recovers exactly the per-aspect token spans
    for xml in (laptop_train_xml, restaurant_train_xml, laptop_test_xml, restaurant_test_xml):
        for record in parse_semeval(xml):
            tokens = tokenize(record.text)
            labels = align_bio(tokens, record.aspects)
            expected = sorted(aspect_token_span(tokens, a) for a in record.aspects)
            assert decode_spans(labels) == expected


# -- embeddings ---------------------------------------------------------------------


def test_load_embeddings_fixture_rows(fixtures_dir):
    vocab = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "battery", "zzz"], expected_dim=5)
    npt.assert_allclose(vocab.matrix[vocab.id_of("the")], [0.1, 0.2, 0.3, 0.4, 0.5])
    npt.assert_allclose(vocab.matrix[vocab.id_of("battery")], [-0.5, 0.25, 0.0, 1.0, -1.0])
    assert vocab.id_of("zzz") == vocab.unk_id
    assert vocab.dim == 5


def test_load_embeddings_unknown_row_is_deterministic(fixtures_dir):
    a = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "zzz"], expected_dim=5)
    b = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "zzz"], expected_dim=5)
    npt.assert_array_equal(a.matrix, b.matrix)
    assert a.token_to_id == b.token_to_id
    assert (np.abs(a.matrix[a.unk_id]) <= 0.25).all()


def test_load_embeddings_dim_mismatch_errors(fixtures_dir, tmp_path):
    with pytest.raises(IngestError, match="expected 300"):
        load_embeddings(fixtures_dir / "mini_vectors.txt", ["the"])  # default dim is 300
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 0.2\nbroken\n", encoding="utf-8")
    with pytest.raises(IngestError, match="line 2"):
        load_embeddings(bad, ["the", "broken"], expected_dim=2)


def test_load_embeddings_non_numeric_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 oops\n", encoding="utf-8")
    with pytest.raises(IngestError, match="non-numeric"):
        load_embeddings(bad, ["the"], expected_dim=2)


def test_load_embeddings_checks_width_of_skipped_lines(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 0.2\nother 0.3\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"bad\.txt: line 2: vector has 1 values, expected 2"):
        load_embeddings(bad, ["the"], expected_dim=2)


def test_load_embeddings_parses_only_wanted_lines(tmp_path):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("other 0.3 oops\nthe 0.1 0.2\nthe 0.5 nope\n", encoding="utf-8")
    vocab = load_embeddings(vectors, ["the"], expected_dim=2)  # skipped lines are never parsed
    npt.assert_array_equal(vocab.matrix[vocab.id_of("the")], np.float32([0.1, 0.2]))


def test_load_embeddings_without_a_width_takes_the_first_lines(fixtures_dir, tmp_path):
    vocab = load_embeddings(fixtures_dir / "mini_vectors.txt", ["the", "screen"], expected_dim=None)
    assert vocab.matrix.shape[1] == 5
    for text, message in (("", "no vectors"), ("the\nscreen 0.1\n", "line 1: vector has no values")):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError, match=message):
            load_embeddings(vectors, ["the"], expected_dim=None)


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
    assert dataset.skipped_sentences == 0


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


def test_dataset_cache_keeps_skipped_sentence_count(tmp_path):
    xml = """<sentences><sentence id="o1"><text>great battery life here</text><aspectTerms>
      <aspectTerm term="battery life" polarity="positive" from="6" to="18"/>
      <aspectTerm term="life" polarity="negative" from="14" to="18"/>
      </aspectTerms></sentence><sentence id="o2"><text>fine screen</text></sentence></sentences>"""
    parsed = parse_semeval(xml)
    vocab = Vocabulary.random(collect_tokens(parsed), dim=4, seed=0)
    dataset = build_dataset(parsed, "laptop", vocab)
    assert dataset.skipped_sentences == 1
    assert len(dataset.samples) == 2  # overlapping aspects still yield samples
    path = tmp_path / "cache.jsonl"
    write_dataset_cache(path, dataset)
    loaded = read_dataset_cache(path, vocab)
    assert loaded.skipped_sentences == 1
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
    assert datasets["train"].skipped_sentences == 1
    assert [(s.sentence_id, s.span) for s in datasets["train"].samples] == [("s2", AspectSpan(1, 1))]
