import gc
import json
from dataclasses import replace

import numpy as np
import pytest
from reference_alignment import align_by_scan

from bridgeqa.corpus import (
    AnchorMention,
    Corpus,
    Passage,
    QARecord,
    align_anchor,
    load_corpus,
    load_questions,
    save_corpus,
    save_questions,
    tokenize,
    tokenize_many,
)
from bridgeqa.errors import AlignmentError, ValidationError


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")
    return path


def test_tokenize_basic_offsets():
    ts = tokenize("Kiss and Tell")
    assert list(ts.tokens) == ["kiss", "and", "tell"]
    assert list(ts.char_offsets) == [(0, 4), (5, 8), (9, 13)]


def test_token_seqs_of_equal_texts_are_equal_and_hash_alike():
    # a TokenSeq stays a hashable value, though its offset arrays are not
    a, b = tokenize("Kiss and Tell"), tokenize("Kiss and Tell")
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert tokenize("Kiss and  Tell") != a


def test_tokenize_empty():
    assert len(tokenize("")) == 0


def test_tokenize_punctuation_splits_runs():
    assert list(tokenize("U.S.A.").tokens) == ["u", "s", "a"]


def test_tokenize_offsets_index_original_string():
    text = "The  Chief, of Protocol!"
    ts = tokenize(text)
    for tok, (s, e) in zip(ts.tokens, ts.char_offsets):
        assert text[s:e].lower() == tok


def test_tokenize_concatenation_property():
    rng = np.random.default_rng(5)
    words = ["alpha", "Beta", "x9", "1945", "zig-zag", "d'or"]
    for _ in range(50):
        s1 = " ".join(rng.choice(words, size=rng.integers(0, 5)))
        s2 = " ".join(rng.choice(words, size=rng.integers(0, 5)))
        combined = tokenize(s1 + " " + s2)
        assert len(combined) == len(tokenize(s1)) + len(tokenize(s2))


def test_tokenize_idempotent_on_joined_output():
    ts = tokenize("Kiss, and TELL again!")
    rejoined = tokenize(" ".join(ts.tokens))
    assert rejoined.tokens == ts.tokens


# symbols that probe the bulk pass: ASCII letters of both cases, digits,
# punctuation, "_" (not alphanumeric), whitespace and NUL (the byte that
# joins a block's texts); then accented and CJK letters, a superscript digit,
# "İ" (whose lowercase is two characters) and a lone surrogate
ASCII_SYMBOLS = list("aZk09_ .,;:'\"-()\t\n\x00")
OTHER_SYMBOLS = ["é", "ß", "日本", "²", "İ", "\ud800"]
EDGE_TEXTS = ["", " ", "_ \x00 .", "\x00a\x00", "x_9"]


def random_texts(rng, n, *, ascii_share):
    """n seeded texts of 0-39 symbols, about ascii_share of them ASCII, the
    first ones EDGE_TEXTS when n is larger."""
    texts = []
    for _ in range(n):
        symbols = ASCII_SYMBOLS if rng.random() < ascii_share else ASCII_SYMBOLS + OTHER_SYMBOLS
        texts.append("".join(rng.choice(symbols, size=rng.integers(0, 40))))
    if n > len(EDGE_TEXTS):
        texts[: len(EDGE_TEXTS)] = EDGE_TEXTS
    return texts


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2300])
@pytest.mark.parametrize("ascii_share", [1.0, 0.5])
def test_tokenize_many_equals_tokenize_on_every_text(n, ascii_share):
    # tokenize is the oracle, in tokens and offsets; the lists cross the
    # 1,024-text block boundary once and twice
    texts = random_texts(np.random.default_rng([n, int(ascii_share * 10)]), n, ascii_share=ascii_share)
    got = tokenize_many(texts)
    assert len(got) == len(texts)
    for text, seq in zip(texts, got):
        want = tokenize(text)
        assert (seq.tokens, seq.char_offsets) == (want.tokens, want.char_offsets), repr(text)
        # both intern their tokens, so an equal token is the same object
        assert all(a is b for a, b in zip(seq.tokens, want.tokens)), repr(text)


def test_tokenize_many_of_nothing_and_of_texts_without_tokens():
    assert tokenize_many([]) == []
    assert tokenize_many(["", "...", "\x00", "_"]) == [tokenize("")] * 4
    assert tokenize_many(["Kiss\x00and_Tell", "İ"]) == [tokenize("Kiss\x00and_Tell"), tokenize("İ")]


def test_passage_built_without_tokens_has_them():
    p = Passage(id="p1", title="Kiss and Tell (1945 film)", text="Shirley Temple, as Archer.")
    assert p.tokens == tokenize(p.text)
    assert p.title_tokens == tokenize(p.title)
    given = tokenize("other words")
    assert Passage(id="p2", title="T", text="x", tokens=given).tokens is given


def test_loaded_passages_keep_their_tokens_through_anchor_alignment(tmp_path):
    corpus = load_corpus(write_lines(tmp_path / "c.jsonl", corpus_objs()))
    for p in corpus.passages:
        assert p.tokens == tokenize(p.text)
        assert p.title_tokens == tokenize(p.title)


def test_loaded_fixture_passages_hold_the_tokens_of_their_text_and_title(fixture_dir):
    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    assert len(corpus) > 0
    for p in corpus.passages:
        assert p.tokens == tokenize(p.text)
        assert p.title_tokens == tokenize(p.title)


def test_loaded_mixed_script_passages_hold_the_tokens_of_their_text_and_title(tmp_path):
    # ASCII and non-ASCII texts and titles side by side, past one block
    rng = np.random.default_rng(17)
    texts = random_texts(rng, 1100, ascii_share=0.5)
    objs = [
        {"id": f"p{i}", "title": f"{title} {i}", "text": text, "anchors": []}
        for i, (text, title) in enumerate(zip(texts, reversed(texts)))
    ]
    objs[0]["text"] = "Café Müller by Pina Bausch"
    objs[0]["anchors"] = [{"target": "Pina Bausch", "start": 15, "end": 26}]
    corpus = load_corpus(write_lines(tmp_path / "c.jsonl", objs))
    assert [p.id for p in corpus.passages] == [o["id"] for o in objs]
    for p in corpus.passages:
        assert p.tokens == tokenize(p.text)
        assert p.title_tokens == tokenize(p.title)
    anchor = corpus.by_id["p0"].anchors[0]
    assert (anchor.token_start, anchor.token_end) == (3, 4)


def test_a_loaded_page_leaves_few_objects_for_the_garbage_collector(tmp_path):
    # a page's token offsets are two flat int runs per text, not a tuple
    # per token: with the collector off, so nothing untracks in between,
    # a 100-token page adds a handful of tracked objects, not one per token
    words = " ".join(f"w{j}" for j in range(100))
    objs = [{"id": f"p{i}", "title": f"Page {i}", "text": words, "anchors": []} for i in range(300)]
    path = write_lines(tmp_path / "c.jsonl", objs)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        corpus = load_corpus(path)
        tracked = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(corpus.passages[0].tokens) == 100
    assert tracked < 20 * len(objs), tracked / len(objs)


def test_a_loaded_corpus_and_a_question_hold_one_object_per_distinct_token(tmp_path):
    # ASCII texts (the bulk pass), a non-ASCII text (the character walk),
    # titles and a question repeat words: each distinct token is one str
    objs = [
        {"id": "p1", "title": "Kiss and Tell", "text": "Shirley Temple played Corliss Archer.", "anchors": []},
        {"id": "p2", "title": "Corliss Archer", "text": "Corliss Archer is played by Shirley Temple.", "anchors": []},
        {"id": "p3", "title": "Temple and Tell", "text": "Café Müller: Shirley Temple played Archer.", "anchors": []},
    ]
    corpus = load_corpus(write_lines(tmp_path / "c.jsonl", objs))
    question = tokenize("Who played Corliss Archer in Kiss and Tell?")
    seqs = [s for p in corpus.passages for s in (p.tokens, p.title_tokens)] + [question]
    tokens = [t for seq in seqs for t in seq.tokens]
    assert len(tokens) > 2 * len(set(tokens))
    assert len({id(t) for t in tokens}) == len(set(tokens))


def test_question_tokens_are_tokenized_once(monkeypatch):
    import bridgeqa.corpus as corpus_module

    calls = []
    monkeypatch.setattr(corpus_module, "tokenize", lambda text: calls.append(text) or tokenize(text))
    record = QARecord("q1", "Who played Corliss Archer?", "Shirley Temple", "bridge")
    assert calls == []
    assert record.question_tokens == tokenize(record.question)
    assert record.question_tokens is record.question_tokens
    assert calls == [record.question]


def make_passage(text, anchors=()):
    return Passage(id="p1", title="T", text=text, anchors=tuple(anchors), tokens=tokenize(text))


def test_align_anchor_single_token():
    p = make_passage("Kiss and Tell")
    m = align_anchor(p, AnchorMention("X", 5, 8))
    assert (m.token_start, m.token_end) == (1, 1)


def test_align_anchor_full_cover():
    p = make_passage("Kiss and Tell")
    m = align_anchor(p, AnchorMention("X", 0, 13))
    assert (m.token_start, m.token_end) == (0, 2)


def test_align_anchor_no_token_is_error():
    p = make_passage("a—b")  # em dash between tokens
    with pytest.raises(AlignmentError):
        align_anchor(p, AnchorMention("X", 1, 2))


def test_align_anchor_alignment_matches_substring():
    rng = np.random.default_rng(11)
    text = "Shirley Temple served as Chief of Protocol, 1976."
    ts = tokenize(text)
    p = make_passage(text)
    for _ in range(30):
        i = int(rng.integers(len(ts)))
        j = int(rng.integers(i, len(ts)))
        cs, ce = ts.char_offsets[i][0], ts.char_offsets[j][1]
        m = align_anchor(p, AnchorMention("X", cs, ce))
        assert (m.token_start, m.token_end) == (i, j)


# letters, digits, non-ASCII letters and the separators between them: spaces,
# punctuation, an underscore, an em dash and a non-breaking space
ALIGN_CHARS = list("abcXYZ019") + ["é", "ß", "Ω", "中", "ñ"] + list(" .,'-_!") + ["—", "\u00a0"]


def outcome(align, passage, mention):
    try:
        return align(passage, mention)
    except ValidationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_align_anchor_equals_the_linear_scan(seed):
    # spans start and end anywhere: mid-token, inside separators, at and
    # past either end, and empty or reversed
    rng = np.random.default_rng(seed)
    aligned = refused = 0
    for _ in range(60):
        text = "".join(rng.choice(ALIGN_CHARS, size=int(rng.integers(0, 40))))
        p = make_passage(text)
        for _ in range(25):
            start, end = (int(x) for x in rng.integers(-2, len(text) + 3, size=2))
            mention = AnchorMention("X", start, end)
            got = outcome(align_anchor, p, mention)
            assert got == outcome(align_by_scan, p, mention), (text, start, end)
            if isinstance(got, AnchorMention):
                aligned += 1
            else:
                refused += got[0] is AlignmentError
    assert aligned > 100 and refused > 10


def corpus_objs():
    return [
        {
            "id": "p1",
            "title": "Kiss and Tell (1945 film)",
            "text": "Kiss and Tell stars Shirley Temple as Corliss Archer.",
            "anchors": [{"target": "Shirley Temple", "start": 20, "end": 34}],
        },
        {
            "id": "p2",
            "title": "Shirley Temple",
            "text": "Shirley Temple served as Chief of Protocol.",
            "anchors": [],
        },
    ]


def test_load_corpus_minimal(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", corpus_objs())
    corpus = load_corpus(path)
    assert len(corpus) == 2
    anchor = corpus.by_id["p1"].anchors[0]
    assert anchor.target_title == "Shirley Temple"
    assert anchor.token_start is not None and anchor.token_end is not None
    text = corpus.by_id["p1"].text
    assert text[anchor.char_start : anchor.char_end] == "Shirley Temple"


def test_load_corpus_duplicate_title_named(tmp_path):
    objs = corpus_objs()
    objs[1]["title"] = objs[0]["title"]
    path = write_lines(tmp_path / "c.jsonl", objs)
    with pytest.raises(ValidationError, match="Kiss and Tell"):
        load_corpus(path)


def test_load_corpus_anchor_out_of_bounds_names_passage(tmp_path):
    objs = corpus_objs()
    objs[0]["anchors"][0]["end"] = 10_000
    path = write_lines(tmp_path / "c.jsonl", objs)
    with pytest.raises(ValidationError, match=r"c\.jsonl record 1: passage 'p1': anchor span \(20, 10000\) out of"):
        load_corpus(path)


@pytest.mark.parametrize(
    "start, end, problem",
    [(34, 35, r"covers no token"), (-1, 4, r"out of bounds for text of length 53")],
)
def test_load_corpus_names_the_file_and_record_of_an_anchor_it_cannot_align(tmp_path, start, end, problem):
    objs = corpus_objs()
    objs.insert(0, {"id": "p0", "title": "Zero", "text": "zero", "anchors": []})
    objs[1]["anchors"][0].update(start=start, end=end)
    path = write_lines(tmp_path / "c.jsonl", objs)
    expected = rf"c\.jsonl record 2: passage 'p1': anchor span \({start}, {end}\) {problem}"
    with pytest.raises(ValidationError, match=expected):
        load_corpus(path)


@pytest.mark.parametrize(
    "field, value",
    [("start", True), ("end", 5.9), ("start", "20"), ("end", None), ("target", 5), ("target", ""), ("target", None)],
)
def test_load_corpus_refuses_an_anchor_field_of_the_wrong_type(tmp_path, field, value):
    # offsets are JSON integers, not bools, floats or strings that a cast
    # would turn into one; the target is a non-empty title
    objs = corpus_objs()
    objs[0]["anchors"][0][field] = value
    path = write_lines(tmp_path / "c.jsonl", objs)
    with pytest.raises(ValidationError, match=r"c\.jsonl record 1: malformed anchor"):
        load_corpus(path)


def test_load_corpus_names_the_first_faulty_record(tmp_path):
    # every text is tokenized before any record is checked: a bad anchor at
    # record 2 is still named before the missing text of record 4
    objs = [{"id": f"p{i}", "title": f"Page {i}", "text": f"page {i} text", "anchors": []} for i in range(5)]
    objs[1]["anchors"] = [{"target": "Page 0", "start": 4, "end": 5}]
    del objs[3]["text"]
    path = write_lines(tmp_path / "c.jsonl", objs)
    with pytest.raises(ValidationError, match=r"c\.jsonl record 2: passage 'p1': anchor span \(4, 5\) covers no token"):
        load_corpus(path)
    objs[1]["anchors"] = []
    with pytest.raises(ValidationError, match=r"c\.jsonl record 4: missing or non-string field 'text'"):
        load_corpus(write_lines(path, objs))


def test_load_corpus_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "p1", "title": "A", "text": "a"}\n{broken\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        load_corpus(path)


def test_load_corpus_dedupes_identical_anchors(tmp_path):
    objs = corpus_objs()
    objs[0]["anchors"].append(dict(objs[0]["anchors"][0]))
    path = write_lines(tmp_path / "c.jsonl", objs)
    corpus = load_corpus(path)
    assert len(corpus.by_id["p1"].anchors) == 1


def test_load_corpus_keeps_dangling_anchor(tmp_path):
    objs = corpus_objs()
    objs[0]["anchors"][0]["target"] = "Missing Page"
    path = write_lines(tmp_path / "c.jsonl", objs)
    corpus = load_corpus(path)
    assert corpus.by_id["p1"].anchors[0].target_title == "Missing Page"


def test_corpus_round_trip(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", corpus_objs())
    corpus = load_corpus(path)
    save_corpus(corpus, tmp_path / "copy.jsonl")
    again = load_corpus(tmp_path / "copy.jsonl")
    assert again.passages == corpus.passages


def test_failed_corpus_writes_keep_the_previous_file(tmp_path):
    corpus = load_corpus(write_lines(tmp_path / "c.jsonl", corpus_objs()))
    records = load_questions(write_lines(tmp_path / "q.jsonl", question_objs()))
    save_corpus(corpus, tmp_path / "copy.jsonl")
    save_questions(records, tmp_path / "questions.jsonl")
    before = {name: (tmp_path / name).read_bytes() for name in ("copy.jsonl", "questions.jsonl")}

    # the second row fails to serialize after the first is written
    bad_passage = replace(corpus.passages[0], title=object())
    with pytest.raises(TypeError):
        save_corpus(Corpus((corpus.passages[0], bad_passage), {}, {}), tmp_path / "copy.jsonl")
    with pytest.raises(TypeError):
        save_questions([records[0], replace(records[0], question=object())], tmp_path / "questions.jsonl")
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def question_objs():
    return [
        {"id": "q1", "question": "Who?", "answer": "X", "type": "bridge",
         "supporting_titles": ["A", "B"]},
        {"id": "q2", "question": "Which?", "answer": "Y", "type": "comparison",
         "supporting_titles": ["A", "B"]},
        {"id": "q3", "question": "What?", "answer": "Z", "type": "bridge"},
    ]


def test_load_questions_valid(tmp_path):
    path = write_lines(tmp_path / "q.jsonl", question_objs())
    records = load_questions(path)
    assert len(records) == 3
    assert records[2].supporting_titles is None  # eval-time records lack labels


def test_load_questions_unknown_type(tmp_path):
    objs = question_objs()
    objs[0]["type"] = "multi"
    path = write_lines(tmp_path / "q.jsonl", objs)
    with pytest.raises(ValidationError, match="multi"):
        load_questions(path)


def test_load_questions_missing_answer(tmp_path):
    objs = question_objs()
    del objs[0]["answer"]
    path = write_lines(tmp_path / "q.jsonl", objs)
    with pytest.raises(ValidationError, match="answer"):
        load_questions(path)


def test_load_questions_duplicate_id_named(tmp_path):
    # answers, labels and scores are all keyed by question id: two records
    # with one id would be scored against one answer
    objs = question_objs()
    objs[2]["id"] = "q1"
    path = write_lines(tmp_path / "q.jsonl", objs)
    with pytest.raises(ValidationError, match=r"q\.jsonl record 3: duplicate question id 'q1'"):
        load_questions(path)


def test_load_questions_empty_supporting_titles_rejected(tmp_path):
    objs = question_objs()
    objs[0]["supporting_titles"] = []
    path = write_lines(tmp_path / "q.jsonl", objs)
    with pytest.raises(ValidationError):
        load_questions(path)


@pytest.mark.parametrize("title", [None, 5, "", ["A"]], ids=["null", "number", "empty", "list"])
def test_load_questions_supporting_title_not_a_non_empty_string_is_named(tmp_path, title):
    # such a title used to load as its str(), 'None' or '5'
    objs = question_objs()
    objs[1]["supporting_titles"] = ["A", title]
    path = write_lines(tmp_path / "q.jsonl", objs)
    with pytest.raises(ValidationError, match=r"q\.jsonl record 2: supporting_titles .*non-empty strings.*'q2'"):
        load_questions(path)
