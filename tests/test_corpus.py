import json
from dataclasses import replace

import numpy as np
import pytest

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
    with pytest.raises(ValidationError, match="p1"):
        load_corpus(path)


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
