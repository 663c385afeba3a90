import math

import numpy as np
import pytest
import reference_retrieval

from bridgeqa import retrieval
from bridgeqa.bridge import TitleTokenLinker
from bridgeqa.corpus import Corpus, Passage, load_corpus, load_questions, tokenize
from bridgeqa.errors import ValidationError
from bridgeqa.retrieval import (
    build_index,
    hybrid_score,
    hybrid_scores,
    retrieve_start_passages,
)


@pytest.fixture
def bm25_only(monkeypatch):
    """Scoring with the title channel off, so that BM25 is scored alone."""
    monkeypatch.setattr(retrieval, "TITLE_WEIGHT", 0.0)


def make_corpus(texts, titles=None):
    passages = []
    for i, text in enumerate(texts):
        title = titles[i] if titles else f"Title {i}"
        passages.append(Passage(id=f"p{i}", title=title, text=text, tokens=tokenize(text)))
    return Corpus(tuple(passages), {p.title: p for p in passages}, {p.id: p for p in passages})


# --- independent brute-force BM25 oracle (no inverted index) ---------------


def bm25_reference(question_tokens, docs, k1=1.2, b=0.75):
    """docs: {doc_id: [tokens]}. Returns {doc_id: score}."""
    N = len(docs)
    avg = sum(len(toks) for toks in docs.values()) / N
    scores = {}
    for doc_id, toks in docs.items():
        score = 0.0
        for term in question_tokens:
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log((N - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avg))
        scores[doc_id] = score
    return scores


def title_cosine_reference(question_tokens, titles):
    """titles: {doc_id: [tokens]}. Smoothed tf-idf cosine between the question
    and each title, idf(t) = ln((1 + N) / (1 + df)) + 1. Returns {doc_id: cosine}."""
    N = len(titles)

    def weights(tokens):
        out = {}
        for term in set(tokens):
            df = sum(1 for other in titles.values() if term in other)
            out[term] = tokens.count(term) * (math.log((1 + N) / (1 + df)) + 1)
        return out

    q = weights(list(question_tokens))
    q_norm = math.sqrt(sum(w * w for w in q.values()))
    scores = {}
    for doc_id, toks in titles.items():
        d = weights(toks)
        dot = sum(w * d.get(term, 0.0) for term, w in q.items())
        scores[doc_id] = dot / (q_norm * math.sqrt(sum(w * w for w in d.values()))) if dot else 0.0
    return scores


def random_corpus(rng, n_docs):
    words = ["red", "blue", "green", "fish", "river", "stone", "lamp", "archer", "tell", "kiss"]
    texts = []
    for _ in range(n_docs):
        n = int(rng.integers(2, 12))
        texts.append(" ".join(rng.choice(words, size=n)))
    return make_corpus(texts)


def test_build_index_statistics_match_brute_force():
    corpus = make_corpus(["kiss and tell", "tell me more", "kiss kiss"])
    index = build_index(corpus)
    assert index.N == 3
    docs = {p.id: list(p.tokens.tokens) for p in corpus.passages}
    body = index.body
    assert set(body.term_id) == {term for toks in docs.values() for term in toks}
    for term, t in body.term_id.items():
        # a term's df is the length of its postings slice
        assert body.bounds[t + 1] - body.bounds[t] == sum(1 for toks in docs.values() if term in toks)
    assert body.length.tolist() == [len(toks) for toks in docs.values()]
    assert index.body.avg_doc_len == pytest.approx(
        sum(len(t) for t in docs.values()) / 3
    )


def test_build_index_single_passage_avg_len():
    corpus = make_corpus(["one two three"])
    index = build_index(corpus)
    assert index.body.avg_doc_len == 3


def test_build_index_empty_corpus_is_error():
    empty = Corpus((), {}, {})
    with pytest.raises(ValidationError):
        build_index(empty)


def test_hybrid_score_no_overlap_is_zero():
    corpus = make_corpus(["kiss and tell", "something else"])
    index = build_index(corpus)
    q = tokenize("unrelated words entirely")
    assert hybrid_score(index, q, "p0") == 0.0


def test_hybrid_score_matches_reference_hand_fixture(bm25_only):
    corpus = make_corpus(["kiss and tell", "tell me more tell", "archer stories"])
    index = build_index(corpus)
    docs = {p.id: list(p.tokens.tokens) for p in corpus.passages}
    q = tokenize("tell archer")
    ref = bm25_reference(q.tokens, docs)
    for pid in docs:
        got = hybrid_score(index, q, pid)
        assert got == pytest.approx(ref[pid], abs=1e-9)


def test_hybrid_score_identical_passages_tie(bm25_only):
    corpus = make_corpus(["kiss and tell", "kiss and tell"])
    index = build_index(corpus)
    q = tokenize("kiss")
    assert hybrid_score(index, q, "p0") == hybrid_score(index, q, "p1")


def test_hybrid_score_unknown_passage():
    corpus = make_corpus(["kiss and tell"])
    index = build_index(corpus)
    with pytest.raises(KeyError):
        hybrid_score(index, tokenize("kiss"), "nope")


def test_hybrid_score_title_channel_rewards_title_match(monkeypatch):
    corpus = make_corpus(
        ["plot summary here", "plot summary here"],
        titles=["Kiss and Tell", "Something Else"],
    )
    index = build_index(corpus)
    q = tokenize("kiss and tell")
    assert hybrid_score(index, q, "p0") > hybrid_score(index, q, "p1")
    # with the title channel off the two bodies tie
    monkeypatch.setattr(retrieval, "TITLE_WEIGHT", 0.0)
    assert hybrid_score(index, q, "p0") == hybrid_score(index, q, "p1")


def test_bm25_reference_agreement_randomized(bm25_only):
    rng = np.random.default_rng(17)
    for _ in range(25):
        corpus = random_corpus(rng, int(rng.integers(2, 15)))
        index = build_index(corpus)
        q = tokenize(" ".join(rng.choice(["red", "fish", "kiss", "lamp", "zebra"], size=3)))
        docs = {p.id: list(p.tokens.tokens) for p in corpus.passages}
        ref = bm25_reference(q.tokens, docs)
        for pid in docs:
            assert hybrid_score(index, q, pid) == pytest.approx(ref[pid], abs=1e-9)


@pytest.mark.parametrize("title_weight", [0.5, 1.0, 2.0])
def test_hybrid_score_title_channel_matches_brute_force(title_weight, monkeypatch):
    monkeypatch.setattr(retrieval, "TITLE_WEIGHT", title_weight)
    words = ["red", "blue", "green", "fish", "river", "stone", "lamp", "archer", "tell", "kiss"]
    rng = np.random.default_rng(29)
    for _ in range(25):
        n_docs = int(rng.integers(2, 15))
        texts = [" ".join(rng.choice(words, size=int(rng.integers(2, 12)))) for _ in range(n_docs)]
        # titles draw from the body vocabulary, so both channels share terms
        titles = [" ".join(rng.choice(words, size=int(rng.integers(1, 4)))) for _ in range(n_docs)]
        corpus = make_corpus(texts, titles)
        index = build_index(corpus)
        q = tokenize(" ".join(rng.choice(words[:6] + ["zebra"], size=int(rng.integers(1, 5)))))
        bm25 = bm25_reference(q.tokens, {p.id: list(p.tokens.tokens) for p in corpus.passages})
        cosine = title_cosine_reference(
            q.tokens, {p.id: list(tokenize(p.title).tokens) for p in corpus.passages}
        )
        scores = {}
        for p in corpus.passages:
            scores[p.id] = hybrid_score(index, q, p.id)
            assert scores[p.id] == pytest.approx(bm25[p.id] + title_weight * cosine[p.id], abs=1e-9)
        ranked = sorted((item for item in scores.items() if item[1] > 0), key=lambda item: (-item[1], item[0]))
        results = retrieve_start_passages(index, q, n_docs + 1)
        assert [(r.passage_id, r.score) for r in results] == ranked


def test_bm25_monotone_in_term_frequency(bm25_only):
    # same doc length, increasing tf of the query term
    corpus = make_corpus(["kiss pad pad pad", "kiss kiss pad pad", "kiss kiss kiss pad"])
    index = build_index(corpus)
    q = tokenize("kiss")
    scores = [hybrid_score(index, q, f"p{i}") for i in range(3)]
    assert scores[0] < scores[1] < scores[2]


def test_retrieve_corpus_smaller_than_k():
    corpus = make_corpus(["kiss and tell", "kiss me", "tell all"])
    index = build_index(corpus)
    results = retrieve_start_passages(index, tokenize("kiss tell"), 10)
    assert len(results) == 3
    assert [r.rank for r in results] == [1, 2, 3]


def test_retrieve_order_by_term_frequency(bm25_only):
    corpus = make_corpus(["kiss pad pad pad", "kiss kiss pad pad"])
    index = build_index(corpus)
    results = retrieve_start_passages(index, tokenize("kiss"), 2)
    assert results[0].passage_id == "p1"


def test_retrieve_tie_break_by_id():
    corpus = make_corpus(["kiss and tell", "kiss and tell"])
    index = build_index(corpus)
    results = retrieve_start_passages(index, tokenize("kiss"), 2)
    assert [r.passage_id for r in results] == ["p0", "p1"]


def test_retrieve_k_below_one_is_error():
    corpus = make_corpus(["kiss"])
    index = build_index(corpus)
    with pytest.raises(ValidationError):
        retrieve_start_passages(index, tokenize("kiss"), 0)


def test_retrieve_never_returns_zero_scores():
    corpus = make_corpus(["kiss and tell", "nothing relevant"])
    index = build_index(corpus)
    results = retrieve_start_passages(index, tokenize("kiss"), 5)
    assert all(r.score > 0 for r in results)
    assert {r.passage_id for r in results} == {"p0"}


def test_retrieve_prefix_property_randomized():
    rng = np.random.default_rng(23)
    for _ in range(20):
        corpus = random_corpus(rng, int(rng.integers(3, 20)))
        index = build_index(corpus)
        q = tokenize(" ".join(rng.choice(["red", "blue", "fish", "stone"], size=4)))
        previous = []
        for k in range(1, 8):
            ids = [r.passage_id for r in retrieve_start_passages(index, q, k)]
            assert ids[: len(previous)] == previous
            previous = ids


# --- the flat-array scorer and linker against the posting-at-a-time walk ----
#
# reference_retrieval counts postings maps from the corpus and walks them and
# the titles one at a time; the package scores with array operations that
# must keep its exact bits, so every comparison here is ==, never approx.
# The package reads its weights from the module constants at call time, so
# each WEIGHTS set is patched onto them and passed to the reference.

WORDS = ["red", "blue", "green", "fish", "river", "stone", "lamp", "archer", "tell", "kiss", "new", "york"]
WEIGHTS = [
    dict(k1=k1, b=b, title_weight=title_weight)
    for k1, b in [(1.2, 0.75), (0.5, 1.0), (2.0, 0.3)]
    for title_weight in (0.0, 1.0, 2.5)
]


def synthetic_corpus(rng):
    """Passages whose ids are shuffled against their order, so that corpus
    order and id order disagree, with duplicated passages for score ties,
    a title with no base token and one that repeats a token."""
    n = int(rng.integers(3, 25))
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 14)))) for _ in range(n)]
    titles = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 6)))) + f" ({i})" for i in range(n)]
    for i in rng.choice(n, size=min(n, 3), replace=False):
        j = int(rng.integers(n))
        texts[i] = texts[j]
        titles[i] = titles[j].split("(")[0] + f"({i})"
    titles[0] = "(1999 film)"
    titles[-1] = "Red Red River"
    ids = [f"p{int(x)}" for x in rng.permutation(n) * 7]
    passages = [Passage(id=pid, title=t, text=x, tokens=tokenize(x)) for pid, t, x in zip(ids, titles, texts)]
    return Corpus(tuple(passages), {p.title: p for p in passages}, {p.id: p for p in passages})


def synthetic_questions(rng, count):
    """Repeated and out-of-vocabulary tokens included."""
    return [
        " ".join(rng.choice(WORDS + ["zebra", "quartz"], size=int(rng.integers(1, 9)))) for _ in range(count)
    ]


def assert_matches_reference(monkeypatch, index, reference, question_texts, weights):
    monkeypatch.setattr(retrieval, "K1", weights["k1"])
    monkeypatch.setattr(retrieval, "B", weights["b"])
    monkeypatch.setattr(retrieval, "TITLE_WEIGHT", weights["title_weight"])
    for text in question_texts:
        q = tokenize(text)
        assert hybrid_scores(index, q) == reference_retrieval.hybrid_scores(reference, q, **weights)
        # the reference's top k is the first k of its whole ranking
        ranked = reference_retrieval.retrieve_start_passages(reference, q, index.N, **weights)
        for k in range(1, index.N + 2):
            got = retrieve_start_passages(index, q, k)
            assert [(r.passage_id, r.score) for r in got] == ranked[:k]
            assert [r.rank for r in got] == list(range(1, len(got) + 1))


@pytest.mark.parametrize("seed", range(6))
def test_scores_and_rankings_equal_the_reference_walk(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    corpus = synthetic_corpus(rng)
    questions = synthetic_questions(rng, 8)
    index, reference = build_index(corpus), reference_retrieval.Index(corpus)
    for weights in WEIGHTS:
        assert_matches_reference(monkeypatch, index, reference, questions, weights)


def test_fixture_scores_and_rankings_equal_the_reference_walk(fixture_dir):
    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    questions = [
        q.question
        for name in ("train_questions.jsonl", "dev_questions.jsonl")
        for q in load_questions(fixture_dir / name)
    ]
    index, reference = build_index(corpus), reference_retrieval.Index(corpus)
    for text in questions:
        q = tokenize(text)
        assert hybrid_scores(index, q) == reference_retrieval.hybrid_scores(reference, q)
        got = retrieve_start_passages(index, q, 10)
        assert [(r.passage_id, r.score) for r in got] == reference_retrieval.retrieve_start_passages(reference, q, 10)


def assert_postings_equal_the_reference(index, reference):
    """Per field, the index holds exactly the postings and lengths counted
    from the corpus: terms in first-occurrence order, each term's passages in
    corpus order, every tf and length a whole number."""
    for field, counted in ((index.body, reference.body), (index.title, reference.title)):
        assert list(field.term_id.values()) == list(range(len(field.term_id)))
        bounds = field.bounds.tolist()
        postings = {
            term: list(zip(map(index.ids.__getitem__, field.rows[bounds[t] : bounds[t + 1]].tolist()),
                           field.tf[bounds[t] : bounds[t + 1]].tolist()))
            for term, t in field.term_id.items()
        }
        assert list(postings.items()) == [(term, list(per_doc.items())) for term, per_doc in counted.postings.items()]
        assert list(zip(index.ids, field.length.tolist())) == list(counted.doc_len.items())


@pytest.mark.parametrize("seed", range(4))
def test_index_equals_the_corpus_counted_postings(seed):
    corpus = synthetic_corpus(np.random.default_rng(seed))
    assert_postings_equal_the_reference(build_index(corpus), reference_retrieval.Index(corpus))


def test_fixture_index_equals_the_corpus_counted_postings(fixture_dir):
    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    assert_postings_equal_the_reference(build_index(corpus), reference_retrieval.Index(corpus))


@pytest.mark.parametrize(
    "texts, the_rows",
    [
        (["the kiss and tell", "", "the the archer", "tell the river"], [0, 2, 3]),  # a zero-length row
        (["the kiss", "the the archer", "tell the river", "the"], [0, 1, 2, 3]),  # a body term of df N
    ],
    ids=["empty-text", "term-in-every-text"],
)
def test_index_edges_equal_the_reference(texts, the_rows, monkeypatch):
    # "film" is in every title, so the title field holds a term of df N too
    corpus = make_corpus(texts, titles=["Kiss (film)", "Empty (film)", "Film", "River film"])
    reference = reference_retrieval.Index(corpus)
    questions = ["the kiss", "film", "the the tell river film", "zebra"]
    index = build_index(corpus)
    assert_postings_equal_the_reference(index, reference)
    assert index.body.length.tolist() == [len(tokenize(text)) for text in texts]
    for field, term, rows in ((index.body, "the", the_rows), (index.title, "film", [0, 1, 2, 3])):
        t = field.term_id[term]
        assert field.rows[field.bounds[t] : field.bounds[t + 1]].tolist() == rows
    for weights in WEIGHTS:
        assert_matches_reference(monkeypatch, index, reference, questions, weights)
    arrays = {
        f"{name}.{attr}": getattr(field, attr)
        for name, field in (("body", index.body), ("title", index.title))
        for attr in ("bounds", "rows", "tf", "length")
    }
    arrays.update(id_rank=index.id_rank, title_norm=index.title_norm)
    assert {name: a.dtype for name, a in arrays.items()} == {
        name: np.dtype(np.float64 if name.endswith(("tf", "length", "norm")) else np.intp) for name in arrays
    }
    assert not [name for name, a in arrays.items() if a.flags.writeable]


@pytest.mark.parametrize("seed", range(8))
def test_linker_hits_equal_the_reference_walk(seed):
    rng = np.random.default_rng(seed)
    corpus = synthetic_corpus(rng)
    linker, reference = TitleTokenLinker(corpus), reference_retrieval.TitleTokenLinker(corpus)
    for text in synthetic_questions(rng, 40) + ["", "red red river", "red river"]:
        assert linker.link(tokenize(text)) == reference.link(text)


def test_fixture_linker_hits_equal_the_reference_walk(fixture_dir):
    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    linker, reference = TitleTokenLinker(corpus), reference_retrieval.TitleTokenLinker(corpus)
    linked = 0
    for name in ("train_questions.jsonl", "dev_questions.jsonl"):
        for q in load_questions(fixture_dir / name):
            hits = linker.link(q.question_tokens)
            assert hits == reference.link(q.question)
            linked += len(hits)
    assert linked > 0


def test_linker_scores_repeated_tokens_and_skips_empty_base_titles():
    corpus = make_corpus(["a", "b", "c"], titles=["Red Red River", "River", "(1999 film)"])
    hits = TitleTokenLinker(corpus).link(tokenize("the red river"))
    # every distinct token must match; the score counts repeats
    assert hits == [("Red Red River", 3.0), ("River", 1.0)]
    assert TitleTokenLinker(corpus).link(tokenize("red")) == []


def test_index_and_linker_arrays_are_read_only():
    corpus = make_corpus(["kiss and tell", "tell me more"], titles=["Kiss", "Tell"])
    index = build_index(corpus)
    arrays = [getattr(f, name) for f in (index.body, index.title) for name in ("bounds", "rows", "tf", "length")]
    linker = TitleTokenLinker(corpus)
    arrays += [index.id_rank, index.title_norm, linker._bounds, linker._rows, linker._distinct]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
        with pytest.raises(ValueError, match="read-only"):
            array += 0


def test_bm25_constants_keep_every_denominator_positive():
    # 1 - B + B * len / avg stays positive for every passage length only for
    # 0 < B <= 1, and K1 > 0 keeps a one-occurrence term's denominator above 0
    assert 0.0 < retrieval.B <= 1.0
    assert retrieval.K1 > 0.0
