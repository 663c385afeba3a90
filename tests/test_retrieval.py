import math

import numpy as np
import pytest

from bridgeqa.corpus import Corpus, Passage, tokenize
from bridgeqa.errors import ValidationError
from bridgeqa.retrieval import (
    build_index,
    hybrid_score,
    index_from_dict,
    index_to_dict,
    retrieve_start_passages,
)


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
    for term, df in index.body.df.items():
        assert df == sum(1 for toks in docs.values() if term in toks)
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


def test_hybrid_score_matches_reference_hand_fixture():
    corpus = make_corpus(["kiss and tell", "tell me more tell", "archer stories"])
    index = build_index(corpus)
    docs = {p.id: list(p.tokens.tokens) for p in corpus.passages}
    q = tokenize("tell archer")
    ref = bm25_reference(q.tokens, docs)
    for pid in docs:
        got = hybrid_score(index, q, pid, title_weight=0.0)
        assert got == pytest.approx(ref[pid], abs=1e-9)


def test_hybrid_score_identical_passages_tie():
    corpus = make_corpus(["kiss and tell", "kiss and tell"])
    index = build_index(corpus)
    q = tokenize("kiss")
    assert hybrid_score(index, q, "p0", title_weight=0.0) == hybrid_score(
        index, q, "p1", title_weight=0.0
    )


def test_hybrid_score_unknown_passage():
    corpus = make_corpus(["kiss and tell"])
    index = build_index(corpus)
    with pytest.raises(KeyError):
        hybrid_score(index, tokenize("kiss"), "nope")


def test_hybrid_score_title_channel_rewards_title_match():
    corpus = make_corpus(
        ["plot summary here", "plot summary here"],
        titles=["Kiss and Tell", "Something Else"],
    )
    index = build_index(corpus)
    q = tokenize("kiss and tell")
    assert hybrid_score(index, q, "p0") > hybrid_score(index, q, "p1")
    # with the title channel off the two bodies tie
    assert hybrid_score(index, q, "p0", title_weight=0.0) == hybrid_score(
        index, q, "p1", title_weight=0.0
    )


def test_bm25_reference_agreement_randomized():
    rng = np.random.default_rng(17)
    for _ in range(25):
        corpus = random_corpus(rng, int(rng.integers(2, 15)))
        index = build_index(corpus)
        q = tokenize(" ".join(rng.choice(["red", "fish", "kiss", "lamp", "zebra"], size=3)))
        docs = {p.id: list(p.tokens.tokens) for p in corpus.passages}
        ref = bm25_reference(q.tokens, docs)
        for pid in docs:
            assert hybrid_score(index, q, pid, title_weight=0.0) == pytest.approx(
                ref[pid], abs=1e-9
            )


@pytest.mark.parametrize("title_weight", [0.5, 1.0, 2.0])
def test_hybrid_score_title_channel_matches_brute_force(title_weight):
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
            scores[p.id] = hybrid_score(index, q, p.id, title_weight=title_weight)
            assert scores[p.id] == pytest.approx(bm25[p.id] + title_weight * cosine[p.id], abs=1e-9)
        ranked = sorted((item for item in scores.items() if item[1] > 0), key=lambda item: (-item[1], item[0]))
        results = retrieve_start_passages(index, q, n_docs + 1, title_weight=title_weight)
        assert [(r.passage_id, r.score) for r in results] == ranked


def test_bm25_monotone_in_term_frequency():
    # same doc length, increasing tf of the query term
    corpus = make_corpus(["kiss pad pad pad", "kiss kiss pad pad", "kiss kiss kiss pad"])
    index = build_index(corpus)
    q = tokenize("kiss")
    scores = [hybrid_score(index, q, f"p{i}", title_weight=0.0) for i in range(3)]
    assert scores[0] < scores[1] < scores[2]


def test_retrieve_corpus_smaller_than_k():
    corpus = make_corpus(["kiss and tell", "kiss me", "tell all"])
    index = build_index(corpus)
    results = retrieve_start_passages(index, tokenize("kiss tell"), 10)
    assert len(results) == 3
    assert [r.rank for r in results] == [1, 2, 3]


def test_retrieve_order_by_term_frequency():
    corpus = make_corpus(["kiss pad pad pad", "kiss kiss pad pad"])
    index = build_index(corpus)
    results = retrieve_start_passages(index, tokenize("kiss"), 2, title_weight=0.0)
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


def test_index_serialization_round_trip():
    corpus = make_corpus(["kiss and tell", "tell me more", "archer stories"])
    index = build_index(corpus)
    again = index_from_dict(index_to_dict(index))
    q = tokenize("tell archer kiss")
    for p in corpus.passages:
        assert hybrid_score(again, q, p.id) == hybrid_score(index, q, p.id)
