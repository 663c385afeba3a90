"""Inverted index and hybrid lexical retrieval of start passages.

Scoring is BM25 over passage bodies plus a weighted tf-idf cosine over
title tokens, both accumulated term at a time from one postings map per
field. The index is immutable after build; concurrent scoring over
questions is safe.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, TokenSeq, tokenize
from .errors import ValidationError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_TITLE_WEIGHT = 1.0


@dataclass(frozen=True)
class FieldIndex:
    """Postings of one indexed field (body or title) and the statistics
    derived from them."""

    postings: dict[str, dict[str, int]]  # term -> passage_id -> tf
    doc_len: dict[str, int]
    avg_doc_len: float
    N: int
    df: dict[str, int]
    norm: dict[str, float]  # passage_id -> length of its tf-idf vector, absent if empty


@dataclass(frozen=True)
class InvertedIndex:
    body: FieldIndex
    title: FieldIndex

    @property
    def N(self) -> int:
        return self.body.N


@dataclass(frozen=True)
class RetrievalResult:
    passage_id: str
    score: float
    rank: int


def bm25_idf(N: int, df: int) -> float:
    return math.log((N - df + 0.5) / (df + 0.5) + 1.0)


def _smooth_idf(N: int, df: int) -> float:
    # smoothed positive idf for the tf-idf title channel
    return math.log((1.0 + N) / (1.0 + df)) + 1.0


def _field(postings: dict[str, dict[str, int]], doc_len: dict[str, int]) -> FieldIndex:
    """Derive df, N, the average length and the tf-idf vector norms from the
    postings, for a built and a loaded index alike (a file's stored statistics
    are not read). Each norm sums its squares in the postings' term order."""
    N = len(doc_len)
    df = {term: len(per_doc) for term, per_doc in postings.items()}
    squares: dict[str, float] = {}
    for term, per_doc in postings.items():
        idf = _smooth_idf(N, df[term])
        for pid, tf in per_doc.items():
            w = tf * idf
            squares[pid] = squares.get(pid, 0.0) + w * w
    norm = {pid: math.sqrt(s) for pid, s in squares.items()}
    avg = sum(doc_len.values()) / N if N else 0.0
    return FieldIndex(postings, doc_len, avg, N, df, norm)


def _build_field(texts: dict[str, TokenSeq]) -> FieldIndex:
    postings: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for pid, toks in texts.items():
        doc_len[pid] = len(toks)
        for term, tf in Counter(toks.tokens).items():
            postings.setdefault(term, {})[pid] = tf
    return _field(postings, doc_len)


def build_index(corpus: Corpus) -> InvertedIndex:
    if len(corpus) == 0:
        raise ValidationError("cannot build an index over an empty corpus")
    body = _build_field({p.id: p.tokens for p in corpus.passages})
    title = _build_field({p.id: tokenize(p.title) for p in corpus.passages})
    return InvertedIndex(body, title)


def hybrid_scores(
    index: InvertedIndex,
    question: TokenSeq,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    title_weight: float = DEFAULT_TITLE_WEIGHT,
) -> dict[str, float]:
    """BM25 over the passage body plus title_weight * tf-idf cosine over the
    title, for every passage sharing a term with the question (others score 0),
    accumulated term at a time from the postings of the question's terms.

    BM25 sums over question token occurrences, in question order, with
    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1); the title channel sums over
    distinct question terms in first-occurrence order.
    """
    body = index.body
    scores: dict[str, float] = {}
    for term in question.tokens:
        idf = bm25_idf(body.N, body.df.get(term, 0))
        for pid, tf in body.postings.get(term, {}).items():
            denom = tf + k1 * (1.0 - b + b * body.doc_len[pid] / body.avg_doc_len)
            scores[pid] = scores.get(pid, 0.0) + idf * tf * (k1 + 1.0) / denom
    if title_weight == 0.0:
        return scores
    title = index.title
    dots: dict[str, float] = {}
    q_squares = 0.0
    for term, count in Counter(question.tokens).items():
        idf = _smooth_idf(title.N, title.df.get(term, 0))
        w = count * idf
        q_squares += w * w
        for pid, tf in title.postings.get(term, {}).items():
            dots[pid] = dots.get(pid, 0.0) + w * (tf * idf)
    qn = math.sqrt(q_squares)
    for pid, dot in dots.items():
        scores[pid] = scores.get(pid, 0.0) + title_weight * (dot / (qn * title.norm[pid]))
    return scores


def hybrid_score(
    index: InvertedIndex,
    question: TokenSeq,
    passage_id: str,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    title_weight: float = DEFAULT_TITLE_WEIGHT,
) -> float:
    """One passage's entry of hybrid_scores."""
    if passage_id not in index.body.doc_len:
        raise KeyError(f"unknown passage id {passage_id!r}")
    return hybrid_scores(index, question, k1=k1, b=b, title_weight=title_weight).get(passage_id, 0.0)


def _field_to_dict(field: FieldIndex) -> dict:
    return {
        "postings": {t: [[pid, tf] for pid, tf in per_doc.items()] for t, per_doc in field.postings.items()},
        "doc_len": field.doc_len,
        "avg_doc_len": field.avg_doc_len,
        "N": field.N,
        "df": field.df,
    }


def _field_from_dict(d: dict) -> FieldIndex:
    postings = {t: {pid: int(tf) for pid, tf in plist} for t, plist in d["postings"].items()}
    return _field(postings, {pid: int(v) for pid, v in d["doc_len"].items()})


def index_to_dict(index: InvertedIndex) -> dict:
    return {"body": _field_to_dict(index.body), "title": _field_to_dict(index.title)}


def index_from_dict(d: dict) -> InvertedIndex:
    return InvertedIndex(body=_field_from_dict(d["body"]), title=_field_from_dict(d["title"]))


def retrieve_start_passages(
    index: InvertedIndex,
    question: TokenSeq,
    k: int,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    title_weight: float = DEFAULT_TITLE_WEIGHT,
) -> list[RetrievalResult]:
    """Top-k passages by hybrid score, descending, ties broken by passage id.

    Zero-score passages are never returned, so fewer than k results are
    possible on small corpora or rare-term questions.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scores = hybrid_scores(index, question, k1=k1, b=b, title_weight=title_weight)
    ranked = sorted((item for item in scores.items() if item[1] > 0.0), key=lambda item: (-item[1], item[0]))
    return [
        RetrievalResult(passage_id=pid, score=s, rank=i + 1)
        for i, (pid, s) in enumerate(ranked[:k])
    ]
