"""Retrieval and entity linking walked one posting and one title at a time:
the plain reference that retrieval's flat-array scorer and
bridge.TitleTokenLinker are checked against, bit for bit.

Its postings maps are counted from the corpus by brute force (a Counter per
passage), never read from the index under test. The scorer accumulates
BM25 term at a time over question token occurrences in question order, and
the title cosine over distinct question terms in first-occurrence order,
with each title norm summed in the postings' term order."""

from __future__ import annotations

import math
from collections import Counter

from bridgeqa.corpus import Corpus, TokenSeq, tokenize
from bridgeqa.retrieval import bm25_idf


def _smooth_idf(N: int, df: int) -> float:
    return math.log((1.0 + N) / (1.0 + df)) + 1.0


class Field:
    """postings: term -> passage id -> tf, terms in first-occurrence order
    over the passages in corpus order; doc_len: passage id -> length."""

    def __init__(self, texts: dict[str, tuple[str, ...]]):
        self.postings: dict[str, dict[str, int]] = {}
        self.doc_len = {pid: len(tokens) for pid, tokens in texts.items()}
        for pid, tokens in texts.items():
            for term, tf in Counter(tokens).items():
                self.postings.setdefault(term, {})[pid] = tf
        self.N = len(self.doc_len)
        self.avg_doc_len = sum(self.doc_len.values()) / self.N


class Index:
    def __init__(self, corpus: Corpus):
        self.body = Field({p.id: p.tokens.tokens for p in corpus.passages})
        self.title = Field({p.id: tokenize(p.title).tokens for p in corpus.passages})
        self.N = len(corpus.passages)


def title_norms(postings: dict[str, dict[str, int]], N: int) -> dict[str, float]:
    """passage_id -> length of its tf-idf vector, absent if the field is empty."""
    squares: dict[str, float] = {}
    for per_doc in postings.values():
        idf = _smooth_idf(N, len(per_doc))
        for pid, tf in per_doc.items():
            w = tf * idf
            squares[pid] = squares.get(pid, 0.0) + w * w
    return {pid: math.sqrt(s) for pid, s in squares.items()}


def hybrid_scores(
    index: Index, question: TokenSeq, *, k1: float = 1.2, b: float = 0.75, title_weight: float = 1.0
) -> dict[str, float]:
    body = index.body
    scores: dict[str, float] = {}
    for term in question.tokens:
        per_doc = body.postings.get(term, {})
        idf = bm25_idf(body.N, len(per_doc))
        for pid, tf in per_doc.items():
            denom = tf + k1 * (1.0 - b + b * body.doc_len[pid] / body.avg_doc_len)
            scores[pid] = scores.get(pid, 0.0) + idf * tf * (k1 + 1.0) / denom
    if title_weight == 0.0:
        return scores
    title = index.title
    norm = title_norms(title.postings, title.N)
    dots: dict[str, float] = {}
    q_squares = 0.0
    for term, count in Counter(question.tokens).items():
        per_doc = title.postings.get(term, {})
        idf = _smooth_idf(title.N, len(per_doc))
        w = count * idf
        q_squares += w * w
        for pid, tf in per_doc.items():
            dots[pid] = dots.get(pid, 0.0) + w * (tf * idf)
    qn = math.sqrt(q_squares)
    for pid, dot in dots.items():
        scores[pid] = scores.get(pid, 0.0) + title_weight * (dot / (qn * norm[pid]))
    return scores


def retrieve_start_passages(index: Index, question: TokenSeq, k: int, **weights) -> list[tuple[str, float]]:
    """(passage_id, score) of the top k, descending score, ties by id."""
    scores = hybrid_scores(index, question, **weights)
    ranked = sorted((item for item in scores.items() if item[1] > 0.0), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


class TitleTokenLinker:
    """Tests every title against the question's token set."""

    def __init__(self, corpus: Corpus):
        self._entries = []
        for p in corpus.passages:
            toks = tuple(tokenize(p.title.split("(")[0]).tokens)
            if toks:
                self._entries.append((p.title, toks))

    def link(self, question: str) -> list[tuple[str, float]]:
        q_tokens = set(tokenize(question).tokens)
        hits = [(title, float(len(toks))) for title, toks in self._entries if all(t in q_tokens for t in toks)]
        hits.sort(key=lambda item: (-item[1], item[0]))
        return hits
