"""Inverted index and hybrid lexical retrieval of start passages.

Scoring is BM25 over passage bodies plus a weighted tf-idf cosine over
title tokens. Each field keeps its postings map (term -> passage id -> tf,
the form `index.json` stores) and also lays it out flat: passages are rows
in document order, and term t's postings are the slice
bounds[t]:bounds[t + 1] of a passage-row array and a tf array. A question
is scored with a fixed number of array operations whatever its length:
gather the slices of its terms in question order, weigh each gathered
posting, and sum the weights per row with np.bincount. bincount adds in
input order, so each passage's score sums its terms in the order a
term-at-a-time walk of the postings maps does and keeps that walk's exact
bits (tests/reference_retrieval.py holds the walk). Ranking takes the
positive scores, descending, ties broken by passage id.

The index is immutable after build, its arrays read-only; concurrent
scoring over questions is safe.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .config import PipelineConfig
from .corpus import Corpus, TokenSeq, tokenize
from .errors import ValidationError


@dataclass(frozen=True)
class FieldIndex:
    """Postings of one indexed field (body or title), their flat layout and
    the statistics derived from them."""

    postings: dict[str, dict[str, int]]  # term -> passage_id -> tf
    doc_len: dict[str, int]  # passage_id -> length, in row order
    avg_doc_len: float
    N: int
    df: dict[str, int]
    term_id: dict[str, int]  # term -> its slot in bounds, in postings order
    bounds: np.ndarray  # (V + 1,) term t's postings are bounds[t]:bounds[t + 1]
    rows: np.ndarray  # the passage row of each posting
    tf: np.ndarray  # the term frequency of each posting, as a float
    length: np.ndarray  # (N,) doc_len by row, as floats


@dataclass(frozen=True)
class InvertedIndex:
    body: FieldIndex
    title: FieldIndex
    ids: tuple[str, ...] = field(init=False)  # passage id of each row
    id_rank: np.ndarray = field(init=False)  # each row's place in passage-id order
    title_norm: np.ndarray = field(init=False)  # each row's title tf-idf vector length, 0 if empty

    def __post_init__(self):
        ids = tuple(self.body.doc_len)
        if ids != tuple(self.title.doc_len):
            raise ValidationError("index fields list different passages or orders")
        rank = np.empty(len(ids), dtype=np.intp)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "id_rank", _read_only(rank))
        object.__setattr__(self, "title_norm", _read_only(_tf_idf_norms(self.title)))

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _field(postings: dict[str, dict[str, int]], doc_len: dict[str, int]) -> FieldIndex:
    """Derive df, N, the average length and the flat layout from the
    postings, for a built and a loaded index alike (a file stores only the
    postings and lengths). The layout follows the postings' term order."""
    N = len(doc_len)
    row_of = {pid: row for row, pid in enumerate(doc_len)}
    per_docs = postings.values()
    df = dict(zip(postings, map(len, per_docs)))
    counts = list(df.values())
    bounds = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    rows = np.fromiter(map(row_of.__getitem__, chain.from_iterable(per_docs)), np.intp, bounds[-1])
    tf = np.fromiter(chain.from_iterable(map(dict.values, per_docs)), np.float64, bounds[-1])
    length = np.fromiter(doc_len.values(), np.float64, N)
    avg = sum(doc_len.values()) / N if N else 0.0
    term_id = dict(zip(postings, range(len(counts))))
    return FieldIndex(postings, doc_len, avg, N, df, term_id, *map(_read_only, (bounds, rows, tf, length)))


def _tf_idf_norms(field: FieldIndex) -> np.ndarray:
    """Each row's tf-idf vector length; the squares sum in the postings'
    term order, as bincount adds in input order."""
    counts = np.diff(field.bounds)
    w = field.tf * np.repeat([_smooth_idf(field.N, n) for n in counts.tolist()], counts)
    return np.sqrt(np.bincount(field.rows, weights=w * w, minlength=field.N))


def gather_slices(bounds: np.ndarray, term_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the given terms' postings, term after term in the given
    order, and how many each term has; term_ids must not be empty."""
    t = np.array(term_ids, dtype=np.intp)
    starts = bounds[t]
    counts = bounds[t + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts), counts


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


def _row_scores(
    index: InvertedIndex, question: TokenSeq, k1: float, b: float, title_weight: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every row's hybrid score (0 where the question shares no term), and
    the rows of the postings gathered, so the rows the question touches."""
    if not 0.0 < b <= 1.0:
        # 1 - b + b * len / avg must stay positive for every passage length
        raise ValidationError(f"BM25 b must lie in (0, 1], got {b!r}")
    body = index.body
    scores = np.zeros(body.N)
    touched = []
    terms = [term for term in question.tokens if term in body.term_id]
    if terms:
        pos, counts = gather_slices(body.bounds, [body.term_id[term] for term in terms])
        rows = body.rows[pos]
        tf = body.tf[pos]
        idf = np.repeat([bm25_idf(body.N, body.df[term]) for term in terms], counts)
        denom = tf + k1 * (1.0 - b + b * body.length[rows] / body.avg_doc_len)
        scores = np.bincount(rows, weights=idf * tf * (k1 + 1.0) / denom, minlength=body.N)
        touched.append(rows)
    if title_weight == 0.0:
        return scores, touched
    title = index.title
    q_squares = 0.0
    ids, weights, idfs = [], [], []
    for term, count in Counter(question.tokens).items():
        idf_t = _smooth_idf(title.N, title.df.get(term, 0))
        w = count * idf_t
        q_squares += w * w
        if term in title.term_id:
            ids.append(title.term_id[term])
            weights.append(w)
            idfs.append(idf_t)
    if ids:
        pos, counts = gather_slices(title.bounds, ids)
        rows = title.rows[pos]
        products = np.repeat(weights, counts) * (title.tf[pos] * np.repeat(idfs, counts))
        dots = np.bincount(rows, weights=products, minlength=title.N)
        hit = np.flatnonzero(dots)
        scores[hit] += title_weight * (dots[hit] / (math.sqrt(q_squares) * index.title_norm[hit]))
        touched.append(rows)
    return scores, touched


def hybrid_scores(
    index: InvertedIndex,
    question: TokenSeq,
    *,
    k1: float = PipelineConfig.k1,
    b: float = PipelineConfig.b,
    title_weight: float = PipelineConfig.title_weight,
) -> dict[str, float]:
    """BM25 over the passage body plus title_weight * tf-idf cosine over the
    title, for every passage sharing a term with the question (others score 0).

    BM25 sums over question token occurrences, in question order, with
    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1); the title channel sums over
    distinct question terms in first-occurrence order.
    """
    scores, touched = _row_scores(index, question, k1, b, title_weight)
    if not touched:
        return {}
    rows = np.unique(np.concatenate(touched))
    return dict(zip((index.ids[row] for row in rows.tolist()), scores[rows].tolist()))


def hybrid_score(
    index: InvertedIndex,
    question: TokenSeq,
    passage_id: str,
    *,
    k1: float = PipelineConfig.k1,
    b: float = PipelineConfig.b,
    title_weight: float = PipelineConfig.title_weight,
) -> float:
    """One passage's entry of hybrid_scores."""
    if passage_id not in index.body.doc_len:
        raise KeyError(f"unknown passage id {passage_id!r}")
    return hybrid_scores(index, question, k1=k1, b=b, title_weight=title_weight).get(passage_id, 0.0)


def _field_to_dict(field: FieldIndex) -> dict:
    return {
        "postings": {t: [[pid, tf] for pid, tf in per_doc.items()] for t, per_doc in field.postings.items()},
        "doc_len": field.doc_len,
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
    k1: float = PipelineConfig.k1,
    b: float = PipelineConfig.b,
    title_weight: float = PipelineConfig.title_weight,
) -> list[RetrievalResult]:
    """Top-k passages by hybrid score, descending, ties broken by passage id.

    Zero-score passages are never returned, so fewer than k results are
    possible on small corpora or rare-term questions.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scores, _ = _row_scores(index, question, k1, b, title_weight)
    rows = np.flatnonzero(scores > 0.0)
    # lexsort's last key is the primary one
    top = rows[np.lexsort((index.id_rank[rows], -scores[rows]))][:k]
    return [
        RetrievalResult(passage_id=index.ids[row], score=score, rank=i + 1)
        for i, (row, score) in enumerate(zip(top.tolist(), scores[top].tolist()))
    ]
