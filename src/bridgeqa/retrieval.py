"""Inverted index and hybrid lexical retrieval of start passages.

Scoring is BM25 over passage bodies plus a weighted tf-idf cosine over
title tokens. Each field holds its postings once, laid out flat: passages
are rows in document order, and term t's postings are the slice
bounds[t]:bounds[t + 1] of a passage-row array and a tf array, so the
slice's length is t's document frequency. A build counts a field's
postings in one array pass. The index is a pure function of the corpus,
built in memory and never written. A
question is scored with a fixed number of array operations whatever its
length: gather the slices of its terms in question order, weigh each
gathered posting, and sum the weights per row with np.bincount. bincount adds in input order, so each passage's
score sums its terms in the order a term-at-a-time walk of the postings
does and keeps that walk's exact bits (tests/reference_retrieval.py holds
the walk, over postings counted from the corpus). Every term of a score is
positive, so the passages a question touches are exactly those scoring
above 0. Ranking takes the positive scores, descending, ties broken by
passage id.

The index is immutable after build, its arrays read-only; concurrent
scoring over questions is safe.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import Corpus, TokenSeq
from .errors import ValidationError

# BM25's saturation and length normalisation, and the title channel's weight;
# B must lie in (0, 1] so that 1 - B + B * len / avg stays positive
K1 = 1.2
B = 0.75
TITLE_WEIGHT = 1.0


@dataclass(frozen=True)
class FieldIndex:
    """The postings of one indexed field (body or title), laid out flat."""

    term_id: dict[str, int]  # term -> its slot in bounds, in postings order
    bounds: np.ndarray  # (V + 1,) term t's postings are bounds[t]:bounds[t + 1]
    rows: np.ndarray  # the passage row of each posting
    tf: np.ndarray  # the term frequency of each posting, as a float
    length: np.ndarray  # (N,) each row's token count, as a float
    avg_doc_len: float

    @property
    def N(self) -> int:
        return len(self.length)


@dataclass(frozen=True)
class InvertedIndex:
    ids: tuple[str, ...]  # passage id of each row
    body: FieldIndex
    title: FieldIndex
    id_rank: np.ndarray = field(init=False)  # each row's place in passage-id order
    title_norm: np.ndarray = field(init=False)  # each row's title tf-idf vector length, 0 if empty

    def __post_init__(self):
        rank = np.empty(len(self.ids), dtype=np.intp)
        rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))
        object.__setattr__(self, "id_rank", _read_only(rank))
        object.__setattr__(self, "title_norm", _read_only(_tf_idf_norms(self.title)))

    @property
    def N(self) -> int:
        return len(self.ids)


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


def _bounds(counts) -> np.ndarray:
    """Read-only slice bounds of consecutive groups of the given sizes."""
    bounds = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    return _read_only(bounds)


def flat_layout(groups: dict[str, Collection[int]]) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Lay out key -> rows groups flat, in group order: each key's id, and
    read-only bounds and rows such that key k's rows are
    rows[bounds[k]:bounds[k + 1]]."""
    bounds = _bounds(list(map(len, groups.values())))
    rows = np.fromiter(chain.from_iterable(groups.values()), np.intp, bounds[-1])
    return dict(zip(groups, range(len(groups)))), bounds, _read_only(rows)


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


def _build_field(texts: list[TokenSeq]) -> FieldIndex:
    """Postings counted in one array pass: terms get ids in first-occurrence
    order over the rows in order, and one np.unique over the (term, row) keys
    of every token sorts them term-major, rows ascending, counting each tf."""
    lengths = list(map(len, texts))
    tokens = list(chain.from_iterable(t.tokens for t in texts))
    term_id = {term: i for i, term in enumerate(dict.fromkeys(tokens))}
    terms = np.fromiter(map(term_id.__getitem__, tokens), np.int64, len(tokens))
    n_rows = np.int64(len(texts))
    keys, tf = np.unique(terms * n_rows + np.repeat(np.arange(n_rows), lengths), return_counts=True)
    bounds = _bounds(np.bincount(keys // n_rows, minlength=len(term_id)))
    rows = (keys % n_rows).astype(np.intp, copy=False)
    length = np.array(lengths, dtype=np.float64)
    return FieldIndex(
        term_id, bounds, _read_only(rows), _read_only(tf.astype(np.float64)), _read_only(length),
        sum(lengths) / len(lengths),
    )


def build_index(corpus: Corpus) -> InvertedIndex:
    if len(corpus) == 0:
        raise ValidationError("cannot build an index over an empty corpus")
    body = _build_field([p.tokens for p in corpus.passages])
    title = _build_field([p.title_tokens for p in corpus.passages])
    return InvertedIndex(tuple(p.id for p in corpus.passages), body, title)


def _row_scores(index: InvertedIndex, question: TokenSeq) -> np.ndarray:
    """Every row's hybrid score, 0 where the question shares no term. The
    counts gather_slices returns are the gathered terms' dfs."""
    body = index.body
    scores = np.zeros(index.N)
    ids = [body.term_id[term] for term in question.tokens if term in body.term_id]
    if ids:
        pos, counts = gather_slices(body.bounds, ids)
        rows = body.rows[pos]
        tf = body.tf[pos]
        idf = np.repeat([bm25_idf(index.N, df) for df in counts.tolist()], counts)
        denom = tf + K1 * (1.0 - B + B * body.length[rows] / body.avg_doc_len)
        scores = np.bincount(rows, weights=idf * tf * (K1 + 1.0) / denom, minlength=index.N)
    title = index.title
    terms = Counter(question.tokens)
    ids = [title.term_id[term] for term in terms if term in title.term_id]
    if not ids:
        return scores
    pos, counts = gather_slices(title.bounds, ids)
    dfs = iter(counts.tolist())
    q_squares = 0.0
    weights, idfs = [], []
    for term, count in terms.items():
        shared = term in title.term_id
        idf_t = _smooth_idf(index.N, next(dfs) if shared else 0)
        w = count * idf_t
        q_squares += w * w
        if shared:
            weights.append(w)
            idfs.append(idf_t)
    rows = title.rows[pos]
    products = np.repeat(weights, counts) * (title.tf[pos] * np.repeat(idfs, counts))
    dots = np.bincount(rows, weights=products, minlength=index.N)
    hit = np.flatnonzero(dots)
    scores[hit] += TITLE_WEIGHT * (dots[hit] / (math.sqrt(q_squares) * index.title_norm[hit]))
    return scores


def hybrid_scores(index: InvertedIndex, question: TokenSeq) -> dict[str, float]:
    """BM25 over the passage body (K1, B) plus TITLE_WEIGHT * tf-idf cosine
    over the title, for every passage sharing a term with the question
    (others score 0).

    BM25 sums over question token occurrences, in question order, with
    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1); the title channel sums over
    distinct question terms in first-occurrence order.
    """
    scores = _row_scores(index, question)
    rows = np.flatnonzero(scores > 0.0)
    return dict(zip(map(index.ids.__getitem__, rows.tolist()), scores[rows].tolist()))


def hybrid_score(index: InvertedIndex, question: TokenSeq, passage_id: str) -> float:
    """One passage's entry of hybrid_scores, at the module's K1, B and
    TITLE_WEIGHT."""
    if passage_id not in index.ids:
        raise KeyError(f"unknown passage id {passage_id!r}")
    return hybrid_scores(index, question).get(passage_id, 0.0)


def retrieve_start_passages(index: InvertedIndex, question: TokenSeq, k: int) -> list[RetrievalResult]:
    """Top-k passages by hybrid score (hybrid_scores), descending, ties
    broken by passage id.

    Zero-score passages are never returned, so fewer than k results are
    possible on small corpora or rare-term questions.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scores = _row_scores(index, question)
    rows = np.flatnonzero(scores > 0.0)
    # lexsort's last key is the primary one
    top = rows[np.lexsort((index.id_rank[rows], -scores[rows]))][:k]
    return [
        RetrievalResult(passage_id=index.ids[row], score=score, rank=i + 1)
        for i, (row, score) in enumerate(zip(top.tolist(), scores[top].tolist()))
    ]
