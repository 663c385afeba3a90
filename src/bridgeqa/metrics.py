"""Answer normalization, EM/F1, Hits@k, and per-run metric reports."""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field

from .errors import ValidationError

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation, drop the articles a/an/the, collapse whitespace."""
    s = s.lower()
    s = "".join(ch for ch in s if ch not in _PUNCT)
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def em_f1(prediction: str, gold: str) -> tuple[int, float]:
    """Exact match and multiset token-overlap F1 over normalized strings; F1 is
    0 when they differ and either is "yes", "no" or "noanswer", as in HotpotQA's
    evaluation. em_f1("", "") stays (1, 1.0): load_questions refuses an empty gold."""
    pred_norm = normalize_answer(prediction)
    gold_norm = normalize_answer(gold)
    em = int(pred_norm == gold_norm)
    if not pred_norm or not gold_norm or (not em and {pred_norm, gold_norm} & {"yes", "no", "noanswer"}):
        return em, float(em)
    pred_tokens = pred_norm.split()
    gold_tokens = gold_norm.split()
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return em, 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return em, 2 * precision * recall / (precision + recall)


def hits_at_k(ranked_titles, gold_title: str, k: int) -> int:
    if k < 1:
        raise ValidationError(f"hits_at_k: k must be >= 1, got {k}")
    return int(gold_title in list(ranked_titles)[:k])


@dataclass
class QuestionMetrics:
    qid: str
    qtype: str
    em: int
    f1: float
    prediction: str
    gold: str
    hits1: int | None = None
    hits10: int | None = None
    flags: list[str] = field(default_factory=list)


@dataclass
class MetricReport:
    """Per-question metrics plus aggregates, split into bridge-only and full
    views. Aggregates are None (and the report flagged empty) when no
    question was evaluated."""

    mode: str
    per_question: list[QuestionMetrics] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.per_question

    def _aggregate(self, rows: list[QuestionMetrics]) -> dict | None:
        if not rows:
            return None
        # fsum keeps aggregates exactly permutation-invariant
        agg = {
            "n": len(rows),
            "em": math.fsum(r.em for r in rows) / len(rows),
            "f1": math.fsum(r.f1 for r in rows) / len(rows),
        }
        with_hits = [r for r in rows if r.hits10 is not None]
        if with_hits:
            agg["hits1"] = math.fsum(r.hits1 for r in with_hits) / len(with_hits)
            agg["hits10"] = math.fsum(r.hits10 for r in with_hits) / len(with_hits)
            agg["n_hits"] = len(with_hits)
        return agg

    def aggregates(self) -> dict:
        bridge = [r for r in self.per_question if r.qtype == "bridge"]
        return {
            "mode": self.mode,
            "empty": self.empty,
            "full": self._aggregate(self.per_question),
            "bridge_only": self._aggregate(bridge),
            "n_skipped": len(self.skipped),
        }
