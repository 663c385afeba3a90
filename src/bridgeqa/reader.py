"""Target passage reader: concatenate candidate answer passages into one
context (title blocks included, "yes"/"no" sentinels prefixed), train with an
answer-span loss plus an auxiliary title-span loss, and decode answer spans.

Reader training passages come from two-fold cross-prediction (the
cross-predict stage): a reasoner trained on one half of the questions
predicts passages for the other half, so the reader never trains on passages
predicted by a model that saw that question's label.

fit() is the minibatch Adam loop that trains both the reader and the bridge
reasoner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import Passage, QARecord, TokenSeq, tokenize
from .errors import ValidationError
from .metrics import em_f1, normalize_answer
from .numcore import ParamStore, Tensor, adam_step, add, backward, scale
from .span_model import SpanModel, SpanScores, run_span_model, span_nll_loss

SENTINELS = ("yes", "no")
DEFAULT_MAX_ANSWER_LEN = 30


@dataclass(frozen=True)
class TokenOrigin:
    kind: str  # "sentinel" | "title" | "text"
    passage_id: str | None
    char_start: int
    char_end: int


@dataclass
class ReaderContext:
    tokens: list[str]
    origins: list[TokenOrigin]
    passages: list[Passage]
    title_spans: dict[str, tuple[int, int]]  # passage id -> inclusive token span of its title block

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def titles(self) -> list[str]:
        return [p.title for p in self.passages]


def build_reader_context(passages: list[Passage], max_tokens: int | None = None) -> ReaderContext:
    """Concatenate [title tokens + passage tokens] blocks after the yes/no
    sentinels. Whole passages beyond the token cap are dropped."""
    tokens: list[str] = list(SENTINELS)
    origins: list[TokenOrigin] = [
        TokenOrigin("sentinel", None, 0, 0) for _ in SENTINELS
    ]
    used: list[Passage] = []
    title_spans: dict[str, tuple[int, int]] = {}
    for passage in passages:
        title_ts = tokenize(passage.title)
        body_ts = passage.tokens if passage.tokens is not None else tokenize(passage.text)
        block_len = len(title_ts) + len(body_ts)
        if max_tokens is not None and used and len(tokens) + block_len > max_tokens:
            break
        start = len(tokens)
        for tok, (cs, ce) in zip(title_ts.tokens, title_ts.char_offsets):
            tokens.append(tok)
            origins.append(TokenOrigin("title", passage.id, cs, ce))
        if title_ts.tokens:
            title_spans[passage.id] = (start, len(tokens) - 1)
        for tok, (cs, ce) in zip(body_ts.tokens, body_ts.char_offsets):
            tokens.append(tok)
            origins.append(TokenOrigin("text", passage.id, cs, ce))
        used.append(passage)
    return ReaderContext(tokens=tokens, origins=origins, passages=used, title_spans=title_spans)


def locate_answer_span(
    context: ReaderContext,
    answer: str,
    max_len: int = DEFAULT_MAX_ANSWER_LEN,
) -> tuple[int, int] | None:
    """First token window whose space-joined text normalizes to the normalized
    answer; earlier (then shorter) windows win, so earlier passages are
    preferred."""
    target = normalize_answer(answer)
    if not target:
        return None
    n_target_tokens = len(target.split())
    T = len(context.tokens)
    articles = ("a", "an", "the")
    for s in range(T):
        parts: list[str] = []
        non_article = 0
        for e in range(s, min(T, s + max_len)):
            tok = context.tokens[e]
            parts.append(tok)
            if tok not in articles:
                non_article += 1
            if non_article > n_target_tokens:
                break  # no longer window at this start can still match
            if normalize_answer(" ".join(parts)) == target:
                return (s, e)
    return None


@dataclass
class ReaderExample:
    question_id: str
    question: TokenSeq
    context: ReaderContext
    answer: str
    answer_span: tuple[int, int] | None = None
    title_span: tuple[int, int] | None = None
    predicted_by_fold: str | None = None


def make_reader_example(
    record: QARecord,
    passages: list[Passage],
    *,
    max_tokens: int | None = None,
    max_answer_len: int = DEFAULT_MAX_ANSWER_LEN,
    predicted_by_fold: str | None = None,
) -> tuple[ReaderExample | None, str | None]:
    """Build a training example; returns (None, reason) when the context does
    not contain the answer."""
    context = build_reader_context(passages, max_tokens=max_tokens)
    span = locate_answer_span(context, record.answer, max_len=max_answer_len)
    if span is None:
        return None, "answer not found in context"
    title_span = None
    origin = context.origins[span[0]]
    if origin.passage_id is not None:
        title_span = context.title_spans.get(origin.passage_id)
    example = ReaderExample(
        question_id=record.id,
        question=tokenize(record.question),
        context=context,
        answer=record.answer,
        answer_span=span,
        title_span=title_span,
        predicted_by_fold=predicted_by_fold,
    )
    return example, None


# ---------------------------------------------------------------------------
# folds


def two_fold_split(question_ids: list[str], seed: int) -> tuple[list[str], list[str]]:
    """Deterministic disjoint halves of the question ids (sizes differ by at
    most one)."""
    rng = np.random.default_rng([seed, 2])
    ids = sorted(question_ids)
    order = rng.permutation(len(ids))
    shuffled = [ids[int(i)] for i in order]
    half = (len(shuffled) + 1) // 2
    return sorted(shuffled[:half]), sorted(shuffled[half:])


# ---------------------------------------------------------------------------
# loss and decoding


def reader_loss(
    model: SpanModel,
    example: ReaderExample,
    aux_weight: float = 1.0,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, SpanScores]:
    """Answer-span NLL plus aux_weight times the title-span NLL, both over the
    full concatenated context. The auxiliary term is omitted when the example
    has no gold title span."""
    if example.answer_span is None:
        raise ValidationError(f"example {example.question_id!r} has no gold answer span")
    _, scores = run_span_model(
        model, example.question, example.context.tokens, training=training, rng=rng
    )
    loss = span_nll_loss(scores, *example.answer_span)
    if aux_weight != 0.0 and example.title_span is not None:
        loss = add(loss, scale(span_nll_loss(scores, *example.title_span), aux_weight))
    return loss, scores


def best_span(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    max_len: int = DEFAULT_MAX_ANSWER_LEN,
) -> tuple[int, int]:
    """Argmax of start_logit[s] + end_logit[e] over s <= e < s + max_len;
    ties by smaller s, then smaller e."""
    T = start_logits.shape[0]
    best = (-np.inf, 0, 0)
    for s in range(T):
        hi = min(T, s + max_len)
        window = start_logits[s] + end_logits[s:hi]
        e_off = int(np.argmax(window))  # first occurrence wins -> smallest e
        score = float(window[e_off])
        if score > best[0]:
            best = (score, s, s + e_off)
    return best[1], best[2]


def span_to_text(context: ReaderContext, s: int, e: int) -> str:
    """Original character-level text of the span. Spans covering a sentinel
    decode to that literal; spans crossing block boundaries fall back to
    space-joined tokens."""
    for pos in range(s, e + 1):
        if context.origins[pos].kind == "sentinel":
            return context.tokens[pos]
    first, last = context.origins[s], context.origins[e]
    if (
        first.passage_id == last.passage_id
        and first.kind == last.kind
        and first.passage_id is not None
    ):
        passage = next(p for p in context.passages if p.id == first.passage_id)
        source = passage.title if first.kind == "title" else passage.text
        return source[first.char_start : last.char_end]
    return " ".join(context.tokens[s : e + 1])


def decode_answer(
    scores,
    context: ReaderContext,
    max_len: int = DEFAULT_MAX_ANSWER_LEN,
) -> str:
    """Best valid span decoded to its original text (or a sentinel literal)."""
    if isinstance(scores, SpanScores):
        start, end = scores.start_logits.data, scores.end_logits.data
    else:
        start, end = scores
    s, e = best_span(np.asarray(start, dtype=np.float64), np.asarray(end, dtype=np.float64), max_len)
    return span_to_text(context, s, e)


# ---------------------------------------------------------------------------
# training


@dataclass
class ReaderTrainConfig:
    lr: float = 1e-3
    epochs: int = 80
    batch_size: int = 1
    aux_weight: float = 1.0
    seed: int = 13
    early_stop_em: float = 0.95
    max_answer_len: int = DEFAULT_MAX_ANSWER_LEN


def fit(
    store: ParamStore,
    items: list,
    step: Callable[[object, np.random.Generator], tuple[Tensor | None, float | None]],
    *,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    early_stop: float,
    metric: str,
) -> dict:
    """Minibatch Adam over the items, in a fresh permutation of rng each epoch.

    step(item, rng) runs one item and returns its loss (None: nothing to
    learn from) and its hit (None: the item is not judged). A batch is summed
    and applied once it holds batch_size losses or the epoch ends; the epoch's
    mean hit is logged under `metric`, and training stops once it reaches
    early_stop.
    """
    history: list[dict] = []
    started = time.monotonic()
    for epoch in range(epochs):
        order = rng.permutation(len(items))
        losses: list[float] = []
        hits = 0
        judged = 0
        batch: list[Tensor] = []
        for pos, idx in enumerate(order):
            loss, hit = step(items[int(idx)], rng)
            if hit is not None:
                judged += 1
                hits += hit
            if loss is not None:
                losses.append(loss.item())
                batch.append(loss)
            if batch and (len(batch) >= batch_size or pos == len(order) - 1):
                total = batch[0]
                for extra in batch[1:]:
                    total = add(total, extra)
                backward(total)
                adam_step(store, store.gradients(), lr=lr)
                store.zero_grad()
                batch = []
        score = hits / judged if judged else 0.0
        history.append(
            {
                "epoch": epoch,
                "mean_loss": float(np.mean(losses)) if losses else None,
                metric: score,
            }
        )
        if score >= early_stop:
            break
    return {
        "epochs_run": len(history),
        "history": history,
        "train_seconds": time.monotonic() - started,
    }


def train_reader(model: SpanModel, examples: list[ReaderExample], cfg: ReaderTrainConfig) -> dict:
    """Adam training over the joint span loss, early-stopped on running train EM."""

    def step(ex: ReaderExample, rng: np.random.Generator) -> tuple[Tensor, int]:
        loss, scores = reader_loss(model, ex, cfg.aux_weight, training=True, rng=rng)
        predicted = decode_answer(scores, ex.context, cfg.max_answer_len)
        return loss, em_f1(predicted, ex.answer)[0]

    stats = fit(
        model.store,
        examples,
        step,
        lr=cfg.lr,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        rng=np.random.default_rng([cfg.seed, 11]),
        early_stop=cfg.early_stop_em,
        metric="train_em",
    )
    stats["n_examples"] = len(examples)
    return stats


# ---------------------------------------------------------------------------
# end-to-end answering


@dataclass
class Prediction:
    qid: str
    answer: str
    passages: list[str]  # titles fed to the reader, in order
    ranked_titles: list[str] = field(default_factory=list)
    ranked_scored: list[tuple[str, float]] = field(default_factory=list)  # reasoner scores
    fallback: bool = False


def read_and_decode(
    model: SpanModel,
    record: QARecord,
    passages: list[Passage],
    *,
    max_tokens: int | None = None,
    max_answer_len: int = DEFAULT_MAX_ANSWER_LEN,
) -> tuple[str, ReaderContext]:
    context = build_reader_context(passages, max_tokens=max_tokens)
    _, scores = run_span_model(model, tokenize(record.question), context.tokens)
    return decode_answer(scores, context, max_answer_len), context
