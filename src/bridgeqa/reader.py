"""Target passage reader: concatenate candidate answer passages into one
context (title blocks included, "yes"/"no" sentinels prefixed), train with an
answer-span loss plus an auxiliary title-span loss, and decode answer spans.

Reader training passages come from two-fold cross-prediction (the
cross-predict stage): a reasoner trained on one half of the questions
predicts passages for the other half, so the reader never trains on passages
predicted by a model that saw that question's label.

fit() is the minibatch Adam loop that trains both the reader and the bridge
reasoner; the reader reads each minibatch in one encoder pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import PipelineConfig
from .corpus import Passage, QARecord, TokenSeq
from .errors import ValidationError
from .metrics import em_f1, normalize_answer
from .numcore import ParamStore, Tensor, adam_step, add, backward, scale
from .span_model import SpanModel, SpanScores, attend, head_readout, run_span_model, span_heads, span_nll_loss

SENTINELS = ("yes", "no")
# the longest answer span, in tokens, that is decoded or located
MAX_ANSWER_LEN = 30


@dataclass
class ReaderContext:
    """The yes/no sentinels, then one block per passage: its title tokens,
    then its text tokens. starts[b] is the context position of passage b's
    first token; the tokens keep their character offsets on the passage."""

    tokens: list[str]
    passages: list[Passage]
    starts: list[int]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def titles(self) -> list[str]:
        return [p.title for p in self.passages]

    def block_at(self, i: int) -> int | None:
        """The index of the passage whose block holds context token i, None
        for a sentinel; a block without tokens is never returned."""
        b = bisect_right(self.starts, i) - 1
        return b if b >= 0 else None

    def title_span_at(self, i: int) -> tuple[int, int] | None:
        """Inclusive token span of the title of the passage whose block holds
        token i; None for a sentinel or a title without tokens."""
        block = self.block_at(i)
        n = 0 if block is None else len(self.passages[block].title_tokens)
        return (self.starts[block], self.starts[block] + n - 1) if n else None


def build_reader_context(passages: list[Passage], max_tokens: int | None = None) -> ReaderContext:
    """Concatenate [title tokens + passage tokens] blocks after the yes/no
    sentinels. Whole passages beyond the token cap are dropped."""
    tokens: list[str] = list(SENTINELS)
    used: list[Passage] = []
    starts: list[int] = []
    for passage in passages:
        block = passage.title_tokens.tokens + passage.tokens.tokens
        if max_tokens is not None and used and len(tokens) + len(block) > max_tokens:
            break
        starts.append(len(tokens))
        tokens += block
        used.append(passage)
    return ReaderContext(tokens=tokens, passages=used, starts=starts)


def locate_answer_span(context: ReaderContext, answer: str) -> tuple[int, int] | None:
    """First token window, of at most MAX_ANSWER_LEN tokens, whose text
    (span_to_text) normalizes to the normalized answer; earlier (then
    shorter) windows win, so earlier passages are preferred. A window stops
    growing once its normalized text is longer than the answer's, which
    more tokens only lengthen (unless punctuation fuses them into an
    article, as in "th-e"). A start token that cannot begin the answer
    (_may_begin) is skipped unread."""
    target = normalize_answer(answer)
    if not target:
        return None
    T = len(context.tokens)
    for s in range(T):
        if not _may_begin(context.tokens[s], target[0]):
            continue
        for e in range(s, min(T, s + MAX_ANSWER_LEN)):
            window = normalize_answer(span_to_text(context, s, e))
            if window == target:
                return (s, e)
            if len(window) > len(target):
                break
    return None


def _may_begin(token: str, first: str) -> bool:
    """Whether a window starting at token can normalize to a text whose first
    character is first. Its text starts with the token, and normalizing keeps
    the token's first character, lowercased, unless the token starts a word
    that it drops as an article: "the", or "th" fused into "th-e"."""
    low = token.lower()
    return low[0] == first or "an".startswith(low) or "the".startswith(low)


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
    predicted_by_fold: str | None = None,
) -> tuple[ReaderExample, str | None]:
    """Build a training example and the reason it cannot be trained on, or
    None. The example always carries its built context; when the context
    does not contain the answer, its answer_span is None."""
    example = ReaderExample(
        question_id=record.id,
        question=record.question_tokens,
        context=build_reader_context(passages, max_tokens=max_tokens),
        answer=record.answer,
        predicted_by_fold=predicted_by_fold,
    )
    span = locate_answer_span(example.context, record.answer)
    if span is None:
        return example, "answer not found in context"
    example.answer_span = span
    example.title_span = example.context.title_span_at(span[0])
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


def _span_loss(scores: SpanScores, example: ReaderExample, aux_weight: float) -> Tensor:
    loss = span_nll_loss(scores, *example.answer_span)
    if aux_weight != 0.0 and example.title_span is not None:
        loss = add(loss, scale(span_nll_loss(scores, *example.title_span), aux_weight))
    return loss


def reader_losses(
    model: SpanModel,
    examples: list[ReaderExample],
    aux_weight: float = PipelineConfig.aux_weight,
    *,
    rng: np.random.Generator | None = None,
) -> list[tuple[Tensor, SpanScores]]:
    """Per example, in order, its answer-span NLL plus aux_weight times its
    title-span NLL (omitted without a gold title span), both over the full
    concatenated context, and its span scores. One encoder pass reads every
    question and context; with an rng, dropout is drawn from it as if the
    examples were read one after another."""
    for example in examples:
        if example.answer_span is None:
            raise ValidationError(f"example {example.question_id!r} has no gold answer span")
    groups = [(ex.question, [ex.context.tokens]) for ex in examples]
    finals = attend(model, groups, rng=rng, readout=head_readout(model.store))
    out = []
    for example, final in zip(examples, finals):
        scores = span_heads(final.states)
        out.append((_span_loss(scores, example, aux_weight), scores))
    return out


def best_span(start_logits: np.ndarray, end_logits: np.ndarray) -> tuple[int, int]:
    """Argmax of start_logit[s] + end_logit[e] over s <= e < s + MAX_ANSWER_LEN;
    ties by smaller s, then smaller e."""
    T = start_logits.shape[0]
    width = min(MAX_ANSWER_LEN, T)
    # row s, column k scores the span (s, s + k); numpy's argmax takes the
    # first maximum in row-major order, which is the tie rule
    ends = np.arange(T)[:, None] + np.arange(width)
    scores = start_logits[:, None] + end_logits[np.minimum(ends, T - 1)]
    scores[ends >= T] = -np.inf
    s, k = divmod(int(np.argmax(scores)), width)
    return s, s + k


def span_to_text(context: ReaderContext, s: int, e: int) -> str:
    """Original character-level text of the span, sliced from its passage's
    title or text. Spans starting at a sentinel decode to that literal;
    spans crossing a title, text or passage boundary fall back to
    space-joined tokens."""
    if s < len(SENTINELS):
        return context.tokens[s]
    block = context.block_at(s)
    if context.block_at(e) == block:
        passage = context.passages[block]
        first, last = s - context.starts[block], e - context.starts[block]
        n_title = len(passage.title_tokens)
        if last < n_title:
            seq = passage.title_tokens
            return passage.title[seq.starts[first] : seq.ends[last]]
        if first >= n_title:
            seq = passage.tokens
            return passage.text[seq.starts[first - n_title] : seq.ends[last - n_title]]
    return " ".join(context.tokens[s : e + 1])


def decode_answer(scores, context: ReaderContext) -> str:
    """Best valid span decoded to its original text (or a sentinel literal)."""
    if isinstance(scores, SpanScores):
        start, end = scores.start_logits.data, scores.end_logits.data
    else:
        start, end = scores
    s, e = best_span(np.asarray(start, dtype=np.float64), np.asarray(end, dtype=np.float64))
    return span_to_text(context, s, e)


# ---------------------------------------------------------------------------
# training


def fit(
    store: ParamStore,
    items: list,
    step: Callable[[list, np.random.Generator], list[tuple[Tensor, float]]],
    *,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    early_stop: float,
    metric: str,
) -> dict:
    """Minibatch Adam over the items, in a fresh permutation of rng each epoch.

    step(batch, rng) runs a minibatch, the next batch_size items of the
    permutation (fewer at the epoch's end), and returns per item its loss
    and its hit. The minibatch's losses are summed and applied in one Adam
    step. Each epoch logs its mean loss and its mean hit under `metric`;
    training stops once the mean hit reaches early_stop. Without items no
    epoch runs. Nothing is timed, so the log is a pure function of the
    inputs and the rng; each stage's manifest entry records its wall time.
    """
    if batch_size < 1:
        raise ValidationError(f"fit: batch_size must be at least 1, got {batch_size}")
    history: list[dict] = []
    for epoch in range(epochs if items else 0):
        order = rng.permutation(len(items))
        losses: list[float] = []
        hits = 0
        for first in range(0, len(order), batch_size):
            results = step([items[int(i)] for i in order[first : first + batch_size]], rng)
            total = results[0][0]
            for loss, _ in results[1:]:
                total = add(total, loss)
            losses += [loss.item() for loss, _ in results]
            hits += sum(hit for _, hit in results)
            backward(total)
            adam_step(store, store.gradients(), lr=lr)
            store.zero_grad()
        score = hits / len(items)
        history.append({"epoch": epoch, "mean_loss": float(np.mean(losses)), metric: score})
        if score >= early_stop:
            break
    return {"epochs_run": len(history), "history": history}


def train_reader(model: SpanModel, examples: list[ReaderExample], cfg: PipelineConfig) -> dict:
    """Adam training over the joint span loss at cfg's reader_lr and
    reader_batch_size, for up to reader_epochs, early-stopped on running
    train EM; each minibatch is read in one encoder pass."""

    def step(batch: list[ReaderExample], rng: np.random.Generator) -> list[tuple[Tensor, int]]:
        results = reader_losses(model, batch, cfg.aux_weight, rng=rng)
        return [
            (loss, em_f1(decode_answer(scores, ex.context), ex.answer)[0])
            for ex, (loss, scores) in zip(batch, results)
        ]

    stats = fit(
        model.store,
        examples,
        step,
        lr=cfg.reader_lr,
        epochs=cfg.reader_epochs,
        batch_size=cfg.reader_batch_size,
        rng=np.random.default_rng([cfg.seed, 11]),
        early_stop=cfg.reader_early_stop_em,
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
    # (title, score) pairs, best first; the score is None for the gold titles
    # an oracle mode puts first, and where no reasoner ranked (the start set
    # stands in)
    ranking: list[tuple[str, float | None]] = field(default_factory=list)
    fallback: bool = False
    n_passages_dropped: int = 0  # passages the context cap cut


def read_and_decode(
    model: SpanModel,
    record: QARecord,
    passages: list[Passage],
    *,
    max_tokens: int | None = None,
) -> tuple[str, ReaderContext]:
    context = build_reader_context(passages, max_tokens=max_tokens)
    _, scores = run_span_model(model, record.question_tokens, context.tokens)
    return decode_answer(scores, context), context
