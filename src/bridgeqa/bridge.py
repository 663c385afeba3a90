"""Bridge entity reasoner: score the anchor mentions of the start passages by
fusing local context evidence (the anchor's start-token representation from
the span model) with passage content evidence (max-pooled bi-LSTM encoding of
the target passage's abstract), then rank candidate answer passages.

Supervision is distant: the gold bridge is the supporting passage whose text
contains the answer string.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .corpus import AnchorMention, Corpus, Passage, QARecord, TokenSeq, tokenize
from .errors import ValidationError
from .metrics import normalize_answer
from .numcore import (
    ParamStore,
    Tensor,
    adam_step,  # noqa: F401 - bench/layers.py traces bridge.adam_step
    add,
    backward,  # noqa: F401 - bench/layers.py traces bridge.backward
    concat,
    constant,
    cross_entropy_from_logits,
    dropout,
    gather_rows,
    glorot,
    init_bidirectional,
    matmul,
    max_pool_over_time,
    reshape,
    run_bidirectional,
    slice_rows,
)
from .reader import fit
from .span_model import (
    EmbeddingTable,
    SpanModel,
    biattention,
    encode,  # noqa: F401 - bench/layers.py traces bridge.encode
    encode_packed,
    init_span_model,
    self_attention,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BridgeLabel:
    question_id: str
    gold_title: str


@dataclass
class BridgeCandidate:
    mention: AnchorMention
    source_passage_id: str
    target_title: str
    fused_score: float | None = None
    content_missing: bool = False


def derive_bridge_labels(
    questions: list[QARecord],
    corpus: Corpus,
    seed: int,
) -> tuple[list[BridgeLabel], list[dict]]:
    """Distant supervision: label each bridge question with the supporting
    passage whose text contains the answer string (normalized containment).
    Several qualifying passages -> one picked uniformly at random under the
    seed. Questions with none are skipped with a reason."""
    rng = np.random.default_rng(seed)
    labels: list[BridgeLabel] = []
    skipped: list[dict] = []
    for q in questions:
        if q.qtype != "bridge":
            skipped.append({"qid": q.id, "reason": "not a bridge question"})
            continue
        if not q.supporting_titles:
            skipped.append({"qid": q.id, "reason": "no supporting titles"})
            continue
        answer_norm = normalize_answer(q.answer)
        matching = []
        for title in q.supporting_titles:
            passage = corpus.by_title.get(title)
            if passage is None:
                continue
            if answer_norm and answer_norm in normalize_answer(passage.text):
                matching.append(title)
        matching = sorted(set(matching))
        if not matching:
            skipped.append({"qid": q.id, "reason": "answer not found in any supporting passage"})
            continue
        choice = matching[int(rng.integers(len(matching)))] if len(matching) > 1 else matching[0]
        labels.append(BridgeLabel(question_id=q.id, gold_title=choice))
    return labels, skipped


def collect_candidates(start_passages: list[Passage], corpus: Corpus) -> list[BridgeCandidate]:
    """One unscored candidate per anchor mention whose target resolves in the
    corpus; unresolvable targets are dropped here."""
    candidates: list[BridgeCandidate] = []
    for passage in start_passages:
        for mention in passage.anchors:
            if mention.target_title not in corpus.by_title:
                continue
            candidates.append(
                BridgeCandidate(
                    mention=mention,
                    source_passage_id=passage.id,
                    target_title=mention.target_title,
                )
            )
    return candidates


# ---------------------------------------------------------------------------
# model


@dataclass
class BridgeModel:
    """Span model for the start passages plus a bi-LSTM abstract encoder and
    the score fusion layer, all in one ParamStore."""

    span: SpanModel
    lstm_hidden: int
    abstract_max_tokens: int = 48

    @property
    def store(self) -> ParamStore:
        return self.span.store

    @property
    def table(self) -> EmbeddingTable:
        return self.span.table


def init_bridge_model(
    vocab: dict[str, int],
    embed_dim: int,
    gru_hidden: int,
    lstm_hidden: int,
    dropout_rate: float,
    rng: np.random.Generator,
    *,
    frozen_embeddings: np.ndarray | None = None,
    abstract_max_tokens: int = 48,
) -> BridgeModel:
    span = init_span_model(
        vocab, embed_dim, gru_hidden, dropout_rate, rng, frozen_embeddings=frozen_embeddings
    )
    store = span.store
    init_bidirectional("lstm", store, "abstract/", embed_dim, lstm_hidden, rng)
    wide = 8 * gru_hidden  # self-attention output width
    store.add("fuse/w", glorot(rng, (wide + 2 * lstm_hidden, 1)))
    store.add("fuse/b", np.zeros(1))
    store.add("abstract/missing", rng.normal(0.0, 0.1, size=(1, 2 * lstm_hidden)))
    return BridgeModel(span=span, lstm_hidden=lstm_hidden, abstract_max_tokens=abstract_max_tokens)


def encode_abstracts(
    model: BridgeModel,
    passages: list[Passage | None],
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> list[tuple[Tensor, bool]]:
    """Max-pooled bi-LSTM encodings of target passages' abstracts, all present
    abstracts in one packed pass; one (vector, missing) pair per passage.

    A missing or empty abstract falls back to the trained sentinel vector and
    is flagged, so anchor coverage is never silently reduced. Dropout is
    drawn in passage order over the present abstracts.
    """
    sentinel = (model.store["abstract/missing"], True)
    present = [i for i, p in enumerate(passages) if p is not None and len(p.tokens) > 0]
    results = [sentinel] * len(passages)
    if not present:
        return results
    token_lists = [passages[i].tokens.tokens[: model.abstract_max_tokens] for i in present]
    lengths = [len(toks) for toks in token_lists]
    flat = [tok for toks in token_lists for tok in toks]
    emb = gather_rows(model.table.matrix, model.table.indices(flat), model.table.row_mask)
    states = run_bidirectional("lstm", emb, model.store, "abstract/", model.lstm_hidden, lengths=lengths)
    states = dropout(states, model.span.dropout, training=training, rng=rng)
    start = 0
    for i, n in zip(present, lengths):
        results[i] = (max_pool_over_time(slice_rows(states, start, start + n)), False)
        start += n
    return results


def encode_abstract(
    model: BridgeModel,
    passage: Passage | None,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, bool]:
    """Max-pooled bi-LSTM encoding of one target passage's abstract (see
    encode_abstracts)."""
    return encode_abstracts(model, [passage], training=training, rng=rng)[0]


def _context_rows(
    model: BridgeModel,
    question: TokenSeq,
    start_passages: list[Passage],
    candidates: list[BridgeCandidate],
    *,
    training: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    """(n, 8h) local context evidence: each candidate's anchor start-token row
    of its start passage's self-attention output, in candidate order."""
    store, prefix = model.store, model.span.prefix
    passage_by_id = {p.id: p for p in start_passages}
    for cand in candidates:
        pid = cand.source_passage_id
        if pid not in passage_by_id:
            raise ValidationError(f"candidate references passage {pid!r} not in the start set")
        if cand.mention.token_start is None:
            raise ValidationError("candidate anchor is not token-aligned")
    passage_ids = list(dict.fromkeys(c.source_passage_id for c in candidates))
    # the question and every start passage in one encoder pass
    q_enc, *c_encs = encode_packed(
        [question] + [passage_by_id[pid].tokens for pid in passage_ids],
        model.table,
        store,
        model.span.hidden,
        prefix,
        dropout_rate=model.span.dropout,
        training=training,
        rng=rng,
    )
    finals = [self_attention(biattention(c, q_enc, store, prefix), store, prefix).states for c in c_encs]
    offsets = dict(zip(passage_ids, np.cumsum([0] + [len(c) for c in c_encs])))
    rows = [offsets[c.source_passage_id] + c.mention.token_start for c in candidates]
    return gather_rows(concat(finals, axis=0), np.array(rows))


def score_bridges(
    model: BridgeModel,
    question: TokenSeq,
    start_passages: list[Passage],
    candidates: list[BridgeCandidate],
    corpus: Corpus,
    *,
    use_context: bool = True,
    use_content: bool = True,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[list[BridgeCandidate], Tensor | None]:
    """Score every candidate in one fusion over stacked evidence rows:
    logits = [H_context, H_content] @ w + b, one row per candidate.

    H_context holds each anchor's start-token representation, H_content the
    encoded abstract of its target (the trained sentinel when that is
    missing). use_context / use_content zero out the corresponding channel
    (the ablation switches). Returns new candidate objects carrying the
    float scores, and the (n,) logits node (None without candidates).
    """
    if not candidates:
        return [], None
    n = len(candidates)
    if use_context:
        h_context = _context_rows(model, question, start_passages, candidates, training=training, rng=rng)
    else:
        h_context = constant(np.zeros((n, 8 * model.span.hidden)))
    if use_content:
        titles = sorted({c.target_title for c in candidates})
        encoded = encode_abstracts(
            model, [corpus.by_title.get(t) for t in titles], training=training, rng=rng
        )
        row_of = {t: i for i, t in enumerate(titles)}
        rows = [row_of[c.target_title] for c in candidates]
        h_content = gather_rows(concat([vec for vec, _ in encoded], axis=0), np.array(rows))
        missing = [encoded[r][1] for r in rows]
    else:
        h_content = constant(np.zeros((n, 2 * model.lstm_hidden)))
        missing = [False] * n
    fused = add(matmul(concat([h_context, h_content], axis=1), model.store["fuse/w"]), model.store["fuse/b"])
    logits = reshape(fused, (n,))
    scored = [
        replace(cand, fused_score=float(score), content_missing=miss)
        for cand, score, miss in zip(candidates, logits.data, missing)
    ]
    return scored, logits


def gold_mention_indices(candidates: list[BridgeCandidate], gold_title: str) -> list[int]:
    return [i for i, c in enumerate(candidates) if c.target_title == gold_title]


def bridge_loss(scored: list[BridgeCandidate], logits: Tensor, label: BridgeLabel) -> Tensor:
    """Marginal NLL: softmax over all mention-level fused logits (as
    score_bridges returns them), summing the probability of every mention
    that targets the gold title."""
    gold = gold_mention_indices(scored, label.gold_title)
    if not gold:
        raise ValidationError(
            f"question {label.question_id!r}: gold title {label.gold_title!r} "
            f"is not among the candidates"
        )
    return cross_entropy_from_logits(logits, gold)


def rank_answer_passages(scored: list[BridgeCandidate], k: int = 10) -> list[tuple[str, float]]:
    """Reduce mention scores per target title by maximum; return the top-k
    unique titles, descending score, ties by title."""
    best: dict[str, float] = {}
    for c in scored:
        if c.fused_score is None:
            raise ValidationError("rank_answer_passages: candidates are unscored")
        if c.target_title not in best or c.fused_score > best[c.target_title]:
            best[c.target_title] = c.fused_score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# entity linking


class TitleTokenLinker:
    """Baseline linker: a title matches when every token of its base form
    (parenthetical disambiguators stripped) appears in the question; longer
    matches rank first."""

    def __init__(self, corpus: Corpus):
        self._entries = []
        for p in corpus.passages:
            base = p.title.split("(")[0]
            toks = tuple(tokenize(base).tokens)
            if toks:
                self._entries.append((p.title, toks))

    def link(self, question: str) -> list[tuple[str, float]]:
        q_tokens = set(tokenize(question).tokens)
        hits = []
        for title, toks in self._entries:
            if all(t in q_tokens for t in toks):
                hits.append((title, float(len(toks))))
        hits.sort(key=lambda item: (-item[1], item[0]))
        return hits


def expand_with_entity_linking(
    question_text: str,
    linker,
    corpus: Corpus,
    existing: list[Passage],
    top_n: int = 2,
) -> list[Passage]:
    """Up to top_n linker-suggested passages not already in the start set.

    A failing linker yields no expansion (the pipeline proceeds as in the
    no-entity-linking mode) with a warning.
    """
    if linker is None:
        return []
    try:
        ranked = linker.link(question_text)
    except Exception as exc:  # noqa: BLE001 - external plug-in boundary
        log.warning("entity linker failed (%s); continuing without expansion", exc)
        return []
    have = {p.title for p in existing}
    extras: list[Passage] = []
    for title, _score in ranked:
        if len(extras) >= top_n:
            break
        if title in have:
            continue
        passage = corpus.by_title.get(title)
        if passage is None:
            continue
        extras.append(passage)
        have.add(title)
    return extras


# ---------------------------------------------------------------------------
# training


@dataclass
class BridgeTrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    batch_size: int = 1
    seed: int = 13
    early_stop_hits1: float = 0.95


@dataclass
class QuestionInputs:
    """Per-question artifacts that do not depend on model parameters, prepared
    once before training."""

    record: QARecord
    question_tokens: TokenSeq
    start_passages: list[Passage]
    candidates: list[BridgeCandidate]
    label: BridgeLabel | None


def prepare_question_inputs(
    questions: list[QARecord],
    labels: list[BridgeLabel],
    start_sets: dict[str, list[Passage]],
    corpus: Corpus,
) -> list[QuestionInputs]:
    by_qid = {lbl.question_id: lbl for lbl in labels}
    prepared = []
    for q in questions:
        starts = start_sets.get(q.id, [])
        prepared.append(
            QuestionInputs(
                record=q,
                question_tokens=tokenize(q.question),
                start_passages=starts,
                candidates=collect_candidates(starts, corpus),
                label=by_qid.get(q.id),
            )
        )
    return prepared


def train_bridge_reasoner(
    model: BridgeModel,
    inputs: list[QuestionInputs],
    corpus: Corpus,
    cfg: BridgeTrainConfig,
) -> dict:
    """Adam training over per-question marginal NLL. Questions whose gold is
    absent from the candidate pool are skipped and counted. Stops early once
    the running train Hits@1 reaches the configured threshold."""
    trainable = [qi for qi in inputs if qi.label is not None]
    gold_missing = sum(
        1
        for qi in trainable
        if not gold_mention_indices(qi.candidates, qi.label.gold_title)
    )

    def step(qi: QuestionInputs, rng: np.random.Generator) -> tuple[Tensor | None, bool | None]:
        if not qi.candidates:
            return None, None
        scored, logits = score_bridges(
            model, qi.question_tokens, qi.start_passages, qi.candidates, corpus, training=True, rng=rng
        )
        ranked = rank_answer_passages(scored, k=1)
        hit = bool(ranked) and ranked[0][0] == qi.label.gold_title
        if not gold_mention_indices(scored, qi.label.gold_title):
            return None, hit
        return bridge_loss(scored, logits, qi.label), hit

    stats = fit(
        model.store,
        trainable,
        step,
        lr=cfg.lr,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        rng=np.random.default_rng([cfg.seed, 7]),
        early_stop=cfg.early_stop_hits1,
        metric="train_hits1",
    )
    stats.update(n_train_questions=len(trainable), n_gold_missing=gold_missing)
    return stats


def evaluate_hits(
    model: BridgeModel,
    inputs: list[QuestionInputs],
    corpus: Corpus,
    k: int = 1,
) -> float:
    """Inference-mode Hits@k of the reasoner over labeled questions."""
    hits = 0
    judged = 0
    for qi in inputs:
        if qi.label is None:
            continue
        judged += 1
        if not qi.candidates:
            continue
        scored, _ = score_bridges(model, qi.question_tokens, qi.start_passages, qi.candidates, corpus)
        ranked = rank_answer_passages(scored, k=k)
        if any(title == qi.label.gold_title for title, _ in ranked):
            hits += 1
    return hits / judged if judged else 0.0


def predict_ranked_titles(
    model: BridgeModel,
    question: QARecord,
    start_passages: list[Passage],
    corpus: Corpus,
    k: int = 10,
    *,
    use_context: bool = True,
    use_content: bool = True,
) -> list[tuple[str, float]]:
    candidates = collect_candidates(start_passages, corpus)
    if not candidates:
        return []
    scored, _ = score_bridges(
        model,
        tokenize(question.question),
        start_passages,
        candidates,
        corpus,
        use_context=use_context,
        use_content=use_content,
    )
    return rank_answer_passages(scored, k=k)
