"""Bridge entity reasoner: score the anchor mentions of the start passages by
fusing local context evidence (the anchor's start-token representation from
the span model) with passage content evidence (max-pooled bi-LSTM encoding of
the target passage's abstract), then rank candidate answer passages. The
(n,) fusion logits score_bridges returns, one per candidate, are the scores:
ranking and the loss both read them. As in span_model, a forward given an
rng trains: it draws dropout from it and never reads or fills the memo.

Supervision is distant: the gold bridge is the supporting passage whose text
contains the answer string.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .corpus import AnchorMention, Corpus, Passage, QARecord, TokenSeq
from .errors import ValidationError
from .metrics import normalize_answer
from .numcore import (
    ParamStore,
    Tensor,
    adam_step,  # noqa: F401 - bench/layers.py traces bridge.adam_step
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
)
from .reader import fit
from .retrieval import flat_layout, gather_slices
from .span_model import (
    EmbeddingTable,
    EncodingMemo,
    SpanModel,
    attend,
    attend_memoized,
    biattention,  # noqa: F401 - bench/layers.py traces bridge.biattention
    encode,  # noqa: F401 - bench/layers.py traces bridge.encode
    create_embedding_table,
    init_span_params,
    self_attention,  # noqa: F401 - bench/layers.py traces bridge.self_attention
)

# the titles a ranking keeps, and the start passages read without a ranking
READER_MAX_PASSAGES = 10


@dataclass(frozen=True)
class BridgeLabel:
    question_id: str
    gold_title: str


@dataclass(frozen=True)
class BridgeCandidate:
    mention: AnchorMention
    source_passage_id: str
    target_title: str


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


def gold_titles(questions: list[QARecord], corpus: Corpus, seed: int) -> dict[str, str]:
    """question id -> the gold title derive_bridge_labels picks, for the
    questions it labels."""
    labels, _ = derive_bridge_labels(questions, corpus, seed)
    return {lbl.question_id: lbl.gold_title for lbl in labels}


def collect_candidates(start_passages: list[Passage], corpus: Corpus) -> list[BridgeCandidate]:
    """One candidate per anchor mention whose target resolves in the corpus;
    unresolvable targets are dropped here."""
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
    """Span model for the start passages (without span heads) plus a bi-LSTM
    abstract encoder and the score fusion layer, all in one ParamStore.

    memo is None in a model built for training, and a forward given an rng
    never reads it: it encodes a question's start passages and abstracts in
    packed passes. A reasoner loaded for answering (load_pipeline_state) gets
    an empty EncodingMemo, which lives as long as the model, since its
    parameters no longer change: inference reads each start passage's encoder
    states and each abstract's vector from it, keyed by token content. It
    holds one entry per distinct text read, so it has no size limit (unlike
    a loaded reader's, see span_model.READER_MEMO_CONTEXTS).
    """

    span: SpanModel
    lstm_hidden: int
    abstract_max_tokens: int = PipelineConfig.abstract_max_tokens
    memo: EncodingMemo | None = None

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
    abstract_max_tokens: int = PipelineConfig.abstract_max_tokens,
) -> BridgeModel:
    store = ParamStore()
    table = create_embedding_table(store, vocab, embed_dim, rng, frozen=frozen_embeddings is not None,
                                   init_matrix=frozen_embeddings)
    init_span_params(store, embed_dim, gru_hidden, rng)
    wide = 8 * gru_hidden  # self-attention output width
    # a reader's span/heads/start_w and end_w, drawn so later tensors start as before
    glorot(rng, (wide, 1))
    glorot(rng, (wide, 1))
    init_bidirectional("lstm", store, "abstract/", embed_dim, lstm_hidden, rng)
    store.add("fuse/w", glorot(rng, (wide + 2 * lstm_hidden, 1)))
    store.add("abstract/missing", rng.normal(0.0, 0.1, size=(1, 2 * lstm_hidden)))
    span = SpanModel(store=store, table=table, hidden=gru_hidden, dropout=dropout_rate)
    return BridgeModel(span=span, lstm_hidden=lstm_hidden, abstract_max_tokens=abstract_max_tokens)


def encode_abstracts(
    model: BridgeModel,
    passages: list[Passage | None],
    *,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Max-pooled bi-LSTM encodings of target passages' abstracts, all present
    abstracts in one packed pass and one segment max-pool: one (n, 2h) row
    per passage.

    A missing or empty abstract reads the trained sentinel row
    abstract/missing, so anchor coverage is never silently reduced. With an
    rng, dropout is drawn from it in passage order over the present abstracts.

    Without an rng, a model with a memo takes each abstract's vector from it
    instead, encoding a missing one on its own (see EncodingMemo).
    """
    present = [i for i, p in enumerate(passages) if p is not None and len(p.tokens) > 0]
    row_of = {i: j for j, i in enumerate(present)}
    token_lists = [passages[i].tokens.tokens[: model.abstract_max_tokens] for i in present]
    memo = None if rng is not None else model.memo
    pooled = []
    if present and memo is None:
        pooled = [_pooled_abstracts(model, token_lists, rng=rng)]
    elif present:
        vectors = [memo.get(memo.abstracts, toks, lambda toks=toks: _pooled_abstracts(model, [toks]).data)
                   for toks in token_lists]
        pooled = [constant(np.concatenate(vectors))]
    # a missing abstract reads the sentinel, the row after the pooled ones;
    # it joins the graph only when read, so Adam leaves it alone otherwise
    sentinel = [model.store["abstract/missing"]] if len(present) < len(passages) else []
    table = concat(pooled + sentinel, axis=0)
    rows = [row_of.get(i, len(present)) for i in range(len(passages))]
    return gather_rows(table, np.array(rows, dtype=np.int64))


def _pooled_abstracts(model: BridgeModel, token_lists: list, *, rng: np.random.Generator | None = None) -> Tensor:
    """(len(token_lists), 2h): the token lists' bi-LSTM states in one packed
    pass, max-pooled over each list's own rows."""
    lengths = [len(toks) for toks in token_lists]
    flat = [tok for toks in token_lists for tok in toks]
    emb = gather_rows(model.table.matrix, model.table.indices(flat), model.table.row_mask)
    states = run_bidirectional("lstm", emb, model.store, "abstract/", model.lstm_hidden, lengths=lengths)
    states = dropout(states, model.span.dropout, rng=rng)
    return max_pool_over_time(states, lengths)


def encode_abstract(model: BridgeModel, passage: Passage | None, *, rng: np.random.Generator | None = None) -> Tensor:
    """Max-pooled bi-LSTM encoding of one target passage's abstract, (1, 2h)
    (see encode_abstracts)."""
    return encode_abstracts(model, [passage], rng=rng)


def _context_rows(
    model: BridgeModel,
    question: TokenSeq,
    start_passages: list[Passage],
    candidates: list[BridgeCandidate],
    *,
    rng: np.random.Generator | None,
) -> Tensor:
    """(n, 8h) local context evidence: each candidate's anchor start-token row
    of its start passage's self-attention output, in candidate order. Only
    those rows are read: self-attention queries, its residual and its mixing
    layer run at the anchor rows alone.

    Without an rng, a model with a memo reads through attend_memoized: the
    question is encoded on its own, and each start passage's encoder states
    come from the memo (a missing one is encoded on its own)."""
    passage_by_id = {p.id: p for p in start_passages}
    for cand in candidates:
        pid = cand.source_passage_id
        if pid not in passage_by_id:
            raise ValidationError(f"candidate references passage {pid!r} not in the start set")
        if cand.mention.token_start is None:
            raise ValidationError("candidate anchor is not token-aligned")
    passage_ids = list(dict.fromkeys(c.source_passage_id for c in candidates))
    contexts = [passage_by_id[pid].tokens for pid in passage_ids]
    offsets = dict(zip(passage_ids, np.cumsum([0] + [len(c) for c in contexts])))
    rows = np.array([offsets[c.source_passage_id] + c.mention.token_start for c in candidates])
    if rng is None and model.memo is not None:
        final = attend_memoized(model.span, model.memo, question, contexts, rows)
    else:
        (final,) = attend(model.span, [(question, contexts)], rng=rng, rows=[rows])
    return final.states


def score_bridges(
    model: BridgeModel,
    question: TokenSeq,
    start_passages: list[Passage],
    candidates: list[BridgeCandidate],
    corpus: Corpus,
    *,
    use_context: bool = True,
    use_content: bool = True,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Score every candidate in one fusion over stacked evidence rows:
    logits = [H_context, H_content] @ w, one row per candidate (a bias would
    shift them all alike, which neither the loss's softmax nor ranking sees).

    H_context holds each anchor's start-token representation, H_content the
    encoded abstract of its target (the trained sentinel when that is
    missing). use_context / use_content zero out the corresponding channel
    (the ablation switches). Returns the (n,) logits node, the candidates'
    scores in their order; there must be at least one candidate.

    With an rng, dropout is drawn from it and the memo is neither read nor
    filled. Without one, a model memo (a reasoner loaded for answering)
    gives each start passage's encoder states and each abstract's vector,
    so only the question is encoded per call; a switched-off channel neither
    reads nor fills it.
    """
    if not candidates:
        raise ValidationError("score_bridges: no candidates to score")
    n = len(candidates)
    if use_context:
        h_context = _context_rows(model, question, start_passages, candidates, rng=rng)
    else:
        h_context = constant(np.zeros((n, 8 * model.span.hidden)))
    if use_content:
        titles = sorted({c.target_title for c in candidates})
        encoded = encode_abstracts(model, [corpus.by_title.get(t) for t in titles], rng=rng)
        row_of = {t: i for i, t in enumerate(titles)}
        h_content = gather_rows(encoded, np.array([row_of[c.target_title] for c in candidates]))
    else:
        h_content = constant(np.zeros((n, 2 * model.lstm_hidden)))
    return reshape(matmul(concat([h_context, h_content], axis=1), model.store["fuse/w"]), (n,))


def gold_mention_indices(candidates: list[BridgeCandidate], gold_title: str) -> list[int]:
    return [i for i, c in enumerate(candidates) if c.target_title == gold_title]


def bridge_loss(candidates: list[BridgeCandidate], logits: Tensor, label: BridgeLabel) -> Tensor:
    """Marginal NLL: softmax over all mention-level fused logits (as
    score_bridges returns them), summing the probability of every mention
    that targets the gold title."""
    gold = gold_mention_indices(candidates, label.gold_title)
    if not gold:
        raise ValidationError(
            f"question {label.question_id!r}: gold title {label.gold_title!r} "
            f"is not among the candidates"
        )
    return cross_entropy_from_logits(logits, gold)


def rank_answer_passages(
    candidates: list[BridgeCandidate], scores, k: int = READER_MAX_PASSAGES
) -> list[tuple[str, float]]:
    """Reduce the mention scores, one per candidate (score_bridges's logits),
    per target title by maximum; return the top-k unique titles, descending
    score, ties by title."""
    if len(scores) != len(candidates):
        raise ValidationError(f"rank_answer_passages: {len(scores)} scores for {len(candidates)} candidates")
    best: dict[str, float] = {}
    for c, score in zip(candidates, map(float, scores)):
        if c.target_title not in best or score > best[c.target_title]:
            best[c.target_title] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# entity linking


class TitleTokenLinker:
    """Baseline linker: a title matches when every token of its base form
    (parenthetical disambiguators stripped) appears in the question; longer
    matches rank first, scored by their token count, ties by title.

    Titles with a token are rows; each distinct token maps to the slice of a
    flat row array listing the titles whose base form holds it, laid out by
    retrieval.flat_layout, which lays out the index's postings too. link
    gathers the slices of the question's distinct tokens, counts per row
    with np.bincount how many distinct title tokens the question holds, and
    keeps the rows where that count is the title's whole distinct-token
    count. The arrays are read-only, so concurrent linking is safe."""

    def __init__(self, corpus: Corpus):
        self._titles: list[str] = []
        self._scores: list[float] = []
        rows_of: dict[str, list[int]] = {}
        distinct_counts = []
        for p in corpus.passages:
            # the base form's tokens end before the first "(", which no token runs across
            cut = p.title.find("(") if "(" in p.title else len(p.title)
            toks = [t for t, (_, end) in zip(p.title_tokens.tokens, p.title_tokens.char_offsets) if end <= cut]
            if toks:
                row = len(self._titles)
                self._titles.append(p.title)
                self._scores.append(float(len(toks)))
                distinct = set(toks)
                distinct_counts.append(len(distinct))
                for t in distinct:
                    rows_of.setdefault(t, []).append(row)
        self._token_id, self._bounds, self._rows = flat_layout(rows_of)
        self._distinct = np.array(distinct_counts, dtype=np.intp)
        self._distinct.setflags(write=False)

    def link(self, question: TokenSeq) -> list[tuple[str, float]]:
        ids = [self._token_id[t] for t in set(question.tokens) if t in self._token_id]
        if not ids:
            return []
        pos, _ = gather_slices(self._bounds, ids)
        matched = np.bincount(self._rows[pos], minlength=len(self._titles))
        full = np.flatnonzero(matched == self._distinct)
        hits = [(self._titles[row], self._scores[row]) for row in full.tolist()]
        hits.sort(key=lambda item: (-item[1], item[0]))
        return hits


def expand_with_entity_linking(question: TokenSeq, linker: TitleTokenLinker, corpus: Corpus) -> list[Passage]:
    """The passages of the linker's titles for the question that the corpus
    holds, in link order."""
    return [corpus.by_title[title] for title, _score in linker.link(question) if title in corpus.by_title]


# ---------------------------------------------------------------------------
# training


@dataclass
class QuestionInputs:
    """Per-question artifacts that do not depend on model parameters, prepared
    once before training, for a labeled question."""

    record: QARecord
    start_passages: list[Passage]
    candidates: list[BridgeCandidate]
    label: BridgeLabel


def prepare_question_inputs(
    questions: list[QARecord],
    labels: list[BridgeLabel],
    start_sets: dict[str, list[Passage]],
    corpus: Corpus,
) -> list[QuestionInputs]:
    """Inputs for the labeled questions, in question order."""
    by_qid = {lbl.question_id: lbl for lbl in labels}
    return [
        QuestionInputs(
            record=q,
            start_passages=start_sets[q.id],
            candidates=collect_candidates(start_sets[q.id], corpus),
            label=by_qid[q.id],
        )
        for q in questions
        if q.id in by_qid
    ]


def train_bridge_reasoner(
    model: BridgeModel,
    inputs: list[QuestionInputs],
    corpus: Corpus,
    cfg: PipelineConfig,
) -> dict:
    """Adam training over per-question marginal NLL, at cfg's lr, batch_size
    and seed for up to bridge_epochs, on the questions whose gold title is
    among their candidates; it stops early once their running train Hits@1
    reaches bridge_early_stop_hits1. The log counts those questions as
    n_train_questions and the other labeled ones as n_gold_missing."""
    trainable = [qi for qi in inputs if gold_mention_indices(qi.candidates, qi.label.gold_title)]

    def question_step(qi: QuestionInputs, rng: np.random.Generator) -> tuple[Tensor, bool]:
        logits = score_bridges(model, qi.record.question_tokens, qi.start_passages, qi.candidates, corpus, rng=rng)
        ((top, _),) = rank_answer_passages(qi.candidates, logits.data, k=1)
        return bridge_loss(qi.candidates, logits, qi.label), top == qi.label.gold_title

    stats = fit(
        model.store,
        trainable,
        lambda batch, rng: [question_step(qi, rng) for qi in batch],
        lr=cfg.lr,
        epochs=cfg.bridge_epochs,
        batch_size=cfg.batch_size,
        rng=np.random.default_rng([cfg.seed, 7]),
        early_stop=cfg.bridge_early_stop_hits1,
        metric="train_hits1",
    )
    stats.update(n_train_questions=len(trainable), n_gold_missing=len(inputs) - len(trainable))
    return stats


def evaluate_hits(
    model: BridgeModel,
    inputs: list[QuestionInputs],
    corpus: Corpus,
    k: int = 1,
) -> float:
    """Inference-mode Hits@k of the reasoner over every input, ranked by
    predict_ranked_titles; a gold no candidate holds is a miss."""
    hits = sum(
        any(title == qi.label.gold_title
            for title, _ in predict_ranked_titles(model, qi.record, qi.start_passages, corpus, k=k))
        for qi in inputs
    )
    return hits / len(inputs) if inputs else 0.0


def predict_ranked_titles(
    model: BridgeModel,
    question: QARecord,
    start_passages: list[Passage],
    corpus: Corpus,
    k: int = READER_MAX_PASSAGES,
    *,
    use_context: bool = True,
    use_content: bool = True,
) -> list[tuple[str, float]]:
    candidates = collect_candidates(start_passages, corpus)
    if not candidates:
        return []
    logits = score_bridges(
        model,
        question.question_tokens,
        start_passages,
        candidates,
        corpus,
        use_context=use_context,
        use_content=use_content,
    )
    return rank_answer_passages(candidates, logits.data, k=k)
