"""End-to-end answering and the ablation harness, plus the start sets and
reader_passages, the one rule for what the reader reads, which reader
training shares. Each question is linked once (linked_passages); its start
set, and a ranked question's top BRIDGE_READ_PASSAGES answer passages (a
bridge question the reasoner ranked), each add the first TOP_N_EL linked
pages not in their own list. A question without a ranking (a comparison,
the no_bridge_reasoner mode, or a bridge question with no candidates) reads
its start set, up to bridge.READER_MAX_PASSAGES passages. Every mode
answers through that one flow; the oracle modes read a full run's models
and only put gold titles first on a bridge question's ranking. A run at an
evidence mode trains its reasoner with the one channel left
(config.evidence_for), which predict_one checks. The no-EL and no-multitask
ablations are runs too, at entity_linking false (no linker, so
linked_passages is empty) and at aux_weight 0, answered in full.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .bridge import (
    READER_MAX_PASSAGES,
    BridgeModel,
    TitleTokenLinker,
    collect_candidates,  # noqa: F401 - bench/layers.py traces ablation.collect_candidates
    expand_with_entity_linking,
    gold_titles,
    predict_ranked_titles,
    rank_answer_passages,  # noqa: F401 - bench/layers.py traces ablation.rank_answer_passages
    score_bridges,  # noqa: F401 - bench/layers.py traces ablation.score_bridges
)
from .config import ABLATION_MODES, PipelineConfig, evidence_for
from .corpus import Corpus, Passage, QARecord
from .errors import MissingPrerequisiteError, ValidationError
from .metrics import MetricReport, QuestionMetrics, em_f1, hits_at_k
from .reader import Prediction, read_and_decode
from .retrieval import InvertedIndex, retrieve_start_passages
from .span_model import SpanModel

log = logging.getLogger(__name__)

# how many of the reasoner's ranked titles a bridge question's reader reads,
# in answering and in training; on the fixture's dev bridge questions the
# first passage holding the answer ranks in the top 3 at seeds 11-15
BRIDGE_READ_PASSAGES = 3
# the linked pages a start set, or a ranked question's read passages, add
TOP_N_EL = 2


@dataclass
class PipelineState:
    """The shared read-only corpus, index and linker, plus the trained
    components once loaded (the training stages use it without them).

    Each loaded model carries a span_model.EncodingMemo for its lifetime,
    on the SpanModel that encodes (bridge.span.memo, reader.memo), keyed by
    token content. The bridge reasoner's holds the encoder states
    of each start passage and the vector of each target abstract it has
    read, one entry per distinct text, so with no size limit. The reader's
    holds the encoder states of the span_model.READER_MEMO_CONTEXTS whole
    contexts it read most recently: contexts combine passages, and an
    unbounded memo raised peak RSS by 15-23% on the benchmark. A state
    rebuilt with another corpus (dataclasses.replace) shares the models and
    their memos, and still reads the new texts."""

    corpus: Corpus
    index: InvertedIndex
    cfg: PipelineConfig
    bridge: BridgeModel | None = None
    reader: SpanModel | None = None
    linker: TitleTokenLinker | None = None


def linked_passages(state: PipelineState, record: QARecord) -> list[Passage]:
    """The corpus passages of the question's linked titles, in link order;
    none when state.linker is None."""
    if state.linker is None:
        return []
    return expand_with_entity_linking(record.question_tokens, state.linker, state.corpus)


def _plus_linked(passages: list[Passage], linked: list[Passage]) -> list[Passage]:
    """The passages plus the first TOP_N_EL linked passages not among them."""
    have = {p.title for p in passages}
    return passages + [p for p in linked if p.title not in have][:TOP_N_EL]


def start_passages_for(state: PipelineState, record: QARecord, linked: list[Passage]) -> list[Passage]:
    """The question's start set: its top-k retrieved passages plus the linked
    extras not among them."""
    results = retrieve_start_passages(state.index, record.question_tokens, state.cfg.k)
    passages = [state.corpus.by_id[r.passage_id] for r in results]
    return _plus_linked(passages, linked)


def reader_passages(
    state: PipelineState, titles: list[str], starts: list[Passage], linked: list[Passage]
) -> list[Passage]:
    """The reader's input, in answering and in training. With ranked answer
    titles: the passages of the top BRIDGE_READ_PASSAGES of them (titles
    missing from the corpus are dropped) plus the linked extras not among
    those. Without: the start set, up to READER_MAX_PASSAGES passages."""
    if not titles:
        return starts[:READER_MAX_PASSAGES]
    top = titles[:BRIDGE_READ_PASSAGES]
    passages = [state.corpus.by_title[t] for t in top if t in state.corpus.by_title]
    return _plus_linked(passages, linked)


def predict_one(
    state: PipelineState,
    record: QARecord,
    mode: str = "full",
    gold_title: str | None = None,
) -> tuple[Prediction | None, str | None]:
    """Answer one question under the given mode: link it, retrieve its start
    set, rank with the reasoner (not at no_bridge_reasoner) and read what
    reader_passages gives for the ranking. An oracle mode puts its front first
    on a bridge question's ranking, scored None: the gold title, then at
    full_support the supporting titles, those in the corpus. (None, reason)
    when the mode cannot be applied to this question (no front)."""
    if mode not in ABLATION_MODES:
        raise ValidationError(f"unknown ablation mode {mode!r}")
    if state.reader is None:
        raise MissingPrerequisiteError("no trained reader loaded; run train-reader")
    if state.bridge is not None and state.bridge.evidence != evidence_for(mode):
        raise ValidationError(f"mode {mode!r} answers with a reasoner of evidence {evidence_for(mode)}, "
                              f"not {state.bridge.evidence}; rerun train-bridge at mode {mode!r}")
    front: list[str] = []
    if record.qtype == "bridge" and mode in ("oracle_gold_passage", "full_support"):
        titles = [gold_title, *(record.supporting_titles or ())] if mode == "full_support" else [gold_title]
        front = [t for t in dict.fromkeys(titles) if t in state.corpus.by_title]
        if not front:
            return None, ("no distant answer-passage label available" if mode == "oracle_gold_passage" else
                          "no supporting title resolves in the corpus" if record.supporting_titles else
                          "no supporting titles available")
    fallback = False
    ranking: list[tuple[str, float | None]] = []
    linked = linked_passages(state, record)
    starts = start_passages_for(state, record, linked)
    if record.qtype == "bridge" and mode != "no_bridge_reasoner":
        if state.bridge is None:
            raise MissingPrerequisiteError("no trained bridge reasoner loaded; run train-bridge")
        ranking = predict_ranked_titles(state.bridge, record, starts, state.corpus)
        if front:
            ranking = [(t, None) for t in front] + [(t, s) for t, s in ranking if t not in front]
        elif not ranking:
            log.warning("question %s: no bridge candidates; falling back to start passages", record.id)
            fallback = True
    context_passages = reader_passages(state, [t for t, _ in ranking], starts, linked)
    if not context_passages:
        return None, "no context passages available"
    answer, context = read_and_decode(state.reader, record, context_passages, max_tokens=state.cfg.reader_context_cap)
    return (
        Prediction(
            qid=record.id,
            answer=answer,
            passages=context.titles,
            # without a reasoner's ranking, the passages chosen for reading stand in for one
            ranking=ranking or [(p.title, None) for p in context_passages],
            fallback=fallback,
            n_passages_dropped=len(context_passages) - len(context.passages),
        ),
        None,
    )


def predict_questions(
    state: PipelineState,
    questions: list[QARecord],
    mode: str = "full",
    labels: dict[str, str] | None = None,
) -> tuple[list[Prediction], list[dict]]:
    labels = labels or {}
    predictions: list[Prediction] = []
    skipped: list[dict] = []
    for record in questions:
        prediction, reason = predict_one(state, record, mode, gold_title=labels.get(record.id))
        if prediction is None:
            skipped.append({"qid": record.id, "reason": reason})
        else:
            predictions.append(prediction)
    return predictions, skipped


def score_predictions(
    predictions: list[Prediction],
    questions: list[QARecord],
    mode: str,
    labels: dict[str, str] | None = None,
    skipped: list[dict] | None = None,
) -> MetricReport:
    labels = labels or {}
    by_qid = {q.id: q for q in questions}
    report = MetricReport(mode=mode, skipped=list(skipped or []))
    for pred in predictions:
        record = by_qid.get(pred.qid)
        if record is None:
            raise ValidationError(f"prediction for unknown question {pred.qid!r}")
        em, f1 = em_f1(pred.answer, record.answer)
        gold_title = labels.get(pred.qid)
        hits1 = hits10 = None
        if gold_title is not None and pred.ranking:
            titles = [t for t, _ in pred.ranking]
            hits1 = hits_at_k(titles, gold_title, 1)
            hits10 = hits_at_k(titles, gold_title, 10)
        flags = ["fallback_start_passages"] if pred.fallback else []
        report.per_question.append(
            QuestionMetrics(
                qid=pred.qid,
                qtype=record.qtype,
                em=em,
                f1=f1,
                prediction=pred.answer,
                gold=record.answer,
                hits1=hits1,
                hits10=hits10,
                flags=flags,
            )
        )
    return report


def run_ablation(mode: str, state: PipelineState, questions: list[QARecord]) -> MetricReport:
    """Answer every question under the mode and score the results.

    Distant answer-passage labels for the questions are derived on the fly
    (they feed the oracle mode and the hits columns).
    """
    labels = gold_titles(questions, state.corpus, state.cfg.seed)
    predictions, skipped = predict_questions(state, questions, mode, labels)
    return score_predictions(predictions, questions, mode, labels, skipped)
