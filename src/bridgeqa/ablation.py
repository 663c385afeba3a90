"""End-to-end answering and the ablation harness, plus the start-set and
answer-passage builders the pipeline stages share with answering.

Bridge questions are read from the reasoner's top BRIDGE_READ_PASSAGES
ranked answer passages; comparison questions are read directly from the
retrieved start passages, up to reader_max_passages of them.
Every ablation mode reuses the same trained components with one switch
flipped, so directional comparisons isolate a single cause.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .bridge import (
    BridgeModel,
    TitleTokenLinker,
    collect_candidates,  # noqa: F401 - bench/layers.py traces ablation.collect_candidates
    expand_with_entity_linking,
    gold_titles,
    predict_ranked_titles,
    rank_answer_passages,  # noqa: F401 - bench/layers.py traces ablation.rank_answer_passages
    score_bridges,  # noqa: F401 - bench/layers.py traces ablation.score_bridges
)
from .config import ABLATION_MODES, PipelineConfig
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


@dataclass
class PipelineState:
    """The shared read-only corpus, index and linker, plus the trained
    components once loaded (the training stages use it without them).

    A loaded bridge reasoner carries a bridge.EncodingMemo for its lifetime:
    the encoder states of each start passage and the vector of each target
    abstract it has read, keyed by token content, one entry per distinct
    text, so with no size limit. A state rebuilt with another corpus
    (dataclasses.replace) shares the reasoner and its memo, and still reads
    the new texts."""

    corpus: Corpus
    index: InvertedIndex
    cfg: PipelineConfig
    bridge: BridgeModel | None = None
    reader: SpanModel | None = None
    reader_no_multitask: SpanModel | None = None
    linker: TitleTokenLinker | None = None


def _with_linked(
    state: PipelineState, record: QARecord, passages: list[Passage], use_entity_linking: bool
) -> list[Passage]:
    """The passages plus the linker's extras for the question, when linking is on."""
    if use_entity_linking and state.linker is not None:
        passages = passages + expand_with_entity_linking(
            record.question_tokens, state.linker, state.corpus, passages, top_n=state.cfg.top_n_el
        )
    return passages


def start_passages_for(
    state: PipelineState, record: QARecord, *, use_entity_linking: bool
) -> list[Passage]:
    """The question's start set: its top-k retrieved passages plus the
    entity-linked extras."""
    results = retrieve_start_passages(
        state.index,
        record.question_tokens,
        state.cfg.k,
        k1=state.cfg.k1,
        b=state.cfg.b,
        title_weight=state.cfg.title_weight,
    )
    passages = [state.corpus.by_id[r.passage_id] for r in results]
    return _with_linked(state, record, passages, use_entity_linking)


def answer_passages_for(
    state: PipelineState, record: QARecord, titles: list[str], *, use_entity_linking: bool
) -> list[Passage]:
    """The reader's input for a bridge question's ranked answer titles: the
    passages of the top BRIDGE_READ_PASSAGES titles (titles missing from the
    corpus are dropped) plus the entity-linked extras."""
    top = titles[:BRIDGE_READ_PASSAGES]
    passages = [state.corpus.by_title[t] for t in top if t in state.corpus.by_title]
    return _with_linked(state, record, passages, use_entity_linking)


def _reader_for_mode(state: PipelineState, mode: str) -> SpanModel:
    if mode == "no_multitask":
        if state.reader_no_multitask is None:
            raise MissingPrerequisiteError(
                "mode 'no_multitask' needs a reader trained without the auxiliary "
                "title objective; enable train_no_multitask_reader and rerun train-reader"
            )
        return state.reader_no_multitask
    if state.reader is None:
        raise MissingPrerequisiteError("no trained reader loaded; run train-reader")
    return state.reader


def predict_one(
    state: PipelineState,
    record: QARecord,
    mode: str = "full",
    gold_title: str | None = None,
) -> tuple[Prediction | None, str | None]:
    """Answer one question under the given mode; (None, reason) when the mode
    cannot be applied to this question (e.g. oracle modes without labels)."""
    if mode not in ABLATION_MODES:
        raise ValidationError(f"unknown ablation mode {mode!r}")
    reader = _reader_for_mode(state, mode)
    use_el = state.cfg.entity_linking and mode != "no_el"
    fallback = False
    ranked_scored: list[tuple[str, float]] = []

    if mode == "oracle_gold_passage" and record.qtype == "bridge":
        if gold_title is None or gold_title not in state.corpus.by_title:
            return None, "no distant answer-passage label available"
        context_passages = [state.corpus.by_title[gold_title]]
        ranked_titles = [gold_title]
    elif mode == "full_support" and record.qtype == "bridge":
        if not record.supporting_titles:
            return None, "no supporting titles available"
        context_passages = [
            state.corpus.by_title[t] for t in record.supporting_titles if t in state.corpus.by_title
        ]
        if not context_passages:
            return None, "no supporting title resolves in the corpus"
        ranked_titles = [p.title for p in context_passages]
    elif record.qtype == "comparison" or mode == "no_bridge_reasoner":
        context_passages = start_passages_for(state, record, use_entity_linking=use_el)[
            : state.cfg.reader_max_passages
        ]
        ranked_titles = [p.title for p in context_passages]
    else:
        if state.bridge is None:
            raise MissingPrerequisiteError("no trained bridge reasoner loaded; run train-bridge")
        starts = start_passages_for(state, record, use_entity_linking=use_el)
        ranked = predict_ranked_titles(
            state.bridge,
            record,
            starts,
            state.corpus,
            k=state.cfg.reader_max_passages,
            use_context=mode != "no_context_evidence",
            use_content=mode != "no_content_evidence",
        )
        if ranked:
            ranked_titles = [t for t, _ in ranked]
            ranked_scored = list(ranked)
            # the reader reads the top ranked passages; the entity-linked
            # abstracts also join its input
            context_passages = answer_passages_for(state, record, ranked_titles, use_entity_linking=use_el)
        else:
            log.warning("question %s: no bridge candidates; falling back to start passages", record.id)
            context_passages = starts[: state.cfg.reader_max_passages]
            ranked_titles = [p.title for p in context_passages]
            fallback = True

    if not context_passages:
        return None, "no context passages available"
    answer, context = read_and_decode(
        reader,
        record,
        context_passages,
        max_tokens=state.cfg.reader_context_cap,
        max_answer_len=state.cfg.max_answer_len,
    )
    return (
        Prediction(
            qid=record.id,
            answer=answer,
            passages=context.titles,
            ranked_titles=ranked_titles,
            ranked_scored=ranked_scored,
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
        if gold_title is not None and pred.ranked_titles:
            hits1 = hits_at_k(pred.ranked_titles, gold_title, 1)
            hits10 = hits_at_k(pred.ranked_titles, gold_title, 10)
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
