"""The answering models' encoding memos, checked against the packed path (a
reasoner or reader without a memo) as the oracle."""

import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bridgeqa import reader as reader_module
from bridgeqa.ablation import predict_questions
from bridgeqa.bridge import EncodingMemo, collect_candidates, gold_titles, score_bridges
from bridgeqa.config import ABLATION_MODES
from bridgeqa.corpus import tokenize
from bridgeqa.manifest import read_manifest
from bridgeqa.pipeline import (
    _embedding,
    _load_ingested,
    _new_bridge_model,
    _new_reader_model,
    load_pipeline_state,
    run_stage,
)
from bridgeqa.reader import best_span, build_reader_context, make_reader_example, reader_losses
from bridgeqa.span_model import EMBED_DIM, READER_MEMO_CONTEXTS, init_span_model, run_span_model
from test_bridge import corpus_of, passage, randomize_biases, tiny_bridge_model
from test_span_model import tiny_model


def _answering_states(cfg):
    """(with memos, without memos), each with a no-multitask reader so that
    every ablation mode runs; with memos, that reader has its own."""
    states = []
    for keep_memo in (True, False):
        state = load_pipeline_state(cfg)
        state.reader_no_multitask = init_span_model(
            state.reader.table.vocab, EMBED_DIM, cfg.gru_hidden, 0.0, np.random.default_rng(0)
        )
        if keep_memo:
            state.reader_no_multitask.memo = EncodingMemo(limit=READER_MEMO_CONTEXTS)
        else:
            state.bridge.memo = state.reader.memo = None
        states.append(state)
    return states


def test_memo_gives_the_packed_answers_in_every_ablation_mode(mini_run):
    memo_state, plain_state = _answering_states(mini_run)
    _, _, dev = _load_ingested(mini_run)
    labels = gold_titles(dev, memo_state.corpus, mini_run.seed)
    for mode in ABLATION_MODES:
        with_memo, skipped_memo = predict_questions(memo_state, dev, mode, labels)
        packed, skipped_packed = predict_questions(plain_state, dev, mode, labels)
        assert skipped_memo == skipped_packed
        assert len(with_memo) == len(packed) > 0
        for a, b in zip(with_memo, packed):
            assert (a.qid, a.answer, a.passages, a.fallback) == (b.qid, b.answer, b.passages, b.fallback), mode
            assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking], mode
            scores_a = [s for _, s in a.ranking]
            scores_b = [s for _, s in b.ranking]
            assert [s is None for s in scores_a] == [s is None for s in scores_b]
            if None not in scores_a:
                np.testing.assert_allclose(scores_a, scores_b, rtol=0, atol=1e-12)
    memo = memo_state.bridge.memo
    assert memo.computed > 0 and memo.reused > 0
    assert memo.computed == len(memo.passages) + len(memo.abstracts)
    for reader in (memo_state.reader, memo_state.reader_no_multitask):
        assert reader.memo.computed == len(reader.memo.passages) > 0
    # the modes that read what full reads read it from the memo
    assert memo_state.reader.memo.reused > 0


def test_memo_scores_every_candidate_as_the_packed_path(mini_run):
    memo_state, plain_state = _answering_states(mini_run)
    _, _, dev = _load_ingested(mini_run)
    from bridgeqa.ablation import linked_passages, start_passages_for

    compared = 0
    for record in dev:
        starts = start_passages_for(memo_state, record, linked_passages(memo_state, record))
        candidates = collect_candidates(starts, memo_state.corpus)
        if not candidates:
            continue
        question = tokenize(record.question)
        with_memo = score_bridges(memo_state.bridge, question, starts, candidates, memo_state.corpus)
        packed = score_bridges(plain_state.bridge, question, starts, candidates, plain_state.corpus)
        np.testing.assert_allclose(with_memo.data, packed.data, rtol=0, atol=1e-12)
        compared += 1
    assert compared > 0


def _reader_inputs(state, dev):
    """(question, reader context) of each dev question the state answers in
    the full mode."""
    by_qid = {q.id: q for q in dev}
    predictions, _ = predict_questions(state, dev)
    return [
        (by_qid[p.qid], build_reader_context([state.corpus.by_title[t] for t in p.passages]))
        for p in predictions
    ]


def test_reader_memo_scores_every_position_as_the_packed_path(mini_run):
    memo_state, plain_state = _answering_states(mini_run)
    _, _, dev = _load_ingested(mini_run)
    inputs = _reader_inputs(plain_state, dev)
    memo = memo_state.reader.memo
    compared = {True: 0, False: 0}  # by whether the context was held
    # the second round reads every context from the memo
    for record, context in inputs + inputs:
        held = tuple(context.tokens) in memo.passages
        _, with_memo = run_span_model(memo_state.reader, record.question_tokens, context.tokens)
        _, packed = run_span_model(plain_state.reader, record.question_tokens, context.tokens)
        np.testing.assert_allclose(with_memo.start_logits.data, packed.start_logits.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(with_memo.end_logits.data, packed.end_logits.data, rtol=0, atol=1e-12)
        compared[held] += 1
    assert compared[True] >= len(inputs) and compared[False] > 0
    assert (memo.computed, memo.reused) == (compared[False], compared[True])


def test_a_bounded_memo_evicts_the_least_recently_read_context():
    model = tiny_model(seed=4)
    packed = replace(model, memo=None)
    model.memo = EncodingMemo(limit=2)
    contexts = {name: tokenize(text) for name, text in
                (("A", "kiss and tell"), ("B", "temple stars archer"), ("C", "who stars in kiss"))}
    question = tokenize("who stars")
    # A is read again after C displaced B (least recently read), not A
    # (first stored); B comes back after its eviction
    for name, was_held in (("A", False), ("B", False), ("A", True), ("C", False), ("A", True), ("B", False)):
        counts = (model.memo.computed, model.memo.reused)
        _, with_memo = run_span_model(model, question, contexts[name])
        _, oracle = run_span_model(packed, question, contexts[name])
        np.testing.assert_allclose(with_memo.start_logits.data, oracle.start_logits.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(with_memo.end_logits.data, oracle.end_logits.data, rtol=0, atol=1e-12)
        assert best_span(with_memo.start_logits.data, with_memo.end_logits.data) == best_span(
            oracle.start_logits.data, oracle.end_logits.data
        )
        assert (model.memo.computed, model.memo.reused) == (counts[0] + (not was_held), counts[1] + was_held)
        assert len(model.memo.passages) <= 2
    assert list(model.memo.passages) == [contexts["A"].tokens, contexts["B"].tokens]
    assert (model.memo.computed, model.memo.reused) == (4, 2)


def test_memo_answers_do_not_depend_on_the_questions_answered_before(mini_run, monkeypatch):
    _, _, dev = _load_ingested(mini_run)
    read = []  # (model, question tokens, start and end logits) per reader call
    original = reader_module.run_span_model

    def recording(model, question_tokens, context_tokens, **kwargs):
        final, scores = original(model, question_tokens, context_tokens, **kwargs)
        read.append((model, question_tokens, scores.start_logits.data, scores.end_logits.data))
        return final, scores

    monkeypatch.setattr(reader_module, "run_span_model", recording)
    forward_state, backward_state = load_pipeline_state(mini_run), load_pipeline_state(mini_run)
    # answered twice over: the second round reads every context from the
    # forward reader's memo, while a two-context memo evicts each one before
    # it comes back and encodes it again
    backward_state.reader.memo = EncodingMemo(limit=2)
    forward, _ = predict_questions(forward_state, dev + dev)
    backward, _ = predict_questions(backward_state, (dev + dev)[::-1])
    by_qid = {p.qid: p for p in backward}
    assert any(score is not None for p in forward for _, score in p.ranking)
    for p in forward:
        # bitwise: equal floats, not close ones
        assert p.ranking == by_qid[p.qid].ranking
        assert p.answer == by_qid[p.qid].answer
    by_question = {}
    for _, question, start, end in read:
        by_question.setdefault(question, []).append((start, end))
    assert len(read) == 2 * len(forward) and len(by_question) == len(forward) // 2
    for (start, end), *others in by_question.values():
        for other_start, other_end in others:
            np.testing.assert_array_equal(other_start, start)
            np.testing.assert_array_equal(other_end, end)
    assert forward_state.reader.memo.reused == len(forward) // 2
    assert (backward_state.reader.memo.computed, backward_state.reader.memo.reused) == (len(forward), 0)


def _one_title_corpus(text: str):
    """A start page that links to "Target", whose text is the argument; the
    start page repeats that text, so both pages differ between corpora."""
    return corpus_of([
        passage("p0", "Start", f"Start links to Target, about {text}", anchors=[("Target", "Target")]),
        passage("p1", "Target", text),
    ])


def test_memo_keys_by_content_so_a_swapped_corpus_gets_its_own_encodings():
    corpora = [_one_title_corpus(text) for text in ("a film by Alice Archer", "a novel by Bob Baker in Paris")]
    with_memo = tiny_bridge_model(corpus_of(corpora[0].passages + corpora[1].passages), extra_tokens=("who",))
    randomize_biases(with_memo)
    packed = replace(with_memo, memo=None)
    with_memo.memo = EncodingMemo()
    question = tokenize("Who is Target")
    scores = []
    for corpus in corpora:
        starts = [corpus.by_title["Start"]]
        candidates = collect_candidates(starts, corpus)
        memo_logits = score_bridges(with_memo, question, starts, candidates, corpus)
        packed_logits = score_bridges(packed, question, starts, candidates, corpus)
        np.testing.assert_allclose(memo_logits.data, packed_logits.data, rtol=0, atol=1e-12)
        scores.append(memo_logits.data[0])
    assert scores[0] != scores[1]
    assert len(with_memo.memo.passages) == 2 and len(with_memo.memo.abstracts) == 2
    assert (with_memo.memo.computed, with_memo.memo.reused) == (4, 0)


def test_training_neither_reads_nor_fills_the_memo(mini_run):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    from bridgeqa.ablation import linked_passages, start_passages_for

    record = next(
        q for q in dev
        if q.qtype == "bridge" and collect_candidates(start_passages_for(state, q, linked_passages(state, q)),
                                                      state.corpus)
    )
    starts = start_passages_for(state, record, linked_passages(state, record))
    candidates = collect_candidates(starts, state.corpus)
    question = tokenize(record.question)
    model = state.bridge
    memo = model.memo
    assert memo is not None and memo.computed == memo.reused == 0

    def train_logits():
        return score_bridges(model, question, starts, candidates, state.corpus, rng=np.random.default_rng(3)).data

    packed = train_logits()
    assert (memo.computed, memo.reused, memo.passages, memo.abstracts) == (0, 0, {}, {})
    # a poisoned memo is never read in training
    score_bridges(model, question, starts, candidates, state.corpus)
    assert memo.passages and memo.abstracts
    for entries in (memo.passages, memo.abstracts):
        for key in entries:
            entries[key] = entries[key] + 1.0
    counts = (memo.computed, memo.reused)
    np.testing.assert_array_equal(train_logits(), packed)
    assert (memo.computed, memo.reused) == counts


def test_reader_training_neither_reads_nor_fills_the_memo(mini_run):
    state = load_pipeline_state(mini_run)
    _, train, _ = _load_ingested(mini_run)
    examples = []
    for record in train:
        passages = [state.corpus.by_title[t] for t in record.supporting_titles if t in state.corpus.by_title]
        example, reason = make_reader_example(record, passages, max_tokens=mini_run.reader_context_cap)
        if reason is None:
            examples.append(example)
    examples = examples[:3]
    # the loaded reader, with dropout for training to draw
    model = replace(state.reader, dropout=0.2)
    memo = model.memo
    assert len(examples) == 3
    assert memo is not None and memo.computed == memo.reused == 0

    def train_forward():
        losses = [loss.item() for loss, _ in reader_losses(model, examples, rng=np.random.default_rng(3))]
        _, scores = run_span_model(model, examples[0].question, examples[0].context.tokens,
                                   rng=np.random.default_rng(4))
        return losses, scores.start_logits.data, scores.end_logits.data

    packed = train_forward()
    assert (memo.computed, memo.reused, memo.passages) == (0, 0, {})
    # a poisoned memo is never read in training
    for example in examples:
        run_span_model(model, example.question, example.context.tokens)
    assert len(memo.passages) == len({tuple(ex.context.tokens) for ex in examples})
    for key in memo.passages:
        memo.passages[key] = memo.passages[key] + 1.0
    counts = (memo.computed, memo.reused)
    again = train_forward()
    assert again[0] == packed[0]
    np.testing.assert_array_equal(again[1], packed[1])
    np.testing.assert_array_equal(again[2], packed[2])
    assert (memo.computed, memo.reused) == counts


def test_models_built_for_training_carry_no_memo(mini_run):
    embedding = _embedding(mini_run, *_load_ingested(mini_run)[:2])
    assert _new_bridge_model(mini_run, embedding, seed_tag=0).memo is None
    assert _new_bridge_model(mini_run, embedding, seed_tag=1).memo is None
    assert _new_reader_model(mini_run, embedding, seed_tag=0).memo is None
    assert _new_reader_model(mini_run, embedding, seed_tag=1).memo is None
    state = load_pipeline_state(mini_run)
    memo = state.bridge.memo
    assert isinstance(memo, EncodingMemo) and memo.computed == memo.reused == 0 and memo.limit is None
    memo = state.reader.memo
    assert isinstance(memo, EncodingMemo) and memo.computed == memo.reused == 0
    assert memo.limit == READER_MEMO_CONTEXTS


def test_predict_entry_counts_the_encodings_computed_and_reused(mini_run):
    (entry,) = [e for e in read_manifest(mini_run.output_dir) if e["stage"] == "predict"]
    computed, reused = entry["bridge_encodings_computed"], entry["bridge_encodings_reused"]
    assert isinstance(computed, int) and isinstance(reused, int)
    assert computed > 0 and reused > 0
    computed, reused = entry["reader_encodings_computed"], entry["reader_encodings_reused"]
    assert isinstance(computed, int) and isinstance(reused, int)
    # one read per question answered
    assert computed > 0 and computed + reused == entry["n_predictions"]


def test_a_loaded_no_multitask_reader_has_its_own_memo(mini_run, tmp_path):
    copy = tmp_path / "run_copy"
    shutil.copytree(mini_run.output_dir, copy)
    shutil.copytree(copy / "checkpoints" / "reader", copy / "checkpoints" / "reader_no_multitask")
    cfg = replace(mini_run, output_dir=str(copy), mode="no_multitask")
    state = load_pipeline_state(cfg)
    assert isinstance(state.reader_no_multitask.memo, EncodingMemo)
    assert state.reader_no_multitask.memo is not state.reader.memo
    assert state.reader_no_multitask.memo.limit == READER_MEMO_CONTEXTS
    entry = run_stage("predict", cfg)
    assert entry["reader_encodings_computed"] > 0
    assert entry["reader_encodings_computed"] + entry["reader_encodings_reused"] == entry["n_predictions"]
    assert Path(cfg.output_dir, "predictions.jsonl").exists()


@pytest.mark.parametrize("mode", ["no_context_evidence", "no_content_evidence"])
def test_a_switched_off_channel_encodes_nothing_for_it(mini_run, mode):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    predict_questions(state, dev, mode)
    memo = state.bridge.memo
    unused = memo.passages if mode == "no_context_evidence" else memo.abstracts
    assert unused == {}
    assert memo.computed == len(memo.passages) + len(memo.abstracts) > 0
