"""The answering reasoner's encoding memo, checked against the packed path
(a reasoner without a memo) as the oracle."""

from dataclasses import replace

import numpy as np
import pytest

from bridgeqa.ablation import predict_questions
from bridgeqa.bridge import EncodingMemo, collect_candidates, gold_titles, score_bridges
from bridgeqa.config import ABLATION_MODES
from bridgeqa.corpus import tokenize
from bridgeqa.manifest import read_manifest
from bridgeqa.pipeline import _embedding, _load_ingested, _new_bridge_model, load_pipeline_state
from bridgeqa.span_model import EMBED_DIM, init_span_model
from test_bridge import corpus_of, passage, randomize_biases, tiny_bridge_model


def _answering_states(cfg):
    """(with memo, without memo), each with a no-multitask reader so that
    every ablation mode runs."""
    states = []
    for keep_memo in (True, False):
        state = load_pipeline_state(cfg)
        if not keep_memo:
            state.bridge.memo = None
        state.reader_no_multitask = init_span_model(
            state.reader.table.vocab, EMBED_DIM, cfg.gru_hidden, 0.0, np.random.default_rng(0)
        )
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


def test_memo_answers_do_not_depend_on_the_questions_answered_before(mini_run):
    _, _, dev = _load_ingested(mini_run)
    forward, _ = predict_questions(load_pipeline_state(mini_run), dev)
    backward, _ = predict_questions(load_pipeline_state(mini_run), dev[::-1])
    by_qid = {p.qid: p for p in backward}
    assert any(score is not None for p in forward for _, score in p.ranking)
    for p in forward:
        # bitwise: equal floats, not close ones
        assert p.ranking == by_qid[p.qid].ranking
        assert p.answer == by_qid[p.qid].answer


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


def test_models_built_for_training_carry_no_memo(mini_run):
    embedding = _embedding(mini_run, *_load_ingested(mini_run)[:2])
    assert _new_bridge_model(mini_run, embedding, seed_tag=0).memo is None
    assert _new_bridge_model(mini_run, embedding, seed_tag=1).memo is None
    memo = load_pipeline_state(mini_run).bridge.memo
    assert isinstance(memo, EncodingMemo) and memo.computed == memo.reused == 0


def test_predict_entry_counts_the_encodings_computed_and_reused(mini_run):
    (entry,) = [e for e in read_manifest(mini_run.output_dir) if e["stage"] == "predict"]
    computed, reused = entry["bridge_encodings_computed"], entry["bridge_encodings_reused"]
    assert isinstance(computed, int) and isinstance(reused, int)
    assert computed > 0 and reused > 0


@pytest.mark.parametrize("mode", ["no_context_evidence", "no_content_evidence"])
def test_a_switched_off_channel_encodes_nothing_for_it(mini_run, mode):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    predict_questions(state, dev, mode)
    memo = state.bridge.memo
    unused = memo.passages if mode == "no_context_evidence" else memo.abstracts
    assert unused == {}
    assert memo.computed == len(memo.passages) + len(memo.abstracts) > 0
