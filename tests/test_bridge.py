import math

import numpy as np
import pytest

from bridgeqa.bridge import (
    BridgeLabel,
    TitleTokenLinker,
    bridge_loss,
    collect_candidates,
    derive_bridge_labels,
    encode_abstract,
    expand_with_entity_linking,
    init_bridge_model,
    rank_answer_passages,
    score_bridges,
)
from bridgeqa.corpus import Corpus, Passage, QARecord, tokenize
from bridgeqa.errors import ValidationError
from bridgeqa.numcore import Tensor
from bridgeqa.span_model import build_vocab


def passage(pid, title, text, anchors=()):
    from bridgeqa.corpus import AnchorMention, align_anchor

    p = Passage(id=pid, title=title, text=text, anchors=(), tokens=tokenize(text))
    aligned = []
    for target, mention_text in anchors:
        start = text.index(mention_text)
        aligned.append(align_anchor(p, AnchorMention(target, start, start + len(mention_text))))
    return Passage(id=pid, title=title, text=text, anchors=tuple(aligned), tokens=p.tokens)


def corpus_of(passages):
    return Corpus(tuple(passages), {p.title: p for p in passages}, {p.id: p for p in passages})


def kiss_and_tell_corpus():
    film = passage(
        "p1",
        "Kiss and Tell (1945 film)",
        "Kiss and Tell stars Shirley Temple as Corliss Archer.",
        anchors=[("Shirley Temple", "Shirley Temple")],
    )
    person = passage(
        "p2",
        "Shirley Temple",
        "Shirley Temple later served as Chief of Protocol of the United States.",
    )
    return corpus_of([film, person])


def test_derive_labels_answer_passage_selected():
    corpus = kiss_and_tell_corpus()
    q = QARecord(
        id="q1",
        question="What government position was held by the woman who portrayed Corliss Archer?",
        answer="Chief of Protocol",
        qtype="bridge",
        supporting_titles=("Kiss and Tell (1945 film)", "Shirley Temple"),
    )
    labels, skipped = derive_bridge_labels([q], corpus, seed=0)
    assert labels == [BridgeLabel("q1", "Shirley Temple")]
    assert skipped == []


def test_derive_labels_ambiguous_is_seed_deterministic():
    a = passage("p1", "A", "the answer token lives here")
    b = passage("p2", "B", "the answer token also lives here")
    corpus = corpus_of([a, b])
    q = QARecord("q1", "which?", "answer token", "bridge", ("A", "B"))
    first = derive_bridge_labels([q], corpus, seed=42)[0][0].gold_title
    again = derive_bridge_labels([q], corpus, seed=42)[0][0].gold_title
    assert first == again
    assert first in {"A", "B"}
    picks = {derive_bridge_labels([q], corpus, seed=s)[0][0].gold_title for s in range(30)}
    assert picks == {"A", "B"}  # both sides reachable across seeds


def test_derive_labels_answer_in_neither_is_skipped():
    corpus = kiss_and_tell_corpus()
    q = QARecord("q1", "who?", "totally absent phrase", "bridge",
                 ("Kiss and Tell (1945 film)", "Shirley Temple"))
    labels, skipped = derive_bridge_labels([q], corpus, seed=0)
    assert labels == []
    assert skipped[0]["qid"] == "q1"


def trio_corpus():
    p1 = passage(
        "p1", "Start A", "Start A links Target One and Target Two here.",
        anchors=[("Target One", "Target One"), ("Target Two", "Target Two")],
    )
    p2 = passage(
        "p2", "Start B", "Start B links Target One plus a Missing Page.",
        anchors=[("Target One", "Target One"), ("Missing Page", "Missing Page")],
    )
    t1 = passage("p3", "Target One", "content of target one page")
    t2 = passage("p4", "Target Two", "content of target two page")
    return corpus_of([p1, p2, t1, t2])


def test_collect_candidates_resolvable_only():
    corpus = trio_corpus()
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)
    assert len(cands) == 3  # the Missing Page anchor is dropped
    assert {c.target_title for c in cands} == {"Target One", "Target Two"}


def test_collect_candidates_mentions_stay_distinct():
    text = "Target One then Target One again."
    p = passage("p1", "S", text, anchors=[("Target One", "Target One")])
    # add a second mention over the second occurrence by hand
    from bridgeqa.corpus import AnchorMention, align_anchor

    second = text.index("Target One", 5)
    m2 = align_anchor(p, AnchorMention("Target One", second, second + len("Target One")))
    p = Passage(id=p.id, title=p.title, text=p.text, anchors=p.anchors + (m2,), tokens=p.tokens)
    target = passage("p2", "Target One", "something")
    corpus = corpus_of([p, target])
    cands = collect_candidates([p], corpus)
    assert len(cands) == 2


def tiny_bridge_model(corpus, extra_tokens=(), seed=0, **kw):
    sources = [p.tokens.tokens for p in corpus.passages]
    sources += [tokenize(p.title).tokens for p in corpus.passages]
    sources.append(tuple(extra_tokens))
    vocab = build_vocab(sources)
    rng = np.random.default_rng(seed)
    return init_bridge_model(vocab, 4, 2, 2, 0.0, rng, **kw)


def test_score_bridges_zero_fusion_weights_all_equal_bias():
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    model.store["fuse/w"].data[:] = 0.0
    model.store["fuse/b"].data[:] = 0.25
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)
    scored, _ = score_bridges(model, tokenize("which target?"), starts, cands, corpus)
    assert all(c.fused_score == pytest.approx(0.25) for c in scored)
    ranked = rank_answer_passages(scored)
    assert [t for t, _ in ranked] == ["Target One", "Target Two"]  # tie-break by title


def randomize_biases(model, seed=1):
    for name, param in model.store.items():
        if "/b" in name:
            param.data[:] = np.random.default_rng(seed).normal(scale=0.3, size=param.data.shape)


def fusion_oracle(model, question, starts, cand, corpus, use_context=True, use_content=True):
    """w . [take_row(final, token_start); encode_abstract(target)] + b for one
    candidate on its own, a switched-off channel as zeros."""
    from bridgeqa.numcore import take_row
    from bridgeqa.span_model import biattention, encode, self_attention

    store, hidden = model.store, model.span.hidden
    h_context = np.zeros(8 * hidden)
    if use_context:
        start = next(p for p in starts if p.id == cand.source_passage_id)
        q_enc = encode(question, model.table, store, hidden)
        final = self_attention(biattention(encode(start.tokens, model.table, store, hidden), q_enc, store), store)
        h_context = take_row(final.states, cand.mention.token_start).data[0]
    h_content = np.zeros(2 * model.lstm_hidden)
    if use_content:
        h_content = encode_abstract(model, corpus.by_title.get(cand.target_title))[0].data[0]
    joint = np.concatenate([h_context, h_content])
    return float(joint @ store["fuse/w"].data[:, 0] + store["fuse/b"].data[0])


def test_score_bridges_hand_computed_fusion():
    # the stacked fusion equals scoring each candidate on its own, with both
    # channels on and with either switched off
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    randomize_biases(model)
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)
    for switches in ({}, {"use_context": False}, {"use_content": False}):
        scored, logits = score_bridges(model, q, starts, cands, corpus, **switches)
        assert logits.shape == (len(cands),)
        for c, logit in zip(scored, logits.data):
            want = fusion_oracle(model, q, starts, c, corpus, **switches)
            assert abs(c.fused_score - want) < 1e-12
            assert c.fused_score == logit


def test_score_bridges_content_ablation_ignores_abstract_text():
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    starts = [corpus.by_id["p1"]]
    cands = collect_candidates(starts, corpus)
    q = tokenize("which?")
    base = [c.fused_score for c in score_bridges(model, q, starts, cands, corpus, use_content=False)[0]]

    # rewrite an abstract; scores with the content channel ablated must not move
    changed = passage("p3", "Target One", "completely different words now live here")
    altered = corpus_of([corpus.by_id["p1"], corpus.by_id["p2"], changed, corpus.by_id["p4"]])
    after = [
        c.fused_score
        for c in score_bridges(model, q, starts, cands, altered, use_content=False)[0]
    ]
    assert after == pytest.approx(base)


def test_score_bridges_context_ablation_zeroes_channel():
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    starts = [corpus.by_id["p1"]]
    cands = collect_candidates(starts, corpus)
    q = tokenize("which?")
    scored, _ = score_bridges(model, q, starts, cands, corpus, use_context=False)
    for c in scored:
        assert abs(c.fused_score - fusion_oracle(model, q, starts, c, corpus, use_context=False)) < 1e-12


def test_score_bridges_missing_abstract_uses_sentinel():
    empty_target = passage("p3", "Target One", "")
    p1 = passage("p1", "Start A", "links Target One here.", anchors=[("Target One", "Target One")])
    corpus = corpus_of([p1, empty_target])
    model = tiny_bridge_model(corpus, extra_tokens=("which",))
    q = tokenize("which?")
    scored, _ = score_bridges(model, q, [p1], collect_candidates([p1], corpus), corpus)
    assert scored[0].content_missing
    # the oracle's content vector for the empty abstract is the trained sentinel
    vec, missing = encode_abstract(model, empty_target)
    assert missing and vec is model.store["abstract/missing"]
    assert abs(scored[0].fused_score - fusion_oracle(model, q, [p1], scored[0], corpus)) < 1e-12


def loss_of(scores, gold_title):
    cands = []
    from bridgeqa.bridge import BridgeCandidate
    from bridgeqa.corpus import AnchorMention

    for i, (title, value) in enumerate(scores):
        cands.append(
            BridgeCandidate(
                mention=AnchorMention(title, 0, 1, 0, 0),
                source_passage_id="p",
                target_title=title,
                fused_score=value,
            )
        )
    logits = Tensor(np.array([value for _, value in scores]))
    return bridge_loss(cands, logits, BridgeLabel("q", gold_title))


def test_bridge_loss_single_gold_candidate_is_zero():
    assert loss_of([("G", 3.0)], "G").item() == pytest.approx(0.0)


def test_bridge_loss_uniform_candidates():
    scores = [("G", 0.0), ("A", 0.0), ("B", 0.0), ("C", 0.0)]
    assert loss_of(scores, "G").item() == pytest.approx(math.log(4))


def test_bridge_loss_marginalizes_gold_mentions():
    scores = [("G", 0.0), ("G", 0.0), ("A", 0.0), ("B", 0.0)]
    assert loss_of(scores, "G").item() == pytest.approx(math.log(2))


def test_bridge_loss_gold_absent_is_error():
    with pytest.raises(ValidationError, match="gold"):
        loss_of([("A", 0.0)], "G")


def test_bridge_loss_shift_invariance():
    scores = [("G", 1.0), ("A", -0.5), ("B", 2.0)]
    base = loss_of(scores, "G").item()
    shifted = [(t, v + 11.5) for t, v in scores]
    assert loss_of(shifted, "G").item() == pytest.approx(base)


def test_rank_answer_passages_max_reduction_and_dedupe():
    scores = [("A", 1.0), ("A", 3.0), ("B", 2.0)]
    cands = []
    from bridgeqa.bridge import BridgeCandidate
    from bridgeqa.corpus import AnchorMention

    for title, value in scores:
        cands.append(
            BridgeCandidate(
                mention=AnchorMention(title, 0, 1, 0, 0),
                source_passage_id="p",
                target_title=title,
                fused_score=value,
            )
        )
    ranked = rank_answer_passages(cands, k=10)
    assert ranked == [("A", 3.0), ("B", 2.0)]


def test_rank_answer_passages_matches_brute_force():
    rng = np.random.default_rng(3)
    from bridgeqa.bridge import BridgeCandidate
    from bridgeqa.corpus import AnchorMention

    for _ in range(25):
        n = int(rng.integers(1, 14))
        titles = [f"T{int(rng.integers(7))}" for _ in range(n)]
        values = rng.normal(size=n)
        cands = [
            BridgeCandidate(
                mention=AnchorMention(t, 0, 1, 0, 0),
                source_passage_id="p",
                target_title=t,
                fused_score=float(v),
            )
            for t, v in zip(titles, values)
        ]
        k = int(rng.integers(1, 12))
        got = rank_answer_passages(cands, k=k)
        best = {}
        for t, v in zip(titles, values):
            best[t] = max(best.get(t, -np.inf), float(v))
        expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        assert got == expected


def test_rank_answer_passages_prefix_property():
    rng = np.random.default_rng(9)
    from bridgeqa.bridge import BridgeCandidate
    from bridgeqa.corpus import AnchorMention

    cands = [
        BridgeCandidate(
            mention=AnchorMention(f"T{i % 6}", 0, 1, 0, 0),
            source_passage_id="p",
            target_title=f"T{i % 6}",
            fused_score=float(rng.normal()),
        )
        for i in range(12)
    ]
    previous = []
    for k in range(1, 8):
        titles = [t for t, _ in rank_answer_passages(cands, k=k)]
        assert titles[: len(previous)] == previous
        previous = titles


def test_ranking_shift_invariance():
    rng = np.random.default_rng(4)
    from bridgeqa.bridge import BridgeCandidate
    from bridgeqa.corpus import AnchorMention

    cands = [
        BridgeCandidate(
            mention=AnchorMention(f"T{i % 4}", 0, 1, 0, 0),
            source_passage_id="p",
            target_title=f"T{i % 4}",
            fused_score=float(rng.normal()),
        )
        for i in range(9)
    ]
    base = [t for t, _ in rank_answer_passages(cands)]
    for c in cands:
        c.fused_score += 123.0
    assert [t for t, _ in rank_answer_passages(cands)] == base


# --- entity linking ----------------------------------------------------------


def test_baseline_linker_strips_parenthetical():
    corpus = kiss_and_tell_corpus()
    linker = TitleTokenLinker(corpus)
    hits = linker.link(
        "What government position was held by the woman who portrayed "
        "Corliss Archer in Kiss and Tell?"
    )
    assert hits[0][0] == "Kiss and Tell (1945 film)"


def test_expand_appends_linker_passage():
    corpus = kiss_and_tell_corpus()
    linker = TitleTokenLinker(corpus)
    extras = expand_with_entity_linking(
        "Who portrayed Corliss Archer in Kiss and Tell?", linker, corpus, [], top_n=2
    )
    assert [p.title for p in extras] == ["Kiss and Tell (1945 film)"]


def test_expand_no_duplicates():
    corpus = kiss_and_tell_corpus()
    linker = TitleTokenLinker(corpus)
    existing = [corpus.by_title["Kiss and Tell (1945 film)"]]
    extras = expand_with_entity_linking(
        "Who portrayed Corliss Archer in Kiss and Tell?", linker, corpus, existing, top_n=2
    )
    assert extras == []


def test_expand_disabled_linker():
    corpus = kiss_and_tell_corpus()
    assert expand_with_entity_linking("anything", None, corpus, [], top_n=2) == []


def test_expand_linker_failure_degrades_to_empty(caplog):
    corpus = kiss_and_tell_corpus()

    class Exploding:
        def link(self, question):
            raise RuntimeError("service down")

    with caplog.at_level("WARNING"):
        extras = expand_with_entity_linking("anything", Exploding(), corpus, [], top_n=2)
    assert extras == []
    assert any("linker" in rec.message for rec in caplog.records)


def test_score_bridges_all_starts_match_each_start_alone():
    # one packed pass over the question and every start passage (and one over
    # every abstract) scores each candidate as scoring its start passage alone
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    randomize_biases(model)
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    together, _ = score_bridges(model, q, starts, collect_candidates(starts, corpus), corpus)
    alone = []
    for start in starts:
        alone += score_bridges(model, q, [start], collect_candidates([start], corpus), corpus)[0]
    assert [c.target_title for c in together] == [c.target_title for c in alone]
    for a, b in zip(together, alone):
        assert abs(a.fused_score - b.fused_score) < 1e-12


def test_encode_abstracts_matches_one_at_a_time_with_dropout():
    from bridgeqa.bridge import encode_abstracts

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    model.span.dropout = 0.4
    passages = [corpus.by_id["p3"], None, corpus.by_id["p1"], corpus.by_id["p4"]]
    packed = encode_abstracts(model, passages, training=True, rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for p, (vec, missing) in zip(passages, packed):
        want, want_missing = encode_abstract(model, p, training=True, rng=rng)
        assert missing == want_missing == (p is None)
        assert np.max(np.abs(vec.data - want.data)) < 1e-12


def test_train_bridge_applies_last_batch_when_last_question_has_no_candidates():
    from bridgeqa.bridge import BridgeTrainConfig, prepare_question_inputs, train_bridge_reasoner

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    questions = [
        QARecord(id="q1", question="which target?", answer="one", qtype="bridge"),
        QARecord(id="q2", question="which target?", answer="two", qtype="bridge"),
    ]
    labels = [BridgeLabel("q1", "Target One"), BridgeLabel("q2", "Target Two")]
    # q2 has an empty start set; at seed 0 the epoch's order is q1, q2
    inputs = prepare_question_inputs(questions, labels, {"q1": [corpus.by_id["p1"]], "q2": []}, corpus)
    before = model.store["fuse/w"].data.copy()
    stats = train_bridge_reasoner(
        model, inputs, corpus, BridgeTrainConfig(epochs=1, batch_size=2, seed=0, early_stop_hits1=2.0)
    )
    assert stats["history"][0]["mean_loss"] is not None
    # q1's loss is applied in one Adam step, although q2 closes the epoch unscored
    assert model.store.moments["fuse/w"]["t"] == 1
    assert not np.array_equal(model.store["fuse/w"].data, before)


def test_bridge_loss_gradient_through_score_bridges():
    # the reasoner's loss, end to end: encoder, attention, both evidence
    # channels, the stacked fusion and the marginal NLL
    from bridgeqa.numcore import grad_check

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    randomize_biases(model)
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)

    def build(store):
        return bridge_loss(*score_bridges(model, q, starts, cands, corpus), BridgeLabel("q", "Target One"))

    report = grad_check(build, model.store, eps=1e-5, tol=1e-4)
    assert report.passed, report.summary()
