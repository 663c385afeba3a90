import math
from dataclasses import replace

import numpy as np
import pytest

from bridgeqa import ablation
from bridgeqa.ablation import PipelineState, linked_passages, reader_passages, start_passages_for
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
from bridgeqa.config import EVIDENCE, PipelineConfig
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


@pytest.mark.parametrize(
    "answer, near_miss",
    [
        ("no", "The abbey stands near Northampton."),
        ("1990", "The first pressing sold 19901 copies."),
    ],
    ids=["no-in-northampton", "1990-in-19901"],
)
def test_derive_labels_match_the_answer_on_token_boundaries(answer, near_miss):
    # the answer's letters inside a longer token of one page do not make it
    # the answer page; its tokens, whole and in order, on the other page do
    holder = passage("p1", "Holder", f"The vote ended {answer}, as recorded.")
    lookalike = passage("p2", "Lookalike", near_miss)
    q = QARecord("q1", "which?", answer, "bridge", ("Holder", "Lookalike"))
    for seed in range(10):
        labels, _ = derive_bridge_labels([q], corpus_of([holder, lookalike]), seed=seed)
        assert labels == [BridgeLabel("q1", "Holder")]
    labels, skipped = derive_bridge_labels([q], corpus_of([lookalike]), seed=0)
    assert labels == [] and skipped[0]["reason"] == "answer not found in any supporting passage"


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


def test_score_bridges_zero_fusion_weights_tie_at_zero():
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    model.store["fuse/w"].data[:] = 0.0
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)
    logits = score_bridges(model, tokenize("which target?"), starts, cands, corpus)
    assert np.all(logits.data == 0.0)
    ranked = rank_answer_passages(cands, logits.data)
    assert [t for t, _ in ranked] == ["Target One", "Target Two"]  # tie-break by title


def randomize_biases(model, seed=1):
    for name, param in model.store.items():
        if "/b" in name:
            param.data[:] = np.random.default_rng(seed).normal(scale=0.3, size=param.data.shape)


# the evidence of a reasoner with both channels and of each ablated one
EVIDENCES = [EVIDENCE, ("context",), ("content",)]


def fusion_oracle(model, question, starts, cand, corpus):
    """w . [take_row(final, token_start); encode_abstract(target)] for one
    candidate on its own, over the reasoner's channels."""
    from bridgeqa.numcore import constant, take_row
    from bridgeqa.span_model import biattention, encode, self_attention

    store, hidden = model.store, model.span.hidden
    joint = []
    if "context" in model.evidence:
        start = next(p for p in starts if p.id == cand.source_passage_id)
        q_enc = encode(question, model.table, store, hidden)
        attended = biattention(encode(start.tokens, model.table, store, hidden), q_enc, store)
        final = self_attention(attended, store, readout=constant(np.eye(8 * hidden)))
        joint.append(take_row(final.states, cand.mention.token_start).data[0])
    if "content" in model.evidence:
        joint.append(encode_abstract(model, corpus.by_title.get(cand.target_title)).data[0])
    return float(np.concatenate(joint) @ store["fuse/w"].data[:, 0])


def test_score_bridges_without_candidates_is_an_error():
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    with pytest.raises(ValidationError, match="no candidates"):
        score_bridges(model, tokenize("which target?"), [corpus.by_id["p3"]], [], corpus)


@pytest.mark.parametrize("evidence", EVIDENCES)
def test_score_bridges_hand_computed_fusion(evidence):
    # the stacked fusion equals scoring each candidate on its own, for a
    # reasoner with both channels and for one with either alone
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"), evidence=evidence)
    randomize_biases(model)
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)
    logits = score_bridges(model, q, starts, cands, corpus)
    assert logits.shape == (len(cands),)
    for c, logit in zip(cands, logits.data):
        assert abs(logit - fusion_oracle(model, q, starts, c, corpus)) < 1e-12


@pytest.mark.parametrize("evidence", EVIDENCES[1:])
def test_an_ablated_reasoner_holds_its_channels_tensors_as_a_full_one_draws_them(evidence):
    # the same draws in the same order: each kept tensor equals the full
    # reasoner's, fuse/w its rows of the kept channel; the dropped channel
    # has no tensor
    corpus = trio_corpus()
    full = tiny_bridge_model(corpus, seed=5)
    model = tiny_bridge_model(corpus, seed=5, evidence=evidence)
    assert model.evidence == evidence
    dropped = "abstract/" if evidence == ("context",) else "span/"
    assert [n for n in full.store.names() if not n.startswith(dropped)] == model.store.names()
    wide = 8 * full.span.hidden
    rows = slice(0, wide) if evidence == ("context",) else slice(wide, None)
    for name in model.store.names():
        want = full.store[name].data[rows] if name == "fuse/w" else full.store[name].data
        np.testing.assert_array_equal(model.store[name].data, want, err_msg=name)


def test_context_rows_are_the_full_outputs_anchor_rows():
    # the reference reads every row of the start passages and gathers the
    # anchor rows: given an rng, with the same dropout draws, in values and in
    # every parameter's gradient; without one, packed (no memo) and through
    # the memo; the full states (the identity readout), and read through a
    # readout column as the fusion reads them. The one-token start passage's
    # anchor row keeps its biattention row.
    from bridgeqa.bridge import _context_rows
    from bridgeqa.numcore import backward, constant, gather_rows, matmul, mul, sum_all
    from bridgeqa.span_model import EncodingMemo, attend

    base = trio_corpus()
    solo = passage("p5", "Start C", "Target", anchors=[("Target Two", "Target")])
    corpus = corpus_of(list(base.passages) + [solo])
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    randomize_biases(model)
    model.span.dropout = 0.3
    q = tokenize("which target?")
    starts = [corpus.by_id["p2"], solo, corpus.by_id["p1"]]
    cands = collect_candidates(starts, corpus)
    offsets = dict(zip([p.id for p in starts], np.cumsum([0] + [len(p.tokens) for p in starts])))
    rows = np.array([offsets[c.source_passage_id] + c.mention.token_start for c in cands])
    wide = 8 * model.span.hidden
    column = Tensor(np.random.default_rng(3).normal(size=(wide, 1)))
    identity = constant(np.eye(wide))

    for readout in (identity, column):
        width = wide if readout is identity else 1
        weights = constant(np.random.default_rng(2).normal(size=(len(cands), width)))

        def run(read, seed):
            model.store.zero_grad()
            column.grad = None
            out = read(None if seed is None else np.random.default_rng(seed))
            backward(sum_all(mul(out, weights)))
            return out.data, {**model.store.gradients(), "readout": column.grad}

        def full(rng):
            (final,) = attend(replace(model.span, memo=None), [(q, [p.tokens for p in starts])],
                              readout=identity, rng=rng)
            states = gather_rows(final.states, rows)
            return states if readout is identity else matmul(states, readout)

        def anchors(rng):
            return _context_rows(model, q, starts, cands, readout, rng=rng)

        for seed, memo in ((5, None), (None, None), (None, EncodingMemo())):
            model.span.memo = memo
            got, want = run(anchors, seed), run(full, seed)
            np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
            if memo is None:
                assert got[1].keys() == want[1].keys()
                for name in want[1]:
                    if want[1][name] is None:
                        assert got[1][name] is None, name
                    else:
                        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12, err_msg=name)
        assert len(model.span.memo.passages) == 3


@pytest.mark.parametrize("evidence", EVIDENCES)
def test_score_bridges_match_the_unfolded_fusion(evidence):
    # the fused logits, the context channel read through fuse/w's first 8h
    # rows, equal [H_context, H_content] @ fuse/w over the full anchor
    # states, in values and in every parameter's gradient, with dropout
    # drawn alike, for a reasoner with both channels and with either alone
    from bridgeqa.bridge import _context_rows, encode_abstracts
    from bridgeqa.numcore import backward, concat, constant, gather_rows, matmul, mul, reshape, sum_all

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"), evidence=evidence)
    randomize_biases(model)
    model.span.dropout = 0.3
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    cands = collect_candidates(starts, corpus)
    n = len(cands)
    weights = constant(np.random.default_rng(4).normal(size=n))

    def unfolded(rng):
        joint = []
        if "context" in evidence:
            joint.append(_context_rows(model, q, starts, cands, constant(np.eye(8 * model.span.hidden)), rng=rng))
        if "content" in evidence:
            titles = sorted({c.target_title for c in cands})
            encoded = encode_abstracts(model, [corpus.by_title.get(t) for t in titles], rng=rng)
            joint.append(gather_rows(encoded, np.array([titles.index(c.target_title) for c in cands])))
        return reshape(matmul(concat(joint, axis=1), model.store["fuse/w"]), (n,))

    def run(score):
        model.store.zero_grad()
        logits = score(np.random.default_rng(6))
        backward(sum_all(mul(logits, weights)))
        return logits.data, model.store.gradients()

    got = run(lambda rng: score_bridges(model, q, starts, cands, corpus, rng=rng))
    want = run(unfolded)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    assert got[1].keys() == want[1].keys()
    for name in want[1]:
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12, err_msg=name)


def test_score_bridges_content_ablation_ignores_abstract_text():
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, evidence=("context",))
    starts = [corpus.by_id["p1"]]
    cands = collect_candidates(starts, corpus)
    q = tokenize("which?")
    base = score_bridges(model, q, starts, cands, corpus).data

    # rewrite an abstract; a reasoner without the content channel must not move
    changed = passage("p3", "Target One", "completely different words now live here")
    altered = corpus_of([corpus.by_id["p1"], corpus.by_id["p2"], changed, corpus.by_id["p4"]])
    after = score_bridges(model, q, starts, cands, altered).data
    assert after == pytest.approx(base)


def test_score_bridges_context_ablation_ignores_the_start_passages_other_words():
    # a reasoner without the context channel scores each candidate by its
    # target's abstract alone: rewording the start passage around the anchor,
    # or the question, moves no score
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "other", "words"), evidence=("content",))
    starts = [corpus.by_id["p1"]]
    cands = collect_candidates(starts, corpus)
    logits = score_bridges(model, tokenize("which?"), starts, cands, corpus)
    for c, logit in zip(cands, logits.data):
        assert abs(logit - fusion_oracle(model, tokenize("which?"), starts, c, corpus)) < 1e-12
    reworded = passage("p1", "Start A", "other words, then Target One and Target Two.",
                       anchors=[("Target One", "Target One"), ("Target Two", "Target Two")])
    moved = collect_candidates([reworded], corpus)
    assert [c.target_title for c in moved] == [c.target_title for c in cands]
    after = score_bridges(model, tokenize("other words"), [reworded], moved, corpus).data
    np.testing.assert_array_equal(after, logits.data)


def test_score_bridges_missing_abstract_uses_sentinel():
    empty_target = passage("p3", "Target One", "")
    p1 = passage("p1", "Start A", "links Target One here.", anchors=[("Target One", "Target One")])
    corpus = corpus_of([p1, empty_target])
    model = tiny_bridge_model(corpus, extra_tokens=("which",))
    q = tokenize("which?")
    cands = collect_candidates([p1], corpus)
    logits = score_bridges(model, q, [p1], cands, corpus)
    # the oracle's content vector for the empty abstract is the trained sentinel
    assert np.array_equal(encode_abstract(model, empty_target).data, model.store["abstract/missing"].data)
    assert abs(logits.data[0] - fusion_oracle(model, q, [p1], cands[0], corpus)) < 1e-12
    # a zero sentinel scores the candidate as the reasoner without the content
    # channel, whose tensors start as this one's, does
    model.store["abstract/missing"].data[:] = 0.0
    context_only = tiny_bridge_model(corpus, extra_tokens=("which",), evidence=("context",))
    without_content = score_bridges(context_only, q, [p1], cands, corpus).data[0]
    assert score_bridges(model, q, [p1], cands, corpus).data[0] == without_content != logits.data[0]


def test_sentinel_gets_no_gradient_unless_an_abstract_is_missing():
    # Adam leaves a parameter without a gradient untouched, so the sentinel
    # must stay out of the graph when every abstract is present
    from bridgeqa.numcore import backward

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    starts = [corpus.by_id["p1"]]
    cands = collect_candidates(starts, corpus)
    logits = score_bridges(model, tokenize("which target?"), starts, cands, corpus)
    backward(bridge_loss(cands, logits, BridgeLabel("q", "Target One")))
    assert model.store["abstract/missing"].grad is None
    assert model.store["abstract/fwd/W"].grad is not None


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
            )
        )
    ranked = rank_answer_passages(cands, [value for _, value in scores], k=10)
    assert ranked == [("A", 3.0), ("B", 2.0)]


def test_rank_answer_passages_needs_one_score_per_candidate():
    from bridgeqa.bridge import BridgeCandidate
    from bridgeqa.corpus import AnchorMention

    cands = [BridgeCandidate(mention=AnchorMention(t, 0, 1, 0, 0), source_passage_id="p", target_title=t)
             for t in ("A", "B")]
    for scores in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValidationError, match="scores for 2 candidates"):
            rank_answer_passages(cands, scores)


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
            )
            for t in titles
        ]
        k = int(rng.integers(1, 12))
        got = rank_answer_passages(cands, values, k=k)
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
        )
        for i in range(12)
    ]
    scores = rng.normal(size=len(cands))
    previous = []
    for k in range(1, 8):
        titles = [t for t, _ in rank_answer_passages(cands, scores, k=k)]
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
        )
        for i in range(9)
    ]
    scores = rng.normal(size=len(cands))
    base = [t for t, _ in rank_answer_passages(cands, scores)]
    assert [t for t, _ in rank_answer_passages(cands, scores + 123.0)] == base


# --- entity linking ----------------------------------------------------------


def test_baseline_linker_strips_parenthetical():
    corpus = kiss_and_tell_corpus()
    linker = TitleTokenLinker(corpus)
    hits = linker.link(tokenize(
        "What government position was held by the woman who portrayed "
        "Corliss Archer in Kiss and Tell?"
    ))
    assert hits[0][0] == "Kiss and Tell (1945 film)"


def test_expand_appends_linker_passage():
    corpus = kiss_and_tell_corpus()
    linker = TitleTokenLinker(corpus)
    linked = expand_with_entity_linking(tokenize("Who portrayed Corliss Archer in Kiss and Tell?"), linker, corpus)
    assert [p.title for p in linked] == ["Kiss and Tell (1945 film)"]


def linking_state(corpus, **cfg):
    from bridgeqa.retrieval import build_index

    return PipelineState(corpus, build_index(corpus), PipelineConfig(**cfg), linker=TitleTokenLinker(corpus))


def linked_extras(state, record, base):
    """The oracle: the first ablation.TOP_N_EL titles linker.link gives that
    the corpus holds and base lacks."""
    have = {p.title for p in base}
    titles = [t for t, _ in state.linker.link(record.question_tokens) if t in state.corpus.by_title]
    return [state.corpus.by_title[t] for t in titles if t not in have][: ablation.TOP_N_EL]


def test_expand_no_duplicates():
    # a linked page the start set already holds is not added again
    corpus = kiss_and_tell_corpus()
    state = linking_state(corpus)
    record = QARecord("q1", "Who portrayed Corliss Archer in Kiss and Tell?", "Shirley Temple", "bridge")
    linked = linked_passages(state, record)
    assert [p.title for p in linked] == ["Kiss and Tell (1945 film)"]
    assert [p.title for p in start_passages_for(state, record, linked)] == ["Kiss and Tell (1945 film)"]


def test_expand_disabled_linker():
    state = replace(linking_state(kiss_and_tell_corpus()), linker=None)
    assert linked_passages(state, QARecord("q1", "Kiss and Tell", "x", "bridge")) == []


def test_start_set_and_bridge_reader_each_filter_linked_pages_against_their_own_list(monkeypatch):
    # retrieval returns the first linked page, so the start set skips it and
    # the second takes its slot; a bridge reader whose top titles lack the
    # first page reads it
    corpus = corpus_of([
        passage("p1", "Amber Hill", "Amber Hill is a film shot at Amber Hill by Grey Lake."),
        passage("p2", "Grey Lake", "Grey Lake is a lake."),
        passage("p3", "Tom Reed", "Tom Reed directed films."),
        passage("p4", "Ann Reed", "Ann Reed wrote songs."),
        passage("p5", "Bo Reed", "Bo Reed sang songs."),
    ])
    monkeypatch.setattr(ablation, "TOP_N_EL", 1)
    state = linking_state(corpus, k=1)
    record = QARecord("q1", "Who directed Amber Hill at Grey Lake?", "Tom Reed", "bridge")
    linked = linked_passages(state, record)
    assert [p.title for p in linked] == ["Amber Hill", "Grey Lake"]

    starts = start_passages_for(state, record, linked)
    assert [p.title for p in starts] == ["Amber Hill", "Grey Lake"]
    assert starts[1:] == linked_extras(state, record, starts[:1])

    titles = ["Tom Reed", "Ann Reed", "Bo Reed", "Amber Hill"]
    read = reader_passages(state, titles, starts, linked)
    assert [p.title for p in read] == ["Tom Reed", "Ann Reed", "Bo Reed", "Amber Hill"]
    assert read[3:] == linked_extras(state, record, read[:3])
    read = reader_passages(state, ["Amber Hill", "Tom Reed"], starts, linked)
    assert [p.title for p in read] == ["Amber Hill", "Tom Reed", "Grey Lake"]
    # without a ranking, the reader reads the start set
    assert reader_passages(state, [], starts, linked) == starts


def test_score_bridges_all_starts_match_each_start_alone():
    # one packed pass over the question and every start passage (and one over
    # every abstract) scores each candidate as scoring its start passage alone
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    randomize_biases(model)
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    together, alone = _scored_together_and_alone(model, q, starts, corpus)
    assert [c.target_title for c, _ in together] == [c.target_title for c, _ in alone]
    np.testing.assert_allclose([s for _, s in together], [s for _, s in alone], rtol=0, atol=1e-12)


def _scored_together_and_alone(model, q, starts, corpus):
    """(candidate, score) pairs from one score_bridges over every start
    passage, and from one per start passage, concatenated."""
    cands = collect_candidates(starts, corpus)
    together = list(zip(cands, score_bridges(model, q, starts, cands, corpus).data))
    alone = []
    for start in starts:
        cands = collect_candidates([start], corpus)
        alone += zip(cands, score_bridges(model, q, [start], cands, corpus).data)
    return together, alone


def test_score_bridges_one_token_start_between_longer_starts_matches_each_alone():
    # a one-row segment: question-to-context attention over a single row, and
    # self-attention's length-1 identity, inside one packed pass
    base = trio_corpus()
    short = passage("p5", "Start C", "Two", anchors=[("Target Two", "Two")])
    corpus = corpus_of(list(base.passages) + [short])
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    randomize_biases(model)
    q = tokenize("which target?")
    starts = [corpus.by_id["p1"], short, corpus.by_id["p2"]]
    assert len(short.tokens) == 1 and short.anchors[0].token_start == 0
    together, alone = _scored_together_and_alone(model, q, starts, corpus)
    assert [c.source_passage_id for c, _ in together] == ["p1", "p1", "p5", "p2"]
    assert [c.target_title for c, _ in together] == [c.target_title for c, _ in alone]
    np.testing.assert_allclose([s for _, s in together], [s for _, s in alone], rtol=0, atol=1e-12)


def test_score_bridges_runs_one_gru_loop_and_one_lstm_loop(loop_widths):
    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    starts = [corpus.by_id["p1"], corpus.by_id["p2"]]
    score_bridges(model, tokenize("which target?"), starts, collect_candidates(starts, corpus), corpus)
    # the question and both start passages; both target abstracts
    assert loop_widths == {"gru": [3], "lstm": [2]}


def test_encode_abstracts_matches_one_at_a_time_with_dropout():
    from bridgeqa.bridge import encode_abstracts

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus)
    model.span.dropout = 0.4
    passages = [corpus.by_id["p3"], None, corpus.by_id["p1"], corpus.by_id["p4"]]
    packed = encode_abstracts(model, passages, rng=np.random.default_rng(9))
    assert packed.shape == (len(passages), 2 * model.lstm_hidden)
    assert np.array_equal(packed.data[1:2], model.store["abstract/missing"].data)
    rng = np.random.default_rng(9)
    for i, p in enumerate(passages):
        assert np.max(np.abs(packed.data[i] - encode_abstract(model, p, rng=rng).data[0])) < 1e-12


def test_train_bridge_leaves_out_a_question_without_candidates():
    from bridgeqa.bridge import prepare_question_inputs, train_bridge_reasoner

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    questions = [
        QARecord(id="q1", question="which target?", answer="one", qtype="bridge"),
        QARecord(id="q2", question="which target?", answer="two", qtype="bridge"),
    ]
    labels = [BridgeLabel("q1", "Target One"), BridgeLabel("q2", "Target Two")]
    # q2 has an empty start set, so no candidate holds its gold
    inputs = prepare_question_inputs(questions, labels, {"q1": [corpus.by_id["p1"]], "q2": []}, corpus)
    before = model.store["fuse/w"].data.copy()
    stats = train_bridge_reasoner(
        model, inputs, corpus, PipelineConfig(bridge_epochs=1, batch_size=2, seed=0, bridge_early_stop_hits1=2.0)
    )
    assert (stats["n_train_questions"], stats["n_gold_missing"]) == (1, 1)
    assert isinstance(stats["history"][0]["mean_loss"], float)
    # q1 alone fills the epoch's one minibatch: one Adam step
    assert model.store.moments["fuse/w"]["t"] == 1
    assert not np.array_equal(model.store["fuse/w"].data, before)


def test_train_bridge_with_no_question_it_can_learn_runs_no_epoch():
    from bridgeqa.bridge import prepare_question_inputs, train_bridge_reasoner

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    record = QARecord(id="q1", question="which target?", answer="two", qtype="bridge")
    # Start B anchors Target One and a missing page, never Target Two
    inputs = prepare_question_inputs([record], [BridgeLabel("q1", "Target Two")], {"q1": [corpus.by_id["p2"]]}, corpus)
    stats = train_bridge_reasoner(model, inputs, corpus, PipelineConfig(bridge_epochs=3))
    assert (stats["epochs_run"], stats["history"]) == (0, [])
    assert (stats["n_train_questions"], stats["n_gold_missing"]) == (0, 1)
    assert "fuse/w" not in model.store.moments


def test_train_bridge_minibatch_holds_only_questions_it_can_learn():
    # a question without candidates takes no place in a minibatch: the two
    # questions that can be learned share one
    from bridgeqa.bridge import prepare_question_inputs, train_bridge_reasoner

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    questions = [QARecord(id=f"q{i}", question="which target?", answer="one", qtype="bridge") for i in range(3)]
    labels = [BridgeLabel(q.id, "Target One") for q in questions]
    starts = {"q0": [], "q1": [corpus.by_id["p1"]], "q2": [corpus.by_id["p1"]]}
    inputs = prepare_question_inputs(questions, labels, starts, corpus)
    stats = train_bridge_reasoner(
        model, inputs, corpus, PipelineConfig(bridge_epochs=1, batch_size=2, seed=2, bridge_early_stop_hits1=2.0)
    )
    assert (stats["n_train_questions"], stats["n_gold_missing"]) == (2, 1)
    assert model.store.moments["fuse/w"]["t"] == 1


def test_train_bridge_early_stops_on_the_questions_it_can_learn():
    # two of four labeled questions cannot be learned: one start set anchors
    # no gold mention, another is empty. Running Hits@1 judges the other
    # two, so training stops early; the clean Hits@1 judges all four
    from bridgeqa.bridge import evaluate_hits, prepare_question_inputs, train_bridge_reasoner

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    questions = [QARecord(id=f"q{i}", question="which target?", answer="one", qtype="bridge") for i in range(4)]
    golds = ["Target One", "Target One", "Target Two", "Target One"]
    labels = [BridgeLabel(q.id, gold) for q, gold in zip(questions, golds)]
    starts = {"q0": [corpus.by_id["p1"]], "q1": [corpus.by_id["p2"]], "q2": [corpus.by_id["p2"]], "q3": []}
    inputs = prepare_question_inputs(questions, labels, starts, corpus)
    stats = train_bridge_reasoner(model, inputs, corpus, PipelineConfig(bridge_epochs=50, lr=0.01, seed=0))
    assert (stats["n_train_questions"], stats["n_gold_missing"]) == (2, 2)
    assert stats["epochs_run"] < 50
    assert stats["history"][-1]["train_hits1"] == 1.0
    assert evaluate_hits(model, inputs, corpus) == 0.5


def test_train_bridge_rejects_a_batch_size_below_one():
    from bridgeqa.bridge import prepare_question_inputs, train_bridge_reasoner

    corpus = trio_corpus()
    model = tiny_bridge_model(corpus, extra_tokens=("which", "target"))
    record = QARecord(id="q1", question="which target?", answer="one", qtype="bridge")
    inputs = prepare_question_inputs([record], [BridgeLabel("q1", "Target One")], {"q1": [corpus.by_id["p1"]]}, corpus)
    with pytest.raises(ValidationError, match="batch_size"):
        train_bridge_reasoner(model, inputs, corpus, PipelineConfig(bridge_epochs=1, batch_size=0))


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
        return bridge_loss(cands, score_bridges(model, q, starts, cands, corpus), BridgeLabel("q", "Target One"))

    report = grad_check(build, model.store, eps=1e-5, tol=1e-4)
    assert report.passed, report.summary()
