import math

import numpy as np
import pytest
import reference_reader

from bridgeqa import reader
from bridgeqa.config import PipelineConfig
from bridgeqa.corpus import Passage, QARecord, load_corpus, tokenize
from bridgeqa.errors import ValidationError
from bridgeqa.numcore import add, backward
from bridgeqa.reader import (
    best_span,
    build_reader_context,
    decode_answer,
    locate_answer_span,
    make_reader_example,
    reader_losses,
    span_to_text,
    train_reader,
    two_fold_split,
)
from bridgeqa.span_model import build_vocab, init_span_model


def passage(pid, title, text):
    return Passage(id=pid, title=title, text=text, tokens=tokenize(text))


P1 = passage("p1", "Shirley Temple", "Shirley Temple served as Chief of Protocol.")
P2 = passage("p2", "Kiss and Tell (1945 film)", "The film stars Shirley Temple as Corliss Archer.")


def test_context_layout_sentinels_titles_text():
    ctx = build_reader_context([P1, P2])
    assert ctx.tokens[:2] == ["yes", "no"]
    assert ctx.tokens[2:4] == ["shirley", "temple"]
    assert ctx.title_span_at(2) == (2, 3)
    title_span = ctx.title_span_at(ctx.starts[1])
    assert ctx.tokens[title_span[0] : title_span[1] + 1] == ["kiss", "and", "tell", "1945", "film"]
    assert ctx.titles == ["Shirley Temple", "Kiss and Tell (1945 film)"]


def test_context_token_cap_drops_whole_passages():
    ctx = build_reader_context([P1, P2], max_tokens=12)
    assert ctx.titles == ["Shirley Temple"]


def test_locate_answer_span_first_occurrence():
    ctx = build_reader_context([P1, P2])
    span = locate_answer_span(ctx, "Shirley Temple")
    assert span == (2, 3)  # the title block, before any text occurrence
    assert " ".join(ctx.tokens[span[0] : span[1] + 1]) == "shirley temple"


def test_locate_answer_span_normalized_with_articles():
    ctx = build_reader_context([P1])
    span = locate_answer_span(ctx, "Chief of Protocol")
    tokens = ctx.tokens[span[0] : span[1] + 1]
    assert tokens == ["chief", "of", "protocol"]


def test_locate_answer_span_absent():
    ctx = build_reader_context([P1])
    assert locate_answer_span(ctx, "orange marmalade") is None


@pytest.mark.parametrize("answer", ["Jean-Luc Picard", "Archer's", "1,000"])
def test_locate_answer_span_with_punctuation_inside_a_word(answer):
    ctx = build_reader_context([passage("p", "Enterprise", "Captain Jean-Luc Picard met Archer's crew of 1,000.")])
    span = locate_answer_span(ctx, answer)
    assert span is not None
    assert span_to_text(ctx, *span) == answer
    record = QARecord("q", "who?", answer, "bridge", ("Enterprise",))
    assert make_reader_example(record, ctx.passages)[1] is None


def test_locate_answer_span_finds_the_spans_of_the_search_from_every_token(tmp_path):
    # the oracle tries every start token; the reader skips those that cannot
    # begin the answer. Every question of the fixture at seeds 11-15, read in
    # a context of its supporting passages after three others, and answers
    # around punctuation and articles
    from bridgeqa.corpus import load_questions
    from bridgeqa.tinywiki import write_fixture

    odd = passage("o", "Enterprise", "A Captain Jean-Luc Picard met Archer's crew of 1,000 at th-e end, an Archer.")
    answers = ["Jean-Luc Picard", "Archer's", "1,000", "th-e end", "the end", "end", "an archer", "Captain", "Luc"]
    cases = [(build_reader_context([odd]), answer) for answer in answers]
    for seed in range(11, 16):
        paths = write_fixture(tmp_path / str(seed), seed=seed)
        corpus = load_corpus(paths["corpus"])
        others = list(corpus.passages[seed : seed + 3])
        for q in load_questions(paths["train_questions"]) + load_questions(paths["dev_questions"]):
            gold = [corpus.by_title[t] for t in q.supporting_titles if t in corpus.by_title]
            context = build_reader_context(others + gold, PipelineConfig.reader_context_cap)
            cases.append((context, q.answer))
    found = 0
    for context, answer in cases:
        span = locate_answer_span(context, answer)
        assert span == reference_reader.locate_answer_span(context, answer), answer
        found += span is not None
    assert found > len(cases) // 2
    assert [cases[i][0].tokens[locate_answer_span(*cases[i])[0]] for i in (3, 7)] == ["th", "a"]


def test_locate_answer_yes_hits_sentinel():
    ctx = build_reader_context([P1])
    assert locate_answer_span(ctx, "yes") == (0, 0)
    assert locate_answer_span(ctx, "no") == (1, 1)


def test_make_reader_example_title_span_of_answer_block():
    record = QARecord("q", "what role?", "Chief of Protocol", "bridge", ("Shirley Temple",))
    example, reason = make_reader_example(record, [P2, P1])
    assert reason is None
    answer_pid = example.context.passages[example.context.block_at(example.answer_span[0])].id
    assert answer_pid == "p1"
    assert example.title_span == example.context.title_span_at(example.context.starts[1])


def test_make_reader_example_skip_reason():
    record = QARecord("q", "what?", "unfindable phrase", "bridge", ("Shirley Temple",))
    example, reason = make_reader_example(record, [P1])
    assert example.answer_span is None and example.title_span is None
    assert example.context.titles == ["Shirley Temple"]
    assert "answer" in reason


def test_two_fold_split_contract():
    ids = [f"q{i:02d}" for i in range(24)]
    a, b = two_fold_split(ids, seed=5)
    assert len(a) == 12 and len(b) == 12
    assert set(a) | set(b) == set(ids)
    assert set(a) & set(b) == set()
    assert (a, b) == two_fold_split(ids, seed=5)
    assert (a, b) != two_fold_split(ids, seed=6)


def test_two_fold_split_odd_count():
    a, b = two_fold_split([f"q{i}" for i in range(7)], seed=1)
    assert sorted((len(a), len(b))) == [3, 4]


# --- decoding ----------------------------------------------------------------


def brute_force_best_span(start, end, max_len):
    best = (-np.inf, None)
    T = len(start)
    for s in range(T):
        for e in range(s, min(T, s + max_len)):
            score = start[s] + end[e]
            if score > best[0]:
                best = (score, (s, e))
    return best[1]


def test_best_span_matches_brute_force_on_random_logits():
    rng = np.random.default_rng(7)
    for _ in range(300):
        T = int(rng.integers(1, 40))
        start = rng.normal(size=T)
        end = rng.normal(size=T)
        assert best_span(start, end) == brute_force_best_span(start, end, 30)


def loop_best_span(start_logits, end_logits, max_len=30):
    """The per-start loop best_span replaced: the reference for its tie rule."""
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


@pytest.mark.parametrize("T", [1, 2, 5, 31, 250, 500])
def test_best_span_matches_the_loop_on_random_and_tied_logits(T, monkeypatch):
    rng = np.random.default_rng(T)
    for trial in range(20):
        if trial % 2:  # integer logits in a narrow range: many tied spans
            start, end = rng.integers(-2, 3, size=T).astype(float), rng.integers(-2, 3, size=T).astype(float)
        else:
            start, end = rng.normal(size=T), rng.normal(size=T)
        for max_len in (1, 3, 30):
            monkeypatch.setattr(reader, "MAX_ANSWER_LEN", max_len)
            assert best_span(start, end) == loop_best_span(start, end, max_len)


def test_best_span_respects_max_length():
    start = np.zeros(40)
    end = np.zeros(40)
    start[0] = 10.0
    end[39] = 10.0  # unreachable: 39 >= 0 + 30
    end[5] = 1.0
    assert reader.MAX_ANSWER_LEN == 30
    assert best_span(start, end) == (0, 5)


def test_best_span_tie_break_smaller_start_then_end():
    start = np.zeros(6)
    end = np.zeros(6)
    assert best_span(start, end) == (0, 0)
    start2 = np.array([0.0, 1.0, 1.0])
    end2 = np.array([0.0, 0.0, 0.0])
    assert best_span(start2, end2) == (1, 1)


def test_decode_answer_returns_original_slice():
    ctx = build_reader_context([P1])
    # tokens: yes no shirley temple | shirley temple served as chief of protocol
    start = np.full(len(ctx.tokens), -10.0)
    end = np.full(len(ctx.tokens), -10.0)
    i = ctx.tokens.index("chief")
    start[i] = 5.0
    end[i + 2] = 5.0
    assert decode_answer((start, end), ctx) == "Chief of Protocol"


def test_decode_answer_sentinel_literal():
    ctx = build_reader_context([P1])
    start = np.full(len(ctx.tokens), -10.0)
    end = np.full(len(ctx.tokens), -10.0)
    start[0] = 9.0
    end[0] = 9.0
    assert decode_answer((start, end), ctx) == "yes"


def test_span_to_text_cross_block_falls_back_to_tokens():
    ctx = build_reader_context([P1, P2])
    # span from the last token of p1's text into p2's title block
    last_p1 = 3 + len(P1.tokens)  # sentinels (2) + title (2) + text - 1
    text = span_to_text(ctx, last_p1, last_p1 + 1)
    assert text == " ".join(ctx.tokens[last_p1 : last_p1 + 2])


ODD_PASSAGES = [
    Passage(id="o1", title="(!)", text="A title without tokens, then Jean-Luc's text."),
    Passage(id="o2", title="Empty Body (2001 film)", text=""),
    Passage(id="o3", title="U.S.A. -- 1,000", text="Jean-Luc Picard's 1,000 ships (U.S.A.); \"well-known\" Archer's."),
    Passage(id="o4", title="Last", text="...tail--end!"),
]


def oracle_contexts(corpus):
    passages = list(corpus.passages)
    for first in range(0, len(passages), 4):
        yield passages[first : first + 4], None
    yield passages[:12], 200  # the cap drops the last passages
    yield ODD_PASSAGES, None
    yield ODD_PASSAGES[::-1], None
    yield ODD_PASSAGES + passages[:2], 40


def test_context_blocks_match_the_per_token_origins(fixture_dir):
    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    dropped = 0
    for passages, cap in oracle_contexts(corpus):
        ctx = build_reader_context(passages, max_tokens=cap)
        ref = reference_reader.build_context(passages, max_tokens=cap)
        assert ctx.tokens == ref.tokens
        assert ctx.passages == ref.passages
        dropped += len(passages) - len(ctx.passages)
        T = len(ctx)
        for s in range(T):
            assert ctx.title_span_at(s) == reference_reader.title_span_at(ref, s), s
            for e in range(s, min(T, s + 30)):
                assert span_to_text(ctx, s, e) == reference_reader.span_to_text(ref, s, e), (s, e)
    assert dropped > 0


# --- loss --------------------------------------------------------------------


def reader_fixture():
    vocab = build_vocab(
        [P1.tokens.tokens, P2.tokens.tokens, tokenize(P1.title).tokens,
         tokenize(P2.title).tokens, ("yes", "no", "what", "role")]
    )
    rng = np.random.default_rng(2)
    model = init_span_model(vocab, 4, 2, 0.0, rng)
    record = QARecord("q", "what role?", "Chief of Protocol", "bridge", ("Shirley Temple",))
    example, _ = make_reader_example(record, [P2, P1])
    return model, example


def test_reader_loss_uniform_value():
    model, example = reader_fixture()
    # zero the heads so logits are uniform
    for name in ("start", "end"):
        model.store[f"span/heads/{name}_w"].data[:] = 0.0
    T = len(example.context.tokens)
    loss, _ = reader_losses(model, [example], aux_weight=0.0)[0]
    assert loss.item() == pytest.approx(2 * math.log(T))
    loss_aux, _ = reader_losses(model, [example], aux_weight=1.0)[0]
    assert loss_aux.item() == pytest.approx(4 * math.log(T))


def test_reader_loss_aux_zero_equals_plain_loss_and_gradient():
    model, example = reader_fixture()
    loss_plain, _ = reader_losses(model, [example], aux_weight=0.0)[0]
    backward(loss_plain)
    grads_plain = {n: g.copy() for n, g in model.store.gradients().items()}
    model.store.zero_grad()

    from bridgeqa.span_model import run_span_model, span_nll_loss

    _, scores = run_span_model(model, example.question, example.context.tokens)
    manual = span_nll_loss(scores, *example.answer_span)
    backward(manual)
    grads_manual = model.store.gradients()
    assert loss_plain.item() == pytest.approx(manual.item())
    assert set(grads_plain) == set(grads_manual)
    for name, g in grads_manual.items():
        assert np.allclose(grads_plain[name], g)


def test_reader_loss_missing_title_span_omits_aux_term():
    model, example = reader_fixture()
    example.title_span = None
    loss_now, _ = reader_losses(model, [example], aux_weight=5.0)[0]
    loss_plain, _ = reader_losses(model, [example], aux_weight=0.0)[0]
    assert loss_now.item() == pytest.approx(loss_plain.item())


def test_reader_loss_composition_of_two_span_losses():
    model, example = reader_fixture()
    from bridgeqa.span_model import run_span_model, span_nll_loss

    loss, _ = reader_losses(model, [example], aux_weight=0.7)[0]
    _, scores = run_span_model(model, example.question, example.context.tokens)
    expected = span_nll_loss(scores, *example.answer_span).item() + 0.7 * span_nll_loss(
        scores, *example.title_span
    ).item()
    assert loss.item() == pytest.approx(expected)


def test_reader_minibatch_matches_per_example_losses_with_dropout():
    # one encoder pass over a minibatch against one pass per example,
    # drawing dropout from equal rng seeds: values and every gradient
    model, example = reader_fixture()
    model.dropout = 0.2
    record = QARecord("q2", "who served?", "Shirley Temple", "bridge", ("Shirley Temple",))
    second, _ = make_reader_example(record, [P1])
    third, _ = make_reader_example(record, [P2, P1])
    batch = [example, second, third, example]

    def run(packed):
        model.store.zero_grad()
        rng = np.random.default_rng(4)
        if packed:
            losses = [loss for loss, _ in reader_losses(model, batch, 0.7, rng=rng)]
        else:
            losses = [reader_losses(model, [ex], 0.7, rng=rng)[0][0] for ex in batch]
        total = losses[0]
        for extra in losses[1:]:
            total = add(total, extra)
        backward(total)
        return [loss.item() for loss in losses], model.store.gradients()

    (got, got_grads), (want, want_grads) = run(True), run(False)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
    assert got_grads.keys() == want_grads.keys() == {name for name, _ in model.store.items()}
    for name, g in got_grads.items():
        assert np.max(np.abs(g - want_grads[name])) < 1e-12, name


def test_fit_rejects_a_batch_size_below_one():
    model, example = reader_fixture()
    for batch_size in (0, -1):
        with pytest.raises(ValidationError, match="batch_size"):
            train_reader(model, [example], PipelineConfig(reader_epochs=1, reader_batch_size=batch_size))


def test_fit_logs_one_row_per_epoch_and_no_wall_time():
    # the log is a pure function of the inputs and the rng, so two runs write it byte for byte
    model, example = reader_fixture()
    stats = train_reader(model, [example], PipelineConfig(reader_epochs=2, reader_early_stop_em=2.0))
    assert [row["epoch"] for row in stats["history"]] == [0, 1]
    assert [sorted(row) for row in stats["history"]] == [["epoch", "mean_loss", "train_em"]] * 2
    assert sorted(stats) == ["epochs_run", "history", "n_examples"]


def test_train_reader_overfits_tiny_example():
    model, example = reader_fixture()
    stats = train_reader(
        model,
        [example],
        PipelineConfig(reader_lr=5e-3, reader_epochs=150, aux_weight=1.0, seed=0, reader_early_stop_em=1.0),
    )
    assert stats["history"][-1]["train_em"] == 1.0
    assert stats["epochs_run"] < 150


def _three_examples():
    model, example = reader_fixture()
    record = QARecord("q2", "who served?", "Shirley Temple", "bridge", ("Shirley Temple",))
    second, _ = make_reader_example(record, [P1])
    third, _ = make_reader_example(record, [P2, P1])
    return [example, second, third]


def test_train_reader_reads_reader_lr_and_reader_batch_size(loop_widths):
    # the reader trains at reader_lr and reader_batch_size, whatever the
    # bridge's lr and batch_size: the first two configs train the same
    # parameters in minibatches of 2 (one time loop over 2 questions and 2
    # contexts, then 1 and 1), and another reader_lr trains others
    examples = _three_examples()
    once = dict(reader_epochs=1, reader_early_stop_em=2.0, seed=3, reader_batch_size=2)
    configs = {
        "reader values": PipelineConfig(reader_lr=5e-3, **once),
        "other lr and batch_size": PipelineConfig(lr=1.0, batch_size=3, reader_lr=5e-3, **once),
        "other reader_lr": PipelineConfig(reader_lr=1e-2, **once),
    }
    params, widths = {}, {}
    for name, cfg in configs.items():
        model, _ = reader_fixture()
        loop_widths["gru"].clear()
        train_reader(model, examples, cfg)
        params[name] = {key: t.data.copy() for key, t in model.store.items()}
        widths[name] = list(loop_widths["gru"])
    assert widths == {name: [4, 2] for name in configs}
    for key, value in params["reader values"].items():
        assert np.array_equal(value, params["other lr and batch_size"][key]), key
    assert not np.array_equal(params["reader values"]["span/heads/start_w"], params["other reader_lr"]["span/heads/start_w"])


def _tape(loss):
    """Every node reachable from loss."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_one_context_group_records_no_identity_nodes(monkeypatch):
    # a reader example reads one question against one context, and
    # self-attention takes the group's rows in one call: no slice covers
    # every row and no concat joins a single part, so an op that recorded an
    # identity node for either adds none. What remains: slice_rows for the
    # question and the context, and concat joining the two heads into the
    # readout. 36 nodes: 17 parameter leaves; the embedding gather, the
    # encoder's run_recurrent, those two slice_rows, one biattend and one
    # self_attend node; the readout's concat and the slice_cols and reshape
    # of each of its two columns; and the loss, 4 cross-entropies, 3 adds and
    # a scale. Not the 61 of the composed attention: biattention's 20 nodes
    # are one, and self-attention's mixing readout (concat, x*att, W_mix.V,
    # mixed.(W_mix.V), x.V and the add) joins self_attend's node
    from collections import Counter

    from bridgeqa import span_model
    from bridgeqa.numcore import Tensor
    from bridgeqa.numcore.tensor import accumulate

    def run():
        model, example = reader_fixture()
        loss, _ = reader_losses(model, [example])[0]
        backward(loss)
        return loss, model.store.gradients()

    loss, grads = run()
    kinds = Counter(node.bwd.__qualname__.split(".")[0] for node in _tape(loss) if node.bwd is not None)
    assert len(_tape(loss)) == 36
    assert kinds["slice_rows"] == 2 and kinds["concat"] == 1

    def with_identity_node(op):
        # the node the op recorded before it returned its input as it is
        def recorded(x, *args, **kwargs):
            out = op(x, *args, **kwargs)
            if out is (x[0] if isinstance(x, list) else x):
                node = Tensor(out.data, (out,))
                node.bwd = lambda g: accumulate(out, g)
                return node
            return out

        return recorded

    monkeypatch.setattr(span_model, "concat", with_identity_node(span_model.concat))
    monkeypatch.setattr(span_model, "slice_rows", with_identity_node(span_model.slice_rows))
    want_loss, want_grads = run()
    assert len(_tape(want_loss)) == 36
    assert loss.data.tobytes() == want_loss.data.tobytes()
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == want_grads[name].tobytes(), name
