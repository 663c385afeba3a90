import math

import numpy as np
import pytest

from bridgeqa.corpus import Passage, QARecord, tokenize
from bridgeqa.numcore import backward
from bridgeqa.reader import (
    ReaderTrainConfig,
    best_span,
    build_reader_context,
    decode_answer,
    locate_answer_span,
    make_reader_example,
    reader_loss,
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
    assert ctx.title_spans["p1"] == (2, 3)
    title_span = ctx.title_spans["p2"]
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


def test_locate_answer_yes_hits_sentinel():
    ctx = build_reader_context([P1])
    assert locate_answer_span(ctx, "yes") == (0, 0)
    assert locate_answer_span(ctx, "no") == (1, 1)


def test_make_reader_example_title_span_of_answer_block():
    record = QARecord("q", "what role?", "Chief of Protocol", "bridge", ("Shirley Temple",))
    example, reason = make_reader_example(record, [P2, P1])
    assert reason is None
    answer_pid = example.context.origins[example.answer_span[0]].passage_id
    assert answer_pid == "p1"
    assert example.title_span == example.context.title_spans["p1"]


def test_make_reader_example_skip_reason():
    record = QARecord("q", "what?", "unfindable phrase", "bridge", ("Shirley Temple",))
    example, reason = make_reader_example(record, [P1])
    assert example is None
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


def test_best_span_respects_max_length():
    start = np.zeros(40)
    end = np.zeros(40)
    start[0] = 10.0
    end[39] = 10.0  # unreachable: 39 >= 0 + 30
    end[5] = 1.0
    assert best_span(start, end, max_len=30) == (0, 5)


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
        model.store[f"span/heads/{name}_b"].data[:] = 0.0
    T = len(example.context.tokens)
    loss, _ = reader_loss(model, example, aux_weight=0.0)
    assert loss.item() == pytest.approx(2 * math.log(T))
    loss_aux, _ = reader_loss(model, example, aux_weight=1.0)
    assert loss_aux.item() == pytest.approx(4 * math.log(T))


def test_reader_loss_aux_zero_equals_plain_loss_and_gradient():
    model, example = reader_fixture()
    loss_plain, _ = reader_loss(model, example, aux_weight=0.0)
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
    loss_now, _ = reader_loss(model, example, aux_weight=5.0)
    loss_plain, _ = reader_loss(model, example, aux_weight=0.0)
    assert loss_now.item() == pytest.approx(loss_plain.item())


def test_reader_loss_composition_of_two_span_losses():
    model, example = reader_fixture()
    from bridgeqa.span_model import run_span_model, span_nll_loss

    loss, _ = reader_loss(model, example, aux_weight=0.7)
    _, scores = run_span_model(model, example.question, example.context.tokens)
    expected = span_nll_loss(scores, *example.answer_span).item() + 0.7 * span_nll_loss(
        scores, *example.title_span
    ).item()
    assert loss.item() == pytest.approx(expected)


def test_train_reader_overfits_tiny_example():
    model, example = reader_fixture()
    stats = train_reader(
        model,
        [example],
        ReaderTrainConfig(lr=5e-3, epochs=150, aux_weight=1.0, seed=0, early_stop_em=1.0),
    )
    assert stats["history"][-1]["train_em"] == 1.0
    assert stats["epochs_run"] < 150
