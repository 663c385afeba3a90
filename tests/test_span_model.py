import math

import numpy as np
import pytest

from bridgeqa.corpus import tokenize
from bridgeqa.errors import ValidationError
from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    add,
    backward,
    concat,
    constant,
    gather_rows,
    grad_check,
    matmul,
    mul,
    reshape,
    slice_rows,
    sum_all,
)
from bridgeqa.span_model import (
    EncodedSeq,
    SpanScores,
    attend,
    biattention,
    build_vocab,
    create_embedding_table,
    encode,
    head_readout,
    init_span_model,
    init_span_params,
    load_embedding_text,
    run_span_model,
    self_attention,
    span_heads,
    span_nll_loss,
)

HID = 2
# the identity readout: self-attention's full (8h-wide) states
FULL = constant(np.eye(8 * HID))
VOCAB = build_vocab([["kiss", "and", "tell", "who", "stars", "archer", "temple", "yes", "no"]])


def tiny_model(seed=0, dropout=0.0):
    rng = np.random.default_rng(seed)
    return init_span_model(VOCAB, 3, HID, dropout, rng)


def test_encode_length_one_shape():
    m = tiny_model()
    out = encode(["kiss"], m.table, m.store, HID)
    assert out.states.data.shape == (1, 2 * HID)


def test_encode_empty_is_error():
    m = tiny_model()
    with pytest.raises(ValidationError):
        encode([], m.table, m.store, HID)


def test_encode_direction_symmetry_with_tied_params():
    # with backward-direction params copied from forward, the forward states of
    # x equal the backward states of reverse(x), read in reverse
    m = tiny_model(seed=3)
    for name in ("W_zr", "b_zr", "W_h", "b_h"):
        m.store[f"span/enc/bwd/{name}"].data = m.store[f"span/enc/fwd/{name}"].data.copy()
    toks = ["kiss", "and", "tell", "archer"]
    fwd_states = encode(toks, m.table, m.store, HID).states.data[:, :HID]
    bwd_states_rev = encode(toks[::-1], m.table, m.store, HID).states.data[:, HID:]
    assert np.allclose(fwd_states, bwd_states_rev[::-1])


def test_encode_matches_scalar_oracle_through_embedding():
    # reuse the scalar GRU reference from the numcore tests, fed with the
    # actual embedding rows
    from tests.test_numcore import scalar_gru_reference

    m = tiny_model(seed=4)
    toks = ["kiss", "and", "tell", "who"]
    idx = m.table.indices(toks)
    emb = m.table.matrix.data[idx]
    h = [0.0] * HID
    outs = []
    for t in range(4):
        h = scalar_gru_reference(
            list(emb[t]),
            h,
            m.store["span/enc/fwd/W_zr"].data.tolist(),
            m.store["span/enc/fwd/b_zr"].data.tolist(),
            m.store["span/enc/fwd/W_h"].data.tolist(),
            m.store["span/enc/fwd/b_h"].data.tolist(),
        )
        outs.append(list(h))
    got = encode(toks, m.table, m.store, HID).states.data[:, :HID]
    assert np.allclose(got, outs, atol=1e-12)


def enc_seq(arr):
    return EncodedSeq(states=Tensor(np.asarray(arr, dtype=float)))


def zeroed_attention_store(width, prefix="span/biattn/"):
    store = ParamStore()
    store.add(f"{prefix}w1", np.zeros((width, 1)))
    store.add(f"{prefix}w2", np.zeros((width, 1)))
    store.add(f"{prefix}w3", np.zeros(width))
    return store


def test_biattention_zero_weights_gives_question_mean():
    store = zeroedattn = zeroed_attention_store(2)
    ctx = enc_seq([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    q = enc_seq([[1.0, 1.0], [3.0, 5.0]])
    out = biattention(ctx, q, store)
    mean = np.array([2.0, 3.0])
    c2q = out.states.data[:, 2:4]
    assert np.allclose(c2q, np.tile(mean, (3, 1)))


def test_biattention_single_token_question():
    rng = np.random.default_rng(5)
    store = ParamStore()
    store.add("span/biattn/w1", rng.normal(size=(2, 1)))
    store.add("span/biattn/w2", rng.normal(size=(2, 1)))
    store.add("span/biattn/w3", rng.normal(size=2))
    ctx = enc_seq(rng.normal(size=(4, 2)))
    q = enc_seq([[0.7, -0.2]])
    out = biattention(ctx, q, store)
    c2q = out.states.data[:, 2:4]
    assert np.allclose(c2q, np.tile([0.7, -0.2], (4, 1)))


def test_biattention_hand_computed_two_by_two():
    store = ParamStore()
    store.add("span/biattn/w1", np.array([[1.0], [0.0]]))
    store.add("span/biattn/w2", np.array([[0.0], [1.0]]))
    store.add("span/biattn/w3", np.array([1.0, 1.0]))
    H = np.array([[1.0, 0.0], [0.0, 2.0]])
    U = np.array([[1.0, 1.0], [2.0, 0.0]])
    out = biattention(enc_seq(H), enc_seq(U), store).states.data

    S = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            S[i, j] = H[i, 0] + U[j, 1] + np.dot(H[i] * U[j], [1.0, 1.0])
    A = np.exp(S - S.max(axis=1, keepdims=True))
    A /= A.sum(axis=1, keepdims=True)
    c2q = A @ U
    m = S.max(axis=1)
    beta = np.exp(m - m.max())
    beta /= beta.sum()
    q2c = np.tile(beta @ H, (2, 1))
    expected = np.concatenate([H, c2q, H * c2q, H * q2c], axis=1)
    assert np.allclose(out, expected, atol=1e-12)


def test_self_attention_length_one_identity():
    rng = np.random.default_rng(6)
    store = ParamStore()
    init_span_params(store, 3, HID, rng)
    seq = enc_seq(rng.normal(size=(1, 8 * HID)))
    out = self_attention(seq, store, readout=FULL)
    assert np.array_equal(out.states.data, seq.states.data)


def test_self_attention_zero_weights_mean_of_others():
    width = 2
    store = ParamStore()
    store.add("span/selfattn/w2", np.zeros((width, 1)))
    store.add("span/selfattn/w3", np.zeros(width))
    W_mix = np.zeros((3 * width, width))
    W_mix[width : 2 * width] = np.eye(width)  # pass the attended vector through
    store.add("span/selfattn/W_mix", W_mix)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 2.0]])
    out = self_attention(enc_seq(X), store, readout=constant(np.eye(width))).states.data
    attended = np.array(
        [
            (X[1] + X[2]) / 2,
            (X[0] + X[2]) / 2,
            (X[0] + X[1]) / 2,
        ]
    )
    assert np.allclose(out, X + attended, atol=1e-12)


def test_self_attention_gradient_through_masked_diagonal():
    rng = np.random.default_rng(7)
    width = 4
    store = ParamStore()
    store.add("span/selfattn/w2", rng.normal(size=(width, 1)))
    store.add("span/selfattn/w3", rng.normal(size=width))
    store.add("span/selfattn/W_mix", rng.normal(size=(3 * width, width)) * 0.3)
    X = rng.normal(size=(3, width))

    def build(s):
        from bridgeqa.numcore import sum_all

        return sum_all(self_attention(enc_seq(X), s, readout=constant(np.eye(width))).states)

    report = grad_check(build, store, eps=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_packed_self_attention_matches_each_passage_alone():
    # the composed per-passage self-attention is the reference, in values and
    # in the gradients of the passages and every self-attention parameter;
    # length-1 passages come out unchanged
    from reference_attention import per_passage, self_attention_one

    rng = np.random.default_rng(19)
    width, lengths = 4, [2, 1, 4, 1, 3]
    shapes = {"w2": (width, 1), "w3": (width,), "W_mix": (3 * width, width)}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(f"span/selfattn/{name}", rng.normal(size=shape))
    names = store.names()
    X = rng.normal(size=(sum(lengths), width))
    W = rng.normal(size=X.shape)

    def run(packed):
        store.zero_grad()
        x = Tensor(X.copy())
        if packed:
            out = self_attention(EncodedSeq(x), store, readout=constant(np.eye(width)), lengths=lengths).states
        else:
            out = per_passage(lambda rows: self_attention_one(rows, store), x, lengths)
        backward(sum_all(mul(out, constant(W))))
        return out.data, {name: store[name].grad for name in names}, x.grad

    got, want = run(True), run(False)
    assert np.max(np.abs(got[0] - want[0])) < 1e-12
    assert np.array_equal(got[0][[2, 7]], X[[2, 7]])
    for name in names:
        assert np.max(np.abs(got[1][name] - want[1][name])) < 1e-12, name
    assert np.max(np.abs(got[2] - want[2])) < 1e-12


@pytest.mark.parametrize("lengths", [[2, 1, 4, 1, 3], [1, 1, 1]])
def test_self_attention_at_rows_is_the_full_output_at_rows(lengths):
    # the full output gathered at rows is the reference, in values and in the
    # gradients of the rows and every self-attention parameter; rows come
    # unsorted and repeated, and rows of length-1 passages keep x
    rng = np.random.default_rng(22)
    width = 4
    store = ParamStore()
    for name, shape in {"w2": (width, 1), "w3": (width,), "W_mix": (3 * width, width)}.items():
        store.add(f"span/selfattn/{name}", rng.normal(size=shape))
    names = store.names()
    X = rng.normal(size=(sum(lengths), width))
    rows = np.array([2, 0, 1, 2, 6, 7, 5] if len(X) > 3 else [2, 0, 2])
    W = rng.normal(size=(len(rows), width))
    full = constant(np.eye(width))

    def run(at_rows):
        store.zero_grad()
        x = Tensor(X.copy())
        if at_rows:
            out = self_attention(EncodedSeq(x), store, readout=full, lengths=lengths, rows=rows).states
        else:
            out = gather_rows(self_attention(EncodedSeq(x), store, readout=full, lengths=lengths).states, rows)
        backward(sum_all(mul(out, constant(W))))
        return out.data, {name: store[name].grad for name in names}, x.grad

    got, want = run(True), run(False)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    assert np.array_equal(got[0][rows == 2], X[[2, 2]])
    for name in names:
        if want[1][name] is None:
            assert got[1][name] is None, name
        else:
            np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)


def test_self_attention_of_length_one_passages_is_identity():
    store = ParamStore()
    init_span_params(store, 3, HID, np.random.default_rng(20))
    seq = enc_seq(np.random.default_rng(21).normal(size=(3, 8 * HID)))
    assert np.array_equal(self_attention(seq, store, readout=FULL, lengths=[1, 1, 1]).states.data, seq.states.data)
    for lengths in ([2], [3, 0], [2, 2], []):
        with pytest.raises(ValidationError):
            self_attention(seq, store, readout=FULL, lengths=lengths)


def readout_store(rng, width, k=None):
    """Self-attention parameters, and with k a readout "V" of k columns."""
    store = ParamStore()
    shapes = {"span/selfattn/w2": (width, 1), "span/selfattn/w3": (width,), "span/selfattn/W_mix": (3 * width, width)}
    if k is not None:
        shapes["V"] = (width, k)
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    return store


@pytest.mark.parametrize("rows", [None, [2, 0, 1, 2, 6, 7, 5]], ids=["every row", "at rows"])
def test_identity_readout_keeps_the_bits_of_the_unfolded_formula(rows):
    # the identity readout gives the full states: x + (mixed.W_mix) * keep,
    # mixed = [x, att, x*att], each step a fresh array, att the plain masked
    # attention, the rows of length-1 passages keeping x
    from tests.test_numcore import _plain_attention

    rng = np.random.default_rng(23)
    width, lengths = 4, [2, 1, 4, 1, 3]
    store = readout_store(rng, width)
    X = rng.normal(size=(sum(lengths), width))
    att = _plain_attention(X, store["span/selfattn/w2"].data, store["span/selfattn/w3"].data, lengths, rows)
    x = X if rows is None else X[rows]
    keep = np.repeat([float(n > 1) for n in lengths], lengths)[slice(None) if rows is None else rows]
    mixed = np.concatenate([x, att, x * att], axis=1)
    want = x + (mixed @ store["span/selfattn/W_mix"].data) * keep[:, None]
    got = self_attention(enc_seq(X), store, readout=constant(np.eye(width)), lengths=lengths, rows=rows)
    assert np.array_equal(got.states.data, want)


@pytest.mark.parametrize(
    "lengths, rows",
    [([9], None), ([2, 1, 4, 1, 3], None), ([2, 1, 4, 1, 3], [2, 0, 1, 2, 6, 7, 5])],
    ids=["one passage", "packed", "packed at rows"],
)
def test_readout_matches_the_unfolded_formula(lengths, rows):
    # the composed per-passage self-attention times V, gathered at rows, is
    # the reference, in values and in the gradients of x, the readout and
    # every self-attention parameter; length-1 passages read x.V
    from reference_attention import per_passage, self_attention_one

    rng = np.random.default_rng(24)
    width = 4
    store = readout_store(rng, width, k=2)
    names = store.names()
    X = rng.normal(size=(sum(lengths), width))
    W = rng.normal(size=(sum(lengths) if rows is None else len(rows), 2))

    def run(folded):
        store.zero_grad()
        x = Tensor(X.copy())
        if folded:
            out = self_attention(EncodedSeq(x), store, lengths=lengths, rows=rows, readout=store["V"]).states
        else:
            out = matmul(per_passage(lambda xs: self_attention_one(xs, store), x, lengths), store["V"])
            out = out if rows is None else gather_rows(out, np.array(rows))
        backward(sum_all(mul(out, constant(W))))
        return out.data, {name: store[name].grad for name in names}, x.grad

    got, want = run(True), run(False)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    for name in names:
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)


def test_readout_gradient_check():
    # W_mix, w2, w3, the readout and x through the folded mixing layer, at
    # rows of packed passages, a length-1 passage among them
    rng = np.random.default_rng(25)
    width, lengths, rows = 3, [3, 1, 2], [0, 3, 5, 2]
    store = readout_store(rng, width, k=2)
    store.add("x", rng.normal(size=(sum(lengths), width)))
    W = constant(rng.normal(size=(len(rows), 2)))

    def build(s):
        out = self_attention(EncodedSeq(s["x"]), s, lengths=lengths, rows=rows, readout=s["V"]).states
        return sum_all(mul(out, W))

    report = grad_check(build, store, eps=1e-6, tol=1e-6)
    assert report.passed, report.summary()


def test_span_logits_match_the_unfolded_heads():
    # the reader's logits read through head_readout equal the full
    # self-attention states times each head, in values and in the gradient
    # of every parameter, with dropout drawn alike
    m = tiny_model(seed=26, dropout=0.3)
    q, c = tokenize("who stars"), tokenize("kiss and tell stars temple")

    def run(folded):
        m.store.zero_grad()
        rng = np.random.default_rng(3)
        if folded:
            _, scores = run_span_model(m, q, c, rng=rng)
            start, end = scores.start_logits, scores.end_logits
        else:
            (final,) = attend(m, [(q, [c])], readout=FULL, rng=rng)
            start, end = (reshape(matmul(final.states, m.store[f"span/heads/{name}_w"]), (len(c),))
                          for name in ("start", "end"))
        # the span NLL, and a weighted sum that reaches every start logit
        loss = add(span_nll_loss(SpanScores(start, end), 1, 3),
                   sum_all(mul(start, constant(np.arange(len(c), dtype=float)))))
        backward(loss)
        return start.data, end.data, m.store.gradients()

    got, want = run(True), run(False)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    assert got[2].keys() == want[2].keys()
    for name in want[2]:
        np.testing.assert_allclose(got[2][name], want[2][name], rtol=0, atol=1e-12, err_msg=name)


def test_span_heads_zero_weights_uniform():
    store = ParamStore()
    width = 3
    store.add("span/heads/start_w", np.zeros((width, 1)))
    store.add("span/heads/end_w", np.zeros((width, 1)))
    seq = enc_seq(np.ones((4, width)))
    scores = span_heads(matmul(seq.states, head_readout(store)))
    assert np.allclose(scores.start_logits.data, 0.0)


def test_span_heads_matches_matrix_vector_product():
    rng = np.random.default_rng(8)
    store = ParamStore()
    width = 3
    w = rng.normal(size=(width, 1))
    store.add("span/heads/start_w", w)
    store.add("span/heads/end_w", np.zeros((width, 1)))
    X = rng.normal(size=(4, width))
    scores = span_heads(matmul(enc_seq(X).states, head_readout(store)))
    assert np.allclose(scores.start_logits.data, (X @ w)[:, 0])


def test_span_nll_uniform_logits():
    store = ParamStore()
    width = 2
    for name in ("start", "end"):
        store.add(f"span/heads/{name}_w", np.zeros((width, 1)))
    scores = span_heads(matmul(enc_seq(np.zeros((5, width))).states, head_readout(store)))
    loss = span_nll_loss(scores, 1, 3)
    assert loss.item() == pytest.approx(2 * math.log(5))


def test_span_nll_probability_one_is_zero():
    scores_store = ParamStore()
    from bridgeqa.span_model import SpanScores

    big = np.full(4, -1e9)
    start = big.copy()
    start[1] = 0.0
    end = big.copy()
    end[2] = 0.0
    scores = SpanScores(Tensor(start), Tensor(end))
    assert span_nll_loss(scores, 1, 2).item() == pytest.approx(0.0, abs=1e-9)


def test_full_model_gradient_check():
    """End-to-end gradient of the composed loss on a small instance."""
    m = tiny_model(seed=9)
    q = tokenize("who stars")
    c = tokenize("kiss and tell stars temple")

    def build(store):
        _, scores = run_span_model(m, q, c)
        return span_nll_loss(scores, 3, 4)

    report = grad_check(build, m.store, eps=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_logit_shift_invariance():
    m = tiny_model(seed=10)
    q = tokenize("who stars")
    c = tokenize("kiss and tell")
    _, scores = run_span_model(m, q, c)
    base_loss = span_nll_loss(scores, 0, 1).item()
    from bridgeqa.span_model import SpanScores

    shifted = SpanScores(Tensor(scores.start_logits.data + 7.5), scores.end_logits)
    assert span_nll_loss(shifted, 0, 1).item() == pytest.approx(base_loss)
    assert np.argmax(shifted.start_logits.data) == np.argmax(scores.start_logits.data)


def test_outputs_independent_of_other_examples():
    # running another question in between does not perturb a question's output
    m = tiny_model(seed=11)
    q1, c1 = tokenize("who stars"), tokenize("kiss and tell")
    _, first = run_span_model(m, q1, c1)
    run_span_model(m, tokenize("archer"), tokenize("temple temple temple"))
    _, second = run_span_model(m, q1, c1)
    assert np.array_equal(first.start_logits.data, second.start_logits.data)


def test_encode_dropout_training_vs_inference():
    m = tiny_model(seed=13, dropout=0.5)
    toks = ["kiss", "and", "tell"]
    rng = np.random.default_rng(3)
    clean = encode(toks, m.table, m.store, HID, dropout_rate=0.5).states.data
    trained = encode(toks, m.table, m.store, HID, dropout_rate=0.5, rng=rng).states.data
    assert not np.array_equal(clean, trained)  # mask drawn from the rng
    again = encode(toks, m.table, m.store, HID, dropout_rate=0.5).states.data
    assert np.array_equal(clean, again)  # inference is deterministic identity


def test_embedding_file_round_trip(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("kiss 1.0 2.0\ntell 3.0 4.0\n", encoding="utf-8")
    tokens, matrix = load_embedding_text(path)
    assert tokens == ["kiss", "tell"]
    assert np.array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])


def test_embedding_file_ragged_is_error(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("kiss 1.0 2.0\ntell 3.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_embedding_text(path)


@pytest.mark.parametrize(
    "text, line_no",
    [("a 0.1 nan\nb 0.2 0.3\n", 1), ("a 0.1 0.2\nb inf 0.2\n", 2), ("a 0.1 0.2\nb 0.3 -Infinity\n", 2)],
    ids=["nan", "inf", "minus-infinity"],
)
def test_embedding_file_non_finite_value_is_error_naming_the_line(tmp_path, text, line_no):
    path = tmp_path / "vecs.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"embedding line {line_no}: non-finite value"):
        load_embedding_text(path)


def test_frozen_table_trains_only_unk_row():
    store = ParamStore()
    rng = np.random.default_rng(12)
    table = create_embedding_table(store, VOCAB, 3, rng, frozen=True)
    from bridgeqa.numcore import gather_rows, sum_all

    idx = table.indices(["kiss", "zebra-unknown"])
    out = gather_rows(table.matrix, idx, table.row_mask)
    backward(sum_all(out))
    grad = table.matrix.grad
    assert np.any(grad[table.unk_index] != 0)
    assert np.all(grad[VOCAB["kiss"]] == 0)


def test_encode_with_lengths_matches_separate_encodes_with_dropout():
    m = tiny_model(seed=14, dropout=0.3)
    seqs = [tokenize("who stars").tokens, ["kiss"], tokenize("kiss and tell stars temple").tokens]
    kw = dict(dropout_rate=0.3)
    flat = [tok for seq in seqs for tok in seq]
    lengths = [len(seq) for seq in seqs]
    packed = encode(flat, m.table, m.store, HID, lengths=lengths, rng=np.random.default_rng(5), **kw)
    rng = np.random.default_rng(5)
    # one dropout draw over the packed rows consumes the rng as the separate
    # draws, in sequence order, do
    separate = np.concatenate([encode(s, m.table, m.store, HID, rng=rng, **kw).states.data for s in seqs])
    assert packed.states.data.shape == separate.shape
    assert np.max(np.abs(packed.states.data - separate)) < 1e-12


def test_attend_rejects_an_empty_sequence():
    m = tiny_model()
    for contexts in ([["kiss"], []], []):
        with pytest.raises(ValidationError):
            attend(m, [(["who"], contexts)], readout=FULL)
    with pytest.raises(ValidationError):
        attend(m, [([], [["kiss"]])], readout=FULL)
    # an empty group in a minibatch, and no group at all
    with pytest.raises(ValidationError):
        attend(m, [(["who"], [["kiss"]]), (["who"], [])], readout=FULL)
    with pytest.raises(ValidationError):
        attend(m, [], readout=FULL)


def test_attend_rows_must_name_one_entry_per_group():
    # rows holds one entry per group: fewer or more entries are an error,
    # not a read of fewer groups
    m = tiny_model()
    groups = [(["who"], [["kiss", "and"]]), (["who"], [["tell", "stars"]])]
    for rows in ([np.array([0])], [None, None, np.array([1])], []):
        with pytest.raises(ValidationError, match="entries of rows"):
            attend(m, groups, readout=FULL, rows=rows)
    assert len(attend(m, groups, readout=FULL, rows=[None, np.array([1])])) == 2


def biattention_store(rng, width):
    store = ParamStore()
    store.add("span/biattn/w1", rng.normal(size=(width, 1)))
    store.add("span/biattn/w2", rng.normal(size=(width, 1)))
    store.add("span/biattn/w3", rng.normal(size=width))
    return store


def test_packed_biattention_matches_each_passage_alone():
    # the per-passage call is the reference, in values and in the gradients
    # of the parameters, the passages and the question
    rng = np.random.default_rng(15)
    width, lengths = 4, [3, 1, 5]
    store = biattention_store(rng, width)
    C = rng.normal(size=(sum(lengths), width))
    Q = rng.normal(size=(2, width))
    W = rng.normal(size=(sum(lengths), 4 * width))

    def run(packed):
        store.zero_grad()
        c, q = Tensor(C.copy()), Tensor(Q.copy())
        if packed:
            out = biattention(EncodedSeq(c), EncodedSeq(q), store, lengths=lengths).states
        else:
            parts, start = [], 0
            for n in lengths:
                parts.append(biattention(EncodedSeq(slice_rows(c, start, start + n)), EncodedSeq(q), store).states)
                start += n
            out = concat(parts, axis=0)
        backward(sum_all(mul(out, constant(W))))
        grads = {name: store[name].grad for name in store.names()}
        return out.data, grads, c.grad, q.grad

    got, want = run(True), run(False)
    assert np.max(np.abs(got[0] - want[0])) < 1e-12
    for name in store.names():
        assert np.max(np.abs(got[1][name] - want[1][name])) < 1e-12, name
    assert np.max(np.abs(got[2] - want[2])) < 1e-12
    assert np.max(np.abs(got[3] - want[3])) < 1e-12


def test_biattention_lengths_must_pack_the_context():
    rng = np.random.default_rng(16)
    store = biattention_store(rng, 2)
    ctx, q = enc_seq(rng.normal(size=(4, 2))), enc_seq(rng.normal(size=(2, 2)))
    for lengths in ([3], [4, 0], [2, 3], []):
        with pytest.raises(ValidationError):
            biattention(ctx, q, store, lengths=lengths)


@pytest.mark.parametrize(
    "lengths, question_rows",
    [([7, 1, 22, 13], 5), ([7, 1, 22, 13], 1), ([22], 5)],
    ids=["packed", "one-token question", "one passage"],
)
def test_biattention_matches_the_composed_layer(lengths, question_rows):
    # the layer composed from tape ops is the reference: the fused node's
    # forward has its bits, and so have the gradients of the context, the
    # question and w1, w2 and w3
    from reference_attention import biattention as composed

    rng = np.random.default_rng(27)
    width = 6
    store = biattention_store(rng, width)
    C = rng.normal(size=(sum(lengths), width))
    Q = rng.normal(size=(question_rows, width))
    W = rng.normal(size=(sum(lengths), 4 * width))

    def run(layer):
        store.zero_grad()
        c, q = Tensor(C.copy()), Tensor(Q.copy())
        out = layer(EncodedSeq(c), EncodedSeq(q), store, lengths=lengths).states
        backward(sum_all(mul(out, constant(W))))
        return out.data, {"h": c.grad, "u": q.grad, **{name: store[name].grad for name in store.names()}}

    got, want = run(biattention), run(composed)
    assert got[0].tobytes() == want[0].tobytes()
    for name in want[1]:
        assert got[1][name].tobytes() == want[1][name].tobytes(), name


def test_attend_reads_each_context_as_alone():
    m = tiny_model(seed=17)
    q = tokenize("who stars")
    contexts = [tokenize("kiss and tell stars"), ["archer"], tokenize("temple stars who")]
    (together,) = attend(m, [(q, contexts)], readout=FULL)
    alone = np.concatenate([attend(m, [(q, [c])], readout=FULL)[0].states.data for c in contexts])
    assert np.max(np.abs(together.states.data - alone)) < 1e-12


def test_attend_reads_each_question_group_as_alone_with_dropout():
    # several groups in one encoder pass, a one-token context among them:
    # each group's rows equal reading that group alone, with the dropout
    # masks drawn from one rng in group order
    m = tiny_model(seed=18, dropout=0.3)
    groups = [
        (tokenize("who stars"), [tokenize("kiss and tell stars"), ["archer"]]),
        (["archer"], [tokenize("temple stars who")]),
        (tokenize("who tell"), [["kiss"], tokenize("tell stars")]),
    ]
    together = attend(m, groups, readout=FULL, rng=np.random.default_rng(6))
    rng = np.random.default_rng(6)
    for got, group in zip(together, groups):
        (alone,) = attend(m, [group], readout=FULL, rng=rng)
        assert np.max(np.abs(got.states.data - alone.states.data)) < 1e-12
