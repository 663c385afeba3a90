import math

import numpy as np
import pytest

from bridgeqa.corpus import tokenize
from bridgeqa.errors import ValidationError
from bridgeqa.numcore import ParamStore, Tensor, backward, concat, constant, grad_check, mul, slice_rows, sum_all
from bridgeqa.span_model import (
    EncodedSeq,
    attend,
    biattention,
    build_vocab,
    create_embedding_table,
    encode,
    init_span_model,
    init_span_params,
    load_embedding_text,
    run_span_model,
    self_attention,
    span_heads,
    span_nll_loss,
)

HID = 2
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
    out = self_attention(seq, store)
    assert out is seq


def test_self_attention_zero_weights_mean_of_others():
    width = 2
    store = ParamStore()
    store.add("span/selfattn/w1", np.zeros((width, 1)))
    store.add("span/selfattn/w2", np.zeros((width, 1)))
    store.add("span/selfattn/w3", np.zeros(width))
    W_mix = np.zeros((3 * width, width))
    W_mix[width : 2 * width] = np.eye(width)  # pass the attended vector through
    store.add("span/selfattn/W_mix", W_mix)
    store.add("span/selfattn/b_mix", np.zeros(width))
    X = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 2.0]])
    out = self_attention(enc_seq(X), store).states.data
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
    store.add("span/selfattn/w1", rng.normal(size=(width, 1)))
    store.add("span/selfattn/w2", rng.normal(size=(width, 1)))
    store.add("span/selfattn/w3", rng.normal(size=width))
    store.add("span/selfattn/W_mix", rng.normal(size=(3 * width, width)) * 0.3)
    store.add("span/selfattn/b_mix", np.zeros(width))
    X = rng.normal(size=(3, width))

    def build(s):
        from bridgeqa.numcore import sum_all

        return sum_all(self_attention(enc_seq(X), s).states)

    report = grad_check(build, store, eps=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_span_heads_zero_weights_uniform():
    store = ParamStore()
    width = 3
    store.add("span/heads/start_w", np.zeros((width, 1)))
    store.add("span/heads/start_b", np.zeros(1))
    store.add("span/heads/end_w", np.zeros((width, 1)))
    store.add("span/heads/end_b", np.zeros(1))
    seq = enc_seq(np.ones((4, width)))
    scores = span_heads(seq, store)
    assert np.allclose(scores.start_logits.data, 0.0)


def test_span_heads_matches_matrix_vector_product():
    rng = np.random.default_rng(8)
    store = ParamStore()
    width = 3
    w = rng.normal(size=(width, 1))
    store.add("span/heads/start_w", w)
    store.add("span/heads/start_b", np.array([0.5]))
    store.add("span/heads/end_w", np.zeros((width, 1)))
    store.add("span/heads/end_b", np.zeros(1))
    X = rng.normal(size=(4, width))
    scores = span_heads(enc_seq(X), store)
    assert np.allclose(scores.start_logits.data, (X @ w)[:, 0] + 0.5)


def test_span_nll_uniform_logits():
    store = ParamStore()
    width = 2
    for name in ("start", "end"):
        store.add(f"span/heads/{name}_w", np.zeros((width, 1)))
        store.add(f"span/heads/{name}_b", np.zeros(1))
    scores = span_heads(enc_seq(np.zeros((5, width))), store)
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
    trained = encode(
        toks, m.table, m.store, HID, dropout_rate=0.5, training=True, rng=rng
    ).states.data
    assert not np.array_equal(clean, trained)  # mask applied in training
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
    kw = dict(dropout_rate=0.3, training=True)
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
            attend(m, ["who"], contexts)
    with pytest.raises(ValidationError):
        attend(m, [], [["kiss"]])


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
    for lengths in ([3], [4, 0], [2, 3]):
        with pytest.raises(ValidationError):
            biattention(ctx, q, store, lengths=lengths)


def test_attend_reads_each_context_as_alone():
    m = tiny_model(seed=17)
    q = tokenize("who stars")
    contexts = [tokenize("kiss and tell stars"), ["archer"], tokenize("temple stars who")]
    together = attend(m, q, contexts).states.data
    alone = np.concatenate([run_span_model(m, q, c)[0].states.data for c in contexts])
    assert np.max(np.abs(together - alone)) < 1e-12
