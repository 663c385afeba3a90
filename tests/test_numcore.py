import math

import numpy as np
import pytest

from bridgeqa.errors import ShapeError, ValidationError
from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    adam_step,
    add,
    backward,
    concat,
    constant,
    cross_entropy_from_logits,
    dropout,
    gather_rows,
    grad_check,
    init_gru,
    init_lstm,
    matmul,
    max_pool_over_time,
    mul,
    relu,
    reshape,
    row_max,
    run_bidirectional,
    run_recurrent,
    scale,
    self_attend,
    shift,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    sum_all,
    take_row,
    tanh,
    transpose,
)
from reference_attention import per_passage, self_attention_one
from stepwise_cells import gru_cell, lstm_cell, recurrent_cell


def finite_diff(f, x, eps=1e-6):
    """Central differences of scalar-valued f with respect to array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def check_op_gradient(build, *arrays, tol=1e-6):
    """build(*tensors) -> output tensor; compares backward against finite
    differences of sum(output * weights) for a fixed random weighting."""
    rng = np.random.default_rng(0)
    tensors = [Tensor(a) for a in arrays]
    out = build(*tensors)
    w = rng.normal(size=out.data.shape)
    loss = sum_all(mul(out, constant(w)))
    backward(loss)
    for t, a in zip(tensors, arrays):
        def f(t=t, build=build):
            o = build(*tensors)
            return float((o.data * w).sum())
        num = finite_diff(f, t.data)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.max(np.abs(got - num)) < tol, f"gradient mismatch: {np.abs(got - num).max()}"


# --- forward value checks ---------------------------------------------------


def test_softmax_rows_analytic():
    out = softmax_rows(Tensor([[0.0, math.log(2.0)]]))
    assert np.allclose(out.data, [[1 / 3, 2 / 3]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 7))
    out = softmax_rows(Tensor(x))
    assert np.all(out.data >= 0)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_rows_masked_positions_get_zero():
    x = np.array([[1.0, -np.inf, 2.0]])
    out = softmax_rows(Tensor(x))
    assert out.data[0, 1] == 0.0
    assert np.isclose(out.data.sum(), 1.0)


def test_softmax_rows_fully_masked_row_is_error():
    with pytest.raises(ShapeError):
        softmax_rows(Tensor(np.full((1, 3), -np.inf)))


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
    out = matmul(Tensor(a), Tensor(b))
    ref = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                ref[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out.data, ref)


def test_matmul_shape_error_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_max_pool_single_timestep_is_identity():
    x = np.array([[1.0, -2.0, 3.0]])
    assert np.array_equal(max_pool_over_time(Tensor(x)).data, x)


def test_max_pool_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    base = max_pool_over_time(Tensor(x)).data
    for _ in range(5):
        perm = rng.permutation(6)
        assert np.array_equal(max_pool_over_time(Tensor(x[perm])).data, base)


def test_max_pool_with_lengths_equals_per_slice_pooling():
    rng = np.random.default_rng(38)
    x = rng.normal(size=(9, 4))
    x[6, 1] = x[7, 1]  # a tie inside one segment goes to its first row, as alone
    lengths, starts = [3, 1, 5], [0, 3, 4]
    got = max_pool_over_time(Tensor(x), lengths).data
    want = np.concatenate([max_pool_over_time(Tensor(x[s : s + n])).data for s, n in zip(starts, lengths)])
    assert np.array_equal(got, want)


def test_max_pool_with_lengths_grad_check():
    rng = np.random.default_rng(39)
    store = ParamStore()
    store.add("x", rng.normal(size=(9, 4)))
    w = constant(rng.normal(size=(3, 4)))
    report = grad_check(lambda s: sum_all(mul(max_pool_over_time(s["x"], [3, 1, 5]), w)), store)
    assert report.passed, report.summary()


def test_max_pool_lengths_must_pack_the_rows():
    x = Tensor(np.zeros((4, 2)))
    for lengths in ([3], [4, 0], [2, 3], []):
        with pytest.raises(ShapeError):
            max_pool_over_time(x, lengths)


SELFATTN = ("w2", "w3", "W_mix", "V")


def self_attend_store(rng, rows, width):
    """x, the self-attention parameters, and a readout "V" of two columns."""
    store = ParamStore()
    store.add("x", rng.normal(size=(rows, width)))
    store.add("span/selfattn/w2", rng.normal(size=(width, 1)))
    store.add("span/selfattn/w3", rng.normal(size=width))
    store.add("span/selfattn/W_mix", rng.normal(size=(3 * width, width)))
    store.add("V", rng.normal(size=(width, 2)))
    return store


def _weights(store):
    return [store[name if name == "V" else f"span/selfattn/{name}"] for name in SELFATTN]


def _self_attend(store, lengths, rows=None):
    return self_attend(store["x"], *_weights(store), lengths, rows)


def _composed(store, lengths, rows=None):
    """The composed per-passage self-attention times V, gathered at rows."""
    out = matmul(per_passage(lambda xs: self_attention_one(xs, store), store["x"], lengths), store["V"])
    return out if rows is None else gather_rows(out, np.array(rows, dtype=np.int64))


def test_self_attend_matches_composed_passages():
    # the composed per-passage self-attention, read through V, is the
    # reference, in values and in the gradients of x, w2, w3, W_mix and V; a
    # length-1 passage attends to nothing and reads x.V
    rng = np.random.default_rng(40)
    lengths = [3, 1, 2, 5, 1]
    store = self_attend_store(rng, sum(lengths), 4)
    weights = constant(rng.normal(size=(sum(lengths), 2)))

    def run(build):
        store.zero_grad()
        out = build()
        backward(sum_all(mul(out, weights)))
        return out.data, {name: store[name].grad for name in store.names()}

    got = run(lambda: _self_attend(store, lengths))
    want = run(lambda: _composed(store, lengths))
    assert np.max(np.abs(got[0] - want[0])) < 1e-12
    assert np.array_equal(got[0][[3, 11]], store["x"].data[[3, 11]] @ store["V"].data)
    for name in store.names():
        assert np.max(np.abs(got[1][name] - want[1][name])) < 1e-12, name


def _plain_attention(x, w2, w3, lengths, rows=None):
    """The masked whole-matrix formula, each step a fresh array: query rows
    (rows, or every row) of segments of two or more rows score every row,
    S = (x.w2)^T + (xq * w3).x^T, -inf outside the query's segment and at its
    own row, P = exp(S - rowmax) / rowsum, out = P.x; other rows are zero."""
    own = np.arange(len(x)) if rows is None else np.asarray(rows)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    q = np.flatnonzero(np.asarray(lengths)[segment[own]] > 1)
    S = (x @ w2).T + (x[own[q]] * w3) @ x.T
    S[segment[own[q]][:, None] != segment] = -np.inf
    S[np.arange(len(q)), own[q]] = -np.inf
    P = np.exp(S - S.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    want = np.zeros((len(own), x.shape[1]))
    want[q] = P @ x
    return want


def _plain_self_attend(store, lengths, rows=None):
    """The plain attention's tail, each step a fresh array: x.V + (mixed.
    (W_mix.V)) * keep at the read rows, mixed = [x, att, x*att], keep 0 at
    the rows of length-1 segments."""
    x, w2, w3, W_mix, V = (t.data for t in [store["x"], *_weights(store)])
    att = _plain_attention(x, w2, w3, lengths, rows)
    xq = x if rows is None else x[rows]
    keep = np.repeat([float(n > 1) for n in lengths], lengths)[slice(None) if rows is None else rows]
    mixed = np.concatenate([xq, att, xq * att], axis=1)
    return xq @ V + (mixed @ (W_mix @ V)) * keep[:, None]


def test_self_attend_single_segment_keeps_the_bits_of_the_plain_formula():
    # one segment, every reader call: S = (x.w2)^T + (x * w3).x^T, diagonal
    # -inf, P = exp(S - rowmax) / rowsum, att = P.x, and the tail read
    # through V, each step a fresh array: the in-place forward gives the
    # same bits, also at rows
    rng = np.random.default_rng(43)
    store = self_attend_store(rng, 12, 6)
    x, w2, w3, W_mix, V = (t.data for t in [store["x"], *_weights(store)])
    S = (x @ w2).T + (x * w3) @ x.T
    np.fill_diagonal(S, -np.inf)
    P = np.exp(S - S.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    att = P @ x
    want = x @ V + np.concatenate([x, att, x * att], axis=1) @ (W_mix @ V)
    assert np.array_equal(_self_attend(store, [12]).data, want)
    rows = [5, 0, 11, 5]
    assert np.array_equal(_self_attend(store, [12], rows).data, _plain_self_attend(store, [12], rows))


def test_self_attend_multi_segment_keeps_the_bits_of_the_masked_whole_matrix():
    # several segments attend through one (queries, rows) score matrix,
    # masked -inf outside each query's segment: the bits of the plain masked
    # formula, with every row and at rows (the per-segment reference is
    # test_self_attend_matches_composed_passages, within 1e-12)
    rng = np.random.default_rng(43)
    lengths = [7, 1, 12]
    store = self_attend_store(rng, sum(lengths), 6)
    assert np.array_equal(_self_attend(store, lengths).data, _plain_self_attend(store, lengths))
    rows = [19, 7, 0, 8, 8, 3]
    assert np.array_equal(_self_attend(store, lengths, rows).data, _plain_self_attend(store, lengths, rows))


def test_self_attend_exponentiates_the_live_scores_to_the_bits_of_the_full_exp():
    # several segments exponentiate their unmasked scores alone: the bits of
    # the formula that exponentiates the whole masked matrix, over random
    # lengths with length-1 segments and over rows with repeats
    rng = np.random.default_rng(44)
    for _ in range(25):
        lengths = rng.integers(1, 9, size=rng.integers(2, 8))
        lengths[rng.integers(len(lengths))] = 1
        store = self_attend_store(rng, int(lengths.sum()), 5)
        assert np.array_equal(_self_attend(store, lengths).data, _plain_self_attend(store, lengths))
        rows = rng.integers(int(lengths.sum()), size=rng.integers(1, 2 * int(lengths.sum())))
        assert np.array_equal(_self_attend(store, lengths, rows).data, _plain_self_attend(store, lengths, rows))


def test_self_attend_rejects_bad_shapes():
    store = self_attend_store(np.random.default_rng(42), 4, 2)
    for lengths in ([3], [4, 0], [2, 3], []):
        with pytest.raises(ShapeError):
            _self_attend(store, lengths)
    x, w2, w3, W_mix, V = store["x"], *_weights(store)
    for bad in ([x, w2, Tensor(np.zeros(3)), W_mix, V], [x, w2, w3, Tensor(np.zeros((6, 3))), V],
                [x, w2, w3, W_mix, Tensor(np.zeros((3, 2)))], [x, w2, w3, W_mix, Tensor(np.zeros(2))]):
        with pytest.raises(ShapeError):
            self_attend(*bad, [4])
    for rows in ([4], [-1], [[0, 1]]):
        with pytest.raises(ShapeError):
            _self_attend(store, [4], rows)


# rows out of order, a repeated row, and rows 5 and 6, the one row of each
# length-1 segment
ROWS_LENGTHS = [5, 1, 1, 4, 6]
READ_ROWS = [12, 0, 3, 3, 5, 6, 9, 16, 3]


def test_self_attend_at_rows_gives_the_full_outputs_rows():
    rng = np.random.default_rng(44)
    store = self_attend_store(rng, sum(ROWS_LENGTHS), 6)
    full = _self_attend(store, ROWS_LENGTHS).data
    got = _self_attend(store, ROWS_LENGTHS, np.array(READ_ROWS)).data
    assert got.shape == (len(READ_ROWS), 2)
    np.testing.assert_allclose(got, full[READ_ROWS], rtol=0, atol=1e-12)
    assert np.array_equal(got[[4, 5]], store["x"].data[[5, 6]] @ store["V"].data)


def test_self_attend_at_rows_grad_check():
    # x, w2, w3, W_mix and V all reach the loss: keys and values through
    # every row of a read segment, the query terms through the read rows alone
    rng = np.random.default_rng(45)
    store = self_attend_store(rng, sum(ROWS_LENGTHS), 4)
    weights = constant(rng.normal(size=(len(READ_ROWS), 2)))

    def build(s):
        return sum_all(mul(_self_attend(s, ROWS_LENGTHS, READ_ROWS), weights))

    report = grad_check(build, store, eps=1e-6, tol=1e-6)
    assert report.passed, report.summary()
    # rows 1, 2 and 4 are keys of the rows read in segment 0: their gradient
    # is not zero, though nothing reads their outputs
    store.zero_grad()
    backward(build(store))
    assert np.abs(store["x"].grad[[1, 2, 4]]).min() > 0


@pytest.mark.parametrize("rows", [READ_ROWS, []], ids=["repeats across segments", "empty"])
def test_self_attend_at_rows_matches_composed_passages(rows):
    # the composed per-passage self-attention, read through V and gathered at
    # rows, is the reference, in values and in the gradients of x, w2, w3,
    # W_mix and V: rows out of order and repeated, across several segments,
    # the rows of length-1 segments among them, and no row at all
    rng = np.random.default_rng(46)
    store = self_attend_store(rng, sum(ROWS_LENGTHS), 4)
    weights = constant(rng.normal(size=(len(rows), 2)))

    def run(build):
        store.zero_grad()
        out = build()
        backward(sum_all(mul(out, weights)))
        return out.data, {name: store[name].grad for name in store.names()}

    got = run(lambda: _self_attend(store, ROWS_LENGTHS, rows))
    want = run(lambda: _composed(store, ROWS_LENGTHS, rows))
    assert got[0].shape == (len(rows), 2)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    for name in store.names():
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12, err_msg=name)


def test_self_attend_of_length_one_segments_reads_x_through_v_alone():
    # no segment has two rows: the output is x.V at the read rows, and only
    # x and V get a gradient, as none of w2, w3 and W_mix is read
    rng = np.random.default_rng(47)
    store = self_attend_store(rng, 3, 4)
    weights = constant(rng.normal(size=(4, 2)))
    out = _self_attend(store, [1, 1, 1], [2, 0, 2, 1])
    assert np.array_equal(out.data, store["x"].data[[2, 0, 2, 1]] @ store["V"].data)
    backward(sum_all(mul(out, weights)))
    assert sorted(store.gradients()) == ["V", "x"]


def test_cross_entropy_uniform_logits_is_log_n():
    for n in (2, 5, 9):
        loss = cross_entropy_from_logits(Tensor(np.zeros(n)), 0)
        assert loss.item() == pytest.approx(math.log(n))


def test_cross_entropy_gold_set_everything_is_zero():
    loss = cross_entropy_from_logits(Tensor(np.array([0.3, -1.0, 2.0])), {0, 1, 2})
    assert loss.item() == pytest.approx(0.0)


def test_cross_entropy_hand_computed():
    loss = cross_entropy_from_logits(Tensor(np.array([2.0, 0.0, 0.0])), {0})
    expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 2.0))
    assert loss.item() == pytest.approx(expected)


def test_cross_entropy_empty_gold_is_error():
    with pytest.raises(ValueError):
        cross_entropy_from_logits(Tensor(np.zeros(3)), set())


def test_add_bias_and_shape_errors():
    out = add(Tensor(np.ones((2, 3))), Tensor(np.arange(3.0)))
    assert np.allclose(out.data, [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ShapeError, match="add"):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


@pytest.mark.parametrize(
    "op, a_shape, b_shape",
    [(add, (4, 1), (1, 3)), (mul, (4, 3), (1, 3)), (mul, (1, 3), (4, 3))],
)
def test_broadcast_gradients_grad_check(op, a_shape, b_shape):
    # backward sums the gradient over each operand's broadcast axes
    rng = np.random.default_rng(41)
    store = ParamStore()
    store.add("a", rng.normal(size=a_shape))
    store.add("b", rng.normal(size=b_shape))
    weights = constant(rng.normal(size=(4, 3)))

    def build(s):
        out = op(s["a"], s["b"])
        assert out.shape == (4, 3)
        return sum_all(mul(tanh(out), weights))

    report = grad_check(build, store, eps=1e-5, tol=1e-6)
    assert report.passed, report.summary()


@pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 1)), ((2, 3), (3, 2)), ((2, 3), (2,))])
def test_broadcast_shape_errors(a_shape, b_shape):
    for op in (add, mul):
        with pytest.raises(ShapeError, match=op.__name__):
            op(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))
        with pytest.raises(ShapeError, match=op.__name__):
            op(Tensor(np.ones(b_shape)), Tensor(np.ones(a_shape)))


def test_relu_sigmoid_tanh_forward():
    x = Tensor(np.array([-2.0, 0.0, 3.0]))
    assert np.allclose(relu(x).data, [0.0, 0.0, 3.0])
    assert np.allclose(sigmoid(x).data, 1 / (1 + np.exp([2.0, 0.0, -3.0])))
    assert np.allclose(tanh(x).data, np.tanh(x.data))


def test_backward_requires_scalar_loss():
    with pytest.raises(ShapeError):
        backward(Tensor(np.zeros(3)))


def test_constant_loss_leaves_grads_unset():
    x = Tensor(np.ones((2, 2)))
    loss = sum_all(mul(x, constant(np.zeros((2, 2)))))
    backward(loss)
    # gradient exists but is exactly zero everywhere
    assert np.all(x.grad == 0.0)


def test_tape_replay_bitwise_identical():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3))
    w = rng.normal(size=(3, 2))

    def run():
        return softmax_rows(matmul(tanh(Tensor(x)), Tensor(w))).data

    first, second = run(), run()
    assert np.array_equal(first, second)


# --- per-op gradients against finite differences ----------------------------


def test_gradients_elementwise_ops():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    check_op_gradient(sigmoid, x)
    check_op_gradient(tanh, x)
    check_op_gradient(lambda t: relu(t), rng.normal(size=(3, 4)) + 0.1)  # keep off the kink
    check_op_gradient(lambda t: scale(t, -2.5), x)
    check_op_gradient(lambda t: shift(t, 1.5), x)


def test_gradients_binary_ops():
    rng = np.random.default_rng(6)
    check_op_gradient(add, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
    check_op_gradient(add, rng.normal(size=(3, 4)), rng.normal(size=4))
    check_op_gradient(mul, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
    check_op_gradient(mul, rng.normal(size=(3, 4)), rng.normal(size=4))
    check_op_gradient(matmul, rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))


def test_gradients_structural_ops():
    rng = np.random.default_rng(7)
    check_op_gradient(lambda a, b: concat([a, b], axis=0), rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
    check_op_gradient(lambda a, b: concat([a, b], axis=1), rng.normal(size=(2, 3)), rng.normal(size=(2, 2)))
    check_op_gradient(transpose, rng.normal(size=(3, 4)))
    check_op_gradient(lambda t: reshape(t, (12,)), rng.normal(size=(3, 4)))
    check_op_gradient(lambda t: take_row(t, 1), rng.normal(size=(4, 3)))
    check_op_gradient(lambda t: slice_cols(t, 1, 3), rng.normal(size=(4, 5)))


def test_slice_rows_gradient_and_bounds():
    rng = np.random.default_rng(37)
    check_op_gradient(lambda t: slice_rows(t, 1, 3), rng.normal(size=(4, 3)))
    x = Tensor(np.zeros((4, 3)))
    for start, stop in ((2, 2), (-1, 2), (1, 5)):
        with pytest.raises(ShapeError):
            slice_rows(x, start, stop)


def test_gradients_reductions():
    rng = np.random.default_rng(8)
    check_op_gradient(softmax_rows, rng.normal(size=(3, 5)))
    check_op_gradient(max_pool_over_time, rng.normal(size=(5, 3)))
    check_op_gradient(row_max, rng.normal(size=(4, 6)))


def test_gradient_gather_rows():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(6, 3))
    idx = np.array([0, 2, 2, 5])
    check_op_gradient(lambda t: gather_rows(t, idx), table)


def test_gradient_cross_entropy_set_form():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=7)
    t = Tensor(logits.copy())
    loss = cross_entropy_from_logits(t, {1, 4})
    backward(loss)

    def f():
        e = np.exp(t.data - t.data.max())
        p = e / e.sum()
        return -math.log(p[[1, 4]].sum())

    num = finite_diff(f, t.data)
    assert np.max(np.abs(t.grad - num)) < 1e-6


def test_gradient_dropout_fixed_mask():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4))
    mask = (rng.random((4, 4)) >= 0.4).astype(float)
    check_op_gradient(lambda t: dropout(t, 0.4, mask=mask), x)


def test_dropout_identity_at_inference():
    # without an rng or a mask it is x itself at any rate; at rate 0 an rng
    # draws nothing, so the caller's stream is left as it was
    x = Tensor(np.ones((2, 2)))
    for rate in (0.0, 0.5, 0.9):
        assert dropout(x, rate) is x
    rng = np.random.default_rng(0)
    assert dropout(x, 0.0, rng=rng) is x
    assert rng.random() == np.random.default_rng(0).random()


# --- recurrent cells ---------------------------------------------------------


def zero_store_gru(input_dim, hidden):
    store = ParamStore()
    store.add("g/W_zr", np.zeros((input_dim + hidden, 2 * hidden)))
    store.add("g/b_zr", np.zeros(2 * hidden))
    store.add("g/W_h", np.zeros((input_dim + hidden, hidden)))
    store.add("g/b_h", np.zeros(hidden))
    return store


def test_gru_zero_params_forced_values():
    store = zero_store_gru(1, 1)
    h = Tensor(np.array([[1.0]]))
    x = Tensor(np.array([[0.7]]))
    out = gru_cell(x, h, store, "g/")
    # z = 0.5, hbar = 0 -> h' = 0.5 * 1 + 0.5 * 0 = 0.5
    assert out.data[0, 0] == pytest.approx(0.5)


def test_lstm_zero_params_forced_values():
    store = ParamStore()
    store.add("l/W", np.zeros((2, 4)))
    store.add("l/b", np.zeros(4))
    h = Tensor(np.zeros((1, 1)))
    c = Tensor(np.array([[1.0]]))
    x = Tensor(np.array([[0.3]]))
    h2, c2 = lstm_cell(x, h, c, store, "l/")
    assert c2.data[0, 0] == pytest.approx(0.5)
    assert h2.data[0, 0] == pytest.approx(0.5 * math.tanh(0.5))


def scalar_gru_reference(x, h, W_zr, b_zr, W_h, b_h):
    """Independent scalar-loop GRU step (python floats only)."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    d, H = len(x), len(h)
    xh = list(x) + list(h)
    z = []
    r = []
    for j in range(H):
        z.append(sig(sum(xh[i] * W_zr[i][j] for i in range(d + H)) + b_zr[j]))
        r.append(sig(sum(xh[i] * W_zr[i][H + j] for i in range(d + H)) + b_zr[H + j]))
    xrh = list(x) + [r[j] * h[j] for j in range(H)]
    hbar = [
        math.tanh(sum(xrh[i] * W_h[i][j] for i in range(d + H)) + b_h[j]) for j in range(H)
    ]
    return [z[j] * h[j] + (1 - z[j]) * hbar[j] for j in range(H)]


def test_gru_matches_scalar_reference():
    rng = np.random.default_rng(12)
    d, H = 3, 2
    store = ParamStore()
    init_gru(store, "g/", d, H, rng)
    x = rng.normal(size=(1, d))
    h = rng.normal(size=(1, H))
    out = gru_cell(Tensor(x), Tensor(h), store, "g/")
    ref = scalar_gru_reference(
        list(x[0]),
        list(h[0]),
        store["g/W_zr"].data.tolist(),
        store["g/b_zr"].data.tolist(),
        store["g/W_h"].data.tolist(),
        store["g/b_h"].data.tolist(),
    )
    assert np.allclose(out.data[0], ref, atol=1e-12)


def scalar_lstm_reference(x, h, c, W, b):
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    d, H = len(x), len(h)
    xh = list(x) + list(h)

    def gate(offset, fn):
        return [fn(sum(xh[i] * W[i][offset + j] for i in range(d + H)) + b[offset + j]) for j in range(H)]

    i_g = gate(0, sig)
    f_g = gate(H, sig)
    o_g = gate(2 * H, sig)
    g_g = gate(3 * H, math.tanh)
    c2 = [f_g[j] * c[j] + i_g[j] * g_g[j] for j in range(H)]
    h2 = [o_g[j] * math.tanh(c2[j]) for j in range(H)]
    return h2, c2


def test_lstm_matches_scalar_reference():
    rng = np.random.default_rng(13)
    d, H = 2, 3
    store = ParamStore()
    init_lstm(store, "l/", d, H, rng)
    x, h, c = rng.normal(size=(1, d)), rng.normal(size=(1, H)), rng.normal(size=(1, H))
    h2, c2 = lstm_cell(Tensor(x), Tensor(h), Tensor(c), store, "l/")
    rh, rc = scalar_lstm_reference(
        list(x[0]), list(h[0]), list(c[0]), store["l/W"].data.tolist(), store["l/b"].data.tolist()
    )
    assert np.allclose(h2.data[0], rh, atol=1e-12)
    assert np.allclose(c2.data[0], rc, atol=1e-12)


def test_recurrent_cell_dispatch_and_errors():
    store = zero_store_gru(1, 1)
    out = recurrent_cell("gru", Tensor(np.zeros((1, 1))), Tensor(np.ones((1, 1))), store, "g/")
    assert out.data.shape == (1, 1)
    with pytest.raises(ShapeError):
        recurrent_cell("rnn", Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))), store, "g/")


def test_recurrent_dimension_mismatch():
    store = zero_store_gru(2, 1)
    with pytest.raises(ShapeError):
        gru_cell(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 1))), store, "g/")


def test_run_recurrent_reverse_direction_order():
    rng = np.random.default_rng(14)
    store = ParamStore()
    init_gru(store, "g/", 2, 3, rng)
    xs = rng.normal(size=(4, 2))
    fwd = run_recurrent("gru", Tensor(xs), store, "g/", 3)
    rev = run_recurrent("gru", Tensor(xs[::-1].copy()), store, "g/", 3)
    # processing the reversed sequence forward equals processing the original
    # in reverse, rows re-reversed
    rev_of_orig = run_recurrent("gru", Tensor(xs), store, "g/", 3, reverse=True)
    assert np.allclose(rev_of_orig.data, rev.data[::-1])
    assert fwd.data.shape == (4, 3)


def test_run_recurrent_matches_stepwise_cells():
    # the fused sequence runner must agree exactly with composing the cell ops
    rng = np.random.default_rng(21)
    for kind in ("gru", "lstm"):
        store = ParamStore()
        (init_gru if kind == "gru" else init_lstm)(store, "c/", 3, 2, rng)
        xs = rng.normal(size=(5, 3))
        fused = run_recurrent(kind, Tensor(xs), store, "c/", 2)
        h = Tensor(np.zeros((1, 2)))
        c = Tensor(np.zeros((1, 2)))
        rows = []
        for t in range(5):
            x_t = Tensor(xs[t : t + 1])
            if kind == "gru":
                h = gru_cell(x_t, h, store, "c/")
            else:
                h, c = lstm_cell(x_t, h, c, store, "c/")
            rows.append(h.data[0])
        assert np.allclose(fused.data, rows, atol=1e-14)


def test_run_recurrent_gradients_against_finite_differences():
    rng = np.random.default_rng(22)
    for kind, reverse in (("gru", False), ("gru", True), ("lstm", False), ("lstm", True)):
        store = ParamStore()
        (init_gru if kind == "gru" else init_lstm)(store, "c/", 2, 2, rng)
        xs = rng.normal(size=(4, 2))
        w = rng.normal(size=(4, 2))

        def run_value():
            out = run_recurrent(kind, Tensor(xs), store, "c/", 2, reverse=reverse)
            return float((out.data * w).sum())

        x_t = Tensor(xs.copy())
        out = run_recurrent(kind, x_t, store, "c/", 2, reverse=reverse)
        loss = sum_all(mul(out, constant(w)))
        backward(loss)

        for name, param in list(store.items()) + [("x", x_t)]:
            target = param.data if name != "x" else xs

            def f(target=target):
                return run_value()

            num = finite_diff(f, target)
            got = param.grad
            assert got is not None
            assert np.max(np.abs(got - num)) < 1e-6, f"{kind} reverse={reverse} {name}"


PACKED_LENGTHS = [7, 1, 22, 13]


def _packed_case(kind, seed, d=3, hidden=4, lengths=PACKED_LENGTHS):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    (init_gru if kind == "gru" else init_lstm)(store, "c/", d, hidden, rng)
    for name, param in store.items():
        if "/b" in name:  # nonzero biases, so padding would show if it leaked
            param.data[:] = rng.normal(scale=0.5, size=param.data.shape)
    xs = rng.normal(size=(sum(lengths), d))
    w = rng.normal(size=(sum(lengths), hidden))
    return store, xs, w


def _run_and_grads(kind, store, xs, w, hidden, reverse, lengths):
    store.zero_grad()
    x_t = Tensor(xs.copy())
    out = run_recurrent(kind, x_t, store, "c/", hidden, reverse=reverse, lengths=lengths)
    backward(sum_all(mul(out, constant(w))))
    return out.data, x_t.grad, {name: p.grad.copy() for name, p in store.items()}


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("reverse", [False, True])
def test_run_recurrent_packed_matches_separate_runs(kind, reverse):
    store, xs, w = _packed_case(kind, 31)
    out, dx, grads = _run_and_grads(kind, store, xs, w, 4, reverse, PACKED_LENGTHS)
    ref_out, ref_dx = [], []
    ref_grads = {name: np.zeros_like(p.data) for name, p in store.items()}
    start = 0
    for n in PACKED_LENGTHS:
        rows = slice(start, start + n)
        o, g_x, g = _run_and_grads(kind, store, xs[rows], w[rows], 4, reverse, None)
        ref_out.append(o)
        ref_dx.append(g_x)
        for name in ref_grads:
            ref_grads[name] += g[name]
        start += n
    assert np.max(np.abs(out - np.concatenate(ref_out))) < 1e-12
    assert np.max(np.abs(dx - np.concatenate(ref_dx))) < 1e-12
    for name, g in grads.items():
        assert np.max(np.abs(g - ref_grads[name])) < 1e-12, name


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("reverse", [False, True])
def test_run_recurrent_packed_gradients_against_finite_differences(kind, reverse):
    lengths = [3, 1, 2]
    store, xs, w = _packed_case(kind, 32, d=2, hidden=2, lengths=lengths)

    def run_value():
        out = run_recurrent(kind, Tensor(xs), store, "c/", 2, reverse=reverse, lengths=lengths)
        return float((out.data * w).sum())

    _, dx, grads = _run_and_grads(kind, store, xs, w, 2, reverse, lengths)
    for name, target, got in [(n, store[n].data, g) for n, g in grads.items()] + [("x", xs, dx)]:
        num = finite_diff(run_value, target)
        assert np.max(np.abs(got - num)) < 1e-6, f"{kind} reverse={reverse} {name}"


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("reverse", [False, True])
def test_run_recurrent_padding_gets_zero_gradient(kind, reverse):
    # a loss on the length-1 sequence alone: the padded steps that follow it
    # in the batch must pass back exactly nothing, so every other row's input
    # gradient is exactly zero and the weight gradients equal its own run's
    store, xs, w = _packed_case(kind, 33)
    only = np.zeros_like(w)
    only[7] = w[7]
    _, dx, grads = _run_and_grads(kind, store, xs, only, 4, reverse, PACKED_LENGTHS)
    assert np.all(np.delete(dx, 7, axis=0) == 0.0)
    _, dx_alone, alone = _run_and_grads(kind, store, xs[7:8], w[7:8], 4, reverse, None)
    assert np.max(np.abs(dx[7] - dx_alone[0])) < 1e-12
    for name, g in grads.items():
        assert np.max(np.abs(g - alone[name])) < 1e-12, name


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_recurrent_kernels_leave_padding_slots_at_zero(kind):
    from bridgeqa.numcore.cells import _KINDS, _batch_layout

    H, d = 3, 2
    lens = np.array(PACKED_LENGTHS)
    store, xs, _ = _packed_case(kind, 34, d=d, hidden=H)
    names, _, forward, backward_kernel = _KINDS[kind]
    W = np.concatenate([store[f"c/{n}"].data for n, _ in names], axis=1)
    W_rec = [store[f"c/{n}"].data[d:] for n, _ in names]
    rows, slots, T = _batch_layout(lens, reverse=False)
    A = np.zeros((T * lens.size, W.shape[1]))
    A[slots] = (xs @ W[:d])[rows]
    Hs, cache = forward(A.reshape(T, lens.size, -1), W_rec, H)
    Gs = np.zeros((T * lens.size, H))
    Gs[slots] = 1.0
    dA, _ = backward_kernel(Gs.reshape(T, lens.size, H), Hs, cache, W_rec, H)
    padding = np.setdiff1d(np.arange(T * lens.size), slots)
    assert padding.size == T * lens.size - lens.sum()
    assert np.all(dA.reshape(T * lens.size, -1)[padding] == 0.0)


@pytest.mark.parametrize("lengths", [[7, 1, 22], [7, 1, 22, 14], [7, 0, 22, 13], [], [[43]], [7.0, 1.0, 22.0, 13.0]])
def test_run_recurrent_rejects_bad_lengths(lengths):
    store, xs, _ = _packed_case("gru", 35)
    with pytest.raises(ShapeError):
        run_recurrent("gru", Tensor(xs), store, "c/", 4, lengths=lengths)


def test_run_bidirectional_passes_lengths_through():
    rng = np.random.default_rng(36)
    store = ParamStore()
    from bridgeqa.numcore import init_bidirectional

    init_bidirectional("gru", store, "b/", 2, 3, rng)
    xs = rng.normal(size=(5, 2))
    packed = run_bidirectional("gru", Tensor(xs), store, "b/", 3, lengths=[2, 3])
    first = run_bidirectional("gru", Tensor(xs[:2]), store, "b/", 3)
    second = run_bidirectional("gru", Tensor(xs[2:]), store, "b/", 3)
    assert np.allclose(packed.data, np.concatenate([first.data, second.data]), atol=1e-14)


def _paired_case(kind, seed, d=3, hidden=4, lengths=PACKED_LENGTHS):
    from bridgeqa.numcore import init_bidirectional

    rng = np.random.default_rng(seed)
    store = ParamStore()
    init_bidirectional(kind, store, "b/", d, hidden, rng)
    for name, param in store.items():
        if name.rsplit("/", 1)[1].startswith("b"):  # nonzero biases, so leaked padding would show
            param.data[:] = rng.normal(scale=0.5, size=param.data.shape)
    return store, rng.normal(size=(sum(lengths), d)), rng.normal(size=(sum(lengths), 2 * hidden))


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_run_bidirectional_matches_two_separate_directions(kind):
    # both directions in one block-diagonal loop against one run_recurrent
    # call per direction: values, input gradient and every parameter gradient
    store, xs, w = _paired_case(kind, 37)

    def run(paired):
        store.zero_grad()
        x_t = Tensor(xs.copy())
        if paired:
            out = run_bidirectional(kind, x_t, store, "b/", 4, lengths=PACKED_LENGTHS)
        else:
            fwd = run_recurrent(kind, x_t, store, "b/fwd/", 4, lengths=PACKED_LENGTHS)
            bwd = run_recurrent(kind, x_t, store, "b/bwd/", 4, reverse=True, lengths=PACKED_LENGTHS)
            out = concat([fwd, bwd], axis=1)
        backward(sum_all(mul(out, constant(w))))
        return out.data, x_t.grad, {name: p.grad.copy() for name, p in store.items()}

    (out, dx, grads), (ref_out, ref_dx, ref_grads) = run(True), run(False)
    assert np.max(np.abs(out - ref_out)) < 1e-12
    assert np.max(np.abs(dx - ref_dx)) < 1e-12
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.max(np.abs(g - ref_grads[name])) < 1e-12, name


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_run_bidirectional_matches_stepwise_cells(kind):
    store, xs, _ = _paired_case(kind, 38, lengths=[5])
    out = run_bidirectional(kind, Tensor(xs), store, "b/", 4)
    for half, prefix, order in ((0, "b/fwd/", range(5)), (1, "b/bwd/", range(4, -1, -1))):
        h, c = Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))
        for t in order:
            if kind == "gru":
                h = gru_cell(Tensor(xs[t : t + 1]), h, store, prefix)
            else:
                h, c = lstm_cell(Tensor(xs[t : t + 1]), h, c, store, prefix)
            assert np.max(np.abs(out.data[t, half * 4 : (half + 1) * 4] - h.data[0])) < 1e-14


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_run_bidirectional_grad_check(kind):
    lengths = [3, 1, 2]
    store, xs, w = _paired_case(kind, 39, d=2, hidden=2, lengths=lengths)

    def build(store):
        return sum_all(mul(run_bidirectional(kind, Tensor(xs), store, "b/", 2, lengths=lengths), constant(w)))

    report = grad_check(build, store, eps=1e-6, tol=1e-6)
    assert report.passed, report.summary()


def test_run_recurrent_bidirectional_has_no_reverse():
    store, xs, _ = _paired_case("gru", 40)
    with pytest.raises(ShapeError):
        run_recurrent("gru", Tensor(xs), store, "b/", 4, reverse=True, lengths=PACKED_LENGTHS, bidirectional=True)


def test_run_bidirectional_width():
    rng = np.random.default_rng(15)
    store = ParamStore()
    from bridgeqa.numcore import init_bidirectional

    init_bidirectional("lstm", store, "b/", 2, 3, rng)
    out = run_bidirectional("lstm", Tensor(rng.normal(size=(5, 2))), store, "b/", 3)
    assert out.data.shape == (5, 6)


# --- read-only stores and the fused-weight cache ---------------------------


def _general_layout(lens, reverse):
    """_batch_layout's padded-batch formula, for any number of sequences."""
    starts = np.cumsum(lens) - lens
    T = int(lens.max())
    s = np.arange(T)[:, None]
    offset = lens - 1 - s if reverse else np.broadcast_to(s, (T, lens.size))
    slots = np.flatnonzero(s < lens)
    return (starts + offset).ravel()[slots], slots, T


@pytest.mark.parametrize("reverse", [False, True])
def test_single_sequence_layout_is_the_general_formula(reverse):
    from bridgeqa.numcore.cells import _batch_layout

    for T in range(1, 41):
        lens = np.array([T])
        rows, slots, steps = _batch_layout(lens, reverse)
        ref_rows, ref_slots, ref_steps = _general_layout(lens, reverse)
        assert steps == ref_steps == T
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(slots, ref_slots)
        assert (rows.dtype, slots.dtype) == (ref_rows.dtype, ref_slots.dtype)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize(
    "reverse, bidirectional", [(False, False), (True, False), (False, True)], ids=["forward", "reversed", "bidirectional"]
)
def test_single_sequence_path_keeps_the_bits_of_the_padded_layout(kind, reverse, bidirectional, monkeypatch):
    # one sequence runs without the padded batch and its fancy-index scatter
    # and gather: the same outputs and gradients, bit for bit, as the padded
    # layout every packed run takes, over lengths 1 to 40
    from bridgeqa.numcore import cells, init_bidirectional

    H, d = 3, 2
    rng = np.random.default_rng(37)
    store = ParamStore()
    if bidirectional:
        init_bidirectional(kind, store, "c/", d, H, rng)
    else:
        (init_gru if kind == "gru" else init_lstm)(store, "c/", d, H, rng)
    for name, param in store.items():
        if "/b" in name:
            param.data[:] = rng.normal(scale=0.5, size=param.data.shape)
    width = 2 * H if bidirectional else H

    def run(xs, w):
        store.zero_grad()
        x_t = Tensor(xs.copy())
        out = run_recurrent(kind, x_t, store, "c/", H, reverse=reverse, bidirectional=bidirectional)
        backward(sum_all(mul(out, constant(w))))
        return [out.data, x_t.grad] + [p.grad for _, p in store.items()]

    for T in range(1, 41):
        xs, w = rng.normal(size=(T, d)), rng.normal(size=(T, width))
        single = run(xs, w)
        with monkeypatch.context() as patch:
            patch.setattr(cells, "_layout", cells._padded_layout)
            padded = run(xs, w)
        for got, want in zip(single, padded):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), T


def _read_only_copy(store):
    copy = ParamStore()
    for name, param in store.items():
        copy.add(name, param.data)
    copy.make_read_only()
    return copy


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize(
    "prefix, reverse, bidirectional", [("b/", False, True), ("b/fwd/", False, False), ("b/fwd/", True, False)]
)
@pytest.mark.parametrize("lengths", [None, PACKED_LENGTHS])
def test_read_only_store_caches_fused_weights_and_gives_bitwise_equal_runs(
    kind, prefix, reverse, bidirectional, lengths
):
    # oracle: the same parameters in a writable store, which builds the fused
    # weights on every call; the read-only copy builds them on its first call
    # and reads them from its cache on the second
    store, xs, w = _paired_case(kind, 41, lengths=lengths or [23])
    if not bidirectional:
        w = w[:, :4]
    read_only = _read_only_copy(store)

    def run(params):
        params.zero_grad()
        x_t = Tensor(xs.copy())
        out = run_recurrent(kind, x_t, params, prefix, 4, reverse=reverse, lengths=lengths, bidirectional=bidirectional)
        backward(sum_all(mul(out, constant(w))))
        return out.data, x_t.grad, {name: p.grad for name, p in params.items() if p.grad is not None}

    expected = run(store)
    assert store.cache is None
    for _ in range(2):
        out, dx, grads = run(read_only)
        np.testing.assert_array_equal(out, expected[0])
        np.testing.assert_array_equal(dx, expected[1])
        assert grads.keys() == expected[2].keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, expected[2][name])
        assert list(read_only.cache) == [(kind, prefix, bidirectional, 3, 4)]
    if not bidirectional:
        # a one-direction cell has one entry, whichever way it runs
        run_recurrent(kind, Tensor(xs), read_only, prefix, 4, reverse=not reverse, lengths=lengths)
        assert len(read_only.cache) == 1
    (W_x, bias, half, W_rec, W_rec_half), = read_only.cache.values()
    assert not any(a.flags.writeable for a in (W_x, bias, half, *W_rec, *W_rec_half))


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_each_cell_of_a_read_only_store_gets_its_own_entry(kind):
    # the two one-direction cells and their bidirectional pair share a kind
    # and sizes, so only the prefix and the direction layout tell them apart
    store, xs, _ = _paired_case(kind, 42)
    read_only = _read_only_copy(store)
    runs = [("b/fwd/", False, False), ("b/bwd/", True, False), ("b/", False, True), ("b/fwd/", True, False)]
    for prefix, reverse, bidirectional in runs * 2:
        kwargs = dict(reverse=reverse, lengths=PACKED_LENGTHS, bidirectional=bidirectional)
        out = run_recurrent(kind, Tensor(xs), read_only, prefix, 4, **kwargs)
        np.testing.assert_array_equal(out.data, run_recurrent(kind, Tensor(xs), store, prefix, 4, **kwargs).data)
    assert sorted(read_only.cache) == [(kind, "b/", True, 3, 4), (kind, "b/bwd/", False, 3, 4), (kind, "b/fwd/", False, 3, 4)]


def test_read_only_store_refuses_writes_to_its_arrays():
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    assert not store.read_only and store.cache is None
    store.make_read_only()
    assert store.read_only and store.cache == {}
    with pytest.raises(ValueError):
        store["w"].data[0, 0] = 2.0
    with pytest.raises(ValueError):
        store["w"].data -= 1.0
    np.testing.assert_array_equal(store["w"].data, np.ones((2, 2)))


def test_read_only_store_refuses_add():
    store = ParamStore()
    store.add("w", np.zeros(1))
    store.make_read_only()
    with pytest.raises(ValidationError, match="read-only"):
        store.add("v", np.zeros(1))
    assert store.names() == ["w"]


# --- adam --------------------------------------------------------------------


def test_adam_first_step_magnitude():
    store = ParamStore()
    store.add("w", np.array([0.0]))
    adam_step(store, {"w": np.array([1.0])}, lr=0.1)
    # first bias-corrected step is -lr / (1 + eps) regardless of g's scale
    assert store["w"].data[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_zero_gradient_keeps_parameters():
    store = ParamStore()
    store.add("w", np.array([1.5]))
    adam_step(store, {"w": np.array([0.0])}, lr=0.1)
    assert store["w"].data[0] == 1.5


def test_adam_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(16)
        store = ParamStore()
        store.add("w", rng.normal(size=(3, 3)))
        for step in range(5):
            g = rng.normal(size=(3, 3))
            adam_step(store, {"w": g}, lr=0.01)
        return store["w"].data.copy()

    assert np.array_equal(run(), run())


def test_adam_leaves_a_parameter_without_a_gradient_entry_untouched():
    # the bridge reasoner's abstract/missing sentinel gets no gradient entry
    # on a step where no abstract is missing, and must not move on it
    store = ParamStore()
    store.add("w", np.array([1.0, -2.0]))
    store.add("sentinel", np.array([0.25, 0.5]))
    adam_step(store, {"w": np.array([0.5, -0.5])}, lr=0.1)
    np.testing.assert_array_equal(store["sentinel"].data, [0.25, 0.5])
    assert "sentinel" not in store.moments
    adam_step(store, {"w": np.array([0.5, -0.5]), "sentinel": np.array([1.0, 1.0])}, lr=0.1)
    assert (store.moments["w"]["t"], store.moments["sentinel"]["t"]) == (2, 1)


def test_adam_rejects_non_finite_gradient():
    store = ParamStore()
    store.add("w", np.array([0.0]))
    with pytest.raises(ValidationError, match="w"):
        adam_step(store, {"w": np.array([np.nan])})


def test_adam_refuses_a_read_only_store_before_touching_its_state():
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    adam_step(store, {"w": np.array([0.5, -0.5])}, lr=0.1)
    before = store["w"].data.copy()
    moments = {key: np.copy(value) for key, value in store.moments["w"].items()}
    store.make_read_only()
    with pytest.raises(ValidationError, match="read-only"):
        adam_step(store, {"w": np.array([0.5, -0.5])}, lr=0.1)
    np.testing.assert_array_equal(store["w"].data, before)
    assert store.moments["w"].keys() == moments.keys()
    for key, value in moments.items():
        np.testing.assert_array_equal(store.moments["w"][key], value)


def test_param_store_unique_names():
    store = ParamStore()
    store.add("w", np.zeros(1))
    with pytest.raises(ValidationError):
        store.add("w", np.zeros(1))
