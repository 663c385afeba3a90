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
    check_op_gradient(lambda t: dropout(t, 0.4, training=True, mask=mask), x)


def test_dropout_identity_at_inference():
    x = Tensor(np.ones((2, 2)))
    assert dropout(x, 0.5, training=False) is x


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


def test_run_bidirectional_width():
    rng = np.random.default_rng(15)
    store = ParamStore()
    from bridgeqa.numcore import init_bidirectional

    init_bidirectional("lstm", store, "b/", 2, 3, rng)
    out = run_bidirectional("lstm", Tensor(rng.normal(size=(5, 2))), store, "b/", 3)
    assert out.data.shape == (5, 6)


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


def test_adam_rejects_non_finite_gradient():
    store = ParamStore()
    store.add("w", np.array([0.0]))
    with pytest.raises(ValidationError, match="w"):
        adam_step(store, {"w": np.array([np.nan])})


def test_param_store_unique_names():
    store = ParamStore()
    store.add("w", np.zeros(1))
    with pytest.raises(ValidationError):
        store.add("w", np.zeros(1))
