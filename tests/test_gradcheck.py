import numpy as np

from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    accumulate,
    add,
    dropout,
    grad_check,
    matmul,
    mul,
    sigmoid,
    sum_all,
)


def test_sigmoid_linear_toy_model_passes_tight():
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("W", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=2))
    x = rng.normal(size=(4, 3))

    def build(s):
        return sum_all(sigmoid(add(matmul(Tensor(x), s["W"]), s["b"])))

    report = grad_check(build, store, eps=1e-5, tol=1e-4)
    assert report.passed
    assert report.worst < 1e-6


def test_fixed_dropout_mask_passes():
    rng = np.random.default_rng(1)
    store = ParamStore()
    store.add("W", rng.normal(size=(3, 3)))
    x = rng.normal(size=(2, 3))
    mask = (rng.random((2, 3)) >= 0.3).astype(float)

    def build(s):
        h = dropout(matmul(Tensor(x), s["W"]), 0.3, mask=mask)
        return sum_all(h)

    report = grad_check(build, store)
    assert report.passed


def test_corrupted_gradient_flagged():
    rng = np.random.default_rng(2)
    store = ParamStore()
    store.add("W", rng.normal(size=(2, 2)))
    x = rng.normal(size=(2, 2))

    def double_grad(t):
        # op with a deliberately wrong backward (2x the true gradient)
        out = Tensor(t.data.copy(), (t,))
        out.bwd = lambda g: accumulate(t, 2.0 * g)
        return out

    def build(s):
        return sum_all(mul(double_grad(s["W"]), Tensor(x)))

    report = grad_check(build, store)
    assert not report.passed
    assert "W" in report.failures
    assert report.max_rel_err["W"] > 0.4


def test_report_summary_mentions_status():
    store = ParamStore()
    store.add("w", np.ones(1))

    def build(s):
        return sum_all(s["w"])

    report = grad_check(build, store)
    assert "ok" in report.summary()
