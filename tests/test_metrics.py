import numpy as np
import pytest

from bridgeqa.errors import ValidationError
from bridgeqa.metrics import MetricReport, QuestionMetrics, em_f1, hits_at_k, normalize_answer


def test_normalize_spec_cases():
    assert normalize_answer("The Chief of Protocol.") == "chief of protocol"
    assert normalize_answer("") == ""
    assert normalize_answer("a  an the") == ""


def test_normalize_idempotent():
    for s in ["The Chief of Protocol.", "U.S.A.!", "  spaced   out  ", "An Apple"]:
        once = normalize_answer(s)
        assert normalize_answer(once) == once


def test_em_f1_normalization_insensitive():
    assert em_f1("shirley temple.", "Shirley Temple") == (1, 1.0)


def test_em_f1_partial_overlap():
    em, f1 = em_f1("United States", "United States of America")
    assert em == 0
    assert f1 == pytest.approx(2 / 3)


def test_em_f1_identical():
    assert em_f1("exactly the same", "exactly the same") == (1, 1.0)


def test_em_f1_both_empty():
    assert em_f1("", "") == (1, 1.0)


def test_em_f1_one_empty():
    assert em_f1("", "something") == (0, 0.0)
    assert em_f1("something", "") == (0, 0.0)


@pytest.mark.parametrize("prediction, gold", [
    ("yes", "yes man"),
    ("no", "no country for old men"),
    ("Yes.", "yes sir yes"),
    ("the noanswer", "noanswer here"),
])
def test_a_yes_no_or_noanswer_that_differs_scores_no_f1(prediction, gold):
    # HotpotQA's evaluation script gives no partial credit against a sentinel,
    # whichever side it is on
    assert em_f1(prediction, gold) == (0, 0.0)
    assert em_f1(gold, prediction) == (0, 0.0)


def test_a_matching_yes_or_no_keeps_full_credit_and_other_answers_keep_partial_credit():
    assert em_f1("Yes.", "yes") == (1, 1.0)
    assert em_f1("no", "No!") == (1, 1.0)
    assert em_f1("noanswer", "NoAnswer") == (1, 1.0)
    # "no answer" normalizes to two tokens, not to the sentinel
    assert em_f1("no answer", "answer") == (0, pytest.approx(2 / 3))
    assert em_f1("yes man", "yes men") == (0, pytest.approx(0.5))


def test_f1_symmetric():
    rng = np.random.default_rng(0)
    words = ["red", "blue", "green", "fish", "the", "protocol"]
    for _ in range(50):
        a = " ".join(rng.choice(words, size=rng.integers(0, 5)))
        b = " ".join(rng.choice(words, size=rng.integers(0, 5)))
        assert em_f1(a, b)[1] == pytest.approx(em_f1(b, a)[1])


def test_em_implies_f1():
    rng = np.random.default_rng(1)
    words = ["an", "apple", "u.s.", "1947", "the"]
    for _ in range(60):
        a = " ".join(rng.choice(words, size=rng.integers(0, 4)))
        b = " ".join(rng.choice(words, size=rng.integers(0, 4)))
        em, f1 = em_f1(a, b)
        if em == 1:
            assert f1 == 1.0


def test_hits_at_k_basics():
    ranked = [f"t{i}" for i in range(12)]
    assert hits_at_k(ranked, "t0", 10) == 1
    assert hits_at_k(ranked, "absent", 10) == 0
    assert hits_at_k(ranked, "t10", 10) == 0  # rank 11
    assert hits_at_k(ranked, "t10", 11) == 1


def test_hits_at_k_monotone_in_k():
    ranked = [f"t{i}" for i in range(8)]
    for gold in ("t0", "t5", "absent"):
        values = [hits_at_k(ranked, gold, k) for k in range(1, 10)]
        assert values == sorted(values)


def test_hits_at_k_invalid_k():
    with pytest.raises(ValidationError):
        hits_at_k(["a"], "a", 0)


def row(qid, qtype, em, f1, hits1=None, hits10=None):
    return QuestionMetrics(qid, qtype, em, f1, "p", "g", hits1, hits10)


def test_report_aggregates_are_means():
    report = MetricReport(mode="full")
    report.per_question = [
        row("q1", "bridge", 1, 1.0, 1, 1),
        row("q2", "bridge", 0, 0.5, 0, 1),
        row("q3", "comparison", 0, 0.0),
    ]
    agg = report.aggregates()
    assert agg["full"]["em"] == pytest.approx(1 / 3)
    assert agg["full"]["f1"] == pytest.approx(0.5)
    assert agg["bridge_only"]["n"] == 2
    assert agg["bridge_only"]["hits10"] == pytest.approx(1.0)
    assert agg["bridge_only"]["hits1"] == pytest.approx(0.5)


def test_report_permutation_invariant():
    rows = [row(f"q{i}", "bridge", i % 2, i / 5) for i in range(5)]
    a = MetricReport(mode="full", per_question=list(rows)).aggregates()
    b = MetricReport(mode="full", per_question=list(reversed(rows))).aggregates()
    assert a == b


def test_empty_report_flagged():
    report = MetricReport(mode="full")
    agg = report.aggregates()
    assert agg["empty"] is True
    assert agg["full"] is None
