"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight criteria
(4-7) share one fully trained pipeline over the bundled tiny-wiki fixture;
determinism (8) performs two fresh short runs and compares bytes.
"""

import copy
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bridgeqa.ablation import run_ablation
from bridgeqa.config import load_config
from bridgeqa.corpus import Corpus, Passage, tokenize
from bridgeqa.manifest import verify_fold_hygiene
from bridgeqa.metrics import em_f1, normalize_answer
from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    add,
    biattend,
    concat,
    constant,
    cross_entropy_from_logits,
    dropout,
    gather_rows,
    grad_check,
    matmul,
    max_pool_over_time,
    mul,
    relu,
    reshape,
    row_max,
    run_recurrent,
    scale,
    self_attend,
    shift,
    sigmoid,
    slice_cols,
    softmax_rows,
    sum_all,
    take_row,
    tanh,
    transpose,
)
from bridgeqa.pipeline import _load_ingested, load_pipeline_state, run_all
from bridgeqa.reader import best_span
from bridgeqa.retrieval import build_index, hybrid_score, retrieve_start_passages
from bridgeqa.span_model import init_span_model, run_span_model, span_nll_loss
from bridgeqa.tinywiki import fixture_config
from golden_record import GOLDEN, compare, record


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {description}", flush=True)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, fixture_dir):
    """One full 8-stage pipeline run on the bundled fixture."""
    out = tmp_path_factory.mktemp("accept_run")
    cfg = load_config(None, fixture_config(fixture_dir, out))
    started = time.monotonic()
    results = run_all(cfg)
    return {"cfg": cfg, "out": Path(out), "results": results,
            "wall_seconds": time.monotonic() - started}


# --- criterion 1: gradient verification --------------------------------------


def _check(build_out, arrays, rng, tol=1e-4):
    """Gradient-check an op: loss = sum(op(params) * w) for one fixed random w."""
    store = ParamStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    w = rng.normal(size=build_out(store).data.shape)
    report = grad_check(
        lambda s: sum_all(mul(build_out(s), constant(w))), store, eps=1e-5, tol=tol
    )
    assert report.passed, report.summary()
    return report.worst


def test_criterion_1_gradient_verification():
    with criterion(1, "all differentiable ops and the composed span loss pass "
                      "finite-difference checks at <1e-4"):
        started = time.monotonic()
        rng = np.random.default_rng(0)
        worst = 0.0

        worst = max(worst, _check(lambda s: matmul(s["a"], s["b"]),
                                  {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}, rng))
        worst = max(worst, _check(lambda s: add(s["a"], s["b"]),
                                  {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}, rng))
        worst = max(worst, _check(lambda s: add(s["a"], s["b"]),
                                  {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}, rng))
        worst = max(worst, _check(lambda s: mul(s["a"], s["b"]),
                                  {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}, rng))
        worst = max(worst, _check(lambda s: mul(s["a"], s["b"]),
                                  {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}, rng))
        worst = max(worst, _check(lambda s: concat([s["a"], s["b"]], axis=0),
                                  {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3, 3))}, rng))
        worst = max(worst, _check(lambda s: concat([s["a"], s["b"]], axis=1),
                                  {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}, rng))
        for op in (sigmoid, tanh):
            worst = max(worst, _check(lambda s, op=op: op(s["x"]),
                                      {"x": rng.normal(size=(3, 4))}, rng))
        worst = max(worst, _check(lambda s: relu(s["x"]),
                                  {"x": rng.normal(size=(3, 4)) + 3.0}, rng))
        worst = max(worst, _check(lambda s: scale(s["x"], -1.7),
                                  {"x": rng.normal(size=(2, 3))}, rng))
        worst = max(worst, _check(lambda s: shift(s["x"], 0.3),
                                  {"x": rng.normal(size=(2, 3))}, rng))
        worst = max(worst, _check(lambda s: softmax_rows(s["x"]),
                                  {"x": rng.normal(size=(3, 5))}, rng))
        worst = max(worst, _check(lambda s: max_pool_over_time(s["x"]),
                                  {"x": rng.normal(size=(5, 3))}, rng))
        worst = max(worst, _check(lambda s: row_max(s["x"]),
                                  {"x": rng.normal(size=(4, 5))}, rng))
        worst = max(worst, _check(lambda s: transpose(s["x"]),
                                  {"x": rng.normal(size=(3, 4))}, rng))
        worst = max(worst, _check(lambda s: reshape(s["x"], (8,)),
                                  {"x": rng.normal(size=(2, 4))}, rng))
        worst = max(worst, _check(lambda s: take_row(s["x"], 2),
                                  {"x": rng.normal(size=(4, 3))}, rng))
        worst = max(worst, _check(lambda s: slice_cols(s["x"], 1, 4),
                                  {"x": rng.normal(size=(3, 5))}, rng))
        idx = np.array([0, 3, 3, 1])
        worst = max(worst, _check(lambda s: gather_rows(s["t"], idx),
                                  {"t": rng.normal(size=(5, 3))}, rng))
        mask = (rng.random((3, 4)) >= 0.3).astype(float)
        worst = max(worst, _check(
            lambda s: dropout(s["x"], 0.3, mask=mask),
            {"x": rng.normal(size=(3, 4))}, rng))
        worst = max(worst, _check(
            lambda s: cross_entropy_from_logits(reshape(s["x"], (6,)), 2),
            {"x": rng.normal(size=(6, 1))}, rng))
        worst = max(worst, _check(
            lambda s: cross_entropy_from_logits(reshape(s["x"], (6,)), {1, 4}),
            {"x": rng.normal(size=(6, 1))}, rng))

        # recurrent cells, both kinds and directions, inputs included
        from bridgeqa.numcore import init_gru, init_lstm

        for kind, reverse in (("gru", False), ("gru", True), ("lstm", False), ("lstm", True)):
            store = ParamStore()
            (init_gru if kind == "gru" else init_lstm)(store, "c/", 2, 2, rng)
            store.add("xs", rng.normal(size=(4, 2)))
            w = rng.normal(size=(4, 2))
            report = grad_check(
                lambda s, kind=kind, reverse=reverse, w=w: sum_all(
                    mul(run_recurrent(kind, s["xs"], s, "c/", 2, reverse=reverse), constant(w))
                ),
                store, eps=1e-5, tol=1e-4,
            )
            assert report.passed, f"{kind} reverse={reverse}: {report.summary()}"
            worst = max(worst, report.worst)

        # the two fused attention nodes over packed segments, a length-1
        # segment among them: biattention against a 2-row question, and
        # self-attention read through a 2-column readout
        worst = max(worst, _check(lambda s: biattend(s["h"], s["u"], s["w1"], s["w2"], s["w3"], [3, 1, 2]),
                                  {"h": rng.normal(size=(6, 3)), "u": rng.normal(size=(2, 3)),
                                   "w1": rng.normal(size=(3, 1)), "w2": rng.normal(size=(3, 1)),
                                   "w3": rng.normal(size=3)}, rng))
        worst = max(worst, _check(lambda s: self_attend(s["x"], s["w2"], s["w3"], s["w_mix"], s["v"], [3, 1, 2]),
                                  {"x": rng.normal(size=(6, 3)), "w2": rng.normal(size=(3, 1)),
                                   "w3": rng.normal(size=3), "w_mix": rng.normal(size=(9, 3)),
                                   "v": rng.normal(size=(3, 2))}, rng))

        # the full composed span-model loss on an 8-token instance
        vocab = {"<unk>": 0}
        for tok in ("who", "stars", "kiss", "and", "tell", "as", "archer"):
            vocab[tok] = len(vocab)
        model = init_span_model(vocab, 3, 2, 0.0, np.random.default_rng(1))

        def composed(store):
            _, scores = run_span_model(model, tokenize("who stars"),
                                       tokenize("kiss and tell stars archer"))
            return span_nll_loss(scores, 3, 4)

        report = grad_check(composed, model.store, eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()
        worst = max(worst, report.worst)

        elapsed = time.monotonic() - started
        assert elapsed < 120, f"gradient suite took {elapsed:.0f}s (budget 120s)"
        print(f"  worst relative error {worst:.2e}, suite {elapsed:.0f}s", flush=True)


# --- criterion 2: retrieval oracle -------------------------------------------


def _bm25_reference(question_tokens, docs, k1=1.2, b=0.75):
    N = len(docs)
    avg = sum(len(t) for t in docs.values()) / N
    scores = {}
    for doc_id, toks in docs.items():
        total = 0.0
        for term in question_tokens:
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log((N - df + 0.5) / (df + 0.5) + 1.0)
            total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avg))
        scores[doc_id] = total
    return scores


def test_criterion_2_retrieval_oracle():
    with criterion(2, "hybrid score with the title channel off matches brute-force "
                      "BM25 within 1e-9 on 100 random corpora; top-k prefix holds"):
        rng = np.random.default_rng(42)
        words = ["red", "blue", "green", "fish", "river", "stone", "lamp",
                 "archer", "tell", "kiss", "film", "bridge"]
        max_abs_err = 0.0
        for _ in range(100):
            n_docs = int(rng.integers(2, 21))
            passages = []
            for i in range(n_docs):
                text = " ".join(rng.choice(words, size=int(rng.integers(2, 15))))
                passages.append(Passage(id=f"p{i}", title=f"Title {i}", text=text,
                                        tokens=tokenize(text)))
            corpus = Corpus(tuple(passages), {p.title: p for p in passages},
                            {p.id: p for p in passages})
            index = build_index(corpus)
            question = tokenize(" ".join(rng.choice(words, size=int(rng.integers(1, 6)))))
            docs = {p.id: list(p.tokens.tokens) for p in passages}
            reference = _bm25_reference(question.tokens, docs)
            # no question token is a title token, so the title channel adds 0.0
            assert not set(question.tokens) & {t for p in passages for t in p.title_tokens.tokens}
            for pid in docs:
                got = hybrid_score(index, question, pid)
                err = abs(got - reference[pid])
                max_abs_err = max(max_abs_err, err)
                assert err <= 1e-9
            previous = []
            for k in range(1, n_docs + 2):
                ids = [r.passage_id for r in retrieve_start_passages(index, question, k)]
                assert ids[: len(previous)] == previous
                previous = ids
        print(f"  max |hybrid - brute force| = {max_abs_err:.2e}", flush=True)


# --- criterion 3: metric oracle ----------------------------------------------

METRIC_TABLE = [
    # (prediction, gold, em, f1) - computed by hand from the normalization rules
    ("The Chief of Protocol.", "Chief of Protocol", 1, 1.0),
    ("shirley temple.", "Shirley Temple", 1, 1.0),
    ("United States", "United States of America", 0, 2 / 3),
    ("", "", 1, 1.0),
    ("", "x", 0, 0.0),
    ("a an the", "", 1, 1.0),
    ("yes", "no", 0, 0.0),
    ("New York City", "York", 0, 0.5),
    ("1947", "1947.", 1, 1.0),
    ("the the the", "the", 1, 1.0),
    ("cat dog cat", "cat cat dog", 0, 1.0),
    ("U.S.A.", "USA", 1, 1.0),
    ("forty-two", "forty two", 0, 0.0),
    ("Chief of Protocol", "chief protocol", 0, 0.8),
    ("An Apple", "apple", 1, 1.0),
    ("red blue", "blue red", 0, 1.0),
    ("Saint Kitts and Nevis", "Saint Kitts", 0, 2 / 3),
    ("over 9000", "9000", 0, 2 / 3),
    ("  spaced   out  ", "spaced out", 1, 1.0),
    ("no answer", "", 0, 0.0),
]


def test_criterion_3_metric_oracle():
    with criterion(3, "em_f1 and normalize_answer reproduce the 20-pair hand table"):
        assert len(METRIC_TABLE) == 20
        for prediction, gold, em_expected, f1_expected in METRIC_TABLE:
            em, f1 = em_f1(prediction, gold)
            assert em == em_expected, (prediction, gold)
            assert f1 == pytest.approx(f1_expected, abs=1e-12), (prediction, gold)
        assert normalize_answer("The Chief of Protocol.") == "chief of protocol"


# --- criteria 4-7: trained fixture run ----------------------------------------


def test_criterion_4_tiny_wiki_overfit(trained_run):
    with criterion(4, "bridge reasoner reaches train Hits@1 >= 0.95 within 200 "
                      "epochs in under 10 minutes"):
        log = json.loads((trained_run["out"] / "bridge_train_log.json").read_text())
        assert log["final_train_hits1"] >= 0.95, log["final_train_hits1"]
        assert log["epochs_run"] <= 200
        # the stage's wall time, loading and saving included
        seconds = trained_run["results"]["train-bridge"]["wall_seconds"]
        assert seconds < 600, seconds
        print(f"  hits@1={log['final_train_hits1']:.3f} after {log['epochs_run']} epochs "
              f"({seconds:.0f}s)", flush=True)


def test_criterion_5_reasoner_beats_retrieval(trained_run):
    with criterion(5, "held-out reasoner Hits@10 exceeds hybrid-retrieval Hits@10 "
                      "by at least 0.3"):
        cfg = trained_run["cfg"]
        state = load_pipeline_state(cfg)
        _, _, dev = _load_ingested(cfg)
        from bridgeqa.bridge import derive_bridge_labels

        labels, _ = derive_bridge_labels(dev, state.corpus, cfg.seed)
        gold = {l.question_id: l.gold_title for l in labels}
        bridge_dev = [q for q in dev if q.id in gold]
        assert bridge_dev

        retrieval_hits = 0
        for q in bridge_dev:
            results = retrieve_start_passages(state.index, tokenize(q.question), 10)
            titles = [state.corpus.by_id[r.passage_id].title for r in results]
            retrieval_hits += int(gold[q.id] in titles)
        retrieval_hits10 = retrieval_hits / len(bridge_dev)

        report = run_ablation("full", state, bridge_dev)
        reasoner_hits10 = report.aggregates()["bridge_only"]["hits10"]
        print(f"  reasoner hits@10={reasoner_hits10:.3f} vs retrieval "
              f"hits@10={retrieval_hits10:.3f}", flush=True)
        assert reasoner_hits10 - retrieval_hits10 >= 0.3


def test_criterion_6_ablation_directions(trained_run):
    with criterion(6, "EM(full) strictly exceeds EM(no_bridge_reasoner); oracle "
                      "answer-passage F1 within 10 points of full-support F1"):
        cfg = trained_run["cfg"]
        state = load_pipeline_state(cfg)
        _, _, dev = _load_ingested(cfg)
        full = run_ablation("full", state, dev).aggregates()["full"]
        no_bridge = run_ablation("no_bridge_reasoner", state, dev).aggregates()["full"]
        oracle = run_ablation("oracle_gold_passage", state, dev).aggregates()["full"]
        support = run_ablation("full_support", state, dev).aggregates()["full"]
        print(f"  em: full={full['em']:.3f} no_bridge={no_bridge['em']:.3f} | "
              f"f1: oracle={oracle['f1']:.3f} full_support={support['f1']:.3f}", flush=True)
        assert full["em"] > no_bridge["em"]
        assert abs(oracle["f1"] - support["f1"]) <= 0.10


def test_criterion_7_fold_hygiene(trained_run):
    with criterion(7, "no reader example's passages were predicted by the fold "
                      "containing that example (checked from run artifacts)"):
        violations = verify_fold_hygiene(trained_run["out"])
        assert violations == [], violations
        # the check is meaningful: the run has real cross-fold provenance
        with open(trained_run["out"] / "reader_examples.jsonl", encoding="utf-8") as fh:
            folds_used = {json.loads(line).get("predicted_by_fold") for line in fh if line.strip()}
        assert {"A", "B"} <= folds_used


# --- criterion 8: determinism --------------------------------------------------


def test_criterion_8_determinism(tmp_path_factory, fixture_dir):
    with criterion(8, "identical config and seed give byte-identical checkpoints "
                      "and identical metric reports"):
        # every file but the run's own manifest.json (timestamps, wall times,
        # the output dir): checkpoints, their manifests, logs and reports
        digests = []
        for tag in ("first", "second"):
            out = tmp_path_factory.mktemp(f"det_{tag}")
            cfg = load_config(None, fixture_config(fixture_dir, out,
                                                   bridge_epochs=2, reader_epochs=2))
            run_all(cfg)
            digests.append({
                str(path.relative_to(out)): path.read_bytes()
                for path in sorted(Path(out).rglob("*")) if path.is_file() and path != Path(out) / "manifest.json"
            })
        assert {"checkpoints/reader/manifest.json", "bridge_train_log.json", "report.json"} <= digests[0].keys()
        assert digests[0].keys() == digests[1].keys()
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], f"{name} differs between runs"


# --- golden record: what the trained run gives on any machine ---------------------


def test_the_trained_run_matches_its_golden_record(trained_run):
    # regenerate with tests/golden_record.py after a change meant to move it
    problems = compare(json.loads(GOLDEN.read_text(encoding="utf-8")), record(trained_run["out"]))
    assert not problems, "\n".join(problems)


def test_the_golden_record_check_names_the_question_whose_score_moved_by_1e_6():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = 0
    for qid, row in golden["questions"].items():
        for i, score in enumerate(row.get("ranking_scores", [])):
            if score is None:
                continue
            got = copy.deepcopy(golden)
            got["questions"][qid]["ranking_scores"][i] = score + 1e-6
            (problem,) = compare(golden, got)
            assert problem.startswith(f"question {qid}: ranking_scores"), problem
            moved += 1
    assert moved >= 40
    # and one that moves by a part in 1e10 of itself, as a BLAS kernel may, passes
    got = copy.deepcopy(golden)
    for row in got["questions"].values():
        row["ranking_scores"] = [s if s is None else s * (1 + 1e-10) for s in row.get("ranking_scores", [])]
    assert compare(golden, got) == []


# --- criterion 9: decode oracle -------------------------------------------------


def test_criterion_9_decode_oracle():
    with criterion(9, "decode_answer agrees with the brute-force valid-span argmax "
                      "on 1000 random logit vectors"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            T = int(rng.integers(1, 60))
            start = rng.normal(size=T)
            end = rng.normal(size=T)
            got = best_span(start, end)
            best = (-np.inf, None)
            for s in range(T):
                for e in range(s, min(T, s + 30)):
                    value = start[s] + end[e]
                    if value > best[0]:
                        best = (value, (s, e))
            assert got == best[1]
