"""Tests of the benchmark's own machinery: input generators, the tracer, and
the traced run's accounting.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import time
import types
from dataclasses import replace

import pytest

import inputs as gen
import layers
import run
from probe import NOMINAL_S, SpeedProbe
from tracer import Tracer

from bridgeqa import pipeline
from bridgeqa.corpus import load_corpus
from bridgeqa.tinywiki import write_fixture


def test_question_stream_is_seeded_and_never_repeats():
    a, b = gen.question_stream(5), gen.question_stream(5)
    assert [q.question for q in a] == [q.question for q in b]
    assert [q.question for q in a] != [q.question for q in gen.question_stream(6)]
    assert gen.repeat_shares(a)["repeated_questions"] == 0.0
    assert gen.repeat_shares(a)["repeated_targets"] > 0.9
    first_round = a[: gen.BRIDGE_PER_ROUND + gen.COMPARISONS_PER_ROUND]
    assert sum(q.qtype == "bridge" for q in first_round) == gen.BRIDGE_PER_ROUND
    head = [q.question for q in gen.stream_with_fixed_head(5, 60)]
    assert head[:60] == [q.question for q in gen.stream_with_fixed_head(6, 60)][:60]
    assert len(set(head)) == len(head)


def test_distractors_load_as_a_corpus(tmp_path):
    passages, _, _ = gen.fixture()
    extra = gen.distractor_passages(50, {p["title"] for p in passages})
    assert len({p["title"] for p in passages + extra}) == len(passages) + 50
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(p) + "\n" for p in passages + extra), encoding="utf-8")
    corpus = load_corpus(path)
    assert all(a.target_title in corpus.by_title for p in corpus.passages[-50:] for a in p.anchors)


def test_self_times_partition_nested_spans():
    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        box.inner()

    box = types.SimpleNamespace(inner=inner, outer=outer)
    with Tracer() as tracer:
        tracer.wrap(box, "inner", "inner")
        tracer.wrap(box, "outer", "outer")
        box.outer()
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    inner_span = next(s for s in tracer.spans if s.name == "inner")
    assert inner_span.parent == tracer.spans.index(outer_span)
    self_times = tracer.self_times()
    assert self_times["outer"] + self_times["inner"] == pytest.approx(outer_span.duration)
    assert self_times["outer"] == pytest.approx(outer_span.duration - inner_span.duration)


def test_probe_subtracts_its_own_time_and_scales_by_the_reference():
    probe = SpeedProbe()
    # a reference loop twice as slow as nominal, sampled every 0.1 s, 0.002 s each
    probe.samples = [(0.1 * i, 2 * NOMINAL_S) for i in range(30)]
    assert probe.raw(1.0, 2.0) == pytest.approx(1.0 - 10 * 2 * NOMINAL_S)
    assert probe.normalised(1.0, 2.0) == pytest.approx(probe.raw(1.0, 2.0) / 2)
    assert probe.normalised(1.01, 1.05) == pytest.approx(0.04 / 2)


def test_wrappers_restore_the_original_functions():
    targets = [(owner, attr) for owner, attr, _, _ in layers.wraps()]
    originals = [getattr(owner, attr) for owner, attr in targets]
    from bridgeqa import retrieval

    score = retrieval.hybrid_score
    with Tracer() as tracer:
        layers.install(tracer)
        assert all(getattr(o, a) is not f for (o, a), f in zip(targets, originals))
        assert retrieval.hybrid_score is not score
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))
    assert retrieval.hybrid_score is score


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    """A barely trained pipeline to answer with; quality does not matter here."""
    directory = tmp_path_factory.mktemp("state")
    write_fixture(directory / "fixture", seed=run.FIXTURE_SEED)
    pipeline.run_all(run._config(directory / "fixture", directory / "out", 1, 1))
    return directory


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_layer_self_times_cover_the_measured_phase(name, state_dir, tmp_path):
    workload = replace(
        run.WORKLOADS[name], bridge_epochs=1, reader_epochs=1, distractors=min(run.WORKLOADS[name].distractors, 200)
    )
    inp = run.make_inputs(workload, 3, tmp_path)
    traced = layers.traced_run(
        lambda: run.setup(inp, tmp_path / "out", state_dir, workload),
        lambda cfg, state, tracer: run.run_phase(cfg, state, inp.stream, {}, None, 8, tracer),
    )
    metrics = layers.per_layer_metrics(traced, traced["phase_wall"])
    assert 0.9 <= metrics["trace.coverage"]["value"] <= 1.1
    assert metrics["bridge.candidates_per_question"]["value"] > 0
    assert metrics["numcore.tape_nodes_per_step"]["value"] > 0
    assert metrics["pipeline.train-reader_s"]["value"] > 0
    assert len(traced["phase"]["answers"]["rows"]) == 8
