import json
from pathlib import Path

import pytest

from bridgeqa.ablation import run_ablation
from bridgeqa.checkpoint import load_checkpoint_arrays
from bridgeqa.cli import main as cli_main
from bridgeqa.config import load_config
from bridgeqa.corpus import load_corpus, load_questions
from bridgeqa.errors import CheckpointError, MissingPrerequisiteError
from bridgeqa.manifest import read_manifest, verify_fold_hygiene
from bridgeqa.pipeline import (
    _load_ingested,
    load_pipeline_state,
    run_stage,
)
from bridgeqa.tinywiki import build_tiny_wiki, fixture_config, write_fixture


def test_fixture_shape(fixture_dir):
    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    train = load_questions(fixture_dir / "train_questions.jsonl")
    dev = load_questions(fixture_dir / "dev_questions.jsonl")
    assert 55 <= len(corpus) <= 75
    bridge = [q for q in train + dev if q.qtype == "bridge"]
    assert len(bridge) == 24
    assert all(q.supporting_titles for q in train + dev)
    # every bridge answer is stated only in the supporting person passage
    for q in bridge:
        from bridgeqa.metrics import normalize_answer

        hits = [
            p.title
            for p in corpus.passages
            if normalize_answer(q.answer) in normalize_answer(p.text)
        ]
        assert hits == [q.supporting_titles[1]]


def test_fixture_generation_deterministic(tmp_path):
    a = build_tiny_wiki(seed=7)
    b = build_tiny_wiki(seed=7)
    assert a == b


def test_evaluate_before_predict_is_missing_prerequisite(tmp_path, fixture_dir):
    cfg = load_config(None, fixture_config(fixture_dir, tmp_path / "fresh"))
    run_stage("ingest", cfg)
    with pytest.raises(MissingPrerequisiteError, match="run predict"):
        run_stage("evaluate", cfg)


def test_stage_requires_ingest_first(tmp_path, fixture_dir):
    cfg = load_config(None, fixture_config(fixture_dir, tmp_path / "fresh2"))
    with pytest.raises(MissingPrerequisiteError, match="ingest"):
        run_stage("build-index", cfg)


def test_cli_exit_codes(tmp_path, fixture_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fixture_config(fixture_dir, str(tmp_path / "out"))))
    assert cli_main(["ingest", "--config", str(cfg_path)]) == 0
    # evaluate without predict -> missing prerequisite
    assert cli_main(["evaluate", "--config", str(cfg_path)]) == 2
    # config validation failure
    assert cli_main(["ingest", "--config", str(cfg_path), "--k", "0"]) == 1


def test_cli_entity_linking_off_records_no_el_mode(tmp_path, fixture_dir):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps(fixture_config(fixture_dir, str(out))))
    assert cli_main(["ingest", "--config", str(cfg_path), "--entity-linking", "off"]) == 0
    entries = read_manifest(out)
    assert entries[0]["config"]["entity_linking"] is False
    assert entries[0]["config"]["mode"] == "no_el"


def test_cli_full_stage_sequence(tmp_path, fixture_dir):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "cli_out"
    cfg_path.write_text(
        json.dumps(fixture_config(fixture_dir, str(out), bridge_epochs=1, reader_epochs=1))
    )
    for stage in ("ingest", "build-index", "derive-labels", "train-bridge",
                  "cross-predict", "train-reader", "predict", "evaluate"):
        assert cli_main([stage, "--config", str(cfg_path)]) == 0, stage
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "full"
    assert report["full"]["n"] > 0


def test_mini_run_artifacts_and_manifest(mini_run):
    out = Path(mini_run.output_dir)
    for name in (
        "corpus.jsonl", "questions_train.jsonl", "questions_dev.jsonl", "index.json",
        "bridge_labels.jsonl", "folds.json", "cross_predictions.jsonl",
        "reader_examples.jsonl", "predictions.jsonl", "report.json",
    ):
        assert (out / name).exists(), name
    stages = [e["stage"] for e in read_manifest(out)]
    assert stages == [
        "ingest", "build-index", "derive-labels", "train-bridge",
        "cross-predict", "train-reader", "predict", "evaluate",
    ]


def test_predictions_schema(mini_run):
    out = Path(mini_run.output_dir)
    with open(out / "predictions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            assert set(rec) == {"qid", "answer", "passages"}
            assert isinstance(rec["passages"], list)


def test_folds_partition_labeled_questions(mini_run):
    out = Path(mini_run.output_dir)
    folds = json.loads((out / "folds.json").read_text())
    labeled = set()
    with open(out / "bridge_labels.jsonl", encoding="utf-8") as fh:
        for line in fh:
            labeled.add(json.loads(line)["qid"])
    assert set(folds["A"]) | set(folds["B"]) == labeled
    assert set(folds["A"]) & set(folds["B"]) == set()


def test_fold_hygiene_clean_and_violation_detected(mini_run, tmp_path):
    out = Path(mini_run.output_dir)
    assert verify_fold_hygiene(out) == []
    # tamper: claim an example was predicted by the fold that contains it
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    folds = json.loads((out / "folds.json").read_text())
    (tampered / "folds.json").write_text(json.dumps(folds))
    victim = folds["A"][0]
    with open(tampered / "reader_examples.jsonl", "w") as fh:
        fh.write(json.dumps({"qid": victim, "predicted_by_fold": "A", "titles": []}) + "\n")
    violations = verify_fold_hygiene(tampered)
    assert violations and victim in violations[0]


def test_cross_predictions_come_from_opposite_fold(mini_run):
    out = Path(mini_run.output_dir)
    folds = json.loads((out / "folds.json").read_text())
    with open(out / "cross_predictions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            fold = rec["predicted_by_fold"]
            assert rec["qid"] not in folds[fold]


def test_run_ablation_modes_execute(mini_run):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    for mode in ("full", "no_el", "no_context_evidence", "no_content_evidence",
                 "no_bridge_reasoner", "oracle_gold_passage", "full_support"):
        report = run_ablation(mode, state, dev)
        assert report.mode == mode
        assert not report.empty


def test_run_ablation_empty_questions_flagged(mini_run):
    state = load_pipeline_state(mini_run)
    report = run_ablation("full", state, [])
    assert report.empty
    assert report.aggregates()["full"] is None


def test_no_multitask_without_trained_component_errors(mini_run):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    assert state.reader_no_multitask is None
    with pytest.raises(MissingPrerequisiteError, match="no_multitask"):
        run_ablation("no_multitask", state, dev)


def test_no_multitask_mode_with_trained_component(mini_run):
    import numpy as np

    from bridgeqa.span_model import init_span_model

    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    # a minimally trained aux-free reader is enough to exercise the mode
    state.reader_no_multitask = init_span_model(
        state.reader.table.vocab, mini_run.embed_dim, mini_run.gru_hidden, 0.0,
        np.random.default_rng(0),
    )
    report = run_ablation("no_multitask", state, dev)
    assert report.mode == "no_multitask"
    assert not report.empty


def test_candidate_dump_schema(mini_run):
    out = Path(mini_run.output_dir)
    lines = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines() if l]
    assert lines
    for rec in lines:
        assert set(rec) == {"qid", "candidates"}
        for cand in rec["candidates"]:
            assert set(cand) == {"title", "score"}


def test_corrupt_checkpoint_is_detected(mini_run, tmp_path):
    out = Path(mini_run.output_dir)
    import shutil

    copy = tmp_path / "ckpt_copy"
    shutil.copytree(out / "checkpoints" / "bridge", copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    victim = copy / manifest["tensors"][0]["file"]
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint_arrays(copy)


def test_cli_runtime_failure_exit_code(mini_run, tmp_path):
    import shutil
    from dataclasses import asdict

    run_copy = tmp_path / "run_copy"
    shutil.copytree(mini_run.output_dir, run_copy)
    manifest = json.loads((run_copy / "checkpoints" / "bridge" / "manifest.json").read_text())
    victim = run_copy / "checkpoints" / "bridge" / manifest["tensors"][0]["file"]
    victim.write_bytes(victim.read_bytes()[:-8])
    cfg_path = tmp_path / "cfg.json"
    cfg_values = asdict(mini_run)
    cfg_values["output_dir"] = str(run_copy)
    cfg_path.write_text(json.dumps(cfg_values))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 3


def test_answer_question_returns_answer_and_provenance(mini_run):
    from bridgeqa.ablation import answer_question

    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    answer, provenance = answer_question(dev[0], state)
    assert isinstance(answer, str)
    assert provenance and all(t in state.corpus.by_title for t in provenance)


def test_comparison_questions_bypass_reasoner(mini_run):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    comparison = [q for q in dev if q.qtype == "comparison"]
    from bridgeqa.ablation import predict_one

    pred, reason = predict_one(state, comparison[0], "full")
    assert reason is None
    # context comes straight from retrieval: titles are the IR start passages
    from bridgeqa.corpus import tokenize
    from bridgeqa.retrieval import retrieve_start_passages

    results = retrieve_start_passages(state.index, tokenize(comparison[0].question), state.cfg.k)
    ir_titles = [state.corpus.by_id[r.passage_id].title for r in results]
    assert pred.ranked_titles[: len(ir_titles)] == ir_titles


def test_zero_candidates_falls_back_to_start_passages(mini_run):
    from dataclasses import replace as dc_replace

    from bridgeqa.ablation import predict_one
    from bridgeqa.corpus import Corpus, Passage, QARecord, tokenize
    from bridgeqa.retrieval import build_index

    state = load_pipeline_state(mini_run)
    # an anchor-less corpus: the reasoner has no candidates to score
    passages = [
        Passage(id="a1", title="Quiet Town", text="a quiet town with riverside mills",
                tokens=tokenize("a quiet town with riverside mills")),
        Passage(id="a2", title="Other Town", text="another town entirely",
                tokens=tokenize("another town entirely")),
    ]
    bare = Corpus(tuple(passages), {p.title: p for p in passages}, {p.id: p for p in passages})
    state.corpus = bare
    state.index = build_index(bare)
    state.linker = None
    record = QARecord("qx", "which quiet town has riverside mills?", "mills", "bridge")
    pred, reason = predict_one(state, record, "full")
    assert reason is None
    assert pred.fallback
    assert pred.passages  # the reader read the retrieved start passages instead


def test_bridge_questions_read_ranked_answer_passages(mini_run):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    bridge = [q for q in dev if q.qtype == "bridge"]
    from bridgeqa.ablation import predict_one

    pred, reason = predict_one(state, bridge[0], "full")
    assert reason is None
    assert pred.ranked_titles  # reasoner produced a ranking
    assert not pred.fallback
    # every ranked answer passage is reachable from some start-set anchor
    from bridgeqa.ablation import start_passages_for
    from bridgeqa.bridge import collect_candidates

    starts = start_passages_for(state, bridge[0], use_entity_linking=True)
    reachable = {c.target_title for c in collect_candidates(starts, state.corpus)}
    assert set(pred.ranked_titles) <= reachable


def _run_copy(mini_run, tmp_path, **overrides):
    """The mini run's artifacts in a private directory, so stages rerun on it
    leave the shared run untouched."""
    import shutil
    from dataclasses import replace as dc_replace

    copy = tmp_path / "run_copy"
    shutil.copytree(mini_run.output_dir, copy)
    return dc_replace(mini_run, output_dir=str(copy), **overrides)


def test_evaluate_reports_the_mode_predictions_were_made_under(mini_run, tmp_path):
    from dataclasses import replace as dc_replace

    cfg = _run_copy(mini_run, tmp_path, mode="oracle_gold_passage")
    run_stage("predict", cfg)
    entry = run_stage("evaluate", dc_replace(cfg, mode="full"))
    report = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert report["mode"] == "oracle_gold_passage"
    assert entry["mode"] == "oracle_gold_passage"


def test_evaluate_counts_predict_skips(mini_run, tmp_path, monkeypatch):
    from bridgeqa import pipeline

    real_predict = pipeline.predict_questions

    def predict_skipping_first(state, questions, mode, labels):
        predictions, skipped = real_predict(state, questions, mode, labels)
        first = predictions.pop(0)
        return predictions, skipped + [{"qid": first.qid, "reason": "test skip"}]

    monkeypatch.setattr(pipeline, "predict_questions", predict_skipping_first)
    cfg = _run_copy(mini_run, tmp_path)
    n_skipped = run_stage("predict", cfg)["n_skipped"]
    assert n_skipped >= 1
    run_stage("evaluate", cfg)
    report = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert report["n_skipped"] == n_skipped


def test_evaluate_refuses_mixed_prediction_modes(mini_run, tmp_path):
    from bridgeqa.errors import ValidationError

    cfg = _run_copy(mini_run, tmp_path)
    detail = Path(cfg.output_dir) / "predict_detail.jsonl"
    rows = [json.loads(line) for line in detail.read_text().splitlines() if line]
    rows[0]["mode"] = "no_el"
    detail.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    with pytest.raises(ValidationError, match="mixes"):
        run_stage("evaluate", cfg)


def test_frozen_embeddings_pipeline(tmp_path, fixture_dir, monkeypatch):
    import numpy as np

    from bridgeqa import pipeline
    from bridgeqa.pipeline import _embedding

    corpus = load_corpus(fixture_dir / "corpus.jsonl")
    corpus_tokens = sorted({tok for p in corpus.passages for tok in p.tokens.tokens})
    covered, uncovered = corpus_tokens[::2], corpus_tokens[1::2]
    rng = np.random.default_rng(5)
    vectors = {tok: rng.normal(size=5).round(4) for tok in covered}
    path = tmp_path / "vectors.txt"
    path.write_text(
        "".join(f"{tok} {' '.join(str(v) for v in vectors[tok])}\n" for tok in reversed(covered)),
        encoding="utf-8",
    )
    cfg = load_config(
        None,
        fixture_config(
            fixture_dir, tmp_path / "run", embeddings_path=str(path), bridge_epochs=1, reader_epochs=1,
            train_no_multitask_reader=True,
        ),
    )
    parsed = []
    load_embedding_text = pipeline.load_embedding_text
    monkeypatch.setattr(pipeline, "load_embedding_text", lambda p: parsed.append(p) or load_embedding_text(p))
    parses = {}
    for stage in ("ingest", "build-index", "derive-labels", "train-bridge", "cross-predict", "train-reader"):
        parsed.clear()
        run_stage(stage, cfg)
        parses[stage] = len(parsed)
    # at most once per stage, however many models the stage builds
    assert parses == {"ingest": 0, "build-index": 0, "derive-labels": 0,
                      "train-bridge": 1, "cross-predict": 1, "train-reader": 1}

    _, train, dev = _load_ingested(cfg)
    vocab, matrix, dim = _embedding(cfg, corpus, train + dev)
    assert list(vocab) == ["<unk>"] + covered
    assert dim == 5
    assert np.array_equal(matrix[0], np.mean([vectors[t] for t in reversed(covered)], axis=0))
    assert np.array_equal(matrix[1:], [vectors[t] for t in covered])

    # the checkpoints and vocab.json carry everything; the vector file is not needed
    path.unlink()
    parsed.clear()
    state = load_pipeline_state(cfg)
    assert parsed == []
    out = Path(cfg.output_dir) / "checkpoints"
    for model, directory in (
        (state.bridge, "bridge"), (state.reader, "reader"), (state.reader_no_multitask, "reader_no_multitask")
    ):
        assert model.table.frozen
        assert model.table.vocab == vocab
        assert list(model.table.indices([uncovered[0], covered[0]])) == [0, 1]
        saved = load_checkpoint_arrays(out / directory)
        assert set(saved) == set(model.store.names())
        for name, array in saved.items():
            assert np.array_equal(model.store[name].data, array)
        # only the unk row trains; the others keep the file's vectors (at f32)
        assert np.allclose(model.store["embed/matrix"].data[1:], matrix[1:], atol=1e-6)


def test_failed_artifact_writes_keep_the_previous_file(tmp_path):
    from bridgeqa.manifest import append_manifest
    from bridgeqa.pipeline import _read_jsonl, _write_jsonl

    path = tmp_path / "rows.jsonl"
    _write_jsonl(path, [{"row": 1}])

    def rows():
        yield {"row": 2}
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_jsonl(path, rows())
    assert _read_jsonl(path) == [{"row": 1}]

    append_manifest(tmp_path, {"stage": "ingest"})
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(TypeError):
        append_manifest(tmp_path, {"stage": "build-index", "unserializable": object()})
    assert (tmp_path / "manifest.json").read_bytes() == before
    # no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "rows.jsonl"]
