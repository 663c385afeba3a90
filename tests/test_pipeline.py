import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from bridgeqa.ablation import predict_questions, run_ablation, score_predictions
from bridgeqa.bridge import gold_titles
from bridgeqa.checkpoint import load_checkpoint
from bridgeqa.cli import main as cli_main
from bridgeqa.config import load_config
from bridgeqa.corpus import load_corpus, load_questions
from bridgeqa.errors import CheckpointError, MissingPrerequisiteError, ValidationError
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


def test_cli_rejects_a_path_that_is_not_a_string_before_any_work(tmp_path, fixture_dir):
    # an int corpus_path is read as a file descriptor: the corpus loads
    # from it, reading closes it, and only hashing it then fails
    out = tmp_path / "out"
    values = fixture_config(fixture_dir, str(out))
    fd = os.open(values["corpus_path"], os.O_RDONLY)
    try:
        values["corpus_path"] = fd
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        assert cli_main(["ingest", "--config", str(cfg_path)]) == 1
        assert not (out / "corpus.jsonl").exists()
    finally:
        try:
            os.close(fd)
        except OSError:
            pass


@pytest.mark.parametrize("key", ["corpus_path", "train_questions_path", "embeddings_path", "output_dir"])
def test_cli_rejects_an_empty_path_before_making_the_output_dir(tmp_path, fixture_dir, capsys, monkeypatch, key):
    # "" names no file: opening it fails only after the output directory is
    # made; an empty output_dir is the working directory to every writer
    monkeypatch.chdir(tmp_path)
    values = fixture_config(fixture_dir, str(tmp_path / "out"))
    values[key] = ""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    assert cli_main(["ingest", "--config", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_reads_an_empty_dev_questions_path_as_no_dev_set(tmp_path, fixture_dir):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fixture_config(fixture_dir, str(out), dev_questions_path="")))
    assert cli_main(["ingest", "--config", str(cfg_path)]) == 0
    assert (out / "questions_dev.jsonl").read_text(encoding="utf-8") == ""


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


def test_train_reader_runs_one_time_loop_per_minibatch(mini_run, loop_widths):
    # a minibatch of 4 is one GRU time loop over its 4 questions and 4
    # contexts, both directions side by side: 4 loops per epoch, not 32.
    # 16 examples, not the 19 of a reader that read all 10 ranked titles: a
    # bridge question reads its top BRIDGE_READ_PASSAGES (3), and on 3
    # cross-predicted train questions the fold reasoner ranks the answer
    # passage 4th or lower, so they are skipped as "answer not found"
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.pipeline import _build_reader_examples, _embedding, _load_state, _new_reader_model
    from bridgeqa.reader import train_reader

    state, train, dev = _load_state(mini_run)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    examples, _, _ = _build_reader_examples(state, train, cross)
    model = _new_reader_model(mini_run, _embedding(mini_run, state.corpus, train + dev), seed_tag=0)
    train_reader(model, examples, replace(mini_run, reader_epochs=1, reader_early_stop_em=2.0))
    assert len(examples) == 16
    assert loop_widths == {"gru": [8, 8, 8, 8], "lstm": []}


def test_fixture_bridge_step_records_at_most_150_tape_nodes(mini_run):
    # one training step per labeled fixture question: one encoder pass, one
    # biattention and one self_attend node over its start passages, one pool
    # over its abstracts and one fusion matmul
    import numpy as np

    from bridgeqa.bridge import bridge_loss, gold_mention_indices, prepare_question_inputs, score_bridges
    from bridgeqa.pipeline import _embedding, _load_labels, _load_state, _new_bridge_model, _start_sets
    from tests.test_reader import _tape

    state, train, dev = _load_state(mini_run)
    model = _new_bridge_model(mini_run, _embedding(mini_run, state.corpus, train + dev), seed_tag=0)
    questions = [q for q in train if q.qtype == "bridge"]
    inputs = prepare_question_inputs(questions, _load_labels(mini_run), _start_sets(state, questions), state.corpus)
    counts = []
    for qi in inputs:
        if qi.label is None:
            continue
        logits = score_bridges(model, qi.record.question_tokens, qi.start_passages, qi.candidates, state.corpus,
                               rng=np.random.default_rng(0))
        if gold_mention_indices(qi.candidates, qi.label.gold_title):
            counts.append(len(_tape(bridge_loss(qi.candidates, logits, qi.label))))
    assert len(counts) == 16
    assert max(counts) <= 150
    assert max(counts) == 59


def test_every_parameter_moves_the_loss_of_one_training_step(mini_run):
    # a parameter whose gradient is rounding noise can change no output (a
    # constant shift under a softmax or an argmax): one reader minibatch and
    # one bridge question, on fresh models, reach every parameter but
    # abstract/missing, the sentinel that only a target without an abstract
    # reads
    import numpy as np

    from bridgeqa.bridge import bridge_loss, gold_mention_indices, prepare_question_inputs, score_bridges
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.numcore import add, backward
    from bridgeqa.pipeline import (
        _build_reader_examples,
        _embedding,
        _load_labels,
        _load_state,
        _new_bridge_model,
        _new_reader_model,
        _start_sets,
    )
    from bridgeqa.reader import reader_losses

    state, train, dev = _load_state(mini_run)
    embedding = _embedding(mini_run, state.corpus, train + dev)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    examples, _, _ = _build_reader_examples(state, train, cross)
    reader = _new_reader_model(mini_run, embedding, seed_tag=0)
    batch = examples[: mini_run.reader_batch_size or mini_run.batch_size]
    losses = [loss for loss, _ in reader_losses(reader, batch, mini_run.aux_weight,
                                                rng=np.random.default_rng(0))]
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    backward(total)

    bridge = _new_bridge_model(mini_run, embedding, seed_tag=0)
    questions = [q for q in train if q.qtype == "bridge"]
    inputs = prepare_question_inputs(questions, _load_labels(mini_run), _start_sets(state, questions), state.corpus)
    qi = next(qi for qi in inputs
              if qi.label is not None and gold_mention_indices(qi.candidates, qi.label.gold_title))
    logits = score_bridges(bridge, qi.record.question_tokens, qi.start_passages, qi.candidates, state.corpus,
                           rng=np.random.default_rng(0))
    backward(bridge_loss(qi.candidates, logits, qi.label))

    for model, exempt in ((reader, set()), (bridge, {"abstract/missing"})):
        grads = model.store.gradients()
        idle = [name for name in model.store.names()
                if name not in exempt and (name not in grads or np.max(np.abs(grads[name])) <= 1e-10)]
        assert not idle, idle


def test_predictions_schema(mini_run):
    out = Path(mini_run.output_dir)
    with open(out / "predictions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            assert set(rec) == {"qid", "mode", "answer", "passages", "ranking", "fallback"}
            assert rec["mode"] == mini_run.mode
            assert isinstance(rec["passages"], list)
            assert rec["ranking"] and all(len(pair) == 2 for pair in rec["ranking"])
    assert sorted(p.name for p in out.glob("predict*")) == ["predictions.jsonl"]


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


def test_cross_predict_matches_training_the_folds_in_sequence(mini_run, tmp_path):
    from reference_cross_predict import cross_predict_in_sequence

    out = Path(mini_run.output_dir)
    reference = tmp_path / "reference"
    cross_predict_in_sequence(mini_run, reference)
    for name in ("folds.json", "cross_predictions.jsonl"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    for fold in ("bridge_fold_a", "bridge_fold_b"):
        got, want = out / "checkpoints" / fold, reference / "checkpoints" / fold
        assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir()), fold
        for path in want.iterdir():
            assert (got / path.name).read_bytes() == path.read_bytes(), f"{fold}/{path.name}"


def _patch_fold_training(monkeypatch, actions):
    """Call actions[seed_tag]() in place of training the bridge reasoner
    built with that seed tag (1 for fold A, 2 for fold B); the others train
    as usual."""
    from bridgeqa import pipeline

    tags = {}
    new_model = pipeline._new_bridge_model
    train = pipeline.train_bridge_reasoner

    def tagged(cfg, embedding, seed_tag):
        model = new_model(cfg, embedding, seed_tag=seed_tag)
        tags[id(model)] = seed_tag
        return model

    def patched(model, inputs, corpus, cfg):
        action = actions.get(tags.get(id(model)))
        return action() if action else train(model, inputs, corpus, cfg)

    monkeypatch.setattr(pipeline, "_new_bridge_model", tagged)
    monkeypatch.setattr(pipeline, "train_bridge_reasoner", patched)


def _cross_predict_copy(mini_run, tmp_path):
    """A run copy holding the inputs of cross-predict but none of its own
    files, and the bytes of its manifest."""
    cfg = _run_copy(mini_run, tmp_path)
    out = Path(cfg.output_dir)
    for name in ("folds.json", "cross_predictions.jsonl"):
        (out / name).unlink()
    return cfg, (out / "manifest.json").read_bytes()


def _assert_cross_predict_left_nothing(cfg, manifest_before):
    out = Path(cfg.output_dir)
    assert (out / "manifest.json").read_bytes() == manifest_before
    assert not (out / "folds.json").exists()
    assert not (out / "cross_predictions.jsonl").exists()
    assert multiprocessing.active_children() == []


def test_cross_predict_fold_b_failure_names_the_fold_and_its_traceback(mini_run, tmp_path, monkeypatch):
    def fold_b_fails():
        raise ValueError("fold B exploded")

    _patch_fold_training(monkeypatch, {2: fold_b_fails})
    cfg, manifest_before = _cross_predict_copy(mini_run, tmp_path)
    with pytest.raises(RuntimeError, match="fold B") as info:
        run_stage("cross-predict", cfg)
    message = str(info.value)
    assert "Traceback" in message and "fold_b_fails" in message and "ValueError: fold B exploded" in message
    _assert_cross_predict_left_nothing(cfg, manifest_before)


def test_cross_predict_child_that_dies_without_replying_is_an_error(mini_run, tmp_path, monkeypatch):
    _patch_fold_training(monkeypatch, {2: lambda: os._exit(7)})
    cfg, manifest_before = _cross_predict_copy(mini_run, tmp_path)
    with pytest.raises(RuntimeError, match="fold B: child exited with code 7"):
        run_stage("cross-predict", cfg)
    _assert_cross_predict_left_nothing(cfg, manifest_before)


def test_cross_predict_fold_a_failure_terminates_fold_b(mini_run, tmp_path, monkeypatch):
    children = []

    def fold_a_fails():
        children.extend(multiprocessing.active_children())
        raise ValueError("fold A exploded")

    # fold B would outlive the test's patience unless it is terminated
    _patch_fold_training(monkeypatch, {1: fold_a_fails, 2: lambda: time.sleep(120)})
    cfg, manifest_before = _cross_predict_copy(mini_run, tmp_path)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="fold A exploded"):
        run_stage("cross-predict", cfg)
    assert time.perf_counter() - started < 60
    assert len(children) == 1 and children[0].exitcode == -signal.SIGTERM
    _assert_cross_predict_left_nothing(cfg, manifest_before)


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


def _skip_in_predict(monkeypatch, qids):
    """Make answering skip the given questions, as a mode that cannot be
    applied to a question does."""
    from bridgeqa import ablation

    real_predict_one = ablation.predict_one

    def predict_one(state, record, mode="full", gold_title=None):
        if record.id in qids:
            return None, "test skip"
        return real_predict_one(state, record, mode, gold_title=gold_title)

    monkeypatch.setattr(ablation, "predict_one", predict_one)


def test_predictions_hold_one_row_per_dev_question_in_dev_order(mini_run, tmp_path, monkeypatch):
    _, _, dev = _load_ingested(mini_run)
    skipped = dev[len(dev) // 2].id
    _skip_in_predict(monkeypatch, {skipped})
    cfg = _run_copy(mini_run, tmp_path)
    entry = run_stage("predict", cfg)
    path = Path(cfg.output_dir) / "predictions.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [row["qid"] for row in rows] == [q.id for q in dev]
    assert {row["mode"] for row in rows} == {"full"}
    assert [row for row in rows if "skipped" in row] == [{"qid": skipped, "mode": "full", "skipped": "test skip"}]
    assert (entry["n_predictions"], entry["n_skipped"]) == (len(dev) - 1, 1)


def test_reasoner_rankings_carry_a_float_score_per_title(mini_run):
    out = Path(mini_run.output_dir)
    _, _, dev = _load_ingested(mini_run)
    qtype = {q.id: q.qtype for q in dev}
    scored = 0
    for line in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        scores = [score for _, score in row["ranking"]]
        if qtype[row["qid"]] == "bridge" and not row["fallback"]:
            assert all(isinstance(s, float) for s in scores), row
            assert scores == sorted(scores, reverse=True)
            scored += 1
        else:
            # the start set stands in for a ranking
            assert scores == [None] * len(scores) and row["ranking"][0][0] == row["passages"][0], row
    assert scored > 0

    # stand-in rankings carry no score in memory either
    state = load_pipeline_state(mini_run)
    labels = gold_titles(dev, state.corpus, mini_run.seed)
    for mode in ("oracle_gold_passage", "full_support", "no_bridge_reasoner"):
        predictions, _ = predict_questions(state, dev, mode, labels)
        assert predictions and all(s is None for p in predictions for _, s in p.ranking), mode


@pytest.mark.parametrize("mode", ["full", "oracle_gold_passage"])
def test_evaluate_reports_the_score_of_the_in_memory_predictions(mini_run, tmp_path, mode):
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path, mode=mode)
    run_stage("predict", cfg)
    run_stage("evaluate", cfg)
    state = load_pipeline_state(cfg)
    _, _, dev = _load_ingested(cfg)
    labels = gold_titles(dev, state.corpus, cfg.seed)
    predictions, skipped = predict_questions(state, dev, mode, labels)
    report = score_predictions(predictions, dev, mode, labels, skipped)
    out = Path(cfg.output_dir)
    assert json.loads((out / "report.json").read_text()) == report.aggregates()
    detail = [json.loads(line) for line in (out / "report_detail.jsonl").read_text().splitlines()]
    assert detail == [asdict(row) for row in report.per_question]


def test_corrupt_checkpoint_is_detected(mini_run, tmp_path):
    out = Path(mini_run.output_dir)
    import shutil

    copy = tmp_path / "ckpt_copy"
    shutil.copytree(out / "checkpoints" / "bridge", copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    victim = copy / f"{manifest['tensors'][0]['sha256']}.bin"
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(copy)


def test_checkpoint_without_vocabulary_names_the_stage_to_rerun(mini_run, tmp_path):
    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / "checkpoints" / "reader" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["vocab"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="no vocabulary.*rerun train-reader"):
        load_pipeline_state(cfg)


def test_checkpoint_of_another_layout_names_the_tensors_and_the_stage_to_rerun(mini_run, tmp_path):
    # a bridge checkpoint saved with the fusion bias the model no longer has
    from dataclasses import asdict

    import numpy as np

    from bridgeqa.checkpoint import save_checkpoint
    from bridgeqa.numcore import ParamStore

    cfg = _run_copy(mini_run, tmp_path)
    directory = Path(cfg.output_dir) / "checkpoints" / "bridge"
    arrays, vocab = load_checkpoint(directory)
    stale = ParamStore()
    for name, array in {**arrays, "fuse/b": np.zeros(1)}.items():
        stale.add(name, array)
    save_checkpoint(stale, directory, vocab)
    with pytest.raises(CheckpointError, match=r"unknown \['fuse/b'\]; rerun train-bridge"):
        load_pipeline_state(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 3


def test_checkpoint_whose_shapes_do_not_fit_the_config_names_the_tensors_and_the_stage_to_rerun(mini_run, tmp_path):
    from dataclasses import asdict

    cfg = replace(_run_copy(mini_run, tmp_path), gru_hidden=16)
    with pytest.raises(CheckpointError, match=r"'fuse/w' \(120, 1\) in the checkpoint, \(152, 1\) in the model.*rerun train-bridge"):
        load_pipeline_state(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 3


def test_cli_names_a_truncated_checkpoint_manifest_and_the_stage_to_rerun(mini_run, tmp_path, capsys):
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / "checkpoints" / "reader" / "manifest.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert f"checkpoint manifest {path} is not valid JSON" in err
    assert err.rstrip().endswith("rerun train-reader")


def test_cli_runtime_failure_exit_code(mini_run, tmp_path):
    import shutil
    from dataclasses import asdict

    run_copy = tmp_path / "run_copy"
    shutil.copytree(mini_run.output_dir, run_copy)
    manifest = json.loads((run_copy / "checkpoints" / "bridge" / "manifest.json").read_text())
    victim = run_copy / "checkpoints" / "bridge" / f"{manifest['tensors'][0]['sha256']}.bin"
    victim.write_bytes(victim.read_bytes()[:-8])
    cfg_path = tmp_path / "cfg.json"
    cfg_values = asdict(mini_run)
    cfg_values["output_dir"] = str(run_copy)
    cfg_path.write_text(json.dumps(cfg_values))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 3


def test_answer_question_returns_answer_and_provenance(mini_run):
    from bridgeqa.ablation import predict_one

    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    prediction, _ = predict_one(state, dev[0])
    assert isinstance(prediction.answer, str)
    assert prediction.passages and all(t in state.corpus.by_title for t in prediction.passages)


def test_answering_tokenizes_each_question_once_and_each_title_at_most_once(mini_run, monkeypatch):
    from collections import Counter

    from bridgeqa import corpus as corpus_module
    from bridgeqa.ablation import predict_questions
    from bridgeqa.bridge import gold_titles

    state = load_pipeline_state(mini_run)
    _, train, dev = _load_ingested(mini_run)
    questions = train + dev
    labels = gold_titles(questions, state.corpus, mini_run.seed)
    calls = []
    tokenize = corpus_module.tokenize
    monkeypatch.setattr(corpus_module, "tokenize", lambda text: calls.append(text) or tokenize(text))
    predictions, _ = predict_questions(state, questions, "full", labels)
    assert len(predictions) > 0
    counts, asked = Counter(calls), Counter(q.question for q in questions)
    titles = {p.title for p in state.corpus.passages}
    assert all(counts[text] == n for text, n in asked.items())
    assert all(counts[text] == 1 and text in titles for text in counts if text not in asked)


def test_malformed_cross_prediction_is_a_validation_error(mini_run, tmp_path):
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / "cross_predictions.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + "{broken\n" + "".join(lines[1:]), encoding="utf-8")
    with pytest.raises(ValidationError, match="cross_predictions.jsonl line 2"):
        run_stage("train-reader", cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["train-reader", "--config", str(cfg_path)]) == 1


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
    assert [t for t, _ in pred.ranking][: len(ir_titles)] == ir_titles


def test_zero_candidates_falls_back_to_start_passages(mini_run):
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


def test_a_bridge_question_with_no_cross_predicted_titles_trains_on_what_answering_reads(mini_run, monkeypatch):
    # a bridge question the reasoner ranks nothing for is answered from its
    # start set, up to reader_max_passages; a training question whose
    # cross-prediction lists no titles reads the same, not the linker's
    # extras alone
    from bridgeqa import ablation, pipeline
    from bridgeqa.manifest import read_jsonl

    state = load_pipeline_state(mini_run)
    _, train, _ = _load_ingested(mini_run)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    q = next(q for q in train if q.id in cross)
    cross[q.id] = {**cross[q.id], "titles": []}
    trained_on = {}
    make_example = pipeline.make_reader_example

    def recording_example(record, passages, **kwargs):
        trained_on[record.id] = [p.title for p in passages]
        return make_example(record, passages, **kwargs)

    monkeypatch.setattr(pipeline, "make_reader_example", recording_example)
    pipeline._build_reader_examples(state, train, cross)

    monkeypatch.setattr(ablation, "predict_ranked_titles", lambda *args, **kwargs: [])
    pred, reason = ablation.predict_one(state, q, "full")
    assert reason is None and pred.fallback
    starts = ablation.start_passages_for(state, q, use_entity_linking=True)[: mini_run.reader_max_passages]
    assert len(starts) > 1
    assert trained_on[q.id] == [t for t, _ in pred.ranking] == [p.title for p in starts]


def test_no_bridge_reasoner_mode_reads_the_start_set_without_a_reasoner(mini_run, monkeypatch):
    from bridgeqa import ablation

    state = load_pipeline_state(mini_run)
    state.bridge = None
    _, _, dev = _load_ingested(mini_run)
    read = []
    read_and_decode = ablation.read_and_decode

    def recording_read(reader, record, passages, **kwargs):
        read.append([p.title for p in passages])
        return read_and_decode(reader, record, passages, **kwargs)

    monkeypatch.setattr(ablation, "read_and_decode", recording_read)
    bridge = [q for q in dev if q.qtype == "bridge"]
    assert bridge
    for q in bridge:
        pred, reason = ablation.predict_one(state, q, "no_bridge_reasoner")
        assert reason is None
        starts = ablation.start_passages_for(state, q, use_entity_linking=True)[: mini_run.reader_max_passages]
        assert read[-1] == [t for t, _ in pred.ranking] == [p.title for p in starts]
        assert all(score is None for _, score in pred.ranking)
        assert pred.fallback is False


def test_bridge_questions_read_ranked_answer_passages(mini_run):
    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    bridge = [q for q in dev if q.qtype == "bridge"]
    from bridgeqa.ablation import predict_one

    pred, reason = predict_one(state, bridge[0], "full")
    assert reason is None
    assert pred.ranking  # reasoner produced a ranking
    assert not pred.fallback
    # every ranked answer passage is reachable from some start-set anchor
    from bridgeqa.ablation import start_passages_for
    from bridgeqa.bridge import collect_candidates

    starts = start_passages_for(state, bridge[0], use_entity_linking=True)
    reachable = {c.target_title for c in collect_candidates(starts, state.corpus)}
    assert {t for t, _ in pred.ranking} <= reachable


@pytest.mark.parametrize("mode", ["full", "no_el", "no_context_evidence", "no_content_evidence"])
def test_bridge_questions_read_the_top_ranked_titles_plus_the_linked_extras(mini_run, mode):
    # the ranking keeps reader_max_passages titles; the reader reads the first
    # BRIDGE_READ_PASSAGES of them, then the linker's extras not among those
    from bridgeqa.ablation import BRIDGE_READ_PASSAGES, predict_one, start_passages_for
    from bridgeqa.bridge import expand_with_entity_linking, predict_ranked_titles

    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    use_el = mode != "no_el"
    capped = 0
    for q in (q for q in dev if q.qtype == "bridge"):
        pred, reason = predict_one(state, q, mode)
        assert reason is None and not pred.fallback
        starts = start_passages_for(state, q, use_entity_linking=use_el)
        ranked = predict_ranked_titles(
            state.bridge, q, starts, state.corpus, k=mini_run.reader_max_passages,
            use_context=mode != "no_context_evidence", use_content=mode != "no_content_evidence",
        )
        titles = [t for t, _ in pred.ranking]
        assert titles == [t for t, _ in ranked]
        read = [state.corpus.by_title[t] for t in titles[:BRIDGE_READ_PASSAGES]]
        linker = state.linker if use_el else None
        extras = expand_with_entity_linking(q.question_tokens, linker, state.corpus, read, top_n=mini_run.top_n_el)
        assert pred.passages == [p.title for p in read + extras]
        capped += len(titles) > BRIDGE_READ_PASSAGES
    assert capped > 0


def test_bridge_reader_examples_read_the_top_ranked_titles_plus_the_linked_extras(mini_run):
    from bridgeqa.ablation import BRIDGE_READ_PASSAGES
    from bridgeqa.bridge import expand_with_entity_linking
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.pipeline import _build_reader_examples, _load_state

    state, train, _ = _load_state(mini_run)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    examples, _, _ = _build_reader_examples(state, train, cross)
    by_qid = {q.id: q for q in train}
    bridge_examples = [ex for ex in examples if ex.predicted_by_fold is not None]
    assert any(len(cross[ex.question_id]["titles"]) > BRIDGE_READ_PASSAGES for ex in bridge_examples)
    for ex in bridge_examples:
        q = by_qid[ex.question_id]
        read = [state.corpus.by_title[t] for t in cross[q.id]["titles"][:BRIDGE_READ_PASSAGES]]
        extras = expand_with_entity_linking(q.question_tokens, state.linker, state.corpus, read, top_n=mini_run.top_n_el)
        assert ex.context.titles == [p.title for p in read + extras]


def test_comparisons_read_both_compared_pages_whenever_their_start_set_holds_them(mini_run):
    # the cap is on the reasoner's ranking: a comparison reads its start set
    # up to reader_max_passages, so a compared page that retrieval ranks below
    # BRIDGE_READ_PASSAGES is still read, in answering and in training
    from bridgeqa.ablation import BRIDGE_READ_PASSAGES, predict_one, start_passages_for
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.pipeline import _build_reader_examples

    state = load_pipeline_state(mini_run)
    _, train, dev = _load_ingested(mini_run)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    examples = {ex.question_id: ex for ex in _build_reader_examples(state, train, cross)[0]}
    below_cap = 0
    for q in (q for q in train + dev if q.qtype == "comparison"):
        starts = [p.title for p in start_passages_for(state, q, use_entity_linking=True)]
        starts = starts[: mini_run.reader_max_passages]
        compared = set(q.supporting_titles)
        if not compared <= set(starts):
            continue
        pred, _ = predict_one(state, q, "full")
        assert compared <= set(pred.passages)
        if q.id in examples:
            assert compared <= set(examples[q.id].context.titles)
        below_cap += max(starts.index(t) for t in compared) >= BRIDGE_READ_PASSAGES
    assert below_cap > 0


def _run_copy(mini_run, tmp_path, **overrides):
    """The mini run's artifacts in a private directory, so stages rerun on it
    leave the shared run untouched."""
    import shutil

    copy = tmp_path / "run_copy"
    shutil.copytree(mini_run.output_dir, copy)
    return replace(mini_run, output_dir=str(copy), **overrides)


def test_evaluate_reports_the_mode_predictions_were_made_under(mini_run, tmp_path):
    cfg = _run_copy(mini_run, tmp_path, mode="oracle_gold_passage")
    run_stage("predict", cfg)
    entry = run_stage("evaluate", replace(cfg, mode="full"))
    report = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert report["mode"] == "oracle_gold_passage"
    assert entry["mode"] == "oracle_gold_passage"


def test_evaluate_counts_predict_skips(mini_run, tmp_path, monkeypatch):
    _, _, dev = _load_ingested(mini_run)
    _skip_in_predict(monkeypatch, {dev[0].id})
    cfg = _run_copy(mini_run, tmp_path)
    n_skipped = run_stage("predict", cfg)["n_skipped"]
    assert n_skipped >= 1
    run_stage("evaluate", cfg)
    report = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert report["n_skipped"] == n_skipped


def _rewrite_predictions(cfg, edit) -> None:
    """Apply edit to the rows of the run's predictions.jsonl and write them back."""
    path = Path(cfg.output_dir) / "predictions.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    edit(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def test_evaluate_refuses_mixed_prediction_modes(mini_run, tmp_path):
    cfg = _run_copy(mini_run, tmp_path)
    _rewrite_predictions(cfg, lambda rows: rows[0].update(mode="no_el"))
    with pytest.raises(ValidationError, match="predictions.jsonl mixes"):
        run_stage("evaluate", cfg)


def _written_before_rows_carried_their_mode(rows):
    rows[:] = [{"qid": r["qid"], "answer": r["answer"], "passages": r["passages"]} for r in rows]


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda rows: rows[1].pop("answer"), r"predictions\.jsonl line 2: .*'answer'.*; rerun predict"),
        (lambda rows: rows[2].update(answer=None), r"predictions\.jsonl line 3: .*'answer'.*; rerun predict"),
        (lambda rows: rows[0].update(mode=["full"]), r"predictions\.jsonl line 1: .*'mode'.*; rerun predict"),
        (lambda rows: rows[0].update(ranking=[["A"]]), r"predictions\.jsonl line 1: ranking .*; rerun predict"),
        (_written_before_rows_carried_their_mode, r"predictions\.jsonl line 1: .*'mode'.*; rerun predict"),
        (lambda rows: rows.pop(1), r"predictions\.jsonl .*one row per dev question.*; rerun predict"),
        (lambda rows: rows.reverse(), r"predictions\.jsonl .*in dev order; rerun predict"),
    ],
    ids=["no-answer", "null-answer", "mode-not-a-string", "ranking-not-pairs", "written-before-rows-carried-their-mode", "row-missing", "out-of-order"],
)
def test_evaluate_refuses_a_malformed_predictions_file(mini_run, tmp_path, capsys, edit, expected):
    import re
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    _rewrite_predictions(cfg, edit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1
    assert re.search(expected, capsys.readouterr().err)


def test_run_stage_appends_one_entry_per_stage(mini_run, tmp_path, monkeypatch):
    from bridgeqa import pipeline

    entries = read_manifest(mini_run.output_dir)
    assert [e["stage"] for e in entries] == list(pipeline.STAGES)
    for entry in entries:
        assert entry["wall_seconds"] >= 0.0 and entry["peak_rss_mb"] > 0.0, entry["stage"]
    assert {e["stage"] for e in entries if "n_passages_dropped" in e} == {"train-reader", "predict"}
    # the fold B child's time and memory, which the process's own figures cannot see
    cross = entries[pipeline.STAGES.index("cross-predict")]
    assert sorted(cross["fold_seconds"]) == ["A", "B"]
    assert 0.0 < max(cross["fold_seconds"].values()) <= cross["wall_seconds"]
    assert min(cross["fold_seconds"].values()) > 0.0 and cross["fold_b_peak_rss_mb"] > 0.0

    cfg = _run_copy(mini_run, tmp_path)
    entry = run_stage("evaluate", cfg)
    appended = read_manifest(cfg.output_dir)
    assert len(appended) == len(entries) + 1
    assert appended[-1] == {**entry, "timestamp": appended[-1]["timestamp"]}
    assert entry["stage"] == "evaluate" and {"wall_seconds", "peak_rss_mb"} <= set(entry)

    # a stage that raises appends nothing, whatever it wrote before raising
    def failing(cfg):
        pipeline.stage_build_index(cfg)
        raise ValidationError("stage failed")

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "build-index", failing)
    before = (Path(cfg.output_dir) / "manifest.json").read_bytes()
    with pytest.raises(ValidationError, match="stage failed"):
        run_stage("build-index", cfg)
    assert (Path(cfg.output_dir) / "manifest.json").read_bytes() == before


def test_no_multitask_reader_trains_without_the_title_objective(mini_run, tmp_path, monkeypatch):
    from bridgeqa import pipeline

    cfg = _run_copy(mini_run, tmp_path, train_no_multitask_reader=True)
    given = replace(cfg)
    seen = []

    def recording(model, examples, train_cfg):
        seen.append(train_cfg)
        return {"epochs_run": 0, "history": [], "train_seconds": 0.0, "n_examples": len(examples)}

    monkeypatch.setattr(pipeline, "train_reader", recording)
    run_stage("train-reader", cfg)
    assert seen == [cfg, replace(cfg, aux_weight=0.0)]
    assert cfg == given and cfg.aux_weight == 1.0


def _dropped_by_cap(passages, cap):
    """Brute-force recount of the reader's context cap: after the two
    sentinels, the first passage always stays; the first later passage whose
    title and text would take the context past cap tokens is dropped, and
    every passage after it."""
    from bridgeqa.corpus import tokenize

    used = 2
    for i, passage in enumerate(passages):
        used += len(tokenize(passage.title)) + len(passage.tokens)
        if i > 0 and used > cap:
            return len(passages) - i
    return 0


def test_manifest_counts_the_passages_the_context_cap_drops(mini_run, tmp_path, monkeypatch):
    from bridgeqa import pipeline, reader

    cap = 60
    cfg = _run_copy(mini_run, tmp_path, reader_context_cap=cap, reader_epochs=1)
    built = []  # (passages, whether the example trains) per train question read
    make_example = pipeline.make_reader_example

    def recording_example(record, passages, **kwargs):
        example, reason = make_example(record, passages, **kwargs)
        built.append((passages, reason is None))
        return example, reason

    monkeypatch.setattr(pipeline, "make_reader_example", recording_example)
    entry = run_stage("train-reader", cfg)
    assert entry["n_passages_dropped"] == sum(_dropped_by_cap(p, cap) for p, _ in built)
    # the contexts of skipped questions count as well
    assert sum(_dropped_by_cap(p, cap) for p, trains in built if not trains) > 0

    read = []
    build_context = reader.build_reader_context

    def recording_context(passages, max_tokens=None):
        read.append(passages)
        return build_context(passages, max_tokens)

    monkeypatch.setattr(reader, "build_reader_context", recording_context)
    entry = run_stage("predict", cfg)
    assert entry["n_passages_dropped"] == sum(_dropped_by_cap(p, cap) for p in read) > 0


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

    # the checkpoints carry everything; the vector file is not needed, and
    # each tensor file is read once
    path.unlink()
    parsed.clear()
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or read_bytes(p))
    state = load_pipeline_state(cfg)
    assert parsed == []
    out = Path(cfg.output_dir) / "checkpoints"
    tensor_files = sorted(p for d in ("bridge", "reader", "reader_no_multitask") for p in (out / d).glob("*.bin"))
    assert sorted(p for p in reads if p.suffix == ".bin") == tensor_files
    for model, directory in (
        (state.bridge, "bridge"), (state.reader, "reader"), (state.reader_no_multitask, "reader_no_multitask")
    ):
        assert model.table.frozen
        assert model.table.vocab == vocab
        assert list(model.table.indices([uncovered[0], covered[0]])) == [0, 1]
        saved, _ = load_checkpoint(out / directory)
        assert set(saved) == set(model.store.names())
        for name, array in saved.items():
            assert np.array_equal(model.store[name].data, array)
        # only the unk row trains; the others keep the file's vectors (at f32)
        assert np.allclose(model.store["embed/matrix"].data[1:], matrix[1:], atol=1e-6)


def test_failed_artifact_writes_keep_the_previous_file(tmp_path):
    from bridgeqa.manifest import append_manifest, read_jsonl, write_jsonl

    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"row": 1}])

    def rows():
        yield {"row": 2}
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_jsonl(path, rows())
    assert read_jsonl(path) == [{"row": 1}]

    append_manifest(tmp_path, {"stage": "ingest"})
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(TypeError):
        append_manifest(tmp_path, {"stage": "build-index", "unserializable": object()})
    assert (tmp_path / "manifest.json").read_bytes() == before
    # no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "rows.jsonl"]
