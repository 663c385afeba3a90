import json
import multiprocessing
import os
import re
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from bridgeqa.ablation import predict_questions, run_ablation, score_predictions
from bridgeqa.bridge import READER_MAX_PASSAGES, gold_titles
from bridgeqa.checkpoint import load_checkpoint
from bridgeqa.cli import main as cli_main
from bridgeqa.config import ABLATION_MODES, evidence_for, load_config
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


def test_cli_entity_linking_off_records_linking_and_keeps_the_mode(tmp_path, fixture_dir):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps(fixture_config(fixture_dir, str(out))))
    assert cli_main(["ingest", "--config", str(cfg_path), "--entity-linking", "off"]) == 0
    entries = read_manifest(out)
    assert entries[0]["config"]["entity_linking"] is False
    assert entries[0]["config"]["mode"] == "full"


def test_predict_entry_records_the_linking_it_answered_with(mini_run, tmp_path):
    # the no-EL row is predict at linking off under mode full; only the entry tells the two apart
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    for linking in ("on", "off"):
        assert cli_main(["predict", "--config", str(cfg_path), "--entity-linking", linking]) == 0
        entry = read_manifest(cfg.output_dir)[-1]
        assert (entry["stage"], entry["mode"], entry["entity_linking"]) == ("predict", "full", linking == "on")


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
        "corpus.jsonl", "questions_train.jsonl", "questions_dev.jsonl",
        "bridge_labels.jsonl", "folds.json", "cross_predictions.jsonl",
        "reader_examples.jsonl", "predictions.jsonl", "report.json",
    ):
        assert (out / name).exists(), name
    # every stage builds the index from the corpus it loads; none is written
    assert not (out / "index.json").exists()
    stages = [e["stage"] for e in read_manifest(out)]
    assert stages == [
        "ingest", "build-index", "derive-labels", "train-bridge",
        "cross-predict", "train-reader", "predict", "evaluate",
    ]


def test_build_index_records_the_corpus_size_and_writes_no_file(mini_run, tmp_path):
    cfg = replace(mini_run, output_dir=str(tmp_path / "out"))
    run_stage("ingest", cfg)
    entry = run_stage("build-index", cfg)
    assert sorted(p.name for p in Path(cfg.output_dir).iterdir()) == [
        "corpus.jsonl", "manifest.json", "questions_dev.jsonl", "questions_train.jsonl"]
    corpus = load_corpus(Path(cfg.output_dir) / "corpus.jsonl")
    body_terms = {term for p in corpus.passages for term in p.tokens.tokens}
    assert (entry["n_documents"], entry["n_terms"]) == (len(corpus), len(body_terms))


def test_training_logs_hold_no_wall_time(mini_run):
    # the stage's manifest entry times it; the logs are pure functions of
    # the inputs and the seed, so a rerun writes them byte for byte
    out = Path(mini_run.output_dir)
    bridge_log = json.loads((out / "bridge_train_log.json").read_text())
    reader_log = json.loads((out / "reader_train_log.json").read_text())["reader"]
    for log, metric in ((bridge_log, "train_hits1"), (reader_log, "train_em")):
        assert not [key for key in log if "seconds" in key]
        assert [sorted(row) for row in log["history"]] == [sorted(["epoch", "mean_loss", metric])] * log["epochs_run"]


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
    model = _new_reader_model(mini_run, _embedding(mini_run, state.corpus, train + dev))
    train_reader(model, examples, replace(mini_run, reader_epochs=1, reader_early_stop_em=2.0))
    assert len(examples) == 16
    assert loop_widths == {"gru": [8, 8, 8, 8], "lstm": []}


def test_fixture_bridge_step_records_at_most_150_tape_nodes(mini_run):
    # one training step per labeled fixture question: one encoder pass, one
    # biattend and one self_attend node over its start passages, one pool
    # over its abstracts, and the fusion: self-attention read through the
    # first 8h rows of fuse/w, plus the abstracts times the rest. 37 nodes:
    # 20 parameter leaves; 4 gathers (the span's and the abstracts'
    # embedding lookups, the abstracts in passage order and each anchor's
    # target's row), 4 slice_rows (the question, the context, fuse/w's two parts), the GRU
    # and the LSTM, biattend, self_attend, the pool, the abstracts' matmul,
    # the add, the reshape and the cross-entropy. Not the 63 of the composed
    # attention: biattention's 20 nodes are one, and self-attention's anchor
    # readout (the row gather, concat, x*att, W_mix.V, mixed.(W_mix.V), x.V
    # and the add) joins self_attend's node
    import numpy as np

    from bridgeqa.bridge import bridge_loss, gold_mention_indices, prepare_question_inputs, score_bridges
    from bridgeqa.pipeline import _embedding, _load_labels, _load_state, _new_bridge_model, _start_sets
    from tests.test_reader import _tape

    state, train, dev = _load_state(mini_run)
    model = _new_bridge_model(mini_run, _embedding(mini_run, state.corpus, train + dev), seed_tag=0)
    questions = [q for q in train if q.qtype == "bridge"]
    labels = _load_labels(mini_run, state.corpus)
    inputs = prepare_question_inputs(questions, labels, _start_sets(state, questions), state.corpus)
    counts = []
    for qi in inputs:
        logits = score_bridges(model, qi.record.question_tokens, qi.start_passages, qi.candidates, state.corpus,
                               rng=np.random.default_rng(0))
        if gold_mention_indices(qi.candidates, qi.label.gold_title):
            counts.append(len(_tape(bridge_loss(qi.candidates, logits, qi.label))))
    assert len(counts) == 16
    assert max(counts) <= 150
    assert max(counts) == 37


@pytest.mark.parametrize("mode", ["full", "no_context_evidence", "no_content_evidence"])
def test_every_parameter_moves_the_loss_of_one_training_step(mini_run, mode):
    # a parameter whose gradient is rounding noise can change no output (a
    # constant shift under a softmax or an argmax): one reader minibatch and
    # one bridge question, on fresh models, reach every parameter but
    # abstract/missing, the sentinel that only a target without an abstract
    # reads; the reasoner is the mode's, so an ablated one's every tensor too
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
    reader = _new_reader_model(mini_run, embedding)
    batch = examples[: mini_run.reader_batch_size]
    losses = [loss for loss, _ in reader_losses(reader, batch, mini_run.aux_weight,
                                                rng=np.random.default_rng(0))]
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    backward(total)

    bridge = _new_bridge_model(replace(mini_run, mode=mode), embedding, seed_tag=0)
    assert bridge.evidence == evidence_for(mode)
    questions = [q for q in train if q.qtype == "bridge"]
    labels = _load_labels(mini_run, state.corpus)
    inputs = prepare_question_inputs(questions, labels, _start_sets(state, questions), state.corpus)
    qi = next(qi for qi in inputs if gold_mention_indices(qi.candidates, qi.label.gold_title))
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


def _hygiene_copy(mini_run, tmp_path):
    """folds.json and reader_examples.jsonl of the mini run, copied."""
    import shutil

    copy = tmp_path / "hygiene"
    copy.mkdir()
    for name in ("folds.json", "reader_examples.jsonl"):
        shutil.copy(Path(mini_run.output_dir) / name, copy / name)
    return copy


def test_fold_hygiene_reports_a_truncated_folds_file_as_a_violation(mini_run, tmp_path):
    # it used to raise JSONDecodeError, ending a benchmark run instead of failing its check
    copy = _hygiene_copy(mini_run, tmp_path)
    text = (copy / "folds.json").read_text()
    (copy / "folds.json").write_text(text[: len(text) // 2])
    violations = verify_fold_hygiene(copy)
    assert len(violations) == 1
    assert violations[0].startswith(f"{copy / 'folds.json'}: not a fold assignment")


def test_fold_hygiene_reports_an_example_row_without_qid_as_a_violation(mini_run, tmp_path):
    # it used to raise KeyError
    copy = _hygiene_copy(mini_run, tmp_path)
    path = copy / "reader_examples.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert any(row["predicted_by_fold"] for row in rows[:2])
    for row in rows[:2]:
        del row["qid"]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert verify_fold_hygiene(copy) == [f"{path} line {n}: missing or mistyped 'qid'" for n in (1, 2)]


def test_fold_hygiene_reports_a_row_for_a_question_no_fold_holds(mini_run, tmp_path):
    # it used to check only that the predicting fold did not hold the question
    copy = _hygiene_copy(mini_run, tmp_path)
    (copy / "reader_examples.jsonl").write_text(
        json.dumps({"qid": "not-a-train-question", "predicted_by_fold": "A"}) + "\n"
    )
    assert verify_fold_hygiene(copy) == [
        "example not-a-train-question: no fold of folds.json holds 'not-a-train-question'"
    ]


def test_cross_predictions_come_from_opposite_fold(mini_run):
    out = Path(mini_run.output_dir)
    folds = json.loads((out / "folds.json").read_text())
    with open(out / "cross_predictions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            fold = rec["predicted_by_fold"]
            assert rec["qid"] not in folds[fold]


def test_cross_predict_records_the_fold_reasoners_held_out_recall(mini_run):
    # recounted from the stage's two files: each cross-predicted question's
    # gold title among the first k titles its other fold's reasoner ranked
    from bridgeqa.manifest import read_jsonl

    out = Path(mini_run.output_dir)
    gold = {row["qid"]: row["gold_title"] for row in read_jsonl(out / "bridge_labels.jsonl")}
    rows = read_jsonl(out / "cross_predictions.jsonl")
    entry = next(e for e in read_manifest(out) if e["stage"] == "cross-predict")
    assert entry["n_cross_predictions"] == len(rows) == len(entry["folds"]["A"]) + len(entry["folds"]["B"]) > 0
    for k in (1, 3, 10):
        hits = sum(gold[row["qid"]] in row["titles"][:k] for row in rows)
        assert entry[f"held_out_hits{k}"] == hits / len(rows), k
    assert entry["held_out_hits1"] <= entry["held_out_hits3"] <= entry["held_out_hits10"]


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


def test_run_ablation_modes_execute(mini_run_for):
    # each mode answers with the reasoner of its run: an evidence ablation's
    # own, the full run's for the rest
    assert len(ABLATION_MODES) == 6
    for mode in ABLATION_MODES:
        cfg = mini_run_for(mode)
        _, _, dev = _load_ingested(cfg)
        report = run_ablation(mode, load_pipeline_state(cfg), dev)
        assert report.mode == mode
        assert not report.empty


@pytest.mark.parametrize("mode", ["no_context_evidence", "no_content_evidence"])
def test_an_evidence_mode_refuses_a_reasoner_of_other_channels(mini_run, mini_run_for, mode):
    # a full reasoner's answers cannot be labeled as the ablation, nor the
    # ablated reasoner's as full
    _, _, dev = _load_ingested(mini_run)
    with pytest.raises(ValidationError, match=f"rerun train-bridge at mode '{mode}'"):
        run_ablation(mode, load_pipeline_state(mini_run), dev)
    with pytest.raises(ValidationError, match="rerun train-bridge at mode 'full'"):
        run_ablation("full", load_pipeline_state(mini_run_for(mode)), dev)


@pytest.mark.parametrize("mode, evidence, fuse_rows", [
    ("full", ["context", "content"], 8 * 12 + 2 * 12),
    ("no_content_evidence", ["context"], 8 * 12),
    ("no_context_evidence", ["content"], 2 * 12),
])
def test_a_runs_reasoners_hold_the_tensors_of_its_evidence_channels_alone(mini_run_for, mode, evidence, fuse_rows):
    # span/ tensors are the context channel's, abstract/ ones the content
    # channel's; fuse/w holds 8h rows for context and 2 * lstm_hidden for
    # content (h = lstm_hidden = 12 in fixture_config); the train-bridge and
    # cross-predict entries name the channels
    out = Path(mini_run_for(mode).output_dir)
    for name in ("bridge", "bridge_fold_a", "bridge_fold_b"):
        arrays, _ = load_checkpoint(out / "checkpoints" / name)
        held = [channel for channel, prefix in (("context", "span/"), ("content", "abstract/"))
                if any(key.startswith(prefix) for key in arrays)]
        assert held == evidence, name
        assert arrays["fuse/w"].shape == (fuse_rows, 1), name
    entries = {e["stage"]: e for e in read_manifest(out)}
    assert entries["train-bridge"]["evidence"] == entries["cross-predict"]["evidence"] == evidence


def test_cli_predict_at_an_evidence_mode_over_a_full_run_names_the_stage_to_rerun(mini_run, tmp_path, capsys):
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    before = read_manifest(cfg.output_dir)
    assert cli_main(["predict", "--config", str(cfg_path), "--mode", "no_context_evidence"]) == 3
    err = capsys.readouterr().err
    assert "unknown ['span/" in err and err.rstrip().endswith("rerun train-bridge")
    assert read_manifest(cfg.output_dir) == before


def test_run_ablation_empty_questions_flagged(mini_run):
    state = load_pipeline_state(mini_run)
    report = run_ablation("full", state, [])
    assert report.empty
    assert report.aggregates()["full"] is None


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

    # in memory, an oracle row ranks a bridge question's front titles first,
    # unscored, then the reasoner's titles with their scores; a stand-in
    # ranking carries no score
    state = load_pipeline_state(mini_run)
    labels = gold_titles(dev, state.corpus, mini_run.seed)
    by_qid = {q.id: q for q in dev}
    for mode in ("oracle_gold_passage", "full_support"):
        predictions, _ = predict_questions(state, dev, mode, labels)
        scored = 0
        for p in predictions:
            scores = [s for _, s in p.ranking]
            if qtype[p.qid] != "bridge":
                assert scores == [None] * len(scores), (mode, p)
                continue
            front = _oracle_front(state, by_qid[p.qid], mode, labels)
            assert p.ranking[: len(front)] == [(t, None) for t in front], (mode, p)
            rest = scores[len(front):]
            assert all(isinstance(s, float) for s in rest) and rest == sorted(rest, reverse=True), (mode, p)
            scored += bool(rest)
        assert scored > 0, mode
    predictions, _ = predict_questions(state, dev, "no_bridge_reasoner", labels)
    assert predictions and all(s is None for p in predictions for _, s in p.ranking)


def _oracle_front(state, record, mode, labels):
    """The titles an oracle mode reads first for a bridge question: its gold
    title, then at full_support the other supporting titles in the corpus."""
    titles = [labels[record.id]] + (list(record.supporting_titles) if mode == "full_support" else [])
    return [t for t in dict.fromkeys(titles) if t in state.corpus.by_title]


@pytest.mark.parametrize("mode", ["oracle_gold_passage", "full_support"])
def test_an_oracle_row_reads_what_full_reads_with_its_ranking_replaced(mini_run, mode):
    from bridgeqa import ablation
    from bridgeqa.bridge import predict_ranked_titles
    from bridgeqa.reader import build_reader_context

    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    labels = gold_titles(dev, state.corpus, mini_run.seed)
    bridge = [q for q in dev if q.qtype == "bridge"]
    assert bridge
    for q in bridge:
        pred, reason = ablation.predict_one(state, q, mode, gold_title=labels[q.id])
        assert reason is None, (q.id, reason)
        # full's input with only the ranking replaced: the front, then the
        # reasoner's ranking without those titles
        front = _oracle_front(state, q, mode, labels)
        linked = ablation.linked_passages(state, q)
        starts = ablation.start_passages_for(state, q, linked)
        rest = [t for t, _ in predict_ranked_titles(state.bridge, q, starts, state.corpus) if t not in front]
        read = ablation.reader_passages(state, front + rest, starts, linked)
        assert pred.passages == build_reader_context(read, max_tokens=mini_run.reader_context_cap).titles, q.id
        assert pred.passages[0] == labels[q.id]
        assert not pred.fallback


def test_an_oracle_row_with_no_front_is_skipped_with_its_reason(mini_run):
    from bridgeqa.ablation import predict_one

    state = load_pipeline_state(mini_run)
    _, _, dev = _load_ingested(mini_run)
    q = next(q for q in dev if q.qtype == "bridge")
    # no distant label, or one naming no corpus page
    assert predict_questions(state, [q], "oracle_gold_passage", {}) == (
        [], [{"qid": q.id, "reason": "no distant answer-passage label available"}])
    assert predict_one(state, q, "oracle_gold_passage", gold_title="No Such Page") == (
        None, "no distant answer-passage label available")
    # no label, and supporting titles that name no corpus page, or none at all
    nowhere = replace(q, supporting_titles=("No Such Page", "Nor This One"))
    assert predict_questions(state, [nowhere], "full_support", {}) == (
        [], [{"qid": q.id, "reason": "no supporting title resolves in the corpus"}])
    assert predict_one(state, replace(q, supporting_titles=None), "full_support") == (
        None, "no supporting titles available")


@pytest.mark.parametrize("mode", ["full", "oracle_gold_passage", "full_support", "no_bridge_reasoner"])
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
    victim = copy / f"{manifest['sha256']}.bin"
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_checkpoint(copy)


def test_every_checkpoint_directory_holds_its_manifest_and_one_tensor_file(mini_run):
    checkpoints = Path(mini_run.output_dir) / "checkpoints"
    directories = sorted(checkpoints.iterdir())
    assert [d.name for d in directories] == ["bridge", "bridge_fold_a", "bridge_fold_b", "reader"]
    for directory in directories:
        manifest = json.loads((directory / "manifest.json").read_text())
        assert sorted(p.name for p in directory.iterdir()) == [f"{manifest['sha256']}.bin", "manifest.json"]


def test_predict_over_a_reasoner_checkpoint_of_the_per_tensor_layout_names_the_stage_to_rerun(
    mini_run, tmp_path, capsys
):
    # the earlier layout: one <sha256>.bin per tensor content, each manifest
    # entry with its own dtype and sha256
    import hashlib
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    directory = Path(cfg.output_dir) / "checkpoints" / "bridge"
    arrays, vocab = load_checkpoint(directory)
    for path in directory.iterdir():
        path.unlink()
    entries = []
    for name in sorted(arrays):
        data = arrays[name].astype("<f4").tobytes()
        digest = hashlib.sha256(data).hexdigest()
        (directory / f"{digest}.bin").write_bytes(data)
        entries.append({"name": name, "shape": list(arrays[name].shape), "dtype": "f32", "sha256": digest})
    (directory / "manifest.json").write_text(json.dumps({"format": "raw-f32-le", "tensors": entries, "vocab": vocab}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["predict", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "names the format 'raw-f32-le'" in err
    assert err.rstrip().endswith("rerun train-bridge")


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
    victim = run_copy / "checkpoints" / "bridge" / f"{manifest['sha256']}.bin"
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
    # start set, up to READER_MAX_PASSAGES; a training question whose
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
    starts = ablation.start_passages_for(state, q, ablation.linked_passages(state, q))[:READER_MAX_PASSAGES]
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
        starts = ablation.start_passages_for(state, q, ablation.linked_passages(state, q))
        starts = starts[:READER_MAX_PASSAGES]
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
    from bridgeqa.ablation import linked_passages, start_passages_for
    from bridgeqa.bridge import collect_candidates

    starts = start_passages_for(state, bridge[0], linked_passages(state, bridge[0]))
    reachable = {c.target_title for c in collect_candidates(starts, state.corpus)}
    assert {t for t, _ in pred.ranking} <= reachable


@pytest.mark.parametrize(
    "mode, use_el",
    [("full", True), ("full", False), ("no_context_evidence", True), ("no_content_evidence", True)],
    ids=["full", "full-linking-off", "no_context_evidence", "no_content_evidence"],
)
def test_bridge_questions_read_the_top_ranked_titles_plus_the_linked_extras(mini_run_for, mode, use_el):
    # the ranking keeps READER_MAX_PASSAGES titles; the reader reads the first
    # BRIDGE_READ_PASSAGES of them, then the linker's extras not among those
    from bridgeqa.ablation import BRIDGE_READ_PASSAGES, linked_passages, predict_one, start_passages_for
    from bridgeqa.bridge import predict_ranked_titles
    from test_bridge import linked_extras

    cfg = mini_run_for(mode)
    state = load_pipeline_state(replace(cfg, entity_linking=use_el))
    assert (state.linker is not None) == use_el
    _, _, dev = _load_ingested(cfg)
    capped = 0
    for q in (q for q in dev if q.qtype == "bridge"):
        pred, reason = predict_one(state, q, mode)
        assert reason is None and not pred.fallback
        starts = start_passages_for(state, q, linked_passages(state, q) if use_el else [])
        ranked = predict_ranked_titles(state.bridge, q, starts, state.corpus, k=READER_MAX_PASSAGES)
        titles = [t for t, _ in pred.ranking]
        assert titles == [t for t, _ in ranked]
        read = [state.corpus.by_title[t] for t in titles[:BRIDGE_READ_PASSAGES]]
        extras = linked_extras(state, q, read) if use_el else []
        assert pred.passages == [p.title for p in read + extras]
        capped += len(titles) > BRIDGE_READ_PASSAGES
    assert capped > 0


def test_bridge_reader_examples_read_the_top_ranked_titles_plus_the_linked_extras(mini_run):
    from bridgeqa.ablation import BRIDGE_READ_PASSAGES
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.pipeline import _build_reader_examples, _load_state
    from test_bridge import linked_extras

    state, train, _ = _load_state(mini_run)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    examples, _, _ = _build_reader_examples(state, train, cross)
    by_qid = {q.id: q for q in train}
    bridge_examples = [ex for ex in examples if ex.predicted_by_fold is not None]
    assert any(len(cross[ex.question_id]["titles"]) > BRIDGE_READ_PASSAGES for ex in bridge_examples)
    for ex in bridge_examples:
        q = by_qid[ex.question_id]
        read = [state.corpus.by_title[t] for t in cross[q.id]["titles"][:BRIDGE_READ_PASSAGES]]
        extras = linked_extras(state, q, read)
        assert ex.context.titles == [p.title for p in read + extras]


def test_comparisons_read_both_compared_pages_whenever_their_start_set_holds_them(mini_run):
    # the cap is on the reasoner's ranking: a comparison reads its start set
    # up to READER_MAX_PASSAGES, so a compared page that retrieval ranks below
    # BRIDGE_READ_PASSAGES is still read, in answering and in training
    from bridgeqa.ablation import BRIDGE_READ_PASSAGES, linked_passages, predict_one, start_passages_for
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.pipeline import _build_reader_examples

    state = load_pipeline_state(mini_run)
    _, train, dev = _load_ingested(mini_run)
    cross = {rec["qid"]: rec for rec in read_jsonl(Path(mini_run.output_dir) / "cross_predictions.jsonl")}
    examples = {ex.question_id: ex for ex in _build_reader_examples(state, train, cross)[0]}
    below_cap = 0
    for q in (q for q in train + dev if q.qtype == "comparison"):
        starts = [p.title for p in start_passages_for(state, q, linked_passages(state, q))]
        starts = starts[:READER_MAX_PASSAGES]
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
    _rewrite_predictions(cfg, lambda rows: rows[0].update(mode="no_bridge_reasoner"))
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
        # no_el is not a mode: the no-EL ablation is a run at entity_linking false
        (lambda rows: [row.update(mode="no_el") for row in rows],
         r"predictions\.jsonl line 1: unknown mode 'no_el'; rerun predict"),
        (lambda rows: rows[3].update(mode="fulll"), r"predictions\.jsonl line 4: unknown mode 'fulll'; rerun predict"),
        (lambda rows: rows[0].update(ranking=[["A"]]), r"predictions\.jsonl line 1: ranking .*; rerun predict"),
        # each used to reach report.json as a silent Hits@k miss
        (lambda rows: rows[0].update(ranking=[[1, "x"]]), r"predictions\.jsonl line 1: ranking .*; rerun predict"),
        (lambda rows: rows[1].update(ranking=[["A", "0.5"]]), r"predictions\.jsonl line 2: ranking .*; rerun predict"),
        (lambda rows: rows[2].update(ranking=[["A", True]]), r"predictions\.jsonl line 3: ranking .*; rerun predict"),
        (_written_before_rows_carried_their_mode, r"predictions\.jsonl line 1: .*'mode'.*; rerun predict"),
        (lambda rows: rows.pop(1), r"predictions\.jsonl .*one row per dev question.*; rerun predict"),
        (lambda rows: rows.reverse(), r"predictions\.jsonl .*in dev order; rerun predict"),
    ],
    ids=["no-answer", "null-answer", "mode-not-a-string", "mode-no-el", "mode-unknown", "ranking-not-pairs",
         "ranking-title-not-a-string", "ranking-score-a-string", "ranking-score-a-bool",
         "written-before-rows-carried-their-mode", "row-missing", "out-of-order"],
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


def test_aux_weight_zero_reaches_train_reader_and_its_entry(mini_run, tmp_path, monkeypatch):
    # the no-multitask ablation is a run at aux_weight 0: one reader, trained without the title objective
    from bridgeqa import pipeline

    cfg = _run_copy(mini_run, tmp_path, aux_weight=0.0)
    seen = []

    def recording(model, examples, train_cfg):
        seen.append(train_cfg)
        return {"epochs_run": 0, "history": [], "n_examples": len(examples)}

    monkeypatch.setattr(pipeline, "train_reader", recording)
    entry = run_stage("train-reader", cfg)
    assert seen == [cfg] and cfg.aux_weight == 0.0
    assert entry["aux_weight"] == 0.0
    assert list(json.loads((Path(cfg.output_dir) / "reader_train_log.json").read_text())) == ["reader"]
    assert sorted(p.name for p in (Path(cfg.output_dir) / "checkpoints").iterdir()) == [
        "bridge", "bridge_fold_a", "bridge_fold_b", "reader"]


def test_a_train_reader_that_crashes_in_training_keeps_the_completed_runs_examples(mini_run, tmp_path, monkeypatch):
    # cross-predict at another seed changes the examples train-reader would
    # build; a crash in training must leave the files of the seed-13 reader
    from bridgeqa import pipeline

    cfg = _run_copy(mini_run, tmp_path, seed=99)
    out = Path(cfg.output_dir)
    names = ["reader_examples.jsonl", "reader_example_skips.jsonl", "checkpoints/reader/manifest.json"]
    before = {name: (out / name).read_bytes() for name in names}
    run_stage("cross-predict", cfg)

    def crashing(model, examples, train_cfg):
        raise RuntimeError("crash in training")

    monkeypatch.setattr(pipeline, "train_reader", crashing)
    with pytest.raises(RuntimeError, match="crash in training"):
        run_stage("train-reader", cfg)
    assert {name: (out / name).read_bytes() for name in names} == before
    # the seed-99 examples do differ: a completed rerun writes them
    monkeypatch.undo()
    run_stage("train-reader", cfg)
    assert (out / names[0]).read_bytes() != before[names[0]]


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
    # each model's one tensor file is read once
    path.unlink()
    parsed.clear()
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or read_bytes(p))
    state = load_pipeline_state(cfg)
    assert parsed == []
    out = Path(cfg.output_dir) / "checkpoints"
    tensor_files = sorted(p for d in ("bridge", "reader") for p in (out / d).glob("*.bin"))
    assert len(tensor_files) == 2
    assert sorted(p for p in reads if p.suffix == ".bin") == tensor_files
    for model, directory in ((state.bridge, "bridge"), (state.reader, "reader")):
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


def _files(directory) -> dict:
    """Every file under directory, with its modification time and bytes."""
    return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in Path(directory).rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "name, stage",
    [("corpus.jsonl", "build-index"), ("questions_train.jsonl", "derive-labels"), ("questions_dev.jsonl", "predict")],
)
def test_a_malformed_ingested_file_names_ingest_as_the_stage_to_rerun(mini_run, tmp_path, capsys, name, stage):
    # on the parent the message ended at the field, naming no stage
    from dataclasses import asdict

    from bridgeqa.manifest import read_jsonl, write_jsonl

    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / name
    rows = read_jsonl(path)
    del rows[3]["id"]
    write_jsonl(path, rows)
    before = _files(cfg.output_dir)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert re.search(re.escape(name) + r" record 4: missing or non-string field 'id'; rerun ingest$", err.strip()), err
    assert _files(cfg.output_dir) == before


def _edit_folds(text, edit):
    """folds.json's text with fold A's question ids replaced by edit(them)."""
    folds = json.loads(text)
    return json.dumps({**folds, "A": edit(folds["A"])})


@pytest.mark.parametrize(
    "stage, name, damage, message",
    [
        ("train-bridge", "manifest.json", lambda text: "{}", r"manifest\.json"),
        ("build-index", "manifest.json", lambda text: text[: len(text) // 2], r"manifest\.json"),
        ("train-reader", "folds.json", lambda text: "[]", r"folds\.json.*rerun cross-predict"),
        ("train-reader", "folds.json", lambda text: text[: len(text) // 2], r"folds\.json.*rerun cross-predict"),
        # a fold given as one qid string, not a list, would be read as a set of characters
        ("train-reader", "folds.json", lambda text: _edit_folds(text, lambda qids: qids[0]),
         r"folds\.json: not a fold assignment.*rerun cross-predict"),
        ("train-reader", "folds.json", lambda text: _edit_folds(text, lambda qids: [len(qids)]),
         r"folds\.json: not a fold assignment.*rerun cross-predict"),
        # an object of qids would be read as the set of its keys
        ("train-reader", "folds.json", lambda text: _edit_folds(text, lambda qids: dict.fromkeys(qids, 1)),
         r"folds\.json: not a fold assignment.*rerun cross-predict"),
    ],
    ids=["manifest-not-a-list", "manifest-truncated", "folds-not-an-object", "folds-truncated", "fold-a-string",
         "fold-lists-a-number", "fold-an-object"],
)
def test_a_malformed_run_file_is_refused_before_the_stage_writes(mini_run, tmp_path, capsys, stage, name, damage,
                                                                 message):
    from dataclasses import asdict

    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / name
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    before = _files(cfg.output_dir)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main([stage, "--config", str(cfg_path)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert _files(cfg.output_dir) == before


def test_stages_retrieve_by_a_re_ingested_passage_text(mini_run, tmp_path, monkeypatch):
    # re-ingesting a corpus in which one passage keeps its id but gains a
    # question's words: answering's retrieval and train-bridge's start sets
    # rank by the new text, not by the text the run was built from
    from bridgeqa import pipeline
    from bridgeqa.ablation import PipelineState
    from bridgeqa.bridge import TitleTokenLinker
    from bridgeqa.manifest import read_jsonl
    from bridgeqa.retrieval import build_index, retrieve_start_passages

    state, train, _ = pipeline._load_state(mini_run)
    labeled = {row["qid"] for row in read_jsonl(Path(mini_run.output_dir) / "bridge_labels.jsonl")}
    question = next(q for q in train if q.id in labeled)
    old_ids = {p.id for p in pipeline._start_sets(state, [question])[question.id]}
    rows = [json.loads(line) for line in Path(mini_run.corpus_path).read_text(encoding="utf-8").splitlines()]
    row = next(row for row in rows if row["id"] not in old_ids)
    row["text"] += " " + question.question  # appended, so the anchors' offsets still hold
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    cfg = _run_copy(mini_run, tmp_path, corpus_path=str(corpus_path))
    run_stage("ingest", cfg)

    corpus = load_corpus(corpus_path)
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None
    fresh = PipelineState(corpus, build_index(corpus), cfg, linker=linker)
    want = pipeline._start_sets(fresh, [question])[question.id]
    assert row["id"] in [p.id for p in want]

    loaded = load_pipeline_state(cfg)
    got = retrieve_start_passages(loaded.index, question.question_tokens, cfg.k)
    assert got == retrieve_start_passages(fresh.index, question.question_tokens, cfg.k)
    assert row["id"] in [r.passage_id for r in got]

    seen = {}

    class Stop(Exception):
        pass

    def recording(model, inputs, corpus, train_cfg):
        seen.update((item.record.id, item.start_passages) for item in inputs)
        raise Stop

    monkeypatch.setattr(pipeline, "train_bridge_reasoner", recording)
    with pytest.raises(Stop):
        run_stage("train-bridge", cfg)
    assert seen[question.id] == want


@pytest.mark.parametrize("n_unreachable", [0, 2])
def test_bridge_train_log_counts_the_adam_steps_it_took(mini_run, tmp_path, monkeypatch, n_unreachable):
    # the benchmark divides by epochs_run x n_train_questions: at batch size
    # 1 that is the Adam steps train-bridge took, however many labels no
    # start passage anchors
    from bridgeqa import reader
    from bridgeqa.bridge import collect_candidates
    from bridgeqa.manifest import read_jsonl, write_jsonl
    from bridgeqa.pipeline import _load_state, _start_sets

    cfg = _run_copy(mini_run, tmp_path, batch_size=1)
    out = Path(cfg.output_dir)
    state, train, _ = _load_state(cfg)
    by_qid = {q.id: q for q in train}
    labels = read_jsonl(out / "bridge_labels.jsonl")
    for row in labels[:n_unreachable]:
        record = by_qid[row["qid"]]
        candidates = collect_candidates(_start_sets(state, [record])[record.id], state.corpus)
        anchored = {c.target_title for c in candidates}
        row["gold_title"] = next(p.title for p in state.corpus.passages if p.title not in anchored)
    write_jsonl(out / "bridge_labels.jsonl", labels)
    steps = []
    adam_step = reader.adam_step

    def counted(*args, **kwargs):
        steps.append(1)
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(reader, "adam_step", counted)
    run_stage("train-bridge", cfg)
    log = json.loads((out / "bridge_train_log.json").read_text())
    assert log["n_gold_missing"] == n_unreachable
    assert log["n_train_questions"] == len(labels) - n_unreachable
    assert len(steps) == log["epochs_run"] * log["n_train_questions"]
    assert all(isinstance(h["mean_loss"], float) for h in log["history"])


def test_reader_train_log_counts_the_examples_it_read(mini_run, tmp_path, monkeypatch):
    # the benchmark divides by epochs_run x n_examples and reads each
    # epoch's mean_loss
    from bridgeqa import reader

    cfg = _run_copy(mini_run, tmp_path)
    read = []
    reader_losses = reader.reader_losses

    def counted(model, batch, *args, **kwargs):
        read.append(len(batch))
        return reader_losses(model, batch, *args, **kwargs)

    monkeypatch.setattr(reader, "reader_losses", counted)
    run_stage("train-reader", cfg)
    log = json.loads((Path(cfg.output_dir) / "reader_train_log.json").read_text())["reader"]
    assert sum(read) == log["epochs_run"] * log["n_examples"]
    assert all(isinstance(h["mean_loss"], float) for h in log["history"])


@pytest.mark.parametrize("stage", ["train-bridge", "cross-predict"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[1].pop("gold_title"), r"line 2: missing or mistyped 'qid' or 'gold_title'"),
        (lambda rows: rows[0].update(qid=7), r"line 1: missing or mistyped 'qid' or 'gold_title'"),
        (lambda rows: rows[2].update(gold_title="No Such Page"), r"line 3: gold_title 'No Such Page' names no corpus"),
        (lambda rows: rows.append(dict(rows[0])), r"line \d+: repeated qid"),
    ],
    ids=["no-gold-title", "qid-not-a-string", "unknown-title", "repeated-qid"],
)
def test_a_malformed_labels_file_is_refused_before_the_stage_writes(mini_run, tmp_path, capsys, stage, edit, message):
    # on the parent a missing gold_title exits 3 with "error: 'gold_title'",
    # and a title no page has trains without a word
    from dataclasses import asdict

    from bridgeqa.manifest import read_jsonl, write_jsonl

    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / "bridge_labels.jsonl"
    rows = read_jsonl(path)
    edit(rows)
    write_jsonl(path, rows)
    before = _files(cfg.output_dir)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main([stage, "--config", str(cfg_path)]) == 1
    assert re.search(r"bridge_labels\.jsonl " + message + r".*; rerun derive-labels", capsys.readouterr().err)
    assert _files(cfg.output_dir) == before


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[0].pop("qid"), r"line 1: missing or mistyped 'qid'"),
        (lambda rows: rows[1].update(qid=7), r"line 2: missing or mistyped 'qid'"),
        (lambda rows: rows[0].update(predicted_by_fold="Z"), r"line 1: predicted_by_fold 'Z' is not a fold of folds\.json"),
        (lambda rows: rows[1].update(predicted_by_fold={"A": "B", "B": "A"}[rows[1]["predicted_by_fold"]]),
         r"line 2: predicted by fold '[AB]', which trained on '[^']+'"),
        (lambda rows: rows[0].update(qid="not-a-train-question", predicted_by_fold="A"),
         r"line 1: no fold of folds\.json holds 'not-a-train-question'"),
        (lambda rows: rows[0].update(titles="Grayfield"), r"line 1: missing or mistyped 'titles'"),
        (lambda rows: rows[2].update(titles=["Grayfield", "No Such Page"]),
         r"line 3: titles \['No Such Page'\] name no corpus page"),
        (lambda rows: rows.append(dict(rows[0])), r"line \d+: repeated qid"),
    ],
    ids=["no-qid", "qid-not-a-string", "unknown-fold", "own-fold", "no-fold-holds-the-qid", "titles-not-a-list",
         "unknown-title", "repeated-qid"],
)
def test_a_malformed_cross_predictions_file_is_refused_before_train_reader_writes(mini_run, tmp_path, capsys, edit,
                                                                                  message):
    # on the parent a row without qid exits 3 with "error: 'qid'", a title no
    # page has trains without a word, and an unknown fold trains until the
    # fold-hygiene check flags it afterwards
    from dataclasses import asdict

    from bridgeqa.manifest import read_jsonl, write_jsonl

    cfg = _run_copy(mini_run, tmp_path)
    path = Path(cfg.output_dir) / "cross_predictions.jsonl"
    rows = read_jsonl(path)
    edit(rows)
    write_jsonl(path, rows)
    before = _files(cfg.output_dir)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli_main(["train-reader", "--config", str(cfg_path)]) == 1
    assert re.search(r"cross_predictions\.jsonl " + message + r".*; rerun cross-predict", capsys.readouterr().err)
    assert _files(cfg.output_dir) == before


@pytest.mark.parametrize("unreachable", [False, True])
def test_cross_predict_records_each_folds_question_counts(mini_run, tmp_path, unreachable):
    # shaped like fold_seconds; fold B's counts come back from its child
    from bridgeqa.bridge import collect_candidates
    from bridgeqa.manifest import read_jsonl, write_jsonl
    from bridgeqa.pipeline import STAGES, _load_state, _start_sets

    cfg = _run_copy(mini_run, tmp_path)
    out = Path(cfg.output_dir)
    labels = read_jsonl(out / "bridge_labels.jsonl")
    relabeled = labels[0]["qid"] if unreachable else None
    if unreachable:
        state, train, _ = _load_state(cfg)
        record = next(q for q in train if q.id == relabeled)
        anchored = {c.target_title for c in collect_candidates(_start_sets(state, [record])[record.id], state.corpus)}
        assert "Grayfield" in state.corpus.by_title and "Grayfield" not in anchored
        labels[0]["gold_title"] = "Grayfield"
        write_jsonl(out / "bridge_labels.jsonl", labels)
        entry = run_stage("cross-predict", cfg)
    else:
        entry = read_manifest(out)[STAGES.index("cross-predict")]
    missing = {name: int(relabeled in qids) for name, qids in entry["folds"].items()}
    assert entry["n_gold_missing"] == missing
    assert sum(missing.values()) == int(unreachable)
    assert entry["n_train_questions"] == {name: len(qids) - missing[name] for name, qids in entry["folds"].items()}
    assert sorted(entry["fold_seconds"]) == ["A", "B"]


def _count_links(monkeypatch, refuse=False):
    """The questions TitleTokenLinker.link is called on; with refuse, a call
    raises instead, so one in cross-predict's forked child fails the stage."""
    from bridgeqa.bridge import TitleTokenLinker

    calls = []
    link = TitleTokenLinker.link

    def counted(self, question):
        if refuse:
            raise AssertionError("TitleTokenLinker.link called with linking off")
        calls.append(question)
        return link(self, question)

    monkeypatch.setattr(TitleTokenLinker, "link", counted)
    return calls


@pytest.mark.parametrize("linking", [True, False], ids=["linking-on", "linking-off"])
def test_each_answered_question_is_linked_once(mini_run, monkeypatch, linking):
    # its start set and its reader share one link; the parent links each
    # answered bridge question twice, 19 calls for the 11 dev questions
    state = load_pipeline_state(replace(mini_run, entity_linking=linking))
    _, _, dev = _load_ingested(mini_run)
    calls = _count_links(monkeypatch, refuse=not linking)
    predictions, skipped = predict_questions(state, dev, "full")
    assert len(predictions) == len(dev) and not skipped
    expected = [q.question_tokens for q in dev] if linking else []
    assert len(calls) == len(expected)
    assert calls == expected


def test_no_stage_links_with_entity_linking_off(fixture_dir, tmp_path, monkeypatch):
    from bridgeqa.pipeline import STAGES, run_all

    cfg = load_config(None, fixture_config(fixture_dir, tmp_path / "out", bridge_epochs=2, reader_epochs=2,
                                           entity_linking=False))
    _count_links(monkeypatch, refuse=True)
    results = run_all(cfg)
    assert list(results) == list(STAGES)
    assert results["predict"]["mode"] == "full" and results["predict"]["n_predictions"] > 0
