"""Stage-wise pipeline orchestration over one output directory.

Stages (in dependency order): ingest, build-index, derive-labels,
train-bridge, cross-predict, train-reader, predict, evaluate. Each stage
reads only prior artifacts from the output directory, writes its own, and
appends a manifest entry; later stages reload checkpoints from disk, so two
runs with the same config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

from .ablation import (
    PipelineState,
    answer_passages_for,
    predict_questions,
    score_predictions,
    start_passages_for,
)
from .bridge import (
    BridgeLabel,
    BridgeModel,
    BridgeTrainConfig,
    TitleTokenLinker,
    derive_bridge_labels,
    evaluate_hits,
    expand_with_entity_linking,  # noqa: F401 - bench/layers.py traces pipeline.expand_with_entity_linking
    init_bridge_model,
    predict_ranked_titles,
    prepare_question_inputs,
    train_bridge_reasoner,
)
from .checkpoint import checkpoint_digest, load_checkpoint, load_checkpoint_arrays, save_checkpoint
from .config import PipelineConfig, config_to_dict
from .corpus import Corpus, Passage, QARecord, load_corpus, load_questions, save_corpus, save_questions, tokenize
from .errors import ConfigError, MissingPrerequisiteError, ValidationError
from .manifest import append_manifest, atomic_write, file_sha256
from .reader import (
    Prediction,
    ReaderExample,
    ReaderTrainConfig,
    make_reader_example,
    train_reader,
    two_fold_split,
)
from .retrieval import (
    InvertedIndex,
    build_index,
    index_from_dict,
    index_to_dict,
    retrieve_start_passages,  # noqa: F401 - bench/layers.py traces pipeline.retrieve_start_passages
)
from .span_model import SpanModel, build_vocab, init_span_model, load_embedding_text

log = logging.getLogger(__name__)

STAGES = (
    "ingest",
    "build-index",
    "derive-labels",
    "train-bridge",
    "cross-predict",
    "train-reader",
    "predict",
    "evaluate",
)


def _out(cfg: PipelineConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise MissingPrerequisiteError(f"{path.name} not found; run {produced_by}")
    return path


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_jsonl(path: Path, rows) -> None:
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_json(path: Path, obj, indent: int | None = None) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=indent, sort_keys=True) + "\n")


def _load_ingested(cfg: PipelineConfig) -> tuple[Corpus, list[QARecord], list[QARecord]]:
    out = _out(cfg)
    corpus = load_corpus(_require(out / "corpus.jsonl", "ingest"))
    train = load_questions(_require(out / "questions_train.jsonl", "ingest"))
    dev = load_questions(_require(out / "questions_dev.jsonl", "ingest"))
    return corpus, train, dev


def _load_index(cfg: PipelineConfig) -> InvertedIndex:
    out = _out(cfg)
    path = _require(out / "index.json", "build-index")
    return index_from_dict(json.loads(path.read_text(encoding="utf-8")))


def _load_state(cfg: PipelineConfig) -> tuple[PipelineState, list[QARecord], list[QARecord]]:
    """The corpus, index and linker as a model-less state, plus the train and
    dev questions."""
    corpus, train, dev = _load_ingested(cfg)
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None
    return PipelineState(corpus, _load_index(cfg), cfg, linker=linker), train, dev


def _load_labels(cfg: PipelineConfig) -> list[BridgeLabel]:
    path = _require(_out(cfg) / "bridge_labels.jsonl", "derive-labels")
    return [BridgeLabel(rec["qid"], rec["gold_title"]) for rec in _read_jsonl(path)]


def _embedding(
    cfg: PipelineConfig, corpus: Corpus, questions: list[QARecord]
) -> tuple[dict[str, int], np.ndarray | None, int]:
    """(vocabulary, frozen table, width) of the embedding layer. The
    vocabulary covers the corpus's passages and titles, the questions and
    the yes/no answers. When a pre-trained vector file is configured, it is
    restricted to covered tokens (others map to unk) and the table is frozen;
    otherwise the table is trained and no matrix is given."""
    sources = [p.tokens.tokens for p in corpus.passages]
    sources += [tokenize(p.title).tokens for p in corpus.passages]
    sources += [tokenize(q.question).tokens for q in questions]
    sources.append(("yes", "no"))
    vocab = build_vocab(sources)
    if cfg.embeddings_path is None:
        return vocab, None, cfg.embed_dim
    tokens, matrix = load_embedding_text(cfg.embeddings_path)
    dim = matrix.shape[1]
    by_token = {}
    for tok, vec in zip(tokens, matrix):
        by_token.setdefault(tok, vec)
    new_vocab = {"<unk>": 0}
    rows = [matrix.mean(axis=0)]
    for tok in sorted(vocab):
        if tok in by_token and tok not in new_vocab:
            new_vocab[tok] = len(rows)
            rows.append(by_token[tok])
    return new_vocab, np.stack(rows), dim


def _new_bridge_model(cfg: PipelineConfig, embedding: tuple, seed_tag: int) -> BridgeModel:
    rng = np.random.default_rng([cfg.seed, 100 + seed_tag])
    vocab, matrix, dim = embedding
    return init_bridge_model(
        vocab, dim, cfg.gru_hidden, cfg.lstm_hidden, cfg.dropout, rng,
        frozen_embeddings=matrix, abstract_max_tokens=cfg.abstract_max_tokens,
    )


def _new_reader_model(cfg: PipelineConfig, embedding: tuple, seed_tag: int) -> SpanModel:
    rng = np.random.default_rng([cfg.seed, 200 + seed_tag])
    vocab, matrix, dim = embedding
    return init_span_model(vocab, dim, cfg.gru_hidden, cfg.dropout, rng, frozen_embeddings=matrix)


def _save_model(store, vocab: dict[str, int], directory: Path) -> str:
    save_checkpoint(store, directory)
    _write_json(directory / "vocab.json", {"vocab": vocab})
    return checkpoint_digest(directory)


def _load_vocab(directory: Path) -> dict[str, int]:
    meta = json.loads((directory / "vocab.json").read_text(encoding="utf-8"))
    return {tok: int(i) for tok, i in meta["vocab"].items()}


def _load_model(new_model, cfg: PipelineConfig, directory: Path, seed_tag: int):
    # vocab.json holds the restricted vocabulary and the checkpoint the frozen
    # table, so the vector file is not read again
    matrix, dim = None, cfg.embed_dim
    if cfg.embeddings_path is not None:
        matrix = load_checkpoint_arrays(directory)["embed/matrix"]
        dim = matrix.shape[1]
    model = new_model(cfg, (_load_vocab(directory), matrix, dim), seed_tag=seed_tag)
    load_checkpoint(model.store, directory)
    return model


def _start_sets(state: PipelineState, questions: list[QARecord]) -> dict[str, list[Passage]]:
    return {
        q.id: start_passages_for(state, q, use_entity_linking=state.cfg.entity_linking)
        for q in questions
    }


def _bridge_train_config(cfg: PipelineConfig) -> BridgeTrainConfig:
    return BridgeTrainConfig(
        lr=cfg.lr,
        epochs=cfg.bridge_epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        early_stop_hits1=cfg.bridge_early_stop_hits1,
    )


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: PipelineConfig) -> dict:
    if cfg.corpus_path is None or cfg.train_questions_path is None:
        raise ConfigError("ingest needs corpus_path and train_questions_path")
    out = _out(cfg)
    corpus = load_corpus(cfg.corpus_path)
    train = load_questions(cfg.train_questions_path)
    dev = load_questions(cfg.dev_questions_path) if cfg.dev_questions_path else []
    save_corpus(corpus, out / "corpus.jsonl")
    save_questions(train, out / "questions_train.jsonl")
    save_questions(dev, out / "questions_dev.jsonl")
    entry = {
        "stage": "ingest",
        "config": config_to_dict(cfg),
        "n_passages": len(corpus),
        "n_train_questions": len(train),
        "n_dev_questions": len(dev),
        "input_hashes": {
            "corpus": file_sha256(cfg.corpus_path),
            "train_questions": file_sha256(cfg.train_questions_path),
            "dev_questions": file_sha256(cfg.dev_questions_path) if cfg.dev_questions_path else None,
        },
    }
    append_manifest(out, entry)
    return entry


def stage_build_index(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    corpus, _, _ = _load_ingested(cfg)
    index = build_index(corpus)
    _write_json(out / "index.json", index_to_dict(index))
    entry = {
        "stage": "build-index",
        "n_documents": index.N,
        "n_terms": len(index.body.postings),
        "artifact": "index.json",
    }
    append_manifest(out, entry)
    return entry


def stage_derive_labels(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    corpus, train, _ = _load_ingested(cfg)
    labels, skipped = derive_bridge_labels(train, corpus, cfg.seed)
    _write_jsonl(
        out / "bridge_labels.jsonl",
        ({"qid": lbl.question_id, "gold_title": lbl.gold_title} for lbl in labels),
    )
    _write_jsonl(out / "label_skips.jsonl", skipped)
    entry = {
        "stage": "derive-labels",
        "n_labels": len(labels),
        "n_skipped": len(skipped),
        "seed": cfg.seed,
    }
    append_manifest(out, entry)
    return entry


def stage_train_bridge(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state, train, dev = _load_state(cfg)
    labels = _load_labels(cfg)
    corpus = state.corpus
    model = _new_bridge_model(cfg, _embedding(cfg, corpus, train + dev), seed_tag=0)
    bridge_questions = [q for q in train if q.qtype == "bridge"]
    inputs = prepare_question_inputs(bridge_questions, labels, _start_sets(state, bridge_questions), corpus)
    stats = train_bridge_reasoner(model, inputs, corpus, _bridge_train_config(cfg))
    stats["final_train_hits1"] = evaluate_hits(model, inputs, corpus, k=1)
    digest = _save_model(model.store, model.table.vocab, out / "checkpoints" / "bridge")
    _write_json(out / "bridge_train_log.json", stats, indent=2)
    entry = {
        "stage": "train-bridge",
        "checkpoint": "checkpoints/bridge",
        "checkpoint_digest": digest,
        "epochs_run": stats["epochs_run"],
        "final_train_hits1": stats["final_train_hits1"],
        "seed": cfg.seed,
    }
    append_manifest(out, entry)
    return entry


def stage_cross_predict(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state, train, dev = _load_state(cfg)
    labels = _load_labels(cfg)
    corpus = state.corpus
    embedding = _embedding(cfg, corpus, train + dev)
    labeled_ids = {lbl.question_id for lbl in labels}
    bridge_questions = [q for q in train if q.qtype == "bridge" and q.id in labeled_ids]
    fold_a, fold_b = two_fold_split([q.id for q in bridge_questions], cfg.seed)
    folds = {"A": fold_a, "B": fold_b}
    by_qid = {q.id: q for q in bridge_questions}
    start_sets = _start_sets(state, bridge_questions)

    predictions: dict[str, dict] = {}
    digests = {}
    for fold_name, other_name in (("A", "B"), ("B", "A")):
        fold_questions = [by_qid[qid] for qid in folds[fold_name]]
        inputs = prepare_question_inputs(fold_questions, labels, start_sets, corpus)
        model = _new_bridge_model(cfg, embedding, seed_tag=1 if fold_name == "A" else 2)
        train_bridge_reasoner(model, inputs, corpus, _bridge_train_config(cfg))
        digests[fold_name] = _save_model(
            model.store, model.table.vocab, out / "checkpoints" / f"bridge_fold_{fold_name.lower()}"
        )
        for qid in folds[other_name]:
            q = by_qid[qid]
            ranked = predict_ranked_titles(
                model, q, start_sets[q.id], corpus, k=cfg.reader_max_passages
            )
            predictions[qid] = {
                "qid": qid,
                "predicted_by_fold": fold_name,
                "titles": [t for t, _ in ranked],
            }

    _write_json(out / "folds.json", folds, indent=2)
    _write_jsonl(out / "cross_predictions.jsonl", (predictions[qid] for qid in sorted(predictions)))
    entry = {
        "stage": "cross-predict",
        "folds": folds,
        "fold_checkpoints": {
            "A": "checkpoints/bridge_fold_a",
            "B": "checkpoints/bridge_fold_b",
        },
        "checkpoint_digests": digests,
        "n_cross_predictions": len(predictions),
        "seed": cfg.seed,
    }
    append_manifest(out, entry)
    return entry


def _build_reader_examples(
    state: PipelineState,
    train: list[QARecord],
    cross_preds: dict[str, dict],
) -> tuple[list[ReaderExample], list[dict]]:
    cfg = state.cfg
    examples: list[ReaderExample] = []
    skips: list[dict] = []
    for q in train:
        if q.qtype == "bridge":
            pred = cross_preds.get(q.id)
            if pred is None:
                skips.append({"qid": q.id, "reason": "no cross-prediction (unlabeled question)"})
                continue
            passages = answer_passages_for(state, q, pred["titles"], use_entity_linking=cfg.entity_linking)
            fold = pred["predicted_by_fold"]
        else:
            passages = start_passages_for(state, q, use_entity_linking=cfg.entity_linking)
            passages = passages[: cfg.reader_max_passages]
            fold = None
        example, reason = make_reader_example(
            q,
            passages,
            max_tokens=cfg.reader_context_cap,
            max_answer_len=cfg.max_answer_len,
            predicted_by_fold=fold,
        )
        if example is None:
            skips.append({"qid": q.id, "reason": reason})
        else:
            examples.append(example)
    return examples, skips


def stage_train_reader(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state, train, dev = _load_state(cfg)
    cross_path = _require(out / "cross_predictions.jsonl", "cross-predict")
    cross_preds = {rec["qid"]: rec for rec in _read_jsonl(cross_path)}
    examples, skips = _build_reader_examples(state, train, cross_preds)
    _write_jsonl(
        out / "reader_examples.jsonl",
        (
            {
                "qid": ex.question_id,
                "predicted_by_fold": ex.predicted_by_fold,
                "titles": ex.context.titles,
                "answer_span": list(ex.answer_span) if ex.answer_span else None,
                "title_span": list(ex.title_span) if ex.title_span else None,
            }
            for ex in examples
        ),
    )
    _write_jsonl(out / "reader_example_skips.jsonl", skips)

    embedding = _embedding(cfg, state.corpus, train + dev)
    reader_cfg = ReaderTrainConfig(
        lr=cfg.reader_lr if cfg.reader_lr is not None else cfg.lr,
        epochs=cfg.reader_epochs,
        batch_size=cfg.reader_batch_size if cfg.reader_batch_size is not None else cfg.batch_size,
        aux_weight=cfg.aux_weight,
        seed=cfg.seed,
        early_stop_em=cfg.reader_early_stop_em,
        max_answer_len=cfg.max_answer_len,
    )
    model = _new_reader_model(cfg, embedding, seed_tag=0)
    stats = train_reader(model, examples, reader_cfg)
    digest = _save_model(model.store, model.table.vocab, out / "checkpoints" / "reader")
    logs = {"reader": stats}

    if cfg.train_no_multitask_reader:
        nomt_cfg = ReaderTrainConfig(**{**reader_cfg.__dict__, "aux_weight": 0.0})
        nomt = _new_reader_model(cfg, embedding, seed_tag=1)
        logs["reader_no_multitask"] = train_reader(nomt, examples, nomt_cfg)
        _save_model(nomt.store, nomt.table.vocab, out / "checkpoints" / "reader_no_multitask")

    _write_json(out / "reader_train_log.json", logs, indent=2)
    entry = {
        "stage": "train-reader",
        "checkpoint": "checkpoints/reader",
        "checkpoint_digest": digest,
        "n_examples": len(examples),
        "n_skipped": len(skips),
        "epochs_run": stats["epochs_run"],
        "aux_weight": cfg.aux_weight,
        "seed": cfg.seed,
    }
    append_manifest(out, entry)
    return entry


def load_pipeline_state(cfg: PipelineConfig) -> PipelineState:
    """Assemble trained components from the output directory's checkpoints."""
    checkpoints = _out(cfg) / "checkpoints"
    state, _, _ = _load_state(cfg)
    _require(checkpoints / "bridge" / "manifest.json", "train-bridge")
    state.bridge = _load_model(_new_bridge_model, cfg, checkpoints / "bridge", seed_tag=0)
    _require(checkpoints / "reader" / "manifest.json", "train-reader")
    state.reader = _load_model(_new_reader_model, cfg, checkpoints / "reader", seed_tag=0)
    nomt_dir = checkpoints / "reader_no_multitask"
    if (nomt_dir / "manifest.json").exists():
        state.reader_no_multitask = _load_model(_new_reader_model, cfg, nomt_dir, seed_tag=1)
    return state


def stage_predict(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state = load_pipeline_state(cfg)
    dev = load_questions(_require(out / "questions_dev.jsonl", "ingest"))
    label_list, _ = derive_bridge_labels(dev, state.corpus, cfg.seed)
    labels = {lbl.question_id: lbl.gold_title for lbl in label_list}
    predictions, skipped = predict_questions(state, dev, cfg.mode, labels)
    _write_jsonl(
        out / "predictions.jsonl",
        ({"qid": p.qid, "answer": p.answer, "passages": p.passages} for p in predictions),
    )
    _write_jsonl(
        out / "predict_detail.jsonl",
        [
            {"qid": p.qid, "ranked_titles": p.ranked_titles, "fallback": p.fallback, "mode": cfg.mode}
            for p in predictions
        ]
        + [{"qid": rec["qid"], "skipped": rec["reason"], "mode": cfg.mode} for rec in skipped],
    )
    _write_jsonl(
        out / "candidates.jsonl",
        (
            {"qid": p.qid, "candidates": [{"title": t, "score": s} for t, s in p.ranked_scored]}
            for p in predictions
            if p.ranked_scored
        ),
    )
    entry = {
        "stage": "predict",
        "mode": cfg.mode,
        "n_predictions": len(predictions),
        "n_skipped": len(skipped),
        "seed": cfg.seed,
    }
    append_manifest(out, entry)
    return entry


def stage_evaluate(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    corpus, _, dev = _load_ingested(cfg)
    pred_path = _require(out / "predictions.jsonl", "predict")
    detail_path = _require(out / "predict_detail.jsonl", "predict")
    details = {}
    skipped = []
    modes = set()
    for rec in _read_jsonl(detail_path):
        modes.add(rec["mode"])
        if "skipped" in rec:
            skipped.append({"qid": rec["qid"], "reason": rec["skipped"]})
        else:
            details[rec["qid"]] = rec
    if len(modes) > 1:
        raise ValidationError(f"{detail_path} mixes predictions of modes {sorted(modes)}; rerun predict")
    # the report describes the mode the predictions were made under; an
    # empty question set leaves nothing to read it from
    mode = modes.pop() if modes else cfg.mode
    predictions = []
    for rec in _read_jsonl(pred_path):
        det = details.get(rec["qid"], {})
        predictions.append(
            Prediction(
                qid=rec["qid"],
                answer=rec["answer"],
                passages=rec["passages"],
                ranked_titles=det.get("ranked_titles", rec["passages"]),
                fallback=det.get("fallback", False),
            )
        )
    label_list, _ = derive_bridge_labels(dev, corpus, cfg.seed)
    labels = {lbl.question_id: lbl.gold_title for lbl in label_list}
    report = score_predictions(predictions, dev, mode, labels, skipped)
    _write_json(out / "report.json", report.aggregates(), indent=2)
    _write_jsonl(out / "report_detail.jsonl", report.to_dict()["per_question"])
    entry = {
        "stage": "evaluate",
        "mode": mode,
        "aggregates": report.aggregates(),
        "artifacts": ["report.json", "report_detail.jsonl"],
    }
    append_manifest(out, entry)
    return entry


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "build-index": stage_build_index,
    "derive-labels": stage_derive_labels,
    "train-bridge": stage_train_bridge,
    "cross-predict": stage_cross_predict,
    "train-reader": stage_train_reader,
    "predict": stage_predict,
    "evaluate": stage_evaluate,
}


def run_stage(stage: str, cfg: PipelineConfig) -> dict:
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    return _STAGE_FUNCS[stage](cfg)


def run_all(cfg: PipelineConfig, stages: tuple[str, ...] = STAGES) -> dict[str, dict]:
    results = {}
    for stage in stages:
        log.info("running stage %s", stage)
        results[stage] = run_stage(stage, cfg)
    return results
