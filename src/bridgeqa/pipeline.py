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

from .ablation import PipelineState, predict_questions, score_predictions
from .bridge import (
    BridgeLabel,
    BridgeModel,
    BridgeTrainConfig,
    TitleTokenLinker,
    derive_bridge_labels,
    evaluate_hits,
    expand_with_entity_linking,
    init_bridge_model,
    predict_ranked_titles,
    prepare_question_inputs,
    train_bridge_reasoner,
)
from .checkpoint import checkpoint_digest, load_checkpoint, save_checkpoint
from .config import PipelineConfig, config_to_dict
from .corpus import Corpus, QARecord, load_corpus, load_questions, save_corpus, save_questions, tokenize
from .errors import ConfigError, MissingPrerequisiteError, ValidationError
from .manifest import append_manifest, file_sha256
from .reader import (
    ReaderExample,
    ReaderTrainConfig,
    make_reader_example,
    train_reader,
    two_fold_split,
)
from .retrieval import InvertedIndex, build_index, index_from_dict, index_to_dict, retrieve_start_passages
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


def _load_labels(cfg: PipelineConfig) -> list[BridgeLabel]:
    out = _out(cfg)
    path = _require(out / "bridge_labels.jsonl", "derive-labels")
    labels = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                labels.append(BridgeLabel(rec["qid"], rec["gold_title"]))
    return labels


def _vocab_for(cfg: PipelineConfig, corpus: Corpus, questions: list[QARecord]) -> dict[str, int]:
    sources = [p.tokens.tokens for p in corpus.passages]
    sources += [tokenize(p.title).tokens for p in corpus.passages]
    sources += [tokenize(q.question).tokens for q in questions]
    sources.append(("yes", "no"))
    return build_vocab(sources)


def _frozen_embeddings(cfg: PipelineConfig, vocab: dict[str, int]) -> tuple[dict[str, int], np.ndarray, int] | None:
    """When a pre-trained vector file is configured, restrict the vocabulary to
    covered tokens (others map to unk) and freeze the table."""
    if cfg.embeddings_path is None:
        return None
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


def _new_bridge_model(cfg: PipelineConfig, vocab: dict[str, int], seed_tag: int) -> BridgeModel:
    rng = np.random.default_rng([cfg.seed, 100 + seed_tag])
    frozen = _frozen_embeddings(cfg, vocab)
    if frozen is not None:
        vocab, matrix, dim = frozen
        return init_bridge_model(
            vocab, dim, cfg.gru_hidden, cfg.lstm_hidden, cfg.dropout, rng,
            frozen_embeddings=matrix, abstract_max_tokens=cfg.abstract_max_tokens,
        )
    return init_bridge_model(
        vocab, cfg.embed_dim, cfg.gru_hidden, cfg.lstm_hidden, cfg.dropout, rng,
        abstract_max_tokens=cfg.abstract_max_tokens,
    )


def _new_reader_model(cfg: PipelineConfig, vocab: dict[str, int], seed_tag: int) -> SpanModel:
    rng = np.random.default_rng([cfg.seed, 200 + seed_tag])
    frozen = _frozen_embeddings(cfg, vocab)
    if frozen is not None:
        vocab, matrix, dim = frozen
        return init_span_model(vocab, dim, cfg.gru_hidden, cfg.dropout, rng, frozen_embeddings=matrix)
    return init_span_model(vocab, cfg.embed_dim, cfg.gru_hidden, cfg.dropout, rng)


def _save_model(store, vocab: dict[str, int], directory: Path, extra: dict | None = None) -> str:
    save_checkpoint(store, directory)
    meta = {"vocab": vocab}
    meta.update(extra or {})
    (directory / "vocab.json").write_text(
        json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
    )
    return checkpoint_digest(directory)


def _load_vocab(directory: Path) -> dict[str, int]:
    meta = json.loads((directory / "vocab.json").read_text(encoding="utf-8"))
    return {tok: int(i) for tok, i in meta["vocab"].items()}


def _start_sets(
    cfg: PipelineConfig,
    corpus: Corpus,
    index: InvertedIndex,
    questions: list[QARecord],
    linker,
) -> dict[str, list]:
    sets = {}
    for q in questions:
        results = retrieve_start_passages(
            index, tokenize(q.question), cfg.k, k1=cfg.k1, b=cfg.b, title_weight=cfg.title_weight
        )
        passages = [corpus.by_id[r.passage_id] for r in results]
        if cfg.entity_linking and linker is not None:
            passages = passages + expand_with_entity_linking(
                q.question, linker, corpus, passages, top_n=cfg.top_n_el
            )
        sets[q.id] = passages
    return sets


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
    (out / "index.json").write_text(
        json.dumps(index_to_dict(index), sort_keys=True) + "\n", encoding="utf-8"
    )
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
    with open(out / "bridge_labels.jsonl", "w", encoding="utf-8") as fh:
        for lbl in labels:
            fh.write(json.dumps({"qid": lbl.question_id, "gold_title": lbl.gold_title}, sort_keys=True) + "\n")
    with open(out / "label_skips.jsonl", "w", encoding="utf-8") as fh:
        for rec in skipped:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
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
    corpus, train, dev = _load_ingested(cfg)
    index = _load_index(cfg)
    labels = _load_labels(cfg)
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None
    vocab = _vocab_for(cfg, corpus, train + dev)
    model = _new_bridge_model(cfg, vocab, seed_tag=0)
    bridge_questions = [q for q in train if q.qtype == "bridge"]
    start_sets = _start_sets(cfg, corpus, index, bridge_questions, linker)
    inputs = prepare_question_inputs(bridge_questions, labels, start_sets, corpus)
    stats = train_bridge_reasoner(
        model,
        inputs,
        corpus,
        BridgeTrainConfig(
            lr=cfg.lr,
            epochs=cfg.bridge_epochs,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
            early_stop_hits1=cfg.bridge_early_stop_hits1,
        ),
    )
    stats["final_train_hits1"] = evaluate_hits(model, inputs, corpus, k=1)
    digest = _save_model(model.store, model.table.vocab, out / "checkpoints" / "bridge")
    (out / "bridge_train_log.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
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
    corpus, train, dev = _load_ingested(cfg)
    index = _load_index(cfg)
    labels = _load_labels(cfg)
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None
    vocab = _vocab_for(cfg, corpus, train + dev)
    labeled_ids = {lbl.question_id for lbl in labels}
    bridge_questions = [q for q in train if q.qtype == "bridge" and q.id in labeled_ids]
    fold_a, fold_b = two_fold_split([q.id for q in bridge_questions], cfg.seed)
    folds = {"A": fold_a, "B": fold_b}
    by_qid = {q.id: q for q in bridge_questions}
    start_sets = _start_sets(cfg, corpus, index, bridge_questions, linker)

    predictions: dict[str, dict] = {}
    digests = {}
    for fold_name, other_name in (("A", "B"), ("B", "A")):
        fold_questions = [by_qid[qid] for qid in folds[fold_name]]
        inputs = prepare_question_inputs(fold_questions, labels, start_sets, corpus)
        model = _new_bridge_model(cfg, vocab, seed_tag=1 if fold_name == "A" else 2)
        train_bridge_reasoner(
            model,
            inputs,
            corpus,
            BridgeTrainConfig(
                lr=cfg.lr,
                epochs=cfg.bridge_epochs,
                batch_size=cfg.batch_size,
                seed=cfg.seed,
                early_stop_hits1=cfg.bridge_early_stop_hits1,
            ),
        )
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

    (out / "folds.json").write_text(json.dumps(folds, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with open(out / "cross_predictions.jsonl", "w", encoding="utf-8") as fh:
        for qid in sorted(predictions):
            fh.write(json.dumps(predictions[qid], sort_keys=True) + "\n")
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
    cfg: PipelineConfig,
    corpus: Corpus,
    index: InvertedIndex,
    train: list[QARecord],
    cross_preds: dict[str, dict],
    linker,
) -> tuple[list[ReaderExample], list[dict]]:
    examples: list[ReaderExample] = []
    skips: list[dict] = []
    for q in train:
        if q.qtype == "bridge":
            pred = cross_preds.get(q.id)
            if pred is None:
                skips.append({"qid": q.id, "reason": "no cross-prediction (unlabeled question)"})
                continue
            passages = [corpus.by_title[t] for t in pred["titles"] if t in corpus.by_title]
            if cfg.entity_linking and linker is not None:
                passages = passages + expand_with_entity_linking(
                    q.question, linker, corpus, passages, top_n=cfg.top_n_el
                )
            fold = pred["predicted_by_fold"]
        else:
            results = retrieve_start_passages(
                index, tokenize(q.question), cfg.k, k1=cfg.k1, b=cfg.b, title_weight=cfg.title_weight
            )
            passages = [corpus.by_id[r.passage_id] for r in results]
            if cfg.entity_linking and linker is not None:
                passages = passages + expand_with_entity_linking(
                    q.question, linker, corpus, passages, top_n=cfg.top_n_el
                )
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
    corpus, train, dev = _load_ingested(cfg)
    index = _load_index(cfg)
    _require(out / "cross_predictions.jsonl", "cross-predict")
    cross_preds = {}
    with open(out / "cross_predictions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                cross_preds[rec["qid"]] = rec
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None
    examples, skips = _build_reader_examples(cfg, corpus, index, train, cross_preds, linker)

    with open(out / "reader_examples.jsonl", "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(
                json.dumps(
                    {
                        "qid": ex.question_id,
                        "predicted_by_fold": ex.predicted_by_fold,
                        "titles": ex.context.titles,
                        "answer_span": list(ex.answer_span) if ex.answer_span else None,
                        "title_span": list(ex.title_span) if ex.title_span else None,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    with open(out / "reader_example_skips.jsonl", "w", encoding="utf-8") as fh:
        for rec in skips:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    vocab = _vocab_for(cfg, corpus, train + dev)
    reader_cfg = ReaderTrainConfig(
        lr=cfg.reader_lr if cfg.reader_lr is not None else cfg.lr,
        epochs=cfg.reader_epochs,
        batch_size=cfg.reader_batch_size if cfg.reader_batch_size is not None else cfg.batch_size,
        aux_weight=cfg.aux_weight,
        seed=cfg.seed,
        early_stop_em=cfg.reader_early_stop_em,
        max_answer_len=cfg.max_answer_len,
    )
    model = _new_reader_model(cfg, vocab, seed_tag=0)
    stats = train_reader(model, examples, reader_cfg)
    digest = _save_model(model.store, model.table.vocab, out / "checkpoints" / "reader")
    logs = {"reader": stats}

    if cfg.train_no_multitask_reader:
        nomt_cfg = ReaderTrainConfig(**{**reader_cfg.__dict__, "aux_weight": 0.0})
        nomt = _new_reader_model(cfg, vocab, seed_tag=1)
        logs["reader_no_multitask"] = train_reader(nomt, examples, nomt_cfg)
        _save_model(nomt.store, nomt.table.vocab, out / "checkpoints" / "reader_no_multitask")

    (out / "reader_train_log.json").write_text(
        json.dumps(logs, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
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
    out = _out(cfg)
    corpus, _, _ = _load_ingested(cfg)
    index = _load_index(cfg)
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None

    bridge_dir = out / "checkpoints" / "bridge"
    _require(bridge_dir / "manifest.json", "train-bridge")
    bridge_vocab = _load_vocab(bridge_dir)
    bridge = _new_bridge_model(cfg, bridge_vocab, seed_tag=0)
    load_checkpoint(bridge.store, bridge_dir)

    reader_dir = out / "checkpoints" / "reader"
    _require(reader_dir / "manifest.json", "train-reader")
    reader_vocab = _load_vocab(reader_dir)
    reader = _new_reader_model(cfg, reader_vocab, seed_tag=0)
    load_checkpoint(reader.store, reader_dir)

    reader_nomt = None
    nomt_dir = out / "checkpoints" / "reader_no_multitask"
    if (nomt_dir / "manifest.json").exists():
        reader_nomt = _new_reader_model(cfg, _load_vocab(nomt_dir), seed_tag=1)
        load_checkpoint(reader_nomt.store, nomt_dir)

    return PipelineState(
        corpus=corpus,
        index=index,
        cfg=cfg,
        bridge=bridge,
        reader=reader,
        reader_no_multitask=reader_nomt,
        linker=linker,
    )


def stage_predict(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state = load_pipeline_state(cfg)
    _, _, dev = _load_ingested(cfg)
    label_list, _ = derive_bridge_labels(dev, state.corpus, cfg.seed)
    labels = {lbl.question_id: lbl.gold_title for lbl in label_list}
    predictions, skipped = predict_questions(state, dev, cfg.mode, labels)
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for p in predictions:
            fh.write(
                json.dumps({"qid": p.qid, "answer": p.answer, "passages": p.passages}, sort_keys=True)
                + "\n"
            )
    with open(out / "predict_detail.jsonl", "w", encoding="utf-8") as fh:
        for p in predictions:
            fh.write(
                json.dumps(
                    {
                        "qid": p.qid,
                        "ranked_titles": p.ranked_titles,
                        "fallback": p.fallback,
                        "mode": cfg.mode,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        for rec in skipped:
            fh.write(json.dumps({"qid": rec["qid"], "skipped": rec["reason"], "mode": cfg.mode}, sort_keys=True) + "\n")
    with open(out / "candidates.jsonl", "w", encoding="utf-8") as fh:
        for p in predictions:
            if p.ranked_scored:
                fh.write(
                    json.dumps(
                        {
                            "qid": p.qid,
                            "candidates": [{"title": t, "score": s} for t, s in p.ranked_scored],
                        },
                        sort_keys=True,
                    )
                    + "\n"
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
    pred_path = out / "predictions.jsonl"
    if not pred_path.exists():
        raise MissingPrerequisiteError("predictions not found; run predict")
    detail_path = _require(out / "predict_detail.jsonl", "predict")
    details = {}
    skipped = []
    modes = set()
    with open(detail_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
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
    from .reader import Prediction

    predictions = []
    with open(pred_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
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
    (out / "report.json").write_text(
        json.dumps(report.aggregates(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(out / "report_detail.jsonl", "w", encoding="utf-8") as fh:
        for row in report.to_dict()["per_question"]:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
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
