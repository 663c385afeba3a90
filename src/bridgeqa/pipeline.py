"""Stage-wise pipeline orchestration over one output directory.

Stages (in dependency order): ingest, build-index, derive-labels,
train-bridge, cross-predict, train-reader, predict, evaluate. Each stage
reads only prior artifacts from the output directory, writes its own, and
returns its manifest entry, which run_stage appends; later stages reload
checkpoints from disk, so two runs with the same config and seed produce
byte-identical artifacts. The index is not an artifact: every stage that
retrieves builds it from the corpus.jsonl it loads, and build-index only
reports its size.

cross-predict trains its two fold reasoners at once: fold B in a forked
child, on the second core when there is one, fold A in this process. The
folds share only read-only inputs and draw from their own rng streams, so
the outputs are byte-identical to training them in sequence. Forking makes
the stage POSIX-only, as `resource` already makes the package. The entry's
`peak_rss_mb` is this process's alone; the child's peak RSS is recorded in
the entry's own `fold_b_peak_rss_mb`.
"""

from __future__ import annotations

import logging
import multiprocessing
import resource
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .ablation import (
    PipelineState,
    linked_passages,
    predict_questions,
    reader_passages,
    score_predictions,
    start_passages_for,
)
from .bridge import (
    BridgeLabel,
    BridgeModel,
    TitleTokenLinker,
    derive_bridge_labels,
    evaluate_hits,
    expand_with_entity_linking,  # noqa: F401 - bench/layers.py traces pipeline.expand_with_entity_linking
    gold_titles,
    init_bridge_model,
    predict_ranked_titles,
    prepare_question_inputs,
    train_bridge_reasoner,
)
from .checkpoint import checkpoint_digest, load_checkpoint, restore, save_checkpoint
from .config import ABLATION_MODES, PipelineConfig, evidence_for
from .corpus import Corpus, Passage, QARecord, load_corpus, load_questions, save_corpus, save_questions
from .errors import CheckpointError, ConfigError, MissingPrerequisiteError, ValidationError
from .manifest import (
    append_manifest,
    file_sha256,
    fold_violation,
    iter_jsonl,
    read_folds,
    read_manifest,
    write_json,
    write_jsonl,
)
from .metrics import hits_at_k
from .reader import (
    Prediction,
    ReaderExample,
    make_reader_example,
    train_reader,
    two_fold_split,
)
from .retrieval import (
    build_index,
    retrieve_start_passages,  # noqa: F401 - bench/layers.py traces pipeline.retrieve_start_passages
)
from .span_model import (
    EMBED_DIM,
    READER_MEMO_CONTEXTS,
    EncodingMemo,
    SpanModel,
    build_vocab,
    init_span_model,
    load_embedding_text,
)

log = logging.getLogger(__name__)


def _out(cfg: PipelineConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise MissingPrerequisiteError(f"{path.name} not found; run {produced_by}")
    return path


def _read_ingested(cfg: PipelineConfig, name: str, load):
    """load applied to the ingested file name; a malformed file is refused
    naming ingest as the stage to rerun."""
    path = _require(_out(cfg) / name, "ingest")
    try:
        return load(path)
    except ValidationError as exc:
        raise ValidationError(f"{exc}; rerun ingest") from exc


def _load_ingested(cfg: PipelineConfig) -> tuple[Corpus, list[QARecord], list[QARecord]]:
    corpus = _read_ingested(cfg, "corpus.jsonl", load_corpus)
    train = _read_ingested(cfg, "questions_train.jsonl", load_questions)
    dev = _read_ingested(cfg, "questions_dev.jsonl", load_questions)
    return corpus, train, dev


def _load_state(cfg: PipelineConfig) -> tuple[PipelineState, list[QARecord], list[QARecord]]:
    """The corpus, index and linker as a model-less state, plus the train and
    dev questions. The index is built from the corpus just loaded, so it
    always describes corpus.jsonl's texts; no stage reads an index file."""
    corpus, train, dev = _load_ingested(cfg)
    linker = TitleTokenLinker(corpus) if cfg.entity_linking else None
    return PipelineState(corpus, build_index(corpus), cfg, linker=linker), train, dev


def _load_labels(cfg: PipelineConfig, corpus: Corpus) -> list[BridgeLabel]:
    """The derived labels; a row without a string qid and gold_title, a
    gold_title that names no corpus page, or a repeated qid is refused."""
    path = _require(_out(cfg) / "bridge_labels.jsonl", "derive-labels")
    labels: dict[str, BridgeLabel] = {}
    for line_no, row in iter_jsonl(path):
        qid, title = row.get("qid"), row.get("gold_title")
        if not (isinstance(qid, str) and isinstance(title, str)):
            problem = "missing or mistyped 'qid' or 'gold_title'"
        elif title not in corpus.by_title:
            problem = f"gold_title {title!r} names no corpus page"
        elif qid in labels:
            problem = f"repeated qid {qid!r}"
        else:
            labels[qid] = BridgeLabel(qid, title)
            continue
        raise ValidationError(f"{path} line {line_no}: {problem}; rerun derive-labels")
    return list(labels.values())


def _load_cross_predictions(cfg: PipelineConfig, corpus: Corpus) -> dict[str, dict]:
    """The cross-predicted rows by qid; a folds.json that does not map each
    fold to a list of question ids, a row that does not fit folds.json and
    the corpus, or a repeated qid is refused."""
    out = _out(cfg)
    path = _require(out / "cross_predictions.jsonl", "cross-predict")
    folds_path = _require(out / "folds.json", "cross-predict")
    try:
        folds = read_folds(folds_path)
    except ValidationError as exc:
        raise ValidationError(f"{exc}; rerun cross-predict") from exc
    rows: dict[str, dict] = {}
    for line_no, row in iter_jsonl(path):
        qid, fold, titles = row.get("qid"), row.get("predicted_by_fold"), row.get("titles")
        if not isinstance(qid, str):
            problem = "missing or mistyped 'qid'"
        elif problem := fold_violation(folds, qid, fold):
            pass
        elif not (isinstance(titles, list) and all(isinstance(t, str) for t in titles)):
            problem = "missing or mistyped 'titles'"
        elif not set(titles) <= corpus.by_title.keys():
            problem = f"titles {sorted(set(titles) - corpus.by_title.keys())} name no corpus page"
        elif qid in rows:
            problem = f"repeated qid {qid!r}"
        else:
            rows[qid] = row
            continue
        raise ValidationError(f"{path} line {line_no}: {problem}; rerun cross-predict")
    return rows


def _embedding(
    cfg: PipelineConfig, corpus: Corpus, questions: list[QARecord]
) -> tuple[dict[str, int], np.ndarray | None, int]:
    """(vocabulary, frozen table, width) of the embedding layer. The
    vocabulary covers the corpus's passages and titles, the questions and
    the yes/no answers. When a pre-trained vector file is configured, it is
    restricted to covered tokens (others map to unk) and the table is frozen;
    otherwise the table is trained and no matrix is given."""
    sources = [p.tokens.tokens for p in corpus.passages]
    sources += [p.title_tokens.tokens for p in corpus.passages]
    sources += [q.question_tokens.tokens for q in questions]
    sources.append(("yes", "no"))
    vocab = build_vocab(sources)
    if cfg.embeddings_path is None:
        return vocab, None, EMBED_DIM
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


def _new_bridge_model(cfg: PipelineConfig, embedding: tuple, seed_tag: int = 0) -> BridgeModel:
    """The reasoner, of cfg.mode's evidence, that train-bridge (seed_tag 0) or fold A or B (1, 2) trains."""
    rng = np.random.default_rng([cfg.seed, 100 + seed_tag])
    vocab, matrix, dim = embedding
    return init_bridge_model(
        vocab, dim, cfg.gru_hidden, cfg.lstm_hidden, cfg.dropout, rng,
        frozen_embeddings=matrix, abstract_max_tokens=cfg.abstract_max_tokens, evidence=evidence_for(cfg.mode)
    )


def _new_reader_model(cfg: PipelineConfig, embedding: tuple) -> SpanModel:
    rng = np.random.default_rng([cfg.seed, 200])
    vocab, matrix, dim = embedding
    return init_span_model(vocab, dim, cfg.gru_hidden, cfg.dropout, rng, frozen_embeddings=matrix)


def _save_model(model, directory: Path) -> str:
    save_checkpoint(model.store, directory, model.table.vocab)
    return checkpoint_digest(directory)


def _load_model(new_model, cfg: PipelineConfig, directory: Path, produced_by: str):
    _require(directory / "manifest.json", produced_by)
    try:
        arrays, vocab = load_checkpoint(directory)
        # the checkpoint holds the restricted vocabulary and the frozen table,
        # so the vector file is not read again
        matrix, dim = None, EMBED_DIM
        if cfg.embeddings_path is not None:
            matrix = arrays["embed/matrix"]
            dim = matrix.shape[1]
        model = new_model(cfg, (vocab, matrix, dim))
        restore(model.store, arrays)
    except CheckpointError as exc:
        raise CheckpointError(f"{exc}; rerun {produced_by}") from exc
    return model


def _start_sets(state: PipelineState, questions: list[QARecord]) -> dict[str, list[Passage]]:
    return {q.id: start_passages_for(state, q, linked_passages(state, q)) for q in questions}


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
    return {
        "config": asdict(cfg),
        "n_passages": len(corpus),
        "n_train_questions": len(train),
        "n_dev_questions": len(dev),
        "input_hashes": {
            "corpus": file_sha256(cfg.corpus_path),
            "train_questions": file_sha256(cfg.train_questions_path),
            "dev_questions": file_sha256(cfg.dev_questions_path) if cfg.dev_questions_path else None,
        },
    }


def stage_build_index(cfg: PipelineConfig) -> dict:
    """Index the ingested corpus and record its size. It writes no file:
    every stage that retrieves builds the same index from the corpus it
    loads, so no later stage depends on this one."""
    corpus, _, _ = _load_ingested(cfg)
    index = build_index(corpus)
    return {"n_documents": index.N, "n_terms": len(index.body.term_id)}


def stage_derive_labels(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    corpus, train, _ = _load_ingested(cfg)
    labels, skipped = derive_bridge_labels(train, corpus, cfg.seed)
    write_jsonl(
        out / "bridge_labels.jsonl",
        ({"qid": lbl.question_id, "gold_title": lbl.gold_title} for lbl in labels),
    )
    write_jsonl(out / "label_skips.jsonl", skipped)
    return {"n_labels": len(labels), "n_skipped": len(skipped), "seed": cfg.seed}


def stage_train_bridge(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state, train, dev = _load_state(cfg)
    labels = _load_labels(cfg, state.corpus)
    corpus = state.corpus
    model = _new_bridge_model(cfg, _embedding(cfg, corpus, train + dev))
    bridge_questions = [q for q in train if q.qtype == "bridge"]
    inputs = prepare_question_inputs(bridge_questions, labels, _start_sets(state, bridge_questions), corpus)
    stats = train_bridge_reasoner(model, inputs, corpus, cfg)
    stats["final_train_hits1"] = evaluate_hits(model, inputs, corpus)
    digest = _save_model(model, out / "checkpoints" / "bridge")
    write_json(out / "bridge_train_log.json", stats, indent=2)
    return {
        "checkpoint": "checkpoints/bridge",
        "checkpoint_digest": digest,
        "epochs_run": stats["epochs_run"],
        "final_train_hits1": stats["final_train_hits1"],
        "evidence": list(model.evidence),
        "seed": cfg.seed,
    }


def stage_cross_predict(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state, train, dev = _load_state(cfg)
    labels = _load_labels(cfg, state.corpus)
    corpus = state.corpus
    embedding = _embedding(cfg, corpus, train + dev)
    labeled_ids = {lbl.question_id for lbl in labels}
    bridge_questions = [q for q in train if q.qtype == "bridge" and q.id in labeled_ids]
    fold_a, fold_b = two_fold_split([q.id for q in bridge_questions], cfg.seed)
    folds = {"A": fold_a, "B": fold_b}
    by_qid = {q.id: q for q in bridge_questions}
    start_sets = _start_sets(state, bridge_questions)

    def train_fold(name: str, other: str, seed_tag: int) -> tuple[str, dict[str, dict], dict]:
        """Train one fold's reasoner, save it and rank passages for the other
        fold's questions: (checkpoint digest, predictions by qid, training log)."""
        started = time.perf_counter()
        inputs = prepare_question_inputs([by_qid[qid] for qid in folds[name]], labels, start_sets, corpus)
        model = _new_bridge_model(cfg, embedding, seed_tag=seed_tag)
        stats = train_bridge_reasoner(model, inputs, corpus, cfg)
        digest = _save_model(model, out / "checkpoints" / f"bridge_fold_{name.lower()}")
        predictions = {}
        for qid in folds[other]:
            q = by_qid[qid]
            ranked = predict_ranked_titles(model, q, start_sets[q.id], corpus)
            predictions[qid] = {"qid": qid, "predicted_by_fold": name, "titles": [t for t, _ in ranked]}
        return digest, predictions, {**stats, "fold_seconds": time.perf_counter() - started}

    # fold B trains in a forked child while this process trains fold A; each
    # fold draws from its own rng streams, so the outputs are those of
    # training the two in sequence
    with _forked(lambda: train_fold("B", "A", seed_tag=2), "cross-predict fold B") as fold_b_reply:
        digest_a, predictions_a, log_a = train_fold("A", "B", seed_tag=1)
        (digest_b, predictions_b, log_b), peak_rss_b = fold_b_reply()
    predictions = {**predictions_a, **predictions_b}
    gold = {lbl.question_id: lbl.gold_title for lbl in labels}
    held_out_hits = {
        f"held_out_hits{k}": sum(hits_at_k(row["titles"], gold[qid], k) for qid, row in predictions.items())
        / max(len(predictions), 1)
        for k in (1, 3, 10)
    }

    write_json(out / "folds.json", folds, indent=2)
    write_jsonl(out / "cross_predictions.jsonl", (predictions[qid] for qid in sorted(predictions)))
    return {
        "folds": folds,
        "fold_checkpoints": {
            "A": "checkpoints/bridge_fold_a",
            "B": "checkpoints/bridge_fold_b",
        },
        "checkpoint_digests": {"A": digest_a, "B": digest_b},
        "n_cross_predictions": len(predictions),
        **held_out_hits,
        **{key: {"A": log_a[key], "B": log_b[key]}
           for key in ("fold_seconds", "epochs_run", "n_train_questions", "n_gold_missing")},
        "fold_b_peak_rss_mb": peak_rss_b,
        "evidence": list(evidence_for(cfg.mode)),
        "seed": cfg.seed,
    }


@contextmanager
def _forked(work, what: str):
    """Run work() in a forked child and yield a function that waits for its
    reply: (work's result, the child's own peak RSS in MB). A child that
    raised makes that function raise a RuntimeError carrying the child's
    traceback. fork, not spawn: the child shares the loaded corpus and
    numpy copy-on-write instead of re-importing and unpickling them, and
    the package starts no threads of its own. The child leaves through
    multiprocessing's os._exit, so no caller's stack unwinds in it. It is
    joined before the block is left, and terminated first when the block
    raises."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(work, sender), daemon=True)
    child.start()
    sender.close()

    def reply():
        try:
            ok, payload = receiver.recv()
        except EOFError:
            child.join()
            raise RuntimeError(f"{what}: child exited with code {child.exitcode} before replying") from None
        if not ok:
            raise RuntimeError(f"{what} failed in its child process:\n{payload}")
        return payload

    try:
        yield reply
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receiver.close()


def _child_main(work, sender) -> None:
    try:
        reply = (True, (work(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    except Exception:  # noqa: BLE001 - the parent raises it, traceback included
        reply = (False, traceback.format_exc())
    sender.send(reply)


def _build_reader_examples(
    state: PipelineState,
    train: list[QARecord],
    cross_preds: dict[str, dict],
) -> tuple[list[ReaderExample], list[dict], int]:
    """The trainable examples, the skipped questions with their reasons, and
    how many passages the context cap cut from the contexts of both.

    Each question reads what answering would read (ablation.reader_passages)
    with its cross-predicted titles as the ranking: a question with none (a
    comparison, or a bridge question whose fold reasoner ranked nothing)
    reads its start set, which is retrieved only then."""
    cfg = state.cfg
    examples: list[ReaderExample] = []
    skips: list[dict] = []
    n_dropped = 0
    for q in train:
        pred = cross_preds.get(q.id, {})
        if q.qtype == "bridge" and not pred:
            skips.append({"qid": q.id, "reason": "no cross-prediction (unlabeled question)"})
            continue
        titles = pred.get("titles", [])
        linked = linked_passages(state, q)
        starts = [] if titles else start_passages_for(state, q, linked)
        passages = reader_passages(state, titles, starts, linked)
        example, reason = make_reader_example(
            q,
            passages,
            max_tokens=cfg.reader_context_cap,
            predicted_by_fold=pred.get("predicted_by_fold"),
        )
        n_dropped += len(passages) - len(example.context.passages)
        if reason is None:
            examples.append(example)
        else:
            skips.append({"qid": q.id, "reason": reason})
    return examples, skips, n_dropped


def stage_train_reader(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    state, train, dev = _load_state(cfg)
    cross_preds = _load_cross_predictions(cfg, state.corpus)
    examples, skips, n_dropped = _build_reader_examples(state, train, cross_preds)
    model = _new_reader_model(cfg, _embedding(cfg, state.corpus, train + dev))
    stats = train_reader(model, examples, cfg)
    digest = _save_model(model, out / "checkpoints" / "reader")
    # the examples are written once the reader they trained is saved, so a
    # crash in training leaves the last completed run's files
    write_jsonl(
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
    write_jsonl(out / "reader_example_skips.jsonl", skips)
    write_json(out / "reader_train_log.json", {"reader": stats}, indent=2)
    return {
        "checkpoint": "checkpoints/reader",
        "checkpoint_digest": digest,
        "n_examples": len(examples),
        "n_skipped": len(skips),
        "n_passages_dropped": n_dropped,
        "epochs_run": stats["epochs_run"],
        "aux_weight": cfg.aux_weight,
        "seed": cfg.seed,
    }


def load_pipeline_state(cfg: PipelineConfig) -> PipelineState:
    """Assemble trained components from the output directory's checkpoints.
    Each model is loaded to answer, so its parameters no longer change, and
    that is enforced: its ParamStore is read-only (adam_step, restore and
    add refuse it) and caches each recurrent cell's fused weights, built on
    the cell's first run. Training stores stay writable and never cache.
    Each model also gets an empty encoding memo: the bridge reasoner an
    unbounded one, the reader one bounded at READER_MEMO_CONTEXTS."""
    checkpoints = _out(cfg) / "checkpoints"
    state, _, _ = _load_state(cfg)
    state.bridge = _load_model(_new_bridge_model, cfg, checkpoints / "bridge", "train-bridge")
    state.bridge.span.memo = EncodingMemo()
    state.reader = _load_model(_new_reader_model, cfg, checkpoints / "reader", "train-reader")
    state.reader.memo = EncodingMemo(limit=READER_MEMO_CONTEXTS)
    for model in (state.bridge, state.reader):
        model.store.make_read_only()
    return state


def stage_predict(cfg: PipelineConfig) -> dict:
    """Write predictions.jsonl: one row per dev question, in dev order, in
    the format README's "File formats" gives."""
    out = _out(cfg)
    state = load_pipeline_state(cfg)
    dev = _read_ingested(cfg, "questions_dev.jsonl", load_questions)
    labels = gold_titles(dev, state.corpus, cfg.seed)
    predictions, skipped = predict_questions(state, dev, cfg.mode, labels)
    rows = {p.qid: {"answer": p.answer, "passages": p.passages, "ranking": p.ranking, "fallback": p.fallback}
            for p in predictions}
    rows.update((rec["qid"], {"skipped": rec["reason"]}) for rec in skipped)
    write_jsonl(out / "predictions.jsonl", ({"qid": q.id, "mode": cfg.mode, **rows[q.id]} for q in dev))
    return {
        "mode": cfg.mode,
        "entity_linking": cfg.entity_linking,
        "n_predictions": len(predictions),
        "n_skipped": len(skipped),
        "n_passages_dropped": sum(p.n_passages_dropped for p in predictions),
        "bridge_encodings_computed": state.bridge.span.memo.computed,
        "bridge_encodings_reused": state.bridge.span.memo.reused,
        "reader_encodings_computed": state.reader.memo.computed,
        "reader_encodings_reused": state.reader.memo.reused,
        "seed": cfg.seed,
    }


_ROW_TYPES = {"qid": str, "mode": str, "skipped": str, "answer": str, "passages": list, "ranking": list, "fallback": bool}


def _read_predictions(path: Path, dev: list[QARecord], default_mode: str) -> tuple[str, list[Prediction], list[dict]]:
    """(mode, answered predictions, skipped questions) of a predictions.jsonl
    holding one row per dev question, in dev order, all of one of
    ABLATION_MODES (or of default_mode when there are none); anything else is refused."""
    modes, predictions, skipped, qids = set(), [], [], []
    for line_no, row in iter_jsonl(path):
        fields = ("skipped",) if "skipped" in row else ("answer", "passages", "ranking", "fallback")
        bad = [name for name in ("qid", "mode", *fields) if not isinstance(row.get(name), _ROW_TYPES[name])]
        if bad:
            raise ValidationError(
                f"{path} line {line_no}: missing or mistyped {', '.join(map(repr, bad))}; rerun predict"
            )
        if row["mode"] not in ABLATION_MODES:
            raise ValidationError(f"{path} line {line_no}: unknown mode {row['mode']!r}; rerun predict")
        modes.add(row["mode"])
        qids.append(row["qid"])
        if "skipped" in row:
            skipped.append({"qid": row["qid"], "reason": row["skipped"]})
        else:
            # a title string and a score that is a number, not a bool, or null
            if not all(isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                       and (pair[1] is None or type(pair[1]) in (int, float)) for pair in row["ranking"]):
                raise ValidationError(f"{path} line {line_no}: ranking is not [title, score] pairs; rerun predict")
            ranking = [tuple(pair) for pair in row["ranking"]]
            predictions.append(Prediction(row["qid"], row["answer"], row["passages"], ranking, row["fallback"]))
    if len(modes) > 1:
        raise ValidationError(f"{path} mixes predictions of modes {sorted(modes)}; rerun predict")
    if qids != [q.id for q in dev]:
        raise ValidationError(f"{path} does not hold one row per dev question, in dev order; rerun predict")
    return (modes.pop() if modes else default_mode), predictions, skipped


def stage_evaluate(cfg: PipelineConfig) -> dict:
    out = _out(cfg)
    corpus, _, dev = _load_ingested(cfg)
    mode, predictions, skipped = _read_predictions(_require(out / "predictions.jsonl", "predict"), dev, cfg.mode)
    report = score_predictions(predictions, dev, mode, gold_titles(dev, corpus, cfg.seed), skipped)
    write_json(out / "report.json", report.aggregates(), indent=2)
    write_jsonl(out / "report_detail.jsonl", map(asdict, report.per_question))
    return {
        "mode": mode,
        "aggregates": report.aggregates(),
        "artifacts": ["report.json", "report_detail.jsonl"],
    }


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
STAGES = tuple(_STAGE_FUNCS)


def run_stage(stage: str, cfg: PipelineConfig) -> dict:
    """Run one stage and append its manifest entry, stamped with the stage's
    wall time and the process's peak RSS so far (ru_maxrss is in KiB on
    Linux). The manifest is read first, so a malformed one stops the stage
    before it writes; a stage that raises appends nothing."""
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    read_manifest(_out(cfg))
    started = time.perf_counter()
    entry = {"stage": stage, **_STAGE_FUNCS[stage](cfg)}
    entry["wall_seconds"] = time.perf_counter() - started
    entry["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    append_manifest(_out(cfg), entry)
    return entry


def run_all(cfg: PipelineConfig) -> dict[str, dict]:
    results = {}
    for stage in STAGES:
        log.info("running stage %s", stage)
        results[stage] = run_stage(stage, cfg)
    return results
