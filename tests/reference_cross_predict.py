"""The cross-predict stage as plain sequential code: fold A's reasoner is
trained, saved and run in this process, then fold B's. The stage trains
fold B in a forked child instead; its artifacts must be byte-identical to
the ones written here."""

from pathlib import Path

from bridgeqa import pipeline
from bridgeqa.bridge import READER_MAX_PASSAGES, predict_ranked_titles, prepare_question_inputs, train_bridge_reasoner
from bridgeqa.config import PipelineConfig
from bridgeqa.manifest import write_json, write_jsonl
from bridgeqa.reader import two_fold_split


def cross_predict_in_sequence(cfg: PipelineConfig, out: Path) -> None:
    """Read the inputs of cross-predict from cfg.output_dir and write its
    folds.json, cross_predictions.jsonl and checkpoints/bridge_fold_{a,b}
    under out."""
    state, train, dev = pipeline._load_state(cfg)
    labels = pipeline._load_labels(cfg, state.corpus)
    corpus = state.corpus
    embedding = pipeline._embedding(cfg, corpus, train + dev)
    labeled_ids = {lbl.question_id for lbl in labels}
    bridge_questions = [q for q in train if q.qtype == "bridge" and q.id in labeled_ids]
    fold_a, fold_b = two_fold_split([q.id for q in bridge_questions], cfg.seed)
    folds = {"A": fold_a, "B": fold_b}
    by_qid = {q.id: q for q in bridge_questions}
    start_sets = pipeline._start_sets(state, bridge_questions)

    predictions = {}
    for fold_name, other_name, seed_tag in (("A", "B", 1), ("B", "A", 2)):
        inputs = prepare_question_inputs([by_qid[qid] for qid in folds[fold_name]], labels, start_sets, corpus)
        model = pipeline._new_bridge_model(cfg, embedding, seed_tag=seed_tag)
        train_bridge_reasoner(model, inputs, corpus, cfg)
        pipeline._save_model(model, out / "checkpoints" / f"bridge_fold_{fold_name.lower()}")
        for qid in folds[other_name]:
            ranked = predict_ranked_titles(model, by_qid[qid], start_sets[qid], corpus, k=READER_MAX_PASSAGES)
            predictions[qid] = {"qid": qid, "predicted_by_fold": fold_name, "titles": [t for t, _ in ranked]}

    write_json(out / "folds.json", folds, indent=2)
    write_jsonl(out / "cross_predictions.jsonl", (predictions[qid] for qid in sorted(predictions)))
