"""The golden record of the acceptance suite's trained run: the eight stages
on the bundled fixture (fixture seed 7) at fixture_config, seed 13. A tree
that still trains the same models reproduces it on any machine, and
test_acceptance.py checks its trained_run against it.

It holds report.json's sha256, each training stage's epochs_run, the fold
reasoners' held-out Hits and, per dev question, the answer, the passages
read and the ranking's titles, all compared exactly, and the ranking's
scores, compared within SCORE_RTOL. It also holds, for each mode of
ABLATION_ROWS, each dev question's answer and passages read (or its skip
reason), answered from the run's checkpoints and compared exactly. Output
bytes other than report.json's depend on the BLAS kernel; these do not.

Regenerate it after a change that is meant to move the trained run, and
report the drift:

    PYTHONPATH=src python tests/golden_record.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from bridgeqa.manifest import file_sha256, read_jsonl, read_manifest

GOLDEN = Path(__file__).with_name("golden_trained_run.json")
# across OpenBLAS's SkylakeX, Haswell and Sandybridge kernels, chosen per
# process with OPENBLAS_CORETYPE (x86-64, numpy 2.4, BLAS on one thread), a
# ranking score drifted by at most 1.6e-10 of itself (Sandybridge; the other
# two agreed to the bit); the record's scores are at most 70.4 in magnitude,
# so a change of 1e-6 to any of them is more than 1.4e-8 of it
SCORE_RTOL = 2e-9
# the ablation rows answered from the trained run's models, besides full
ABLATION_ROWS = ("no_bridge_reasoner", "oracle_gold_passage", "full_support")


def record(out: str | Path) -> dict:
    """The record of the run in the output directory out."""
    out = Path(out)
    entries = {entry["stage"]: entry for entry in read_manifest(out)}
    cross = entries["cross-predict"]
    questions = {}
    for row in read_jsonl(out / "predictions.jsonl"):
        if "skipped" in row:
            questions[row["qid"]] = {"skipped": row["skipped"]}
        else:
            questions[row["qid"]] = {
                "answer": row["answer"],
                "passages": row["passages"],
                "ranking_titles": [title for title, _ in row["ranking"]],
                "ranking_scores": [score for _, score in row["ranking"]],
            }
    return {
        "report_sha256": file_sha256(out / "report.json"),
        "epochs_run": {
            "train-bridge": entries["train-bridge"]["epochs_run"],
            "cross-predict": cross["epochs_run"],
            "train-reader": entries["train-reader"]["epochs_run"],
        },
        "held_out_hits": {key: cross[key] for key in ("held_out_hits1", "held_out_hits3", "held_out_hits10")},
        "questions": questions,
        "ablation_rows": ablation_rows(out, entries["ingest"]["config"]),
    }


def ablation_rows(out: Path, config: dict) -> dict:
    """mode -> dev qid -> the answer and passages read, or the skip reason, for
    each mode of ABLATION_ROWS, answered with the checkpoints in out by the
    run whose ingest config is config."""
    from bridgeqa.ablation import predict_questions
    from bridgeqa.bridge import gold_titles
    from bridgeqa.config import load_config
    from bridgeqa.pipeline import _load_ingested, load_pipeline_state

    cfg = load_config(None, {**config, "output_dir": str(out)})
    state = load_pipeline_state(cfg)
    _, _, dev = _load_ingested(cfg)
    labels = gold_titles(dev, state.corpus, cfg.seed)
    rows = {}
    for mode in ABLATION_ROWS:
        predictions, skipped = predict_questions(state, dev, mode, labels)
        by_qid = {p.qid: {"answer": p.answer, "passages": p.passages} for p in predictions}
        by_qid.update((s["qid"], {"skipped": s["reason"]}) for s in skipped)
        rows[mode] = {q.id: by_qid[q.id] for q in dev}
    return rows


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=0.0)


def compare(golden: dict, got: dict) -> list[str]:
    """Every way got differs from golden, one line each, naming the field and,
    for a dev question, its id; empty when got matches."""
    problems = [f"{key}: {got.get(key)!r}, the record holds {golden[key]!r}"
                for key in ("report_sha256", "epochs_run", "held_out_hits") if got.get(key) != golden[key]]
    want, have = golden["questions"], got.get("questions", {})
    if list(have) != list(want):
        problems.append(f"questions: {list(have)}, the record holds {list(want)}")
    for qid in (qid for qid in want if qid in have):
        a, b = want[qid], have[qid]
        problems += [f"question {qid}: {key} {b.get(key)!r}, the record holds {a[key]!r}"
                     for key in a if key != "ranking_scores" and b.get(key) != a[key]]
        scores_a, scores_b = a.get("ranking_scores", []), b.get("ranking_scores", [])
        if len(scores_a) != len(scores_b) or not all(map(_close, scores_a, scores_b)):
            problems.append(f"question {qid}: ranking_scores {scores_b}, the record holds {scores_a} "
                            f"(relative tolerance {SCORE_RTOL})")
    for mode, rows in golden.get("ablation_rows", {}).items():
        have = got.get("ablation_rows", {}).get(mode, {})
        problems += [f"{mode} question {qid}: {have.get(qid)!r}, the record holds {row!r}"
                     for qid, row in rows.items() if have.get(qid) != row]
    return problems


def main() -> int:
    from bridgeqa.config import load_config
    from bridgeqa.pipeline import run_all
    from bridgeqa.tinywiki import fixture_config, write_fixture

    with tempfile.TemporaryDirectory(prefix="bridgeqa_golden_") as work:
        write_fixture(Path(work) / "fixture", seed=7)
        run_all(load_config(None, fixture_config(Path(work) / "fixture", Path(work) / "run")))
        new = record(Path(work) / "run")
    if GOLDEN.exists():
        for line in compare(json.loads(GOLDEN.read_text(encoding="utf-8")), new):
            print(line)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
