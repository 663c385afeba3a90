"""The complete eight-stage pipeline on the tiny wiki, end to end, plus the
ablation grid. Uses shortened training so the whole script stays around two
minutes; the acceptance suite runs the converged version. Most rows answer
with the full run's models; each evidence row is a run of its own, at the
same shortened budget, whose reasoner is trained without that channel.

Every stage here is also a CLI command:

    bridgeqa ingest --config demo_config.json
    bridgeqa build-index --config demo_config.json
    ... derive-labels | train-bridge | cross-predict | train-reader | predict | evaluate
"""

import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from bridgeqa.ablation import run_ablation
from bridgeqa.config import load_config
from bridgeqa.manifest import verify_fold_hygiene
from bridgeqa.pipeline import _load_ingested, load_pipeline_state, run_all
from bridgeqa.tinywiki import fixture_config, write_fixture


def main():
    workdir = Path(tempfile.mkdtemp(prefix="bridgeqa_demo_"))
    fixture = workdir / "fixture"
    out = workdir / "run"
    write_fixture(fixture, seed=7)
    cfg = load_config(None, fixture_config(fixture, out, bridge_epochs=30, reader_epochs=60))

    print("running all eight stages (shortened training)...")
    results = run_all(cfg)
    for stage, entry in results.items():
        keys = {k: v for k, v in entry.items()
                if k in ("n_passages", "n_documents", "n_labels", "epochs_run", "final_train_hits1",
                         "n_cross_predictions", "held_out_hits1", "n_examples", "n_predictions")}
        print(f"  {stage:<13} {keys}")

    report = json.loads((out / "report.json").read_text())
    print("\nevaluate (mode=full):", json.dumps(report["full"], indent=None))
    print("fold hygiene violations:", verify_fold_hygiene(out))

    print("\nablation grid on the dev split:")
    state = load_pipeline_state(cfg)
    _, _, dev = _load_ingested(cfg)
    rows = [(mode, state, mode, "") for mode in ("full", "no_bridge_reasoner", "oracle_gold_passage", "full_support")]
    # no EL: the same models loaded at entity_linking false, which builds no linker
    rows.insert(1, ("full, no EL", load_pipeline_state(replace(cfg, entity_linking=False)), "full", ""))
    for mode in ("no_content_evidence", "no_context_evidence"):
        mode_cfg = replace(cfg, mode=mode, output_dir=str(workdir / mode))
        started = time.perf_counter()
        run_all(mode_cfg)
        rows.append((mode, load_pipeline_state(mode_cfg), mode, f"  (own run, {time.perf_counter() - started:.1f}s)"))
    for label, row_state, mode, note in rows:
        agg = run_ablation(mode, row_state, dev).aggregates()["full"]
        print(f"  {label:>21}: em={agg['em']:.3f} f1={agg['f1']:.3f}{note}")

    print(f"\nartifacts in {out}")


if __name__ == "__main__":
    main()
