#!/usr/bin/env python3
"""bridgeqa benchmark: one command, three workloads, end-to-end and per-layer
metrics.

    python3 bench/run.py --workload answer --seed 1 --seconds 25 --trace 0

It uses the `src/` tree next to this directory and keeps its scratch files
under `.bench_work/` at the repository root. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it record the environment and the raw figures.
The exit code is 1 when a correctness check fails.

Load: one process, one closed-loop client (a researcher waits for each
answer before asking the next question), BLAS pinned to one thread.

Every run of every workload has the same shape:

1. Set-up, made SETUP_REPEATS times; `setup_s` is the median. Ingest,
   index and label the bundled tiny wiki into a fresh output directory,
   load the trained pipeline with `load_pipeline_state`, and for
   `open-domain` load the padded corpus and build its index and linker.
2. Training: the `train-bridge`, `cross-predict` and `train-reader` stages
   from scratch at the workload's fixed epoch budget, seed 13, early stop
   off, so the time measures throughput and not convergence.
3. Answering: distinct questions answered one at a time in `full` mode
   until `--seconds` have passed since set-up ended, and at least
   MIN_QUESTIONS of them; the first QUALITY_QUESTIONS are scored.

With `--trace 0` the metrics are the end-to-end ones. Their times are
normalised by the machine-speed probe (probe.py) to a nominal machine, so
that other tenants of a shared machine do not move them; the raw times are
printed on the `# detail` line. Latency is reported as p50 and p90: p90 is
the highest percentile with at least ten samples beyond it in every run. With `--trace 1` both halves answer TRACE_QUESTIONS questions: the
phase runs untraced, then again over the same inputs with every layer
boundary wrapped (layers.py, tracer.py); the metrics are the per-layer ones,
the layers' share of the traced phase and the tracing overhead.

The models used for answering are trained once per source tree at the full
fixture budget, in a child process, and cached under `.bench_work/`; they
depend only on the source, so every run answers with the same models.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere: the matrices are small, one
# closed-loop client runs, and the machine has two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

FIXTURE_SEED = 7
MODEL_SEED = 13
# Epochs of the cached answering models; at this budget the fixture reaches
# its baseline dev quality (EM 0.545, bridge-only EM 0.75, Hits@1 1.0).
STATE_BUDGET = (12, 30)
NO_EARLY_STOP = {"bridge_early_stop_hits1": 2.0, "reader_early_stop_em": 2.0}
SETUP_REPEATS = 15
# Quality is scored on the first two rounds of the stream, a fixed head (see
# inputs.stream_with_fixed_head), so it never depends on how far a run got.
QUALITY_QUESTIONS = 60
# Every run answers at least this many questions, so that at least ten
# latency samples lie beyond the reported p90.
MIN_QUESTIONS = 100
# Questions answered by each of the two phases of a traced run: one round.
TRACE_QUESTIONS = 30
TRAIN_STAGES = ("train-bridge", "cross-predict", "train-reader")
SETUP_STAGES = ("ingest", "build-index", "derive-labels")
STATE_BUILD_TIMEOUT_S = 850


@dataclass(frozen=True)
class Workload:
    bridge_epochs: int
    reader_epochs: int
    distractors: int


# Why each workload was chosen is recorded beside it in BENCHMARK.json.
# Every workload trains (at least one epoch of each stage) and answers, so
# that every end-to-end metric is measured on every workload.
WORKLOADS = {
    "answer": Workload(bridge_epochs=1, reader_epochs=4, distractors=0),
    "open-domain": Workload(bridge_epochs=1, reader_epochs=4, distractors=1000),
    "train": Workload(bridge_epochs=3, reader_epochs=8, distractors=0),
}


def _import_program():
    """Import the package from this checkout's source tree, never from an
    installed copy."""
    if not (SRC / "bridgeqa" / "__init__.py").is_file():
        print(f"error: no bridgeqa source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# environment


def _blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy before 2.0 prints instead
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": _blas_library(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "load": "one process, one closed-loop client",
    }


# ---------------------------------------------------------------------------
# the cached answering models


def _source_digest() -> str:
    h = hashlib.sha256(repr((STATE_BUDGET, NO_EARLY_STOP, MODEL_SEED, FIXTURE_SEED)).encode())
    for path in sorted((SRC / "bridgeqa").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _config(fixture_dir: Path, out_dir: Path, bridge_epochs: int, reader_epochs: int):
    from bridgeqa.config import load_config
    from bridgeqa.tinywiki import fixture_config

    return load_config(
        None,
        fixture_config(
            fixture_dir, out_dir, bridge_epochs=bridge_epochs, reader_epochs=reader_epochs,
            seed=MODEL_SEED, **NO_EARLY_STOP,
        ),
    )


def build_state(target: Path) -> None:
    """Train the full pipeline once into target (atomically)."""
    from bridgeqa import manifest, pipeline
    from bridgeqa.tinywiki import write_fixture

    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    write_fixture(tmp / "fixture", seed=FIXTURE_SEED)
    cfg = _config(tmp / "fixture", tmp / "out", *STATE_BUDGET)
    pipeline.run_all(cfg)
    violations = manifest.verify_fold_hygiene(tmp / "out")
    if violations:
        raise RuntimeError(f"fold hygiene violated in the cached state: {violations}")
    try:
        os.replace(tmp, target)
    except OSError:
        if not (target / "out" / "checkpoints" / "reader" / "manifest.json").exists():
            raise
        shutil.rmtree(tmp, ignore_errors=True)


def ensure_state() -> Path:
    target = WORK / f"state-{_source_digest()}"
    if not (target / "out" / "checkpoints" / "reader" / "manifest.json").exists():
        WORK.mkdir(parents=True, exist_ok=True)
        print(f"building the answering models into {target} ...", file=sys.stderr, flush=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--build-state", str(target)],
            check=True, timeout=STATE_BUILD_TIMEOUT_S, stdout=sys.stderr,
        )
    return target


# ---------------------------------------------------------------------------
# one run


@dataclass
class Inputs:
    fixture_dir: Path
    stream: list
    padded_corpus: Path | None


def make_inputs(workload: Workload, seed: int, run_dir: Path) -> Inputs:
    """Everything the program receives, generated from the seed before any
    timing starts."""
    import inputs as gen
    from bridgeqa.tinywiki import write_fixture

    fixture_dir = run_dir / "fixture"
    write_fixture(fixture_dir, seed=FIXTURE_SEED)
    padded = None
    if workload.distractors:
        passages, _, _ = gen.fixture()
        extra = gen.distractor_passages(workload.distractors, {p["title"] for p in passages})
        padded = run_dir / "padded_corpus.jsonl"
        with open(padded, "w", encoding="utf-8") as fh:
            for p in passages + extra:
                fh.write(json.dumps(p, ensure_ascii=False, sort_keys=True) + "\n")
    return Inputs(fixture_dir, gen.stream_with_fixed_head(seed, QUALITY_QUESTIONS), padded)


def setup(inp: Inputs, out_dir: Path, state_dir: Path, workload: Workload):
    """The timed set-up: returns (training config, answering state)."""
    from bridgeqa import bridge, corpus, pipeline, retrieval

    cfg = _config(inp.fixture_dir, out_dir, workload.bridge_epochs, workload.reader_epochs)
    for stage in SETUP_STAGES:
        pipeline.run_stage(stage, cfg)
    state_cfg = _config(state_dir / "fixture", state_dir / "out", *STATE_BUDGET)
    state = pipeline.load_pipeline_state(state_cfg)
    if inp.padded_corpus is not None:
        padded = corpus.load_corpus(inp.padded_corpus)
        state = replace(
            state,
            corpus=padded,
            index=retrieval.build_index(padded),
            linker=bridge.TitleTokenLinker(padded) if state.cfg.entity_linking else None,
        )
    return cfg, state


def train_part(cfg) -> dict:
    from bridgeqa import manifest, pipeline

    out = Path(cfg.output_dir)
    spans = {}
    for stage in TRAIN_STAGES:
        started = time.perf_counter()
        pipeline.run_stage(stage, cfg)
        spans[stage] = (started, time.perf_counter())
    bridge_log = json.loads((out / "bridge_train_log.json").read_text(encoding="utf-8"))
    reader_log = json.loads((out / "reader_train_log.json").read_text(encoding="utf-8"))["reader"]
    folds = json.loads((out / "folds.json").read_text(encoding="utf-8"))
    # early stop is off, so every fold reasoner runs cfg.bridge_epochs epochs
    bridge_steps = bridge_log["epochs_run"] * bridge_log["n_train_questions"] + cfg.bridge_epochs * sum(
        len(v) for v in folds.values()
    )
    return {
        "spans": spans,
        "bridge_steps": bridge_steps,
        "reader_steps": reader_log["epochs_run"] * reader_log["n_examples"],
        "bridge_losses": [h["mean_loss"] for h in bridge_log["history"]],
        "reader_losses": [h["mean_loss"] for h in reader_log["history"]],
        "hygiene": manifest.verify_fold_hygiene(out),
    }


def answer_part(state, stream, labels, deadline: float | None, count: int, tracer=None) -> dict:
    """Answer questions one at a time: at least `count`, then on until the
    deadline when there is one."""
    from bridgeqa import ablation

    rows = []
    for record in stream:
        if len(rows) >= count and (deadline is None or time.perf_counter() >= deadline):
            break
        if tracer is not None:
            tracer.qid = record.id
        t0 = time.perf_counter()
        error = None
        try:
            # predict_questions' own skipped list is the count of skips
            predictions, skipped = ablation.predict_questions(state, [record], "full", labels)
        except Exception:  # noqa: BLE001 - a failed question is counted, not fatal
            predictions, skipped, error = [], [], traceback.format_exc()
        rows.append(
            {
                "record": record,
                "span": (t0, time.perf_counter()),
                "prediction": predictions[0] if predictions else None,
                "skipped": skipped,
                "error": error,
            }
        )
    if tracer is not None:
        tracer.qid = None
    return {"rows": rows, "exhausted": len(rows) == len(stream)}


def check_answers(state, rows, context_cap: int) -> list[str]:
    """Every answer is a contiguous token window of its own reader context
    (which starts with the yes/no sentinels)."""
    from bridgeqa.corpus import tokenize
    from bridgeqa.reader import build_reader_context

    problems = []
    for row in rows:
        if row["error"] is not None:
            problems.append(f"{row['record'].id}: raised\n{row['error']}")
        pred = row["prediction"]
        if pred is None:
            continue
        passages = [state.corpus.by_title[t] for t in pred.passages]
        context = build_reader_context(passages, max_tokens=context_cap)
        if context.titles != pred.passages:
            problems.append(f"{pred.qid}: reader context titles differ from the prediction's")
            continue
        want = list(tokenize(pred.answer).tokens)
        have = context.tokens
        if not want or not any(have[i : i + len(want)] == want for i in range(len(have) - len(want) + 1)):
            problems.append(f"{pred.qid}: answer {pred.answer!r} is not a span of its context")
    return problems


def run_phase(cfg, state, stream, labels, seconds: float | None, count: int, tracer=None) -> dict:
    """The measured phase: training at the workload's budget, then answering."""
    started = time.perf_counter()
    if tracer is not None:
        tracer.section = "train"
    train = train_part(cfg)
    if tracer is not None:
        tracer.section = "answer"
    deadline = started + seconds if seconds is not None else None
    answers = answer_part(state, stream, labels, deadline, count, tracer)
    return {"train": train, "answers": answers, "span": (started, time.perf_counter())}


def _predictions_key(phase: dict) -> list:
    return [
        (r["record"].id, r["prediction"].answer if r["prediction"] else None,
         tuple(r["prediction"].passages) if r["prediction"] else None, len(r["skipped"]), r["error"] is None)
        for r in phase["answers"]["rows"]
    ]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(setup_spans, phase: dict, probe, labels) -> tuple[dict, dict]:
    """Times are normalised by the speed probe; the raw figures go to the
    detail record."""
    from bridgeqa import ablation

    train, rows = phase["train"], phase["answers"]["rows"]
    scored = rows[:QUALITY_QUESTIONS]
    predictions = [r["prediction"] for r in scored if r["prediction"] is not None]
    skipped = [s for r in scored for s in r["skipped"]]
    report = ablation.score_predictions(
        predictions, [r["record"] for r in scored], "full", labels, skipped
    ).aggregates()

    def timed(clock):
        stage = {name: clock(*span) for name, span in train["spans"].items()}
        latencies_ms = [clock(*r["span"]) * 1000.0 for r in rows]
        answering = clock(rows[0]["span"][0], rows[-1]["span"][1])
        return {
            "setup_s": statistics.median(clock(*span) for span in setup_spans),
            "train_s": sum(stage.values()),
            "bridge_train_qps": train["bridge_steps"] / (stage["train-bridge"] + stage["cross-predict"]),
            "reader_train_eps": train["reader_steps"] / stage["train-reader"],
            "answer_qps": len(rows) / answering,
            "answer_p50_ms": statistics.median(latencies_ms),
            "answer_p90_ms": _p90(latencies_ms),
        }, latencies_ms

    values, latencies_ms = timed(probe.normalised)
    raw, raw_latencies_ms = timed(probe.raw)
    units = {"setup_s": "s", "train_s": "s", "bridge_train_qps": "1/s", "reader_train_eps": "1/s",
             "answer_qps": "1/s", "answer_p50_ms": "ms", "answer_p90_ms": "ms"}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    metrics.update(
        {
            "bridge_final_loss": {"value": train["bridge_losses"][-1], "unit": "nats"},
            "reader_final_loss": {"value": train["reader_losses"][-1], "unit": "nats"},
            "answer_em": {"value": report["full"]["em"], "unit": "ratio"},
            "answer_f1": {"value": report["full"]["f1"], "unit": "ratio"},
            "answer_hits10": {"value": report["full"]["hits10"], "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    )
    detail = {
        "raw": raw,
        "reference_ms_median": statistics.median(d for _, d in probe.samples) * 1000.0,
        "probe_samples": len(probe.samples),
        "questions_answered": len(rows),
        "questions_scored": len(scored),
        "samples_beyond_p90": sum(1 for v in latencies_ms if v > values["answer_p90_ms"]),
        "stream_exhausted": phase["answers"]["exhausted"],
        "skipped_questions": sum(len(r["skipped"]) for r in rows),
        "errored_questions": sum(1 for r in rows if r["error"] is not None),
        "fallbacks": sum(1 for r in rows if r["prediction"] is not None and r["prediction"].fallback),
        "bridge_steps": train["bridge_steps"],
        "reader_steps": train["reader_steps"],
        "raw_latency_ms_p50": statistics.median(raw_latencies_ms),
    }
    return metrics, detail


def attempted_failed(phase: dict) -> tuple[int, int]:
    rows = phase["answers"]["rows"]
    failed = sum(1 for r in rows if r["error"] is not None or r["skipped"])
    steps = phase["train"]["bridge_steps"] + phase["train"]["reader_steps"]
    return len(rows) + steps, failed


def measure(inp: Inputs, run_dir: Path, state_dir: Path, workload: Workload, seconds, count, probe) -> dict:
    """Set up SETUP_REPEATS times, then run the phase on the last set-up."""
    setup_spans = []
    for rep in range(SETUP_REPEATS):
        started = time.perf_counter()
        cfg, state = setup(inp, run_dir / f"out{rep}", state_dir, workload)
        setup_spans.append((started, time.perf_counter()))
    from bridgeqa.bridge import derive_bridge_labels

    labels = {
        lbl.question_id: lbl.gold_title
        for lbl in derive_bridge_labels(inp.stream, state.corpus, MODEL_SEED)[0]
    }
    phase = run_phase(cfg, state, inp.stream, labels, seconds, count)
    return {"cfg": cfg, "state": state, "labels": labels, "setup_spans": setup_spans, "phase": phase}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-state", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()

    if args.build_state:
        build_state(Path(args.build_state))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import inputs as gen
    import layers
    from probe import SpeedProbe

    env = environment(args)
    workload = WORKLOADS[args.workload]
    state_dir = ensure_state()
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inp = make_inputs(workload, args.seed, run_dir)
        detail = {}
        if not args.trace:
            with SpeedProbe() as probe:
                run_ = measure(inp, run_dir, state_dir, workload, args.seconds, MIN_QUESTIONS, probe)
            metrics, more = end_to_end_metrics(run_["setup_spans"], run_["phase"], probe, run_["labels"])
            detail.update(more)
        else:
            # Both halves of a traced run answer a fixed number of questions,
            # so that per-layer totals compare across commits of any speed.
            run_ = measure(inp, run_dir, state_dir, workload, None, TRACE_QUESTIONS, None)
            traced = layers.traced_run(
                lambda: setup(inp, run_dir / "out_traced", state_dir, workload),
                lambda cfg, state, tracer: run_phase(
                    cfg, state, inp.stream, run_["labels"], None, TRACE_QUESTIONS, tracer
                ),
            )
            untraced_wall = run_["phase"]["span"][1] - run_["phase"]["span"][0]
            metrics = layers.per_layer_metrics(traced, untraced_wall)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            traced["tracer"].write_jsonl(traces / f"{args.workload}-seed{args.seed}.jsonl")
            detail["self_seconds"] = traced["tracer"].self_times()
        phase = run_["phase"]
        rows = phase["answers"]["rows"]
        detail.update(gen.repeat_shares([r["record"] for r in rows]))

        problems = list(phase["train"]["hygiene"])
        problems += check_answers(run_["state"], rows, run_["cfg"].reader_context_cap)
        if args.trace:
            if _predictions_key(traced["phase"]) != _predictions_key(phase):
                problems.append("traced predictions differ from the untraced run's")
            if [traced["phase"]["train"][k] for k in ("bridge_losses", "reader_losses")] != [
                phase["train"][k] for k in ("bridge_losses", "reader_losses")
            ]:
                problems.append("traced training losses differ from the untraced run's")
            coverage = metrics["trace.coverage"]["value"]
            if not 0.9 <= coverage <= 1.1:
                problems.append(f"layer self times cover {coverage:.3f} of the traced phase, outside 10%")

        attempted, failed = attempted_failed(phase)
        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"env": env, "detail": detail, "problems": problems, "result": result}, indent=2) + "\n",
            encoding="utf-8",
        )
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print("# env " + json.dumps(env, sort_keys=True))
        print("# detail " + json.dumps({k: v for k, v in detail.items() if k != "self_seconds"}, sort_keys=True))
        print(json.dumps(result), flush=True)
        return 0 if not problems else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
