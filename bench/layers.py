"""Where the traced run wraps the program, and the per-layer metrics it
derives from the spans.

Each entry of wraps() names the module attribute a caller looks up, not
the module that defines the function: `ablation.score_bridges` and
`bridge.score_bridges` are the same function reached from two callers, and
both are wrapped so that every call is seen once.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from tracer import OWN, Tracer

PHASE = ("train", "answer")


def _tape_nodes(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _after_retrieve(tr, args, kwargs, result):
    tr.count("retrieval.returned", len(result))


def _after_score(tr, args, kwargs, result):
    tr.sample("bridge.candidates", len(args[3] if len(args) > 3 else kwargs["candidates"]))


def _after_abstract(tr, args, kwargs, result):
    passage = args[1] if len(args) > 1 else kwargs.get("passage")
    tr.sample("bridge.abstract_titles", passage.title if passage is not None else None)


def _after_encode(tr, args, kwargs, result):
    tr.count("span_model.tokens", len(result.states.data))


def _recurrent_name(args, kwargs) -> str:
    return f"numcore.{args[0]}_fwd"


def _after_recurrent(tr, args, kwargs, result):
    tr.count("numcore.recurrent_steps", result.data.shape[0])


def _after_backward(tr, args, kwargs, result):
    tr.sample("numcore.tape_nodes", _tape_nodes(args[0]))


def _after_context(tr, args, kwargs, result):
    tr.sample("reader.context_tokens", len(result))
    tr.count("reader.passages_dropped", len(args[0]) - len(result.passages))


def _after_stage(tr, args, kwargs, result):
    if args[0] == "train-reader":
        tr.count("reader.examples_skipped", result["n_skipped"])


def _after_save(tr, args, kwargs, result):
    directory = Path(args[1])
    tr.count("checkpoint.bytes", sum(p.stat().st_size for p in directory.iterdir()))


def _stage_name(args, kwargs) -> str:
    return f"pipeline.{args[0]}"


def wraps():
    """(owner, attribute, span name, after-hook) for every traced boundary."""
    from bridgeqa import ablation, bridge, corpus, pipeline, reader, retrieval, span_model
    from bridgeqa.numcore import cells

    return [
        # answering entry points, looked up by the benchmark and by ablation
        (ablation, "predict_questions", "ablation.predict", None),
        (ablation, "predict_one", "ablation.predict_one", None),
        (ablation, "retrieve_start_passages", "retrieval.retrieve", _after_retrieve),
        (ablation, "expand_with_entity_linking", "bridge.link", None),
        (ablation, "collect_candidates", "bridge.candidates", None),
        (ablation, "score_bridges", "bridge.score", _after_score),
        (ablation, "rank_answer_passages", "bridge.rank", None),
        (ablation, "read_and_decode", "reader.read", None),
        # stages and what they call
        (pipeline, "run_stage", _stage_name, _after_stage),
        (pipeline, "load_pipeline_state", "pipeline.load_state", None),
        (pipeline, "load_corpus", "corpus.load", None),
        (pipeline, "build_index", "retrieval.build_index", None),
        (pipeline, "derive_bridge_labels", "bridge.labels", None),
        (pipeline, "retrieve_start_passages", "retrieval.retrieve", _after_retrieve),
        (pipeline, "expand_with_entity_linking", "bridge.link", None),
        (pipeline, "prepare_question_inputs", "bridge.prepare", None),
        (pipeline, "train_bridge_reasoner", "bridge.train", None),
        (pipeline, "evaluate_hits", "bridge.evaluate", None),
        (pipeline, "predict_ranked_titles", "bridge.predict", None),
        (pipeline, "make_reader_example", "reader.example", None),
        (pipeline, "train_reader", "reader.train", None),
        (pipeline, "save_checkpoint", "checkpoint.save", _after_save),
        (pipeline, "load_checkpoint", "checkpoint.load", None),
        # open-domain set-up, called by the benchmark
        (corpus, "load_corpus", "corpus.load", None),
        (retrieval, "build_index", "retrieval.build_index", None),
        (bridge.TitleTokenLinker, "__init__", "bridge.linker_build", None),
        # the bridge reasoner's own lookups
        (bridge, "collect_candidates", "bridge.candidates", None),
        (bridge, "score_bridges", "bridge.score", _after_score),
        (bridge, "rank_answer_passages", "bridge.rank", None),
        (bridge, "bridge_loss", "bridge.loss", None),
        (bridge, "encode_abstract", "bridge.encode_abstract", _after_abstract),
        (bridge, "encode", "span_model.encode", _after_encode),
        (bridge, "biattention", "span_model.biattention", None),
        (bridge, "self_attention", "span_model.self_attention", None),
        (bridge, "backward", "numcore.backward", _after_backward),
        (bridge, "adam_step", "numcore.adam", None),
        # the reader's and the span model's own lookups
        (reader, "build_reader_context", "reader.context", _after_context),
        (reader, "locate_answer_span", "reader.locate", None),
        (reader, "run_span_model", "span_model.run", None),
        (reader, "decode_answer", "reader.decode", None),
        (reader, "backward", "numcore.backward", _after_backward),
        (reader, "adam_step", "numcore.adam", None),
        (span_model, "encode", "span_model.encode", _after_encode),
        (span_model, "biattention", "span_model.biattention", None),
        (span_model, "self_attention", "span_model.self_attention", None),
        (span_model, "span_heads", "span_model.span_heads", None),
        (cells, "run_recurrent", _recurrent_name, _after_recurrent),
    ]


def install(tracer: Tracer) -> None:
    from bridgeqa import retrieval

    for owner, attr, name, after in wraps():
        tracer.wrap(owner, attr, name, after)
    # called once per candidate passage: counted, not spanned
    tracer.wrap_count(retrieval, "hybrid_score", "retrieval.scored")


def traced_run(setup_fn, phase_fn) -> dict:
    """Set up once and run the phase with every boundary wrapped; the
    wrappers are removed before returning."""
    with Tracer() as tracer:
        install(tracer)
        tracer.section = "setup"
        cfg, state = setup_fn()
        started = time.perf_counter()
        phase = phase_fn(cfg, state, tracer)
        phase_wall = time.perf_counter() - started
    return {"tracer": tracer, "phase": phase, "phase_wall": phase_wall}


def _total(tr: Tracer, name: str, sections) -> float:
    return sum(s.duration for s in tr.spans if s.name == name and s.section in sections)


def _count(tr: Tracer, key: str, sections) -> float:
    return sum(tr.counts.get((sec, key), 0.0) for sec in sections)


def _samples(tr: Tracer, key: str, sections) -> list:
    return [v for sec in sections for v in tr.samples.get((sec, key), [])]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(traced: dict, untraced_phase_wall: float) -> dict:
    tr: Tracer = traced["tracer"]
    setup = ("setup",)
    answer = ("answer",)
    ms = 1000.0
    queries = [s.duration for s in tr.spans if s.name == "retrieval.retrieve" and s.section == "answer"]
    scored = _count(tr, "retrieval.scored", answer)
    titles = _samples(tr, "bridge.abstract_titles", PHASE)
    rows = traced["phase"]["answers"]["rows"]
    values = {
        "retrieval.query_ms_p50": (_median(queries) * ms, "ms"),
        "retrieval.candidates_per_query": (scored / len(queries) if queries else 0.0, "count"),
        "retrieval.useful_ratio": (_count(tr, "retrieval.returned", answer) / scored if scored else 0.0, "ratio"),
        "retrieval.build_index_s": (_total(tr, "retrieval.build_index", setup), "s"),
        "bridge.score_ms_p50": (_median([s.duration for s in tr.spans if s.name == "bridge.score"]) * ms, "ms"),
        "bridge.candidates_per_question": (_mean(_samples(tr, "bridge.candidates", PHASE)), "count"),
        "bridge.abstract_ms_total": (_total(tr, "bridge.encode_abstract", PHASE) * ms, "ms"),
        "bridge.abstract_unique_ratio": (len(set(titles)) / len(titles) if titles else 0.0, "ratio"),
        "bridge.linker_ms_total": (_total(tr, "bridge.link", PHASE) * ms, "ms"),
        "bridge.fallbacks": (sum(1 for r in rows if r["prediction"] is not None and r["prediction"].fallback), "count"),
        "span_model.encode_ms_total": (_total(tr, "span_model.encode", PHASE) * ms, "ms"),
        "span_model.tokens_encoded": (_count(tr, "span_model.tokens", PHASE), "count"),
        "span_model.biattention_ms_total": (_total(tr, "span_model.biattention", PHASE) * ms, "ms"),
        "span_model.self_attention_ms_total": (_total(tr, "span_model.self_attention", PHASE) * ms, "ms"),
        "span_model.span_heads_ms_total": (_total(tr, "span_model.span_heads", PHASE) * ms, "ms"),
        "numcore.gru_fwd_ms_total": (_total(tr, "numcore.gru_fwd", PHASE) * ms, "ms"),
        "numcore.lstm_fwd_ms_total": (_total(tr, "numcore.lstm_fwd", PHASE) * ms, "ms"),
        "numcore.recurrent_steps": (_count(tr, "numcore.recurrent_steps", PHASE), "count"),
        "numcore.backward_ms_total": (_total(tr, "numcore.backward", PHASE) * ms, "ms"),
        "numcore.adam_ms_total": (_total(tr, "numcore.adam", PHASE) * ms, "ms"),
        "numcore.tape_nodes_per_step": (_mean(_samples(tr, "numcore.tape_nodes", PHASE)), "count"),
        "reader.context_ms_total": (_total(tr, "reader.context", PHASE) * ms, "ms"),
        "reader.context_tokens_p50": (_median(_samples(tr, "reader.context_tokens", answer)), "count"),
        "reader.passages_dropped": (_count(tr, "reader.passages_dropped", PHASE), "count"),
        "reader.decode_ms_total": (_total(tr, "reader.decode", PHASE) * ms, "ms"),
        "reader.locate_ms_total": (_total(tr, "reader.locate", PHASE) * ms, "ms"),
        "reader.examples_skipped": (_count(tr, "reader.examples_skipped", PHASE), "count"),
        "pipeline.load_state_s": (_total(tr, "pipeline.load_state", setup), "s"),
        "checkpoint.save_s": (_total(tr, "checkpoint.save", PHASE), "s"),
        "checkpoint.load_s": (_total(tr, "checkpoint.load", setup), "s"),
        "checkpoint.bytes": (_count(tr, "checkpoint.bytes", PHASE), "bytes"),
    }
    for stage in ("ingest", "build-index", "derive-labels"):
        values[f"pipeline.{stage}_s"] = (_total(tr, f"pipeline.{stage}", setup), "s")
    for stage in ("train-bridge", "cross-predict", "train-reader"):
        values[f"pipeline.{stage}_s"] = (_total(tr, f"pipeline.{stage}", PHASE), "s")

    phase_self = {}
    for section in PHASE:
        for name, seconds in tr.self_times(section).items():
            phase_self[name] = phase_self.get(name, 0.0) + seconds
    for module in ("ablation", "bridge", "checkpoint", "corpus", "numcore", "pipeline", "reader",
                   "retrieval", "span_model"):
        own = sum(t for n, t in phase_self.items() if n.split(".")[0] == module)
        values[f"self.{module}_s"] = (own, "s")
    layer_seconds = sum(t for n, t in phase_self.items() if not n.startswith(OWN))
    values["trace.coverage"] = (layer_seconds / traced["phase_wall"], "ratio")
    values["trace.overhead_frac"] = (traced["phase_wall"] / untraced_phase_wall - 1.0, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
