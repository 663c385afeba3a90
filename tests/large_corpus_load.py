"""Load a large corpus and check every passage against the plain oracles.

    PYTHONPATH=src:tests:bench python tests/large_corpus_load.py [--distractors 20000]

Writes the benchmark's fixture plus `--distractors` of its synthetic
distractor pages (bench/inputs.py) to a temporary JSONL file and loads it
with corpus.load_corpus. Every passage's tokens and offsets must equal
tokenize's, and every anchor must equal reference_alignment.align_by_scan's.
Prints the load's seconds and the process's peak RSS; no bound is set on
either. The exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import inputs
from reference_alignment import align_by_scan

from bridgeqa.corpus import AnchorMention, load_corpus, tokenize


def problems_of(corpus) -> list[str]:
    """Every passage whose tokens, offsets or anchors differ from the oracles'."""
    problems = []
    for p in corpus.passages:
        for field, source in (("tokens", p.text), ("title_tokens", p.title)):
            got, want = getattr(p, field), tokenize(source)
            if (got.tokens, got.char_offsets) != (want.tokens, want.char_offsets):
                problems.append(f"passage {p.id!r}: {field} differ from tokenize's")
        for a in p.anchors:
            if a != align_by_scan(p, AnchorMention(a.target_title, a.char_start, a.char_end)):
                problems.append(f"passage {p.id!r}: anchor {a!r} differs from the linear scan's")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--distractors", type=int, default=20_000)
    args = parser.parse_args(argv)
    passages, _, _ = inputs.fixture()
    passages += inputs.distractor_passages(args.distractors, {p["title"] for p in passages})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for p in passages:
                fh.write(json.dumps(p, ensure_ascii=False, sort_keys=True) + "\n")
        started = time.perf_counter()
        corpus = load_corpus(path)
        seconds = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"loaded {len(corpus)} pages in {seconds:.2f} s; peak RSS {peak_mb:.0f} MB")
    problems = problems_of(corpus)
    if len(corpus) != len(passages):
        problems.append(f"{len(corpus)} pages loaded of {len(passages)} written")
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
