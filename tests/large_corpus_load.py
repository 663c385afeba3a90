"""Load a large corpus and check every passage against the plain oracles.

    PYTHONPATH=src:tests:bench python tests/large_corpus_load.py [--distractors 20000]

Writes the benchmark's fixture plus `--distractors` of its synthetic
distractor pages (bench/inputs.py) to a temporary JSONL file, drops the
generated records, and loads the file with corpus.load_corpus. Every
passage's tokens and offsets must equal tokenize's, every anchor must equal
reference_alignment.align_by_scan's, and every distinct token must be one
str object across the corpus. Prints the load's seconds, its resident-set
growth (Linux's /proc/self/statm, before and after the load) in MB and in
bytes per page, and the process's peak RSS; no bound is set on them. The
exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
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


def shared_token_problems(corpus) -> list[str]:
    """One problem per distinct token held as more than one str object."""
    objects: dict[str, set[int]] = {}
    for p in corpus.passages:
        for seq in (p.tokens, p.title_tokens):
            for token in seq.tokens:
                objects.setdefault(token, set()).add(id(token))
    return [f"token {t!r} is {len(ids)} objects" for t, ids in objects.items() if len(ids) > 1]


def write_corpus(path: Path, distractors: int) -> int:
    """Write the fixture plus distractors pages to path; returns the page
    count. The generated records die on return, before any load."""
    passages, _, _ = inputs.fixture()
    passages += inputs.distractor_passages(distractors, {p["title"] for p in passages})
    with open(path, "w", encoding="utf-8") as fh:
        for p in passages:
            fh.write(json.dumps(p, ensure_ascii=False, sort_keys=True) + "\n")
    return len(passages)


def rss_bytes() -> int:
    """The process's resident set now, from /proc/self/statm (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--distractors", type=int, default=20_000)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        n_pages = write_corpus(path, args.distractors)
        rss_before = rss_bytes()
        started = time.perf_counter()
        corpus = load_corpus(path)
        seconds = time.perf_counter() - started
        growth = rss_bytes() - rss_before
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"loaded {len(corpus)} pages in {seconds:.2f} s; RSS grew {growth / 2**20:.0f} MB "
        f"({growth / len(corpus):.0f} bytes per page); peak RSS {peak_mb:.0f} MB"
    )
    problems = problems_of(corpus) + shared_token_problems(corpus)
    if len(corpus) != n_pages:
        problems.append(f"{len(corpus)} pages loaded of {n_pages} written")
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
