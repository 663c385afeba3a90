"""Run manifests: one JSON log per output directory recording every stage,
its config snapshot, seeds, and artifact hashes, plus the mechanical
fold-hygiene check over reader training provenance."""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

MANIFEST_FILE = "manifest.json"


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_write(path: str | Path):
    """Open a text file for writing through a temporary file beside it, moved
    over `path` with os.replace on success. On failure the temporary file is
    removed and the previous file, if any, stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_manifest(output_dir: str | Path) -> list[dict]:
    path = Path(output_dir) / MANIFEST_FILE
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8"))


def append_manifest(output_dir: str | Path, entry: dict) -> None:
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    entries = read_manifest(output_dir)
    entry = dict(entry)
    entry.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()))
    entries.append(entry)
    with atomic_write(output_dir / MANIFEST_FILE) as fh:
        fh.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def verify_fold_hygiene(output_dir: str | Path) -> list[str]:
    """Check, from run artifacts alone, that no reader training example's
    passages were predicted by the reasoner fold trained on that example.

    Returns a list of violation descriptions (empty means clean).
    """
    output_dir = Path(output_dir)
    folds_path = output_dir / "folds.json"
    examples_path = output_dir / "reader_examples.jsonl"
    if not folds_path.exists():
        return [f"missing fold assignments: {folds_path}"]
    if not examples_path.exists():
        return [f"missing reader example provenance: {examples_path}"]
    folds = json.loads(folds_path.read_text(encoding="utf-8"))
    violations: list[str] = []
    with open(examples_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            fold = rec.get("predicted_by_fold")
            if fold is None:
                continue  # retriever-sourced context (comparison questions); no fold applies
            if fold not in folds:
                violations.append(f"example {rec['qid']}: unknown fold {fold!r}")
            elif rec["qid"] in folds[fold]:
                violations.append(
                    f"example {rec['qid']}: passages predicted by fold {fold!r}, "
                    f"which contained the example itself"
                )
    return violations
