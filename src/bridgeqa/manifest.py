"""Run manifests: one JSON log per output directory recording every stage,
its config snapshot, seeds, and artifact hashes, plus the mechanical
fold-hygiene check over reader training provenance. Also the one atomic
writer and the one reader of the JSON and line-delimited JSON artifacts."""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from .errors import ValidationError

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


def write_json(path: str | Path, obj, indent: int | None = None) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=indent, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, rows) -> None:
    """Write one JSON object per line, atomically."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def iter_jsonl(path: str | Path):
    """(line number, JSON object) for each line of a line-delimited file,
    skipping blank lines. A line that is not a JSON object raises
    ValidationError naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path} line {line_no}: not valid JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise ValidationError(f"{path} line {line_no}: not a JSON object")
            yield line_no, row


def read_jsonl(path: str | Path) -> list[dict]:
    """The JSON objects of a line-delimited file, as iter_jsonl reads them."""
    return [row for _, row in iter_jsonl(path)]


def read_manifest(output_dir: str | Path) -> list[dict]:
    """The manifest's entries (none before the first stage). A file that is
    not a JSON list of objects raises ValidationError naming it."""
    path = Path(output_dir) / MANIFEST_FILE
    if not path.exists():
        return []
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"{path}: not a list of stage entries")
    return entries


def append_manifest(output_dir: str | Path, entry: dict) -> None:
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    entries = read_manifest(output_dir)
    entry = dict(entry)
    entry.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()))
    entries.append(entry)
    write_json(output_dir / MANIFEST_FILE, entries, indent=2)


def read_folds(path: str | Path) -> dict[str, set[str]]:
    """folds.json's fold assignment: fold name -> its question ids. A file
    that is not a JSON object of fold names to lists of question-id strings
    raises ValidationError naming it."""
    try:
        folds = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{path}: not a fold assignment ({exc!r})") from exc
    if not (isinstance(folds, dict) and all(isinstance(qids, list) for qids in folds.values())
            and all(isinstance(qid, str) for qids in folds.values() for qid in qids)):
        raise ValidationError(f"{path}: not a fold assignment (fold name -> list of question ids)")
    return {name: set(qids) for name, qids in folds.items()}


def fold_violation(folds: dict[str, set[str]], qid: str, fold) -> str | None:
    """Why the fold named fold may not have predicted the passages of
    question qid, or None when it may: the fold is one of folds.json, it does
    not hold the question, and another fold does."""
    if not (isinstance(fold, str) and fold in folds):
        return f"predicted_by_fold {fold!r} is not a fold of folds.json"
    if qid in folds[fold]:
        return f"predicted by fold {fold!r}, which trained on {qid!r}"
    if not any(qid in qids for qids in folds.values()):
        return f"no fold of folds.json holds {qid!r}"
    return None


def verify_fold_hygiene(output_dir: str | Path) -> list[str]:
    """Check, from run artifacts alone, that every reader training example's
    passages were predicted by a fold that may predict them (fold_violation).

    Returns a list of violation descriptions (empty means clean); a
    malformed folds.json or example row is one, naming its file and line.
    """
    output_dir = Path(output_dir)
    folds_path = output_dir / "folds.json"
    examples_path = output_dir / "reader_examples.jsonl"
    if not folds_path.exists():
        return [f"missing fold assignments: {folds_path}"]
    if not examples_path.exists():
        return [f"missing reader example provenance: {examples_path}"]
    violations: list[str] = []
    try:
        folds = read_folds(folds_path)
        for line_no, rec in iter_jsonl(examples_path):
            qid, fold = rec.get("qid"), rec.get("predicted_by_fold")
            if not isinstance(qid, str):
                violations.append(f"{examples_path} line {line_no}: missing or mistyped 'qid'")
            elif fold is not None:  # None: retriever-sourced context; no fold applies
                problem = fold_violation(folds, qid, fold)
                if problem is not None:
                    violations.append(f"example {qid}: {problem}")
    except ValidationError as exc:
        violations.append(str(exc))
    return violations
