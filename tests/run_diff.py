"""Compare two pipeline output directories file by file.

    python tests/run_diff.py A B

Prints one line per file: `identical`, or `differs` with where the first
difference lies. In a JSON or JSON Lines file that is the first differing
line and the key path within it (`/` joins keys and list indices); in any
other file, the first differing byte. A file in one directory alone is
named as such. The run manifest (A's and B's own top-level manifest.json)
is compared as parsed, its entries' wall times, fold seconds, RSS figures,
timestamps and output directory left out: they are measurements and
places, not results. Exits 0 when every file matches and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_MANIFEST = "manifest.json"
UNCOMPARED_KEYS = frozenset(
    {"wall_seconds", "fold_seconds", "peak_rss_mb", "fold_b_peak_rss_mb", "timestamp", "output_dir"}
)


def first_difference(a, b, path: str = "") -> str | None:
    """The key path of the first place two parsed JSON values differ, with
    both values there, or None when they are equal (1 and 1.0 and true
    differ, as their text does)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}/{key}: only in {'A' if key in a else 'B'}"
            found = first_difference(a[key], b[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}/{i}")
            if found:
                return found
        return None if len(a) == len(b) else f"{path or '/'}: {len(a)} items against {len(b)}"
    if type(a) is type(b) and a == b:
        return None
    return f"{path or '/'}: {a!r} against {b!r}"


def _uncompared_left_out(obj):
    if isinstance(obj, dict):
        return {k: _uncompared_left_out(v) for k, v in obj.items() if k not in UNCOMPARED_KEYS}
    if isinstance(obj, list):
        return [_uncompared_left_out(v) for v in obj]
    return obj


def _parsed(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        return f"<not JSON: {exc.msg}>"


def _text(data: bytes) -> str:
    return data.decode("utf-8", "replace")


def compare_file(a: Path, b: Path, name: str) -> str | None:
    """Where the files a and b first differ, or None when they match; name
    is their path relative to the run, which picks how they are read."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if name == RUN_MANIFEST:
        found = first_difference(*(_uncompared_left_out(_parsed(_text(data))) for data in (data_a, data_b)))
        return None if found is None else f"key {found}"
    if data_a == data_b:
        return None
    if name.endswith((".json", ".jsonl")):
        text_a, text_b = _text(data_a), _text(data_b)
        lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
        line_no = next((n for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1) if x != y), None)
        if line_no is None:
            if len(lines_a) == len(lines_b):
                return "the same lines, other line ends"
            longer = "A" if len(lines_a) > len(lines_b) else "B"
            return f"line {min(len(lines_a), len(lines_b)) + 1}: only in {longer}"
        if name.endswith(".jsonl"):
            found = first_difference(_parsed(lines_a[line_no - 1]), _parsed(lines_b[line_no - 1]))
        else:
            found = first_difference(_parsed(text_a), _parsed(text_b))
        return f"line {line_no}, key {found}" if found else f"line {line_no}: the same values, other text"
    offset = next((i for i, (x, y) in enumerate(zip(data_a, data_b)) if x != y), min(len(data_a), len(data_b)))
    return f"byte {offset} ({len(data_a)} bytes against {len(data_b)})"


def compare_runs(a: str | Path, b: str | Path) -> list[tuple[str, str | None]]:
    """(path relative to the run, where it differs or None) for every file
    of either run, in path order."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    report = []
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            report.append((name, f"only in {'A' if name in files_a else 'B'}"))
        else:
            report.append((name, compare_file(a / name, b / name, name)))
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report = compare_runs(*argv)
    for name, where in report:
        print(f"identical  {name}" if where is None else f"differs    {name}: {where}")
    n_differ = sum(where is not None for _, where in report)
    print(f"{len(report)} files, {n_differ} differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
