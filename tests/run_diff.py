"""Compare two pipeline output directories file by file.

    python tests/run_diff.py A B

Prints one line per file: `identical`, or `differs` with where the first
difference lies. In a JSON or JSON Lines file that is the first differing
line and the key path within it (`/` joins keys and list indices); in any
other file, the first differing byte. A file in one directory alone is
named as such. The run manifest (A's and B's own top-level manifest.json)
is compared as parsed, its entries' wall times, fold seconds, RSS figures,
timestamps and output directory left out: they are measurements and
places, not results. A checkpoint directory held by both runs
(`checkpoints/<name>/`) is one entry, compared as a checkpoint: its
manifest and the tensor file it names are read, and the first tensor whose
name, shape or values differ is named, with the flat index and both values
of its first differing element. Exits 0 when every entry matches and 1
otherwise.
"""

from __future__ import annotations

import json
import struct
import sys
from math import prod
from pathlib import Path

RUN_MANIFEST = "manifest.json"
CHECKPOINT_MANIFEST = "manifest.json"
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


def _tensor_file(manifest) -> str:
    """The name of the tensor file a checkpoint manifest names."""
    return f"{manifest['sha256']}.bin"


def _read_checkpoint(directory: Path) -> tuple[dict, bytes]:
    """A checkpoint's manifest and the bytes of the tensor file it names;
    ValueError says what is not there."""
    try:
        manifest = json.loads((directory / CHECKPOINT_MANIFEST).read_text(encoding="utf-8"))
        tensor_file = directory / _tensor_file(manifest)
        entries = [(entry["name"], entry["shape"]) for entry in manifest["tensors"]]
        size = 4 * sum(prod(shape) for _, shape in entries)
        data = tensor_file.read_bytes()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"not a readable checkpoint ({exc!r})") from exc
    if len(data) != size:
        raise ValueError(f"{tensor_file.name} holds {len(data)} bytes, its shapes {size}")
    return manifest, data


def compare_checkpoint(a: Path, b: Path) -> str | None:
    """Where the checkpoint directories a and b first differ, or None when
    they hold the same tensors and the same manifest but for the tensor
    file's hash: the first tensor whose name, shape or values differ, then
    any other manifest key."""
    checkpoints = []
    for side, directory in (("A", a), ("B", b)):
        try:
            checkpoints.append(_read_checkpoint(directory))
        except ValueError as exc:
            return f"{side}: {exc}"
    (manifest_a, data_a), (manifest_b, data_b) = checkpoints
    offset = 0
    for i, (entry_a, entry_b) in enumerate(zip(manifest_a["tensors"], manifest_b["tensors"])):
        name, shape = entry_a["name"], entry_a["shape"]
        if (entry_b["name"], entry_b["shape"]) != (name, shape):
            return f"tensor {i}: {name!r} {shape} against {entry_b['name']!r} {entry_b['shape']}"
        end = offset + 4 * prod(shape)
        if data_a[offset:end] != data_b[offset:end]:
            k = next(k for k in range(offset, end, 4) if data_a[k : k + 4] != data_b[k : k + 4])
            (x,), (y,) = struct.unpack_from("<f", data_a, k), struct.unpack_from("<f", data_b, k)
            return f"tensor {name!r} {shape}, flat index {(k - offset) // 4}: {x!r} against {y!r}"
        offset = end
    n_a, n_b = len(manifest_a["tensors"]), len(manifest_b["tensors"])
    if n_a != n_b:
        return f"{n_a} tensors against {n_b}"
    rest = [{k: v for k, v in m.items() if k not in ("sha256", "tensors")} for m in (manifest_a, manifest_b)]
    found = first_difference(*rest)
    return None if found is None else f"manifest key {found}"


def compare_runs(a: str | Path, b: str | Path) -> list[tuple[str, str | None]]:
    """(path relative to the run, where it differs or None) for every file
    of either run, in path order; a checkpoint directory both runs hold is
    one entry, `checkpoints/<name>/`, in place of its manifest and the
    tensor files."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    checkpoints = {
        name[: -len(CHECKPOINT_MANIFEST)]
        for name in files_a & files_b
        if name.startswith("checkpoints/") and name.count("/") == 2 and name.endswith("/" + CHECKPOINT_MANIFEST)
    }
    report = [(name, compare_checkpoint(a / name, b / name)) for name in checkpoints]
    covered = {name + CHECKPOINT_MANIFEST for name in checkpoints}
    for name in checkpoints:
        for run in (a, b):
            try:
                covered.add(name + _tensor_file(json.loads((run / name / CHECKPOINT_MANIFEST).read_bytes())))
            except (ValueError, KeyError, TypeError):
                pass  # compare_checkpoint reports the manifest
    for name in (files_a | files_b) - covered:
        if name not in files_b or name not in files_a:
            report.append((name, f"only in {'A' if name in files_a else 'B'}"))
        else:
            report.append((name, compare_file(a / name, b / name, name)))
    return sorted(report, key=lambda item: item[0])


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
