"""Bit-exact parameter checkpoints that carry their vocabulary.

Layout: a directory holding manifest.json plus one raw binary file per
distinct tensor content, named `<sha256>.bin` after that content. Each
tensor file is row-major little-endian 32-bit floats. The manifest holds
the vocabulary and lists {name, shape, dtype, sha256} sorted by name.

A save moves each tensor file into place complete, then commits weights
and vocabulary together with one atomic manifest write, and only then
removes the tensor files the new manifest does not name. So a failed save
leaves the previous checkpoint loadable as it was. Training runs in
64-bit, so loading rounds parameters to their 32-bit serialized values.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .manifest import atomic_write, file_sha256, write_json
from .numcore import ParamStore

MANIFEST_NAME = "manifest.json"
# the one tensor encoding a checkpoint holds, as its manifest names it
FORMAT, DTYPE = "raw-f32-le", "f32"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_checkpoint(store: ParamStore, directory: str | Path, vocab: dict[str, int]) -> dict:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    written: set[str] = set()
    for name in sorted(store.names()):
        array = store[name].data
        data = np.ascontiguousarray(array, dtype="<f4").tobytes()
        digest = _sha256(data)
        if digest not in written:
            with atomic_write(directory / f"{digest}.bin") as fh:
                fh.buffer.write(data)
            written.add(digest)
        entries.append({"name": name, "shape": list(array.shape), "dtype": DTYPE, "sha256": digest})
    manifest = {"format": FORMAT, "tensors": entries, "vocab": vocab}
    write_json(directory / MANIFEST_NAME, manifest, indent=2)
    for path in directory.glob("*.bin"):
        if path.stem not in written:
            path.unlink()
    return manifest


def load_checkpoint(directory: str | Path) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """(arrays by parameter name, vocabulary), reading and verifying each
    tensor file once."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint manifest {manifest_path} is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"checkpoint manifest {manifest_path} is not a JSON object")
    # every tensor is decoded as little-endian f32: a manifest naming another
    # encoding would load as f32 without complaint
    if manifest.get("format") != FORMAT:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} names the format {manifest.get('format')!r}, not {FORMAT!r}"
        )
    if "vocab" not in manifest:
        raise CheckpointError(f"checkpoint manifest {manifest_path} holds no vocabulary")
    vocab = manifest["vocab"]
    if not isinstance(vocab, dict) or not all(isinstance(t, str) and type(row) is int for t, row in vocab.items()):
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} holds a vocabulary that is not an object of token strings "
            "to integer rows"
        )
    if not isinstance(manifest.get("tensors"), list):
        raise CheckpointError(f"checkpoint manifest {manifest_path} holds no tensor list")
    contents: dict[str, bytes] = {}
    arrays: dict[str, np.ndarray] = {}
    for i, entry in enumerate(manifest["tensors"]):
        lacking = [key for key in ("name", "shape", "dtype", "sha256") if not isinstance(entry, dict) or key not in entry]
        if lacking:
            raise CheckpointError(f"checkpoint manifest {manifest_path} has a tensor entry that lacks {lacking}")
        mistyped = [key for key in ("name", "sha256") if not isinstance(entry[key], str)]
        if mistyped:
            raise CheckpointError(f"checkpoint manifest {manifest_path} gives tensor entry {i} a non-string {mistyped}")
        if entry["name"] in arrays:
            raise CheckpointError(f"checkpoint manifest {manifest_path} repeats {entry['name']!r} in tensor entry {i}")
        if entry["dtype"] != DTYPE:
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} gives {entry['name']!r} the dtype {entry['dtype']!r}, not {DTYPE!r}"
            )
        shape = entry["shape"]
        # a dimension is a JSON integer: a bool is not one
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"checkpoint manifest {manifest_path} gives {entry['name']!r} the shape {shape!r}")
        digest = entry["sha256"]
        if digest not in contents:
            path = directory / f"{digest}.bin"
            if not path.exists():
                raise CheckpointError(f"checkpoint tensor file missing: {path}")
            contents[digest] = path.read_bytes()
            if _sha256(contents[digest]) != digest:
                raise CheckpointError(f"checkpoint hash mismatch for {entry['name']!r} ({path})")
        data = contents[digest]
        shape = tuple(shape)
        expected = int(np.prod(shape)) * 4 if shape else 4
        if len(data) != expected:
            raise CheckpointError(
                f"checkpoint tensor {entry['name']!r} truncated: {len(data)} bytes, expected {expected}"
            )
        arrays[entry["name"]] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
    return arrays, vocab


def restore(store: ParamStore, arrays: dict[str, np.ndarray]) -> None:
    """Set every parameter of an already-initialized store from a
    checkpoint's arrays, whose names and shapes must be the store's; a
    mismatch raises before any parameter is set. A read-only store is
    refused: rebinding a tensor's array would get past its write flags and
    leave the store's cached fused weights stale."""
    store.check_writable("restore")
    missing, unknown = sorted(set(store.names()) - set(arrays)), sorted(set(arrays) - set(store.names()))
    if missing or unknown:
        raise CheckpointError(f"checkpoint of another model: parameters missing {missing}, unknown {unknown}")
    misfits = [
        f"{name!r} {np.shape(arrays[name])} in the checkpoint, {store[name].data.shape} in the model"
        for name in store.names()
        if np.shape(arrays[name]) != store[name].data.shape
    ]
    if misfits:
        raise CheckpointError(f"checkpoint shapes do not fit the config: {'; '.join(misfits)}")
    for name in store.names():
        store[name].data = np.array(arrays[name], dtype=np.float64)


def checkpoint_digest(directory: str | Path) -> str:
    """The sha256 of the committed manifest, which holds every tensor's hash."""
    return file_sha256(Path(directory) / MANIFEST_NAME)
