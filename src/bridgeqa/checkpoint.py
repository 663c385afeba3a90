"""Bit-exact parameter checkpoints that carry their vocabulary.

Layout: a directory holding manifest.json plus one raw binary file, named
`<sha256>.bin` after its content, that holds every tensor in name order as
one run of row-major little-endian 32-bit floats. The manifest holds the
vocabulary, that file's sha256, and lists {name, shape} sorted by name.

A save moves the tensor file into place complete, then commits weights and
vocabulary together with one atomic manifest write, and only then removes
the tensor files the new manifest does not name. So a failed save leaves
the previous checkpoint loadable as it was. Training runs in 64-bit, so
loading rounds parameters to their 32-bit serialized values.
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
FORMAT = "raw-f32-le-concat"


def save_checkpoint(store: ParamStore, directory: str | Path, vocab: dict[str, int]) -> dict:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(store.names())
    data = b"".join(np.ascontiguousarray(store[name].data, dtype="<f4").tobytes() for name in names)
    digest = hashlib.sha256(data).hexdigest()
    with atomic_write(directory / f"{digest}.bin") as fh:
        fh.buffer.write(data)
    entries = [{"name": name, "shape": list(store[name].data.shape)} for name in names]
    manifest = {"format": FORMAT, "sha256": digest, "tensors": entries, "vocab": vocab}
    write_json(directory / MANIFEST_NAME, manifest, indent=2)
    for path in directory.glob("*.bin"):
        if path.stem != digest:
            path.unlink()
    return manifest


def load_checkpoint(directory: str | Path) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """(arrays by parameter name, vocabulary), reading and verifying the
    tensor file once."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    where = f"checkpoint manifest {manifest_path}"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{where} is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    # the tensor file is decoded as one little-endian f32 run: a manifest of
    # another encoding, or of the one-file-per-tensor layout, would misload
    if manifest.get("format") != FORMAT:
        raise CheckpointError(f"{where} names the format {manifest.get('format')!r}, not {FORMAT!r}")
    if "vocab" not in manifest:
        raise CheckpointError(f"{where} holds no vocabulary")
    vocab = manifest["vocab"]
    if not isinstance(vocab, dict) or not all(isinstance(t, str) and type(row) is int for t, row in vocab.items()):
        raise CheckpointError(f"{where} holds a vocabulary that is not an object of token strings to integer rows")
    if not isinstance(manifest.get("tensors"), list):
        raise CheckpointError(f"{where} holds no tensor list")
    if not isinstance(manifest.get("sha256"), str):
        raise CheckpointError(f"{where} holds no tensor file hash")
    shapes: dict[str, tuple[int, ...]] = {}
    for i, entry in enumerate(manifest["tensors"]):
        lacking = [key for key in ("name", "shape") if not isinstance(entry, dict) or key not in entry]
        if lacking:
            raise CheckpointError(f"{where} has a tensor entry that lacks {lacking}")
        if not isinstance(entry["name"], str):
            raise CheckpointError(f"{where} gives tensor entry {i} a non-string ['name']")
        if entry["name"] in shapes:
            raise CheckpointError(f"{where} repeats {entry['name']!r} in tensor entry {i}")
        shape = entry["shape"]
        # a dimension is a JSON integer: a bool is not one
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"{where} gives {entry['name']!r} the shape {shape!r}")
        shapes[entry["name"]] = tuple(shape)
    path = directory / f"{manifest['sha256']}.bin"
    if not path.exists():
        raise CheckpointError(f"checkpoint tensor file missing: {path}")
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != manifest["sha256"]:
        raise CheckpointError(f"checkpoint hash mismatch ({path})")
    counts = [int(np.prod(shape)) for shape in shapes.values()]
    if len(data) != 4 * sum(counts):
        raise CheckpointError(f"checkpoint tensor file {path} truncated: {len(data)} bytes, expected {4 * sum(counts)}")
    chunks = np.split(np.frombuffer(data, dtype="<f4").astype(np.float64), np.cumsum(counts)[:-1])
    return {name: chunk.reshape(shape) for (name, shape), chunk in zip(shapes.items(), chunks)}, vocab


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
    """The sha256 of the committed manifest, which holds the tensor file's hash."""
    return file_sha256(Path(directory) / MANIFEST_NAME)
