"""Bit-exact parameter checkpoints.

Layout: a directory holding manifest.json plus one raw binary file per
tensor. Each tensor file is row-major little-endian 32-bit floats; the
manifest lists {name, shape, dtype, file, sha256} sorted by name. Training
runs in 64-bit, so loading a checkpoint rounds parameters to their 32-bit
serialized values.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .manifest import atomic_write
from .numcore import ParamStore

MANIFEST_NAME = "manifest.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_checkpoint(store: ParamStore, directory: str | Path) -> dict:
    """Write the tensor files, then commit them by moving the manifest into
    place; a failed save leaves the previous manifest, whose hashes reject
    any tensor file the save overwrote."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, name in enumerate(sorted(store.names())):
        tensor = store[name]
        data = np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
        filename = f"tensor_{i:04d}.bin"
        (directory / filename).write_bytes(data)
        entries.append(
            {
                "name": name,
                "shape": list(tensor.data.shape),
                "dtype": "f32",
                "file": filename,
                "sha256": _sha256(data),
            }
        )
    manifest = {"format": "raw-f32-le", "tensors": entries}
    with atomic_write(directory / MANIFEST_NAME) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_checkpoint_arrays(directory: str | Path) -> dict[str, np.ndarray]:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        path = directory / entry["file"]
        if not path.exists():
            raise CheckpointError(f"checkpoint tensor file missing: {path}")
        data = path.read_bytes()
        if _sha256(data) != entry["sha256"]:
            raise CheckpointError(f"checkpoint hash mismatch for {entry['name']!r} ({path})")
        shape = tuple(entry["shape"])
        expected = int(np.prod(shape)) * 4 if shape else 4
        if len(data) != expected:
            raise CheckpointError(
                f"checkpoint tensor {entry['name']!r} truncated: {len(data)} bytes, expected {expected}"
            )
        arr = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
        arrays[entry["name"]] = arr
    return arrays


def load_checkpoint(store: ParamStore, directory: str | Path) -> None:
    """Load saved tensors into an already-initialized store (shapes must match)."""
    arrays = load_checkpoint_arrays(directory)
    missing = [n for n in store.names() if n not in arrays]
    if missing:
        raise CheckpointError(f"checkpoint lacks parameters: {missing}")
    store.load_arrays(arrays)


def checkpoint_digest(directory: str | Path) -> str:
    """One hash covering the whole checkpoint directory (manifest included)."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
