import json

import numpy as np
import pytest

from bridgeqa.checkpoint import (
    checkpoint_digest,
    load_checkpoint,
    load_checkpoint_arrays,
    save_checkpoint,
)
from bridgeqa.errors import CheckpointError
from bridgeqa.numcore import ParamStore


def store_fixture(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("enc/W", rng.normal(size=(4, 3)))
    store.add("enc/b", rng.normal(size=3))
    store.add("head/w", rng.normal(size=(3, 1)))
    return store


def test_round_trip_exact_at_f32(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt")
    arrays = load_checkpoint_arrays(tmp_path / "ckpt")
    for name, tensor in store.items():
        expected = tensor.data.astype("<f4").astype(np.float64)
        assert np.array_equal(arrays[name], expected)


def test_load_into_store_round_trips(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt")
    other = store_fixture(seed=9)
    load_checkpoint(other, tmp_path / "ckpt")
    for name, tensor in store.items():
        assert np.array_equal(other[name].data, tensor.data.astype("<f4").astype(np.float64))


def test_truncated_file_is_corruption_error(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    victim = tmp_path / "ckpt" / manifest["tensors"][0]["file"]
    data = victim.read_bytes()
    victim.write_bytes(data[:-4])
    with pytest.raises(CheckpointError):
        load_checkpoint_arrays(tmp_path / "ckpt")


def test_hash_mismatch_is_corruption_error(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    victim = tmp_path / "ckpt" / manifest["tensors"][0]["file"]
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint_arrays(tmp_path / "ckpt")


def test_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint_arrays(tmp_path / "nowhere")


def test_two_saves_byte_identical(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "a")
    save_checkpoint(store, tmp_path / "b")
    assert checkpoint_digest(tmp_path / "a") == checkpoint_digest(tmp_path / "b")
    for path_a in sorted((tmp_path / "a").iterdir()):
        path_b = tmp_path / "b" / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_missing_parameter_rejected(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt")
    bigger = store_fixture(seed=1)
    bigger.add("extra/w", np.zeros(2))
    with pytest.raises(CheckpointError, match="extra/w"):
        load_checkpoint(bigger, tmp_path / "ckpt")


def test_failed_save_keeps_the_previous_manifest(tmp_path, monkeypatch):
    import os

    save_checkpoint(store_fixture(), tmp_path / "ckpt")
    before = (tmp_path / "ckpt" / "manifest.json").read_bytes()

    def fail(*args):
        raise OSError("disk full")

    # the save fails when it commits its manifest, after every tensor file is written
    monkeypatch.setattr(os, "replace", fail)
    for directory in (tmp_path / "ckpt", tmp_path / "fresh"):
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(store_fixture(seed=1), directory)
        assert not [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]
    assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == before
    # the previous manifest rejects the overwritten tensors; a first save commits nothing
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_checkpoint_arrays(tmp_path / "ckpt")
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        load_checkpoint_arrays(tmp_path / "fresh")
