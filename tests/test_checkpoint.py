import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from bridgeqa.checkpoint import (
    checkpoint_digest,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from bridgeqa.errors import CheckpointError, ValidationError
from bridgeqa.numcore import ParamStore

VOCAB = {"<unk>": 0, "kiss": 1, "tell": 2}


def store_fixture(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("enc/W", rng.normal(size=(4, 3)))
    store.add("enc/b", rng.normal(size=3))
    store.add("head/w", rng.normal(size=(3, 1)))
    return store


def tensor_path(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    return directory / f"{manifest['sha256']}.bin"


def test_round_trip_exact_at_f32(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    arrays, vocab = load_checkpoint(tmp_path / "ckpt")
    assert vocab == VOCAB
    for name, tensor in store.items():
        expected = tensor.data.astype("<f4").astype(np.float64)
        assert np.array_equal(arrays[name], expected)


def test_load_into_store_round_trips(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    other = store_fixture(seed=9)
    restore(other, load_checkpoint(tmp_path / "ckpt")[0])
    for name, tensor in store.items():
        assert np.array_equal(other[name].data, tensor.data.astype("<f4").astype(np.float64))


def test_directory_holds_the_manifest_and_one_tensor_file(tmp_path, monkeypatch):
    store = store_fixture()
    store.add("enc/b2", np.zeros(3))
    store.add("head/b", np.zeros(3))
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert [e["name"] for e in manifest["tensors"]] == sorted(store.names())
    files = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
    assert files == [f"{manifest['sha256']}.bin", "manifest.json"]
    # the one file is every tensor in name order, as one little-endian f32 run
    assert tensor_path(tmp_path / "ckpt").read_bytes() == b"".join(
        store[name].data.astype("<f4").tobytes() for name in sorted(store.names()))
    # a load reads it once
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p.name) or read_bytes(p))
    arrays, _ = load_checkpoint(tmp_path / "ckpt")
    assert reads == [files[0]]
    assert np.array_equal(arrays["enc/b2"], arrays["head/b"])
    # a later save removes the file its manifest no longer names
    save_checkpoint(store_fixture(seed=1), tmp_path / "ckpt", VOCAB)
    assert len(list((tmp_path / "ckpt").iterdir())) == 2
    assert not (tmp_path / "ckpt" / files[0]).exists()
    load_checkpoint(tmp_path / "ckpt")


def test_truncated_file_is_corruption_error(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    victim = tensor_path(tmp_path / "ckpt")
    data = victim.read_bytes()
    victim.write_bytes(data[:-4])
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(tmp_path / "ckpt")
    # a file that matches its hash but not the shapes: a tensor short
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["sha256"] = hashlib.sha256(data[:-4]).hexdigest()
    victim.rename(tensor_path(tmp_path / "ckpt").with_name(f"{manifest['sha256']}.bin"))
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=f"truncated: {len(data) - 4} bytes, expected {len(data)}"):
        load_checkpoint(tmp_path / "ckpt")


def test_hash_mismatch_is_corruption_error(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    victim = tensor_path(tmp_path / "ckpt")
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_tensor_file_is_corruption_error(tmp_path):
    save_checkpoint(store_fixture(), tmp_path / "ckpt", VOCAB)
    victim = tensor_path(tmp_path / "ckpt")
    victim.unlink()
    with pytest.raises(CheckpointError, match=f"checkpoint tensor file missing: {re.escape(str(victim))}"):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nowhere")


def test_manifest_without_vocabulary_is_refused(tmp_path):
    save_checkpoint(store_fixture(), tmp_path / "ckpt", VOCAB)
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["vocab"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="no vocabulary"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda text, manifest: text[: len(text) // 2], "is not valid JSON"),
        (lambda text, manifest: "[]", "is not a JSON object"),
        (lambda text, manifest: json.dumps({k: v for k, v in manifest.items() if k != "tensors"}), "no tensor list"),
        (lambda text, manifest: json.dumps({**manifest, "tensors": [
            {k: v for k, v in manifest["tensors"][0].items() if k != "shape"}]}), "lacks \\['shape'\\]"),
        (lambda text, manifest: json.dumps({**manifest, "tensors": [
            {**manifest["tensors"][0], "shape": [-4, -3]}]}), "the shape \\[-4, -3\\]"),
        # these used to load as f32, or to raise a TypeError naming no file
        (lambda text, manifest: json.dumps({**manifest, "format": "raw-f16-be"}),
         "names the format 'raw-f16-be', not 'raw-f32-le-concat'"),
        # the earlier layout: one file per tensor content, each entry with its own dtype and sha256
        (lambda text, manifest: json.dumps({**manifest, "format": "raw-f32-le"}),
         "names the format 'raw-f32-le', not 'raw-f32-le-concat'"),
        (lambda text, manifest: json.dumps({**manifest, "tensors": [
            {**manifest["tensors"][0], "shape": [True, 3]}]}), "the shape \\[True, 3\\]"),
        # a later entry of the same name would replace the first one's tensor
        (lambda text, manifest: json.dumps({**manifest, "tensors": manifest["tensors"] + [
            {**manifest["tensors"][1], "name": manifest["tensors"][0]["name"]}]}), "repeats '.*' in tensor entry 3"),
        (lambda text, manifest: json.dumps({**manifest, "tensors": [
            {**manifest["tensors"][0], "name": ["enc/W"]}]}), "tensor entry 0 a non-string \\['name'\\]"),
        (lambda text, manifest: json.dumps({**manifest, "sha256": ["x"]}), "holds no tensor file hash"),
        # either used to load, the fault surfacing later in the embedding lookup
        (lambda text, manifest: json.dumps({**manifest, "vocab": list(manifest["vocab"])}), "vocabulary that is not"),
        (lambda text, manifest: json.dumps({**manifest, "vocab": {"<unk>": "zero"}}), "vocabulary that is not"),
        (lambda text, manifest: json.dumps({**manifest, "vocab": {"<unk>": True}}), "vocabulary that is not"),
    ],
    ids=["truncated", "not-an-object", "no-tensors", "entry-without-shape", "negative-shape", "format-not-f32-le",
         "format-of-the-per-tensor-layout", "shape-of-a-bool", "repeated-name",
         "name-not-a-string", "sha256-not-a-string", "vocab-a-list", "vocab-row-a-string", "vocab-row-a-bool"],
)
def test_malformed_manifest_is_refused_naming_its_path(tmp_path, damage, message):
    save_checkpoint(store_fixture(), tmp_path / "ckpt", VOCAB)
    path = tmp_path / "ckpt" / "manifest.json"
    text = path.read_text()
    path.write_text(damage(text, json.loads(text)))
    with pytest.raises(CheckpointError, match=f"checkpoint manifest {re.escape(str(path))} .*{message}"):
        load_checkpoint(tmp_path / "ckpt")


def test_two_saves_byte_identical(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "a", VOCAB)
    save_checkpoint(store, tmp_path / "b", VOCAB)
    assert checkpoint_digest(tmp_path / "a") == checkpoint_digest(tmp_path / "b")
    for path_a in sorted((tmp_path / "a").iterdir()):
        path_b = tmp_path / "b" / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()
    save_checkpoint(store, tmp_path / "b", {**VOCAB, "archer": 3})
    assert checkpoint_digest(tmp_path / "a") != checkpoint_digest(tmp_path / "b")


def test_missing_parameter_rejected(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    bigger = store_fixture(seed=1)
    bigger.add("extra/w", np.zeros(2))
    with pytest.raises(CheckpointError, match="extra/w"):
        restore(bigger, load_checkpoint(tmp_path / "ckpt")[0])


def test_restore_refuses_a_read_only_store(tmp_path):
    # rebinding .data would get past the arrays' write flags and leave the
    # store's cached fused weights stale
    save_checkpoint(store_fixture(seed=1), tmp_path / "ck", VOCAB)
    arrays, _ = load_checkpoint(tmp_path / "ck")
    store = store_fixture(seed=0)
    store.make_read_only()
    before = {name: t.data for name, t in store.items()}
    with pytest.raises(ValidationError, match="read-only"):
        restore(store, arrays)
    assert all(store[name].data is array for name, array in before.items())


def test_restore_lists_every_tensor_whose_shape_does_not_fit(tmp_path):
    store = store_fixture()
    save_checkpoint(store, tmp_path / "ckpt", VOCAB)
    arrays = load_checkpoint(tmp_path / "ckpt")[0]
    names = sorted(arrays)
    wrong = {names[0]: np.zeros(arrays[names[0]].shape + (2,)), names[-1]: np.zeros((7,))}
    with pytest.raises(CheckpointError) as info:
        restore(store, {**arrays, **wrong})
    for name, array in wrong.items():
        assert f"{name!r} {array.shape} in the checkpoint, {store[name].data.shape} in the model" in str(info.value)
    # nothing was restored
    assert all(np.array_equal(store[n].data, store_fixture()[n].data) for n in names)


def fail_save_at(tmp_path, monkeypatch, failing):
    """Save over a committed checkpoint, and into a fresh directory, with
    os.replace failing for the targets `failing` picks; then check that the
    committed checkpoint loads as it was, weights and vocabulary."""
    save_checkpoint(store_fixture(), tmp_path / "ckpt", VOCAB)
    before = (tmp_path / "ckpt" / "manifest.json").read_bytes()
    real_replace = os.replace

    def replace(src, dst):
        if failing(str(dst)):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    for directory in (tmp_path / "ckpt", tmp_path / "fresh"):
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(store_fixture(seed=1), directory, {"<unk>": 0})
        assert not [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]
    assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == before
    arrays, vocab = load_checkpoint(tmp_path / "ckpt")
    assert vocab == VOCAB
    for name, tensor in store_fixture().items():
        assert np.array_equal(arrays[name], tensor.data.astype("<f4").astype(np.float64))
    # a first save commits nothing
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        load_checkpoint(tmp_path / "fresh")


def test_failed_save_keeps_the_previous_manifest(tmp_path, monkeypatch):
    # the save fails when it commits its manifest, after every tensor file is written
    fail_save_at(tmp_path, monkeypatch, lambda dst: dst.endswith("manifest.json"))


def test_save_failing_at_a_tensor_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    fail_save_at(tmp_path, monkeypatch, lambda dst: dst.endswith(".bin"))
