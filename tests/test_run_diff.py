import hashlib
import json
import shutil
import struct
from math import prod

from run_diff import compare_runs, main


def _copy(mini_run, tmp_path, name):
    copy = tmp_path / name
    shutil.copytree(mini_run.output_dir, copy)
    return copy


def test_a_run_compared_with_its_copy_is_identical_file_by_file(mini_run, tmp_path, capsys):
    copy = _copy(mini_run, tmp_path, "copy")
    report = compare_runs(mini_run.output_dir, copy)
    names = {name for name, _ in report}
    assert {"report.json", "predictions.jsonl", "checkpoints/bridge/", "checkpoints/reader/"} <= names
    assert not [name for name in names if name.startswith("checkpoints/") and not name.endswith("/")]
    assert all(where is None for _, where in report)
    assert main([mini_run.output_dir, str(copy)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f"{len(report)} files, 0 differ")


def test_names_a_file_changed_by_one_byte_and_a_row_changed_in_one_field(mini_run, tmp_path, capsys):
    original, copy = _copy(mini_run, tmp_path, "original"), _copy(mini_run, tmp_path, "copy")
    data = bytearray(range(256))
    (original / "notes.dat").write_bytes(bytes(data))
    data[100] ^= 1
    (copy / "notes.dat").write_bytes(bytes(data))
    path = copy / "predictions.jsonl"
    rows = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[2])
    old_answer, row["answer"] = row["answer"], row["answer"] + " x"
    rows[2] = json.dumps(row, ensure_ascii=False, sort_keys=True)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    differ = {name: where for name, where in compare_runs(original, copy) if where is not None}
    assert differ == {
        "notes.dat": "byte 100 (256 bytes against 256)",
        "predictions.jsonl": f"line 3, key /answer: {old_answer!r} against {row['answer']!r}",
    }
    assert main([str(original), str(copy)]) == 1
    out = capsys.readouterr().out
    assert "differs    notes.dat: byte 100" in out
    assert out.rstrip().endswith("2 differ")


def test_names_the_tensor_a_rewritten_checkpoint_changes(mini_run, tmp_path, capsys):
    # one float of one tensor changed, and the file name, hash and manifest
    # rewritten to match, as a run that trained differently would write them
    copy = _copy(mini_run, tmp_path, "copy")
    directory = copy / "checkpoints" / "reader"
    manifest = json.loads((directory / "manifest.json").read_text())
    old_file = directory / f"{manifest['sha256']}.bin"
    data = bytearray(old_file.read_bytes())
    entry = manifest["tensors"][1]
    at = 4 * (prod(manifest["tensors"][0]["shape"]) + 3)
    (old,) = struct.unpack_from("<f", data, at)
    struct.pack_into("<f", data, at, old + 1.0)
    (new,) = struct.unpack_from("<f", data, at)
    old_file.unlink()
    manifest["sha256"] = hashlib.sha256(data).hexdigest()
    (directory / f"{manifest['sha256']}.bin").write_bytes(bytes(data))
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    report = dict(compare_runs(mini_run.output_dir, copy))
    verdict = f"tensor {entry['name']!r} {entry['shape']}, flat index 3: {old!r} against {new!r}"
    assert report["checkpoints/reader/"] == verdict
    assert report["checkpoints/bridge/"] is None
    assert not [name for name in report if name.endswith(".bin")]
    assert main([mini_run.output_dir, str(copy)]) == 1
    assert f"differs    checkpoints/reader/: {verdict}" in capsys.readouterr().out


def test_a_checkpoint_whose_tensor_file_is_cut_short_is_named(mini_run, tmp_path):
    copy = _copy(mini_run, tmp_path, "copy")
    tensor_file = next((copy / "checkpoints" / "bridge").glob("*.bin"))
    size = tensor_file.stat().st_size
    tensor_file.write_bytes(tensor_file.read_bytes()[:-4])
    assert dict(compare_runs(mini_run.output_dir, copy))["checkpoints/bridge/"] == (
        f"B: {tensor_file.name} holds {size - 4} bytes, its shapes {size}"
    )


def test_the_run_manifest_is_compared_without_its_times_sizes_and_places(mini_run, tmp_path):
    copy = _copy(mini_run, tmp_path, "copy")
    path = copy / "manifest.json"
    entries = json.loads(path.read_text())
    for entry in entries:
        entry.update(wall_seconds=1.5, peak_rss_mb=1.0, timestamp="2000-01-01T00:00:00")
    entries[0]["config"]["output_dir"] = "/elsewhere"
    cross = next(entry for entry in entries if entry["stage"] == "cross-predict")
    cross.update(fold_seconds={"A": 9.0, "B": 9.0}, fold_b_peak_rss_mb=1.0)
    path.write_text(json.dumps(entries, indent=2))
    assert dict(compare_runs(mini_run.output_dir, copy))["manifest.json"] is None
    # a result recorded there still counts
    cross["n_cross_predictions"] += 1
    path.write_text(json.dumps(entries, indent=2))
    index = entries.index(cross)
    assert dict(compare_runs(mini_run.output_dir, copy))["manifest.json"] == (
        f"key /{index}/n_cross_predictions: {cross['n_cross_predictions'] - 1} against {cross['n_cross_predictions']}"
    )


def test_a_file_in_one_run_alone_is_named(mini_run, tmp_path):
    copy = _copy(mini_run, tmp_path, "copy")
    (copy / "report.json").unlink()
    (copy / "extra.txt").write_text("x")
    differ = {name: where for name, where in compare_runs(mini_run.output_dir, copy) if where is not None}
    assert differ == {"report.json": "only in A", "extra.txt": "only in B"}
