import pytest

from bridgeqa.config import PipelineConfig, load_config
from bridgeqa.errors import ConfigError


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.k == 10
    assert cfg.top_n_el == 2
    assert cfg.aux_weight == 1.0
    assert cfg.entity_linking is True


def test_no_file_gives_defaults():
    cfg = load_config(None)
    assert cfg == PipelineConfig()


def test_k_zero_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"k": 0}', encoding="utf-8")
    with pytest.raises(ConfigError, match="k"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"learning_rate": 0.1}', encoding="utf-8")
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(path)


def test_override_beats_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"lr": 0.001}', encoding="utf-8")
    cfg = load_config(path, {"lr": 0.01})
    assert cfg.lr == 0.01


def test_negative_lr_rejected():
    with pytest.raises(ConfigError, match="lr"):
        load_config(None, {"lr": -1.0})


def test_dropout_range():
    assert load_config(None, {"dropout": 0.0}).dropout == 0.0
    with pytest.raises(ConfigError):
        load_config(None, {"dropout": 1.0})


def test_reader_lr_boolean_rejected():
    with pytest.raises(ConfigError, match="reader_lr"):
        load_config(None, {"reader_lr": True})


def test_reader_batch_size_boolean_rejected():
    with pytest.raises(ConfigError, match="reader_batch_size"):
        load_config(None, {"reader_batch_size": True})


def test_dropout_boolean_rejected():
    with pytest.raises(ConfigError, match="dropout"):
        load_config(None, {"dropout": False})


def test_aux_weight_zero_allowed():
    assert load_config(None, {"aux_weight": 0.0}).aux_weight == 0.0


def test_mode_validated():
    with pytest.raises(ConfigError, match="mode"):
        load_config(None, {"mode": "bogus"})


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
