import re
from dataclasses import fields
from pathlib import Path

import pytest

from bridgeqa.config import ABLATION_MODES, PipelineConfig, load_config
from bridgeqa.errors import ConfigError

_PATH_KEYS = ("corpus_path", "train_questions_path", "dev_questions_path", "embeddings_path")


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.k == 10
    assert (cfg.reader_lr, cfg.reader_batch_size) == (1e-3, 1)
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


@pytest.mark.parametrize(
    "key", ["k1", "b", "title_weight", "top_n_el", "embed_dim", "max_answer_len", "reader_max_passages"]
)
def test_a_fixed_hyperparameter_is_not_a_config_key(key):
    # these are module constants (retrieval.K1, B, TITLE_WEIGHT,
    # ablation.TOP_N_EL, span_model.EMBED_DIM, reader.MAX_ANSWER_LEN,
    # bridge.READER_MAX_PASSAGES); a config that sets one is refused by name
    with pytest.raises(ConfigError, match=rf"^unknown config keys: \['{key}'\]$"):
        load_config(None, {key: 1})


def test_only_path_keys_default_to_null():
    assert [f.name for f in fields(PipelineConfig) if f.default is None] == list(_PATH_KEYS)


@pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig) if f.name not in _PATH_KEYS])
def test_a_key_that_is_not_a_path_refuses_null(key):
    with pytest.raises(ConfigError, match=key):
        load_config(None, {key: None})


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


@pytest.mark.parametrize("value", [0, True, 1.5])
@pytest.mark.parametrize(
    "key", ["corpus_path", "train_questions_path", "dev_questions_path", "embeddings_path", "output_dir"]
)
def test_path_that_is_not_a_string_rejected(key, value):
    # an int path opens as a file descriptor (0 is stdin), which reading
    # closes: ingest would fail only after writing corpus.jsonl
    with pytest.raises(ConfigError, match=key):
        load_config(None, {key: value})


def test_path_keys_accept_strings_and_null_but_output_dir_needs_a_string():
    paths = _PATH_KEYS
    assert load_config(None, {key: "x" for key in paths + ("output_dir",)}).corpus_path == "x"
    assert load_config(None, {key: None for key in paths}).corpus_path is None
    # "" names no file; only dev_questions_path takes it, meaning no dev set
    assert load_config(None, {"dev_questions_path": ""}).dev_questions_path == ""
    for key in ("corpus_path", "train_questions_path", "embeddings_path"):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: ""})
    with pytest.raises(ConfigError, match="output_dir"):
        load_config(None, {"output_dir": None})


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_library_defaults_follow_the_config_defaults():
    # the library's defaults for config keys are read from PipelineConfig:
    # with other config defaults in place before the modules that use them
    # run, their defaults move with them (in a child process, so the
    # reloaded modules stay out of this one)
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    script = textwrap.dedent(
        """
        import importlib, inspect
        from bridgeqa import bridge, config, reader
        changed = dict(abstract_max_tokens=5, aux_weight=0.5)
        for key, value in changed.items():
            setattr(config.PipelineConfig, key, value)
        for module in (reader, bridge):
            importlib.reload(module)

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        print(default(reader.reader_losses, "aux_weight"))
        print(default(bridge.init_bridge_model, "abstract_max_tokens"))
        print(bridge.BridgeModel(span=None, lstm_hidden=1).abstract_max_tokens)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0.5", "5", "5"]


def test_readme_ablation_modes_paragraph_names_exactly_the_modes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (paragraph,) = re.findall(r"^Ablation modes \(`--mode`\): (.*?)\n\n", readme, re.M | re.S)
    # its first sentence lists the modes, in order; the rest names only modes and config keys
    assert re.findall(r"`(\w+)`", paragraph.split(".")[0]) == list(ABLATION_MODES)
    keys = {f.name for f in fields(PipelineConfig)}
    assert set(re.findall(r"`(\w+)`", paragraph)) <= set(ABLATION_MODES) | keys | {"config"}


FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


def test_the_float_keys_are_the_rates_weights_and_thresholds():
    assert sorted(FLOAT_KEYS) == sorted(
        ["lr", "reader_lr", "dropout", "aux_weight", "bridge_early_stop_hits1", "reader_early_stop_em"]
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_float_key_refuses_a_value_that_is_not_finite(key, value):
    # NaN compares false to every bound, so a range check alone let it
    # through, and inf passed every lower bound
    with pytest.raises(ConfigError, match=rf"^config '{key}' must"):
        load_config(None, {key: value})


def test_a_config_file_holding_nan_is_refused(tmp_path):
    # json.loads reads the bare words NaN and Infinity as floats
    path = tmp_path / "cfg.json"
    path.write_text('{"lr": NaN}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^config 'lr' must be a finite positive number, got nan$"):
        load_config(path)


def test_an_early_stop_threshold_above_one_stays_valid():
    # a threshold no run reaches turns early stopping off
    cfg = load_config(None, {"bridge_early_stop_hits1": 2.0, "reader_early_stop_em": 2.0})
    assert (cfg.bridge_early_stop_hits1, cfg.reader_early_stop_em) == (2.0, 2.0)
