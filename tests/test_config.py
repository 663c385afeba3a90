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


@pytest.mark.parametrize("b", [0, -0.5, 1.0000001, 1.5, 5, True])
def test_bm25_b_outside_unit_interval_rejected(b):
    # 1 - b + b * len / avg reaches zero or below on short passages once b > 1
    with pytest.raises(ConfigError, match="'b'"):
        load_config(None, {"b": b})


@pytest.mark.parametrize("b", [1e-6, 0.75, 1, 1.0])
def test_bm25_b_in_unit_interval_accepted(b):
    assert load_config(None, {"b": b}).b == b


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
    paths = ("corpus_path", "train_questions_path", "dev_questions_path", "embeddings_path")
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
        from bridgeqa import bridge, config, reader, retrieval
        changed = dict(max_answer_len=7, abstract_max_tokens=5, reader_max_passages=3,
                       aux_weight=0.5, k1=1.5, b=0.5, title_weight=2.0)
        for key, value in changed.items():
            setattr(config.PipelineConfig, key, value)
        for module in (retrieval, reader, bridge):
            importlib.reload(module)

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        for fn in (reader.locate_answer_span, reader.best_span, reader.decode_answer):
            print(default(fn, "max_len"))
        for fn in (reader.make_reader_example, reader.read_and_decode):
            print(default(fn, "max_answer_len"))
        print(default(reader.reader_losses, "aux_weight"))
        print(default(bridge.init_bridge_model, "abstract_max_tokens"))
        print(bridge.BridgeModel(span=None, lstm_hidden=1).abstract_max_tokens)
        print(default(bridge.rank_answer_passages, "k"), default(bridge.predict_ranked_titles, "k"))
        for fn in (retrieval.hybrid_scores, retrieval.hybrid_score, retrieval.retrieve_start_passages):
            print(default(fn, "k1"), default(fn, "b"), default(fn, "title_weight"))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["7"] * 5 + ["0.5"] + ["5", "5", "3", "3"] + ["1.5", "0.5", "2.0"] * 3
