"""Pipeline configuration: JSON file plus command-line overrides, with strict
unknown-key rejection and validation before any work starts."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError

ABLATION_MODES = (
    "full",
    "no_el",
    "no_context_evidence",
    "no_content_evidence",
    "no_multitask",
    "no_bridge_reasoner",
    "oracle_gold_passage",
    "full_support",
)


@dataclass
class PipelineConfig:
    # paths
    corpus_path: str | None = None
    train_questions_path: str | None = None
    dev_questions_path: str | None = None
    embeddings_path: str | None = None
    output_dir: str = "runs/out"
    # retrieval
    k: int = 10
    k1: float = 1.2
    b: float = 0.75
    title_weight: float = 1.0
    # entity linking
    entity_linking: bool = True
    top_n_el: int = 2
    # model dimensions
    embed_dim: int = 16
    gru_hidden: int = 16
    lstm_hidden: int = 16
    abstract_max_tokens: int = 48
    # training
    lr: float = 1e-3
    reader_lr: float | None = None  # None -> lr
    bridge_epochs: int = 200
    reader_epochs: int = 80
    batch_size: int = 1
    reader_batch_size: int | None = None  # None -> batch_size
    dropout: float = 0.2
    aux_weight: float = 1.0
    seed: int = 13
    bridge_early_stop_hits1: float = 0.95
    reader_early_stop_em: float = 0.95
    # reader
    max_answer_len: int = 30
    reader_max_passages: int = 10
    reader_context_cap: int = 512
    # run flags
    mode: str = "full"
    train_no_multitask_reader: bool = False


_POSITIVE_INTS = (
    "k", "top_n_el", "embed_dim", "gru_hidden", "lstm_hidden", "abstract_max_tokens",
    "bridge_epochs", "reader_epochs", "batch_size", "max_answer_len",
    "reader_max_passages", "reader_context_cap",
)
_POSITIVE_FLOATS = ("k1", "lr", "bridge_early_stop_hits1", "reader_early_stop_em")
_NONNEGATIVE_FLOATS = ("title_weight", "aux_weight")
_OPTIONAL_PATHS = ("corpus_path", "train_questions_path", "dev_questions_path", "embeddings_path")


def _real(value) -> bool:
    """An int or a float, but not a bool (which subclasses int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(cfg: PipelineConfig) -> PipelineConfig:
    # an int path would open as a file descriptor, which reading then closes
    for name in _OPTIONAL_PATHS:
        value = getattr(cfg, name)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"config {name!r} must be a path string or null, got {value!r}")
    if not isinstance(cfg.output_dir, str):
        raise ConfigError(f"config 'output_dir' must be a path string, got {cfg.output_dir!r}")
    for name in _POSITIVE_INTS:
        value = getattr(cfg, name)
        if not (_real(value) and isinstance(value, int)) or value < 1:
            raise ConfigError(f"config {name!r} must be a positive integer, got {value!r}")
    for name in _POSITIVE_FLOATS:
        value = getattr(cfg, name)
        if not _real(value) or value <= 0:
            raise ConfigError(f"config {name!r} must be positive, got {value!r}")
    for name in _NONNEGATIVE_FLOATS:
        value = getattr(cfg, name)
        if not _real(value) or value < 0:
            raise ConfigError(f"config {name!r} must be non-negative, got {value!r}")
    # 1 - b + b * len / avg, BM25's length normaliser, must stay positive for
    # every passage length, and it reaches zero on a short passage once b > 1
    if not _real(cfg.b) or not (0.0 < cfg.b <= 1.0):
        raise ConfigError(f"config 'b' must lie in (0, 1], got {cfg.b!r}")
    if cfg.reader_lr is not None and (not _real(cfg.reader_lr) or cfg.reader_lr <= 0):
        raise ConfigError(f"config 'reader_lr' must be positive, got {cfg.reader_lr!r}")
    size = cfg.reader_batch_size
    if size is not None and (not (_real(size) and isinstance(size, int)) or size < 1):
        raise ConfigError(f"config 'reader_batch_size' must be a positive integer, got {size!r}")
    if not _real(cfg.dropout) or not (0.0 <= cfg.dropout < 1.0):
        raise ConfigError(f"config 'dropout' must lie in [0, 1), got {cfg.dropout!r}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        raise ConfigError(f"config 'seed' must be a non-negative integer, got {cfg.seed!r}")
    if cfg.mode not in ABLATION_MODES:
        raise ConfigError(f"config 'mode' must be one of {ABLATION_MODES}, got {cfg.mode!r}")
    if not isinstance(cfg.entity_linking, bool):
        raise ConfigError(f"config 'entity_linking' must be a boolean, got {cfg.entity_linking!r}")
    if not isinstance(cfg.train_no_multitask_reader, bool):
        raise ConfigError("config 'train_no_multitask_reader' must be a boolean")
    return cfg


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then the JSON file, then overrides; the result is validated.

    An empty file means all defaults. Unknown keys are rejected so typos never
    pass silently.
    """
    values: dict = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8").strip()
        if text:
            try:
                loaded = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: invalid JSON ({exc.msg})") from exc
            if not isinstance(loaded, dict):
                raise ConfigError(f"config file {path}: expected a JSON object")
            values.update(loaded)
    if overrides:
        values.update(overrides)
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg = PipelineConfig(**values)
    return validate_config(cfg)


def config_to_dict(cfg: PipelineConfig) -> dict:
    return asdict(cfg)
