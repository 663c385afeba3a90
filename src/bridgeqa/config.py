"""Pipeline configuration: JSON file plus command-line overrides, with strict
unknown-key rejection and validation before any work starts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

ABLATION_MODES = (
    "full",
    "no_context_evidence",
    "no_content_evidence",
    "no_bridge_reasoner",
    "oracle_gold_passage",
    "full_support",
)
EVIDENCE = ("context", "content")  # the bridge reasoner's evidence channels


def evidence_for(mode: str) -> tuple[str, ...]:
    """The evidence channels of the reasoner a run at mode trains and reads."""
    return {"no_context_evidence": ("content",), "no_content_evidence": ("context",)}.get(mode, EVIDENCE)


@dataclass
class PipelineConfig:
    # paths
    corpus_path: str | None = None
    train_questions_path: str | None = None
    dev_questions_path: str | None = None
    embeddings_path: str | None = None
    output_dir: str = "runs/out"
    # retrieval and entity linking
    k: int = 10
    entity_linking: bool = True
    # model dimensions
    gru_hidden: int = 16
    lstm_hidden: int = 16
    abstract_max_tokens: int = 48
    # training
    lr: float = 1e-3
    reader_lr: float = 1e-3
    bridge_epochs: int = 200
    reader_epochs: int = 80
    batch_size: int = 1
    reader_batch_size: int = 1
    dropout: float = 0.2
    aux_weight: float = 1.0
    seed: int = 13
    bridge_early_stop_hits1: float = 0.95
    reader_early_stop_em: float = 0.95
    # reader
    reader_context_cap: int = 512
    # run flags
    mode: str = "full"


_POSITIVE_INTS = (
    "k", "gru_hidden", "lstm_hidden", "abstract_max_tokens", "bridge_epochs", "reader_epochs",
    "batch_size", "reader_batch_size", "reader_context_cap",
)
_POSITIVE_FLOATS = ("lr", "reader_lr", "bridge_early_stop_hits1", "reader_early_stop_em")
_OPTIONAL_PATHS = ("corpus_path", "train_questions_path", "dev_questions_path", "embeddings_path")


def _real(value) -> bool:
    """An int or a finite float, but not a bool (which subclasses int): JSON
    and Python both read NaN and infinity, which compare false to every bound."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(cfg: PipelineConfig) -> PipelineConfig:
    # an int path would open as a file descriptor, which reading then closes;
    # "" names no file, but an empty dev_questions_path means no dev set
    for name in _OPTIONAL_PATHS:
        value = getattr(cfg, name)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"config {name!r} must be a path string or null, got {value!r}")
        if value == "" and name != "dev_questions_path":
            raise ConfigError(f"config {name!r} must be a path or null, got an empty string")
    # an empty output_dir would write every artifact into the working directory
    if not isinstance(cfg.output_dir, str) or not cfg.output_dir:
        raise ConfigError(f"config 'output_dir' must be a non-empty path string, got {cfg.output_dir!r}")
    for name in _POSITIVE_INTS:
        value = getattr(cfg, name)
        if not (_real(value) and isinstance(value, int)) or value < 1:
            raise ConfigError(f"config {name!r} must be a positive integer, got {value!r}")
    for name in _POSITIVE_FLOATS:
        value = getattr(cfg, name)
        if not _real(value) or value <= 0:
            raise ConfigError(f"config {name!r} must be a finite positive number, got {value!r}")
    if not _real(cfg.aux_weight) or cfg.aux_weight < 0:
        raise ConfigError(f"config 'aux_weight' must be a finite non-negative number, got {cfg.aux_weight!r}")
    if not _real(cfg.dropout) or not (0.0 <= cfg.dropout < 1.0):
        raise ConfigError(f"config 'dropout' must lie in [0, 1), got {cfg.dropout!r}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        raise ConfigError(f"config 'seed' must be a non-negative integer, got {cfg.seed!r}")
    if cfg.mode not in ABLATION_MODES:
        raise ConfigError(f"config 'mode' must be one of {ABLATION_MODES}, got {cfg.mode!r}")
    if not isinstance(cfg.entity_linking, bool):
        raise ConfigError(f"config 'entity_linking' must be a boolean, got {cfg.entity_linking!r}")
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
