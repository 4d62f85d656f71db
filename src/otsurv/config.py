"""Experiment configuration: dataclass, JSON file round-trip, CLI overrides.
The defaults are the training protocol the pipeline is built around."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .bags import json_type_ok, read_json
from .errors import ConfigError
from .microbatch import ATTENTION_MODES, OTSettings
from .transport import COST_METRICS

# The fields that take one of a fixed set of values.
CHOICES = {"attention_mode": tuple(ATTENTION_MODES), "cost_metric": COST_METRICS}

# Each number field's least value; NaN and infinity fail, and epsilon may not be 0.
_LEAST = {"folds": 2, "micro_batch": 1, "epochs": 0, "grad_accum_steps": 1,
          "bins": 2, "epsilon": 0, "tau": 0, "lr": 0, "weight_decay": 0}


@dataclass(frozen=True)
class ExperimentConfig(OTSettings):
    """The training protocol; the transport settings are inherited from
    :class:`OTSettings`, so ``config`` is what ``case_forward`` solves with."""

    seed: int = 0
    folds: int = 5
    micro_batch: int = 256
    epochs: int = 20
    lr: float = 2e-4
    weight_decay: float = 1e-5
    grad_accum_steps: int = 32
    bins: int = 4
    attention_mode: str = "umbot"

    def __post_init__(self):
        for name, kind in _FIELDS.items():
            if not json_type_ok(getattr(self, name), kind):
                raise ConfigError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, "
                                  f"got {getattr(self, name)!r}")
        for name, least in _LEAST.items():
            if not least <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= {least}, "
                                  f"got {getattr(self, name)!r}")
        if self.epsilon == 0:
            raise ConfigError("epsilon must be > 0, got 0")

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; unknown keys and wrongly typed values are
    rejected by name, with the file's path."""
    doc = read_json(path, ConfigError)
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    try:
        return ExperimentConfig(**doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def merge_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply non-None CLI overrides on top of a base config."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(set(updates) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return config.replace(**updates) if updates else config
