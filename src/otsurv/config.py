"""Experiment configuration: dataclass, JSON file round-trip, CLI overrides.

Defaults follow the training protocol the pipeline is built around:
micro-batch 256, the transport defaults of :class:`OTSettings`, 20 epochs
at Adam lr 2e-4 with weight decay 1e-5, batch size 1 with 32
gradient-accumulation steps, 5-fold cross-validation, 4 survival bins.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .bags import read_json
from .errors import ConfigError
from .microbatch import ATTENTION_MODES, OTSettings
from .transport import COST_METRICS

# The fields that take one of a fixed set of values.
CHOICES = {"attention_mode": tuple(ATTENTION_MODES), "cost_metric": COST_METRICS}

# Annotation -> accepted types.  A bool is an int to Python, but a value of
# true in an int or float field is a mistake, so only a bool field takes one.
_ACCEPTS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    folds: int = 5
    micro_batch: int = 256
    epsilon: float = OTSettings.epsilon
    tau: float = OTSettings.tau
    epochs: int = 20
    lr: float = 2e-4
    weight_decay: float = 1e-5
    grad_accum_steps: int = 32
    bins: int = 4
    attention_mode: str = "umbot"
    cost_metric: str = OTSettings.metric
    normalize_cost: bool = OTSettings.normalize

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _ACCEPTS[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, "
                                  f"got {getattr(self, name)!r}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.micro_batch < 1:
            raise ConfigError(f"micro_batch must be >= 1, got {self.micro_batch}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.tau < 0:
            raise ConfigError(f"tau must be >= 0, got {self.tau}")
        if self.epochs < 0 or self.grad_accum_steps < 1 or self.bins < 2:
            raise ConfigError("epochs >= 0, grad_accum_steps >= 1, bins >= 2 required")

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
