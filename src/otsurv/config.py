"""Experiment configuration: the dataclass and its JSON file reader.
The defaults are the training protocol the pipeline is built around."""

from __future__ import annotations

from dataclasses import dataclass

from .bags import read_json, read_record
from .errors import ConfigError
from .microbatch import ATTENTION_MODES, OTSettings


@dataclass(frozen=True)
class ExperimentConfig(OTSettings):
    """The training protocol; the transport settings, and the field checks,
    are inherited from :class:`OTSettings`, so ``config`` is what
    ``case_forward`` solves with."""

    seed: int = 0
    folds: int = 5
    micro_batch: int = 256
    epochs: int = 20
    lr: float = 2e-4
    weight_decay: float = 1e-5
    grad_accum_steps: int = 32
    bins: int = 4
    attention_mode: str = "umbot"

    CHOICES = {**OTSettings.CHOICES, "attention_mode": tuple(ATTENTION_MODES)}
    LEAST = {**OTSettings.LEAST, "folds": 2, "micro_batch": 1, "epochs": 0,
             "grad_accum_steps": 1, "bins": 2, "lr": 0, "weight_decay": 0}


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; unknown or repeated keys and wrongly typed values
    are rejected by name, with the file's path."""
    doc = read_json(path, ConfigError)
    try:
        return read_record(ExperimentConfig, doc, ConfigError)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
