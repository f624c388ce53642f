"""Experiment configuration: a flat key = value text file.

Lines are `key = value`; blank lines and lines starting with `#` are
ignored.  Lists are comma-separated.  Booleans are true/false.  Unknown
keys are rejected so typos fail loudly.

Schema (defaults are the field defaults of ExperimentConfig, which take
the chain, network and training defaults from ChainConfig, NetworkSpec and
TrainingConfig):

  dataset                path to the transactions file (required)
  format                 csv | cdnow
  merge_same_day         true | false
  covariates             subset of units,total_spend,mean_spend
  train_fraction         in-sample share of customers
  sweeps                 Gibbs sweeps
  burn_in                discarded sweeps
  thin                   keep every k-th sweep
  hidden_layers          hidden layer count
  hidden_width           units per hidden layer
  dropout_p              hidden dropout probability
  epochs                 max training epochs
  batch_size             minibatch size
  learning_rate          Adam step size
  patience               early-stop patience, 0 disables
  validation_fraction    held-back validation share
  losses                 loss kinds to train (all eight by default)
  ratio_interpretation   weighted_nll | abs_log_ratio
  threshold              inactive if p_alive < threshold
  rounding               half_away | floor | nearest
  cap                    histogram overflow bin start
  horizon_weeks          forecast horizon override (default: holdout length)
  out                    output directory (required)
  seed                   global seed
"""

from dataclasses import dataclass, fields

from .forecast import DEFAULT_THRESHOLD, ROUNDING_MODES
from .gibbs import ChainConfig
from .metrics import DEFAULT_HISTOGRAM_CAP
from .network import (LOSS_KINDS, RATIO_INTERPRETATIONS, NetworkSpec,
                      TrainingConfig)


@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = "csv"
    merge_same_day: bool = False
    covariates: tuple = ()
    train_fraction: float = 0.6
    sweeps: int = ChainConfig.sweeps
    burn_in: int = ChainConfig.burn_in
    thin: int = ChainConfig.thin
    hidden_layers: int = NetworkSpec.hidden_layers
    hidden_width: int = NetworkSpec.hidden_width
    dropout_p: float = NetworkSpec.dropout_p
    epochs: int = TrainingConfig.epochs
    batch_size: int = TrainingConfig.batch_size
    learning_rate: float = TrainingConfig.learning_rate
    patience: int = TrainingConfig.early_stop_patience
    validation_fraction: float = TrainingConfig.validation_fraction
    losses: tuple = LOSS_KINDS
    ratio_interpretation: str = RATIO_INTERPRETATIONS[0]
    threshold: float = DEFAULT_THRESHOLD
    rounding: str = ROUNDING_MODES[0]
    cap: int = DEFAULT_HISTOGRAM_CAP
    horizon_weeks: float = None
    out: str = ""
    seed: int = 0

    def validate(self):
        if not self.dataset:
            raise ValueError("config needs a dataset path")
        if not self.out:
            raise ValueError("config needs an output directory")
        if self.format not in ("csv", "cdnow"):
            raise ValueError(f"unknown dataset format {self.format!r}")
        if not self.losses:
            raise ValueError("at least one loss kind is required")
        for kind in self.losses:
            if kind not in LOSS_KINDS:
                raise ValueError(f"unknown loss kind {kind!r}")
        if self.ratio_interpretation not in RATIO_INTERPRETATIONS:
            raise ValueError(
                f"unknown ratio interpretation {self.ratio_interpretation!r}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly in (0, 1)")
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        if self.horizon_weeks is not None and self.horizon_weeks <= 0:
            raise ValueError("horizon_weeks must be positive")
        return self


def _coerce(key, text, target):
    if target is bool:
        low = text.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ValueError(f"{key} expects true or false, got {text!r}")
    if target is tuple:
        return tuple(part.strip() for part in text.split(",") if part.strip())
    return target(text)


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config(path):
    """Read a key = value config file into an ExperimentConfig."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            try:
                values[key] = _coerce(key, text, _FIELD_TYPES[key])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return ExperimentConfig(**values)


def write_config(path, cfg):
    """Emit a config file that parse_config reads back identically."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
