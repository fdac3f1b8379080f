"""Run configuration: tunable knobs shared by the CLI commands.

Values come from defaults, then a key=value config file, then command
line flags, later sources winning.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .doc_ops import KEPT_DEFINITIONS
from .errors import ConfigError, open_text
from .similarity import METRIC_NAMES

# Starting points per metric for the sentence-level threshold.  These are
# placeholders meant to be re-tuned on a development set (see the dev-split
# sweep in tests/test_acceptance.py); they are not calibrated constants.
DEFAULT_SENTENCE_THRESHOLDS = {
    "jaccard": 0.3,
    "tfidf": 0.4,
    "char3gram": 0.45,
    "bleu": 0.15,
}

EDIT_METHODS = ("diff", "simple", "parse")


@dataclass(frozen=True)
class RunConfig:
    tau1: float = 0.28
    tau2: float = 0.15
    tau3: float = 0.85
    tau4: float = 0.2
    sentence_metric: str = "jaccard"
    sentence_threshold: float | None = None
    max_level: int = 2
    method: str = "simple"
    kept_definition: str = "copy_only"
    bins: int = 10
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("tau1", "tau2", "tau3", "tau4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.sentence_metric not in METRIC_NAMES:
            raise ConfigError(
                f"unknown sentence_metric {self.sentence_metric!r}, "
                f"expected one of {', '.join(METRIC_NAMES)}"
            )
        if self.sentence_threshold is not None and not 0.0 <= self.sentence_threshold <= 1.0:
            raise ConfigError(f"sentence_threshold must be in [0, 1], got {self.sentence_threshold}")
        if self.max_level < 0:
            raise ConfigError(f"max_level must be >= 0, got {self.max_level}")
        if self.method not in EDIT_METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}, expected one of {', '.join(EDIT_METHODS)}"
            )
        if self.kept_definition not in KEPT_DEFINITIONS:
            raise ConfigError(
                f"unknown kept_definition {self.kept_definition!r}, "
                f"expected one of {', '.join(KEPT_DEFINITIONS)}"
            )
        if self.bins < 1:
            raise ConfigError(f"bins must be positive, got {self.bins}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be positive, got {self.jobs}")

    def effective_sentence_threshold(self) -> float:
        if self.sentence_threshold is not None:
            return self.sentence_threshold
        return DEFAULT_SENTENCE_THRESHOLDS[self.sentence_metric]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    target = _FIELD_TYPES[name]
    try:
        if target == "int":
            return int(raw)
        if target == "float":
            return float(raw)
        if target == "float | None":
            return None if raw.lower() in ("none", "") else float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def parse_config_text(text: str, where: str = "config") -> dict:
    """key = value lines; # starts a comment, blank lines are skipped."""
    values = {}
    for n, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = body.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{where}:{n}: expected key = value")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}:{n}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}:{n}: duplicate key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the config file, then non-None overrides."""
    values: dict = {}
    if path is not None:
        with open_text(path, ConfigError) as fh:
            values.update(parse_config_text(fh.read(), where=path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc

