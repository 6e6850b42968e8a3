"""Runtime configuration: defaults, the settings table, and config-file parsing.

Settings resolve as command-line flags > config file > built-in defaults.
SETTINGS declares each one once, for both the config file and the flags.
The config file is flat ``key = value`` text; unknown keys are rejected so
typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import IO, Callable, NamedTuple, Union

from .distributions import DEFAULT_MIN_SAMPLE_SIZE, DEFAULT_QUANTILE_CAP, Family, FitConfig
from .errors import FairchaseError

DEFAULT_TARGET_GRID = (300, 315, 330, 340, 350)
DEFAULT_CURVE_MAX_SCORE = 600
DEFAULT_SEED = 0

#: Requested targets below this are outside the regime the model is meant
#: for (tough chases); the CLI still answers but cautions on stderr.
LOW_TARGET_WARNING_THRESHOLD = 300


@dataclass(frozen=True)
class AppConfig:
    data_path: str | None = None
    venues: tuple[str, ...] | None = None
    #: None until a flag or the config file chooses one: report then covers
    #: all three families, and every other command fits fit_family.
    family: Family | None = None
    target_grid: tuple[int, ...] = DEFAULT_TARGET_GRID
    min_sample_size: int = DEFAULT_MIN_SAMPLE_SIZE
    quantile_cap: int = DEFAULT_QUANTILE_CAP
    output_format: str = "csv"
    seed: int = DEFAULT_SEED
    curve_max_score: int = DEFAULT_CURVE_MAX_SCORE

    def __post_init__(self):
        parse_format(self.output_format)
        if self.min_sample_size < 2:
            raise FairchaseError("min_sample_size must be at least 2")
        if self.quantile_cap < 1:
            raise FairchaseError("quantile_cap must be positive")
        if self.curve_max_score < 0:
            raise FairchaseError("curve_max_score must be non-negative")
        if not self.target_grid or any(t < 0 for t in self.target_grid):
            raise FairchaseError("target_grid must be non-empty, with non-negative targets")
        if self.seed < 0:
            raise FairchaseError("seed must be non-negative")

    @property
    def fit_family(self) -> Family:
        """The family a single-family command fits: the chosen one, else negbin."""
        return Family.NEGBIN if self.family is None else self.family

    def fit_config(self) -> FitConfig:
        return FitConfig(self.min_sample_size, self.quantile_cap)


_FAMILY_ALIASES = {
    "nb": Family.NEGBIN,
    "negbin": Family.NEGBIN,
    "normal": Family.NORMAL,
    "logistic": Family.LOGISTIC,
}


def parse_family(text: str) -> Family:
    try:
        return _FAMILY_ALIASES[text.strip().lower()]
    except KeyError:
        raise FairchaseError(
            f"family must be one of {sorted(_FAMILY_ALIASES)}, got {text!r}"
        ) from None


def parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise FairchaseError(f"format must be csv or json, got {text!r}")
    return text


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FairchaseError(f"{key} must be an integer, got {text!r}") from None


def parse_target_grid(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise FairchaseError("target_grid must list at least one target")
    return tuple(_parse_int("target_grid", p) for p in parts)


def parse_venue_list(text: str) -> tuple[str, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise FairchaseError("venues must list at least one venue")
    return tuple(parts)


class Setting(NamedTuple):
    """One setting: its config-file key (the flag is --key-with-dashes), the
    AppConfig field it sets, and the parser that both sources go through."""

    key: str
    field: str
    parse: Callable[[str], object]
    metavar: str
    help: str


SETTINGS = (
    Setting("data", "data_path", str, "PATH", "match CSV file to load"),
    Setting("venues", "venues", parse_venue_list, "A,B,C", "restrict to these venues (comma-separated)"),
    Setting("family", "family", parse_family, "nb|normal|logistic", "distribution family to fit (default nb)"),
    Setting("format", "output_format", parse_format, "csv|json", "output format (default csv)"),
    Setting("seed", "seed", lambda t: _parse_int("seed", t), "N", f"root RNG seed (default {DEFAULT_SEED})"),
    Setting("target_grid", "target_grid", parse_target_grid, "T1,T2,...",
            f"targets for report tables (default {','.join(map(str, DEFAULT_TARGET_GRID))})"),
    Setting("min_sample_size", "min_sample_size", lambda t: _parse_int("min_sample_size", t), "N",
            f"smallest fittable case sample (default {DEFAULT_MIN_SAMPLE_SIZE})"),
    Setting("quantile_cap", "quantile_cap", lambda t: _parse_int("quantile_cap", t), "N",
            f"hard ceiling for discrete quantiles (default {DEFAULT_QUANTILE_CAP})"),
    Setting("curve_max_score", "curve_max_score", lambda t: _parse_int("curve_max_score", t), "N",
            f"last score in survival curves (default {DEFAULT_CURVE_MAX_SCORE})"),
)
_SETTINGS_BY_KEY = {s.key: s for s in SETTINGS}


def load_config_file(source: Union[str, os.PathLike, IO[str]], base: AppConfig | None = None) -> AppConfig:
    """Apply ``key = value`` settings from a config file on top of base.

    Blank lines and lines starting with ``#`` are ignored. Unknown keys and
    unparseable values raise FairchaseError.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()

    overrides = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FairchaseError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        setting = _SETTINGS_BY_KEY.get(key)
        if setting is None:
            raise FairchaseError(f"config line {lineno}: unknown key {key!r}")
        overrides[setting.field] = setting.parse(value)

    return replace(base if base is not None else AppConfig(), **overrides)
