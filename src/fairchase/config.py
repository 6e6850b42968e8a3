"""Runtime configuration: defaults, the settings table, and config-file parsing.

Settings resolve as command-line flags > config file > built-in defaults.
SETTINGS declares each one once, for both the config file and the flags.
The config file is flat ``key = value`` text; unknown keys are rejected so
typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import csv
import os
from typing import Callable, NamedTuple

from .distributions import _MAX_COUNT_SCORE, DEFAULT_MIN_SAMPLE_SIZE, DEFAULT_QUANTILE_CAP, Family, FitConfig
from .errors import FairchaseError, _frozen
from .revision import DEFAULT_TARGET_GRID

DEFAULT_CURVE_MAX_SCORE = 600
DEFAULT_SEED = 0

#: Requested targets below this are outside the regime the model is meant
#: for (tough chases); the CLI still answers but cautions on stderr.
LOW_TARGET_WARNING_THRESHOLD = 300


@_frozen
class AppConfig:
    """The resolved settings: one field per SETTINGS key, each checked by its parser.

    family is None until a flag or the config file chooses one: report then
    covers all three families, and every other command fits fit_family.
    """

    def __init__(self, data: str | None = None, venues: tuple[str, ...] | None = None, family: Family | None = None,
                 target_grid: tuple[int, ...] = DEFAULT_TARGET_GRID, min_sample_size: int = DEFAULT_MIN_SAMPLE_SIZE,
                 quantile_cap: int = DEFAULT_QUANTILE_CAP, format: str = "csv", seed: int = DEFAULT_SEED,
                 curve_max_score: int = DEFAULT_CURVE_MAX_SCORE):
        object.__setattr__(self, "__dict__", {
            "data": data, "venues": venues, "family": family, "target_grid": target_grid,
            "min_sample_size": min_sample_size, "quantile_cap": quantile_cap, "format": format, "seed": seed,
            "curve_max_score": curve_max_score,
        })

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


def _int(key: str, minimum: int, maximum: float = float("inf")) -> Callable[[str], int]:
    """The parser of an integer setting from minimum to maximum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise FairchaseError(f"{key} must be an integer, got {text!r}") from None
        if value < minimum:
            raise FairchaseError(f"{key} must be at least {minimum}, got {value}")
        if value > maximum:
            raise FairchaseError(f"{key} must be at most {maximum}, got {value}")
        return value

    return parse


def parse_target_grid(text: str) -> tuple[int, ...]:
    """Each listed target once, in ascending order."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise FairchaseError("target_grid must list at least one target")
    return tuple(sorted(set(map(_int("target_grid", 0), parts))))


def parse_venue_list(text: str) -> tuple[str, ...]:
    """Comma-separated venues. Text holding a double quote is read as one CSV
    record, so a quoted venue may hold commas; other text is split on commas,
    so an unquoted venue may hold a line break, which csv would reject."""
    try:
        items = next(csv.reader([text], skipinitialspace=True, strict=True), []) if '"' in text else text.split(",")
    except csv.Error as exc:
        raise FairchaseError(f"venues must be one CSV record: {exc}") from None
    parts = [p.strip() for p in items if p.strip()]
    if not parts:
        raise FairchaseError("venues must list at least one venue")
    return tuple(parts)


class Setting(NamedTuple):
    """One setting: its config-file key, which is also its AppConfig field
    (the flag is --key-with-dashes), and the parser that both sources go
    through, which checks the value completely."""

    key: str
    parse: Callable[[str], object]
    metavar: str
    help: str


SETTINGS = (
    Setting("data", str, "PATH", "match CSV file to load"),
    Setting("venues", parse_venue_list, "A,B,C", "restrict to these venues (comma-separated)"),
    Setting("family", parse_family, "nb|normal|logistic", "distribution family to fit (default nb)"),
    Setting("format", parse_format, "csv|json", "output format (default csv)"),
    Setting("seed", _int("seed", 0), "N", f"root RNG seed (default {DEFAULT_SEED})"),
    Setting("target_grid", parse_target_grid, "T1,T2,...",
            f"targets for report tables and validate (default {','.join(map(str, DEFAULT_TARGET_GRID))})"),
    Setting("min_sample_size", _int("min_sample_size", 2), "N",
            f"smallest fittable case sample (default {DEFAULT_MIN_SAMPLE_SIZE})"),
    Setting("quantile_cap", _int("quantile_cap", 1, _MAX_COUNT_SCORE), "N",
            f"hard ceiling for discrete quantiles and validate's pmf sum (default {DEFAULT_QUANTILE_CAP})"),
    Setting("curve_max_score", _int("curve_max_score", 0, _MAX_COUNT_SCORE), "N",
            f"last score in survival curves and validate's monotonicity check (default {DEFAULT_CURVE_MAX_SCORE})"),
)
_SETTINGS_BY_KEY = {s.key: s for s in SETTINGS}


def load_config_file(path: str | os.PathLike) -> AppConfig:
    """Defaults overridden by the ``key = value`` settings in a config file.

    Blank lines and lines starting with ``#`` are ignored, as is a leading
    byte-order mark. Unknown keys and bad values raise FairchaseError naming
    their line, and a file that is not UTF-8 raises FairchaseError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise FairchaseError(f"unreadable config file: not UTF-8 ({exc.reason})") from None

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
        try:
            overrides[key] = setting.parse(value)
        except FairchaseError as exc:
            raise FairchaseError(f"config line {lineno}: {exc}") from None

    return AppConfig(**overrides)
