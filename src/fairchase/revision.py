"""Revised second-innings targets that remove the batting-order bias.

At a given venue, sides batting first and sides batting second win with
different frequencies, and winning scores in the two innings follow
different distributions. Chasing the first-innings score plus one is
therefore not an even contest. The revision picks the second-innings target
whose probability of being scored by a winning chasing side, scaled by the
observed win-frequency ratio, matches the probability a side batting first
posts a score above the actual target. Formally, with C the ratio of
bat-first to bat-second win counts and F the fitted winning-score CDFs:

    revised = smallest t with F_second_win(t) >= 1 - C * (1 - F_first_win(actual))

When C * (1 - F_first_win(actual)) >= 1 the venue favors the chasing side so
heavily at that score that no attainable target equalizes the chances, and
TargetUnattainable is raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Mapping, Sequence

import numpy as np

from .distributions import (
    _SCORE_LIMIT,
    _check_cap,
    DEFAULT_FIT_CONFIG,
    Family,
    FitConfig,
    FittedDist,
    fit,
    pmf,
    quantile,
    survival,
)
from .errors import FairchaseError, InsufficientSample, TargetUnattainable
from .matches import CaseLabel, CategorizedScores, csv_fields, csv_text, resolve_venue, venue_names

DEFAULT_TARGET_GRID = (300, 315, 330, 340, 350)


@dataclass(frozen=True)
class RevisionModel:
    """Fitted winning-score distributions and win-frequency ratio for one venue."""

    venue: str
    win_ratio: float
    dist_bat_first_win: FittedDist
    dist_bat_second_win: FittedDist
    quantile_cap: int

    def __post_init__(self):
        if not (math.isfinite(self.win_ratio) and self.win_ratio > 0):
            raise FairchaseError(f"win_ratio must be finite and positive, got {self.win_ratio}")
        if self.dist_bat_first_win.family is not self.dist_bat_second_win.family:
            raise FairchaseError("both fitted distributions must be of one family")
        _check_cap(self.quantile_cap)

    @property
    def family(self) -> Family:
        return self.dist_bat_first_win.family


@dataclass(frozen=True)
class TargetCell:
    """The revised target for one venue, family and actual target."""

    venue: str
    family: Family
    actual: int
    revised: int | None
    #: The CDF level the revised target was read off at.
    q_internal: float | None
    status: str  # "ok", "unattainable", or "skipped: <reason>"


#: Rendered cell columns, in order; revise writes all but status.
CELL_COLUMNS = ("venue", "family", "actual_target", "revised_target", "q_internal", "status")


def cell_to_dict(cell: TargetCell) -> dict:
    """JSON-ready values of a cell, keyed by CELL_COLUMNS."""
    return {
        "venue": cell.venue, "family": cell.family.value, "actual_target": cell.actual,
        "revised_target": cell.revised, "q_internal": cell.q_internal, "status": cell.status,
    }


def cell_to_row(cell: TargetCell) -> list:
    """CSV fields of a cell in CELL_COLUMNS order: "" for None, q_internal to six decimals."""
    return csv_fields(cell_to_dict(cell).values(), 6)


def build_model(
    dataset: CategorizedScores,
    venue: str,
    family: Family = Family.NEGBIN,
    config: FitConfig = DEFAULT_FIT_CONFIG,
) -> RevisionModel:
    """Fit the two winning-score distributions at a venue.

    Raises UnknownVenue for a venue absent from the dataset and
    InsufficientSample when either winning case has fewer than
    config.min_sample_size scores.
    """
    key = resolve_venue(dataset, venue)
    samples = dataset[key]
    n_first = len(samples[CaseLabel.BAT_FIRST_WIN])
    n_second = len(samples[CaseLabel.BAT_SECOND_WIN])
    for label, size in ((CaseLabel.BAT_FIRST_WIN, n_first), (CaseLabel.BAT_SECOND_WIN, n_second)):
        if size < config.min_sample_size:
            raise InsufficientSample(
                f"venue {key!r} case {label.value}: {size} scores, "
                f"need at least {config.min_sample_size}"
            )
    return RevisionModel(
        venue=key,
        win_ratio=n_first / n_second,
        dist_bat_first_win=fit(samples[CaseLabel.BAT_FIRST_WIN], family, config),
        dist_bat_second_win=fit(samples[CaseLabel.BAT_SECOND_WIN], family, config),
        quantile_cap=config.quantile_cap,
    )


def revise_target(model: RevisionModel, actual: int) -> TargetCell:
    """Equalized second-innings target for an actual first-innings target, as an "ok" cell.

    Raises TargetUnattainable when the equalizing CDF level is not positive.
    """
    if actual < 0:
        raise FairchaseError(f"target must be non-negative, got {actual}")
    q = 1.0 - model.win_ratio * survival(model.dist_bat_first_win, actual)
    if q <= 0.0:
        raise TargetUnattainable(
            f"venue {model.venue!r}: no attainable target equalizes the chase at {actual} "
            f"(required CDF level {q:.6f})"
        )
    revised = quantile(model.dist_bat_second_win, q, cap=model.quantile_cap)
    return TargetCell(model.venue, model.family, actual, revised, q, "ok")


#: Scores per pmf evaluation in pmf_mass: blocks keep memory flat as the last
#: score grows; fsum rounds exactly, so they cannot move the sum.
_PMF_BLOCK = 1 << 16


def pmf_mass(dist: FittedDist, last: int) -> float:
    """Exactly rounded sum of the pmf over scores 0..last."""
    end = last + 1
    blocks = (pmf(dist, np.arange(lo, min(lo + _PMF_BLOCK, end))).tolist() for lo in range(0, end, _PMF_BLOCK))
    return math.fsum(chain.from_iterable(blocks))


def survival_rise(dist: FittedDist, last: int) -> float:
    """Largest rise S(x + 1) - S(x) over scores 0..last, with S = 1 - F; 0.0 if the curve never rises."""
    return float(np.diff(survival(dist, np.arange(last + 1))).max(initial=0.0))


def equalization_slack(model: RevisionModel, cells: Sequence[TargetCell]) -> float:
    """Largest |S2(revised) - C*S1(actual)| - pmf2(revised) over ok cells, with S = 1 - F; -inf for none."""
    actual = np.array([min(c.actual, _SCORE_LIMIT) for c in cells], dtype=np.int64)
    revised = np.array([c.revised for c in cells], dtype=np.int64)
    second, chase = model.dist_bat_second_win, model.win_ratio * survival(model.dist_bat_first_win, actual)
    return float((np.abs(survival(second, revised) - chase) - pmf(second, revised)).max(initial=-math.inf))


@dataclass(frozen=True)
class RevisionReport:
    families: tuple[Family, ...]
    target_grid: tuple[int, ...]
    cells: tuple[TargetCell, ...]


def revision_report(
    dataset: CategorizedScores,
    families: Sequence[Family] = (Family.NEGBIN, Family.NORMAL, Family.LOGISTIC),
    target_grid: Sequence[int] = DEFAULT_TARGET_GRID,
    config: FitConfig = DEFAULT_FIT_CONFIG,
) -> RevisionReport:
    """Revised targets for every venue, family, and grid point.

    Venues or fits that cannot support a model are reported with a skipped
    status rather than dropped, so the output always accounts for every
    venue in the dataset. Cells are ordered venue (pooled entry last), then
    family in the requested order, then target in grid order. Raises
    FairchaseError when families is empty or repeats a family, or when the
    grid is empty: a bias total is a sum over one family's whole grid.
    """
    families = tuple(families)
    grid = tuple(target_grid)
    if not families or len(set(families)) < len(families):
        raise FairchaseError(f"families must be non-empty and distinct, got {families}")
    if not grid:
        raise FairchaseError("target grid must not be empty")
    cells: list[TargetCell] = []
    for name in venue_names(dataset):
        for family in families:
            try:
                model = build_model(dataset, name, family, config)
            except FairchaseError as exc:
                reason = f"skipped: {exc}"
                cells.extend(TargetCell(name, family, actual, None, None, reason) for actual in grid)
                continue
            for actual in grid:
                try:
                    cells.append(revise_target(model, actual))
                except TargetUnattainable:
                    cells.append(TargetCell(name, family, actual, None, None, "unattainable"))
    return RevisionReport(families=families, target_grid=grid, cells=tuple(cells))


def bias_totals(report: RevisionReport) -> list[tuple[str, Family, int | None, str]]:
    """(venue, family, total, status) for each venue and family, in cell order.

    The total is the sum of (actual - revised) over the target grid; positive
    totals mean the venue systematically overburdens the chasing side at those
    scores. It is None when the model was skipped, with the skip reason as
    status, or when some target is unattainable.
    """
    rows = []
    for (venue, family), group in groupby(report.cells, key=lambda c: (c.venue, c.family)):
        group = list(group)
        if group[0].status.startswith("skipped:"):
            rows.append((venue, family, None, group[0].status))
        elif all(c.status == "ok" for c in group):
            rows.append((venue, family, sum(c.actual - c.revised for c in group), "ok"))
        else:
            rows.append((venue, family, None, "unattainable at some targets"))
    return rows


def report_to_csv(report: RevisionReport) -> str:
    totals = [csv_fields((v, f.value, t, s), 6) for v, f, t, s in bias_totals(report)]
    cells = map(cell_to_row, report.cells)
    return csv_text([CELL_COLUMNS, *cells, [], ["venue", "family", "bias_total", "status"], *totals])


def report_to_json(report: RevisionReport) -> str:
    totals = bias_totals(report)
    venue_status = [
        {"venue": v, "family": f.value, "status": s if s.startswith("skipped:") else "ok"}
        for v, f, _, s in totals
    ] or [{"venue": "", "family": report.families[0].value, "status": "empty dataset"}]
    doc = {
        "families": [f.value for f in report.families],
        "target_grid": list(report.target_grid),
        "targets": list(map(cell_to_dict, report.cells)),
        "bias_totals": [
            {"venue": venue, "family": family.value, "bias_total": total, "status": status}
            for venue, family, total, status in totals
        ],
        "venue_status": venue_status,
    }
    return json.dumps(doc, indent=2)
