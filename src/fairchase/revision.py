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

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .distributions import (
    DEFAULT_FIT_CONFIG,
    Family,
    FitConfig,
    FittedDist,
    fit,
    quantile,
    survival,
)
from .errors import FairchaseError, InsufficientSample, TargetUnattainable
from .matches import CaseLabel, CategorizedScores, resolve_venue, venue_names


@dataclass(frozen=True)
class RevisionModel:
    """Fitted winning-score distributions and win-frequency ratio for one venue."""

    venue: str
    win_ratio: float
    dist_bat_first_win: FittedDist
    dist_bat_second_win: FittedDist
    family: Family
    quantile_cap: int

    def __post_init__(self):
        if not (math.isfinite(self.win_ratio) and self.win_ratio > 0):
            raise FairchaseError(f"win_ratio must be finite and positive, got {self.win_ratio}")
        if not (self.dist_bat_first_win.family is self.family is self.dist_bat_second_win.family):
            raise FairchaseError("both fitted distributions must use the model's family")


@dataclass(frozen=True)
class RevisedTarget:
    actual: int
    revised: int
    family: Family
    #: The CDF level the revised target was read off at.
    q_internal: float


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
    n_first = samples[CaseLabel.BAT_FIRST_WIN].size
    n_second = samples[CaseLabel.BAT_SECOND_WIN].size
    for label, size in ((CaseLabel.BAT_FIRST_WIN, n_first), (CaseLabel.BAT_SECOND_WIN, n_second)):
        if size < config.min_sample_size:
            raise InsufficientSample(
                f"venue {key!r} case {label.value}: {size} scores, "
                f"need at least {config.min_sample_size}"
            )
    return RevisionModel(
        venue=key,
        win_ratio=n_first / n_second,
        dist_bat_first_win=fit(samples[CaseLabel.BAT_FIRST_WIN].scores, family, config),
        dist_bat_second_win=fit(samples[CaseLabel.BAT_SECOND_WIN].scores, family, config),
        family=family,
        quantile_cap=config.quantile_cap,
    )


def revise_target(model: RevisionModel, actual: int) -> RevisedTarget:
    """Equalized second-innings target for an actual first-innings target.

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
    return RevisedTarget(actual=actual, revised=revised, family=model.family, q_internal=q)


@dataclass(frozen=True)
class TargetCell:
    venue: str
    family: Family
    actual: int
    revised: int | None
    q_internal: float | None
    status: str  # "ok", "unattainable", or "skipped: <reason>"


@dataclass(frozen=True)
class BiasRow:
    """Sum of (actual - revised) over the target grid at one venue and family.

    Positive totals mean the venue systematically overburdens the chasing
    side at those scores.
    """

    venue: str
    family: Family
    total: int | None
    status: str


@dataclass(frozen=True)
class VenueStatus:
    venue: str
    family: Family
    status: str


@dataclass(frozen=True)
class RevisionReport:
    families: tuple[Family, ...]
    target_grid: tuple[int, ...]
    cells: tuple[TargetCell, ...]
    bias_rows: tuple[BiasRow, ...]
    venue_status: tuple[VenueStatus, ...]


def revision_report(
    dataset: CategorizedScores,
    families: Sequence[Family] = (Family.NEGBIN, Family.NORMAL, Family.LOGISTIC),
    target_grid: Sequence[int] = (300, 315, 330, 340, 350),
    config: FitConfig = DEFAULT_FIT_CONFIG,
) -> RevisionReport:
    """Revised targets for every venue, family, and grid point.

    Venues or fits that cannot support a model are reported with a skipped
    status rather than dropped, so the output always accounts for every
    venue in the dataset. Rows are ordered venue (pooled entry last), then
    family in the requested order, then target ascending.
    """
    families = tuple(families)
    grid = tuple(target_grid)
    cells: list[TargetCell] = []
    bias_rows: list[BiasRow] = []
    status_rows: list[VenueStatus] = []

    names = venue_names(dataset)
    if not names:
        status_rows.append(VenueStatus("", families[0] if families else Family.NEGBIN, "empty dataset"))

    for name in names:
        for family in families:
            try:
                model = build_model(dataset, name, family, config)
            except FairchaseError as exc:
                reason = f"skipped: {exc}"
                status_rows.append(VenueStatus(name, family, reason))
                for actual in grid:
                    cells.append(TargetCell(name, family, actual, None, None, reason))
                bias_rows.append(BiasRow(name, family, None, reason))
                continue
            status_rows.append(VenueStatus(name, family, "ok"))
            total = 0
            attainable = True
            for actual in grid:
                try:
                    result = revise_target(model, actual)
                except TargetUnattainable:
                    cells.append(TargetCell(name, family, actual, None, None, "unattainable"))
                    attainable = False
                    continue
                cells.append(
                    TargetCell(name, family, actual, result.revised, result.q_internal, "ok")
                )
                total += actual - result.revised
            if attainable:
                bias_rows.append(BiasRow(name, family, total, "ok"))
            else:
                bias_rows.append(BiasRow(name, family, None, "unattainable at some targets"))

    return RevisionReport(
        families=families,
        target_grid=grid,
        cells=tuple(cells),
        bias_rows=tuple(bias_rows),
        venue_status=tuple(status_rows),
    )


def report_to_csv(report: RevisionReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["venue", "family", "actual_target", "revised_target", "q_internal", "status"])
    for cell in report.cells:
        writer.writerow(
            [
                cell.venue,
                cell.family.value,
                cell.actual,
                "" if cell.revised is None else cell.revised,
                "" if cell.q_internal is None else f"{cell.q_internal:.6f}",
                cell.status,
            ]
        )
    writer.writerow([])
    writer.writerow(["venue", "family", "bias_total", "status"])
    for row in report.bias_rows:
        writer.writerow(
            [row.venue, row.family.value, "" if row.total is None else row.total, row.status]
        )
    return out.getvalue()


def report_to_json(report: RevisionReport) -> str:
    doc = {
        "families": [f.value for f in report.families],
        "target_grid": list(report.target_grid),
        "targets": [
            {
                "venue": c.venue,
                "family": c.family.value,
                "actual_target": c.actual,
                "revised_target": c.revised,
                "q_internal": c.q_internal,
                "status": c.status,
            }
            for c in report.cells
        ],
        "bias_totals": [
            {
                "venue": r.venue,
                "family": r.family.value,
                "bias_total": r.total,
                "status": r.status,
            }
            for r in report.bias_rows
        ],
        "venue_status": [
            {"venue": s.venue, "family": s.family.value, "status": s.status}
            for s in report.venue_status
        ],
    }
    return json.dumps(doc, indent=2)
