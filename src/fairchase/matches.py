"""ODI match records: CSV ingestion, validation, four-case classification,
and venue summary tables.

A decisive full-length match contributes exactly two labeled score
observations: the winner's innings total and the loser's innings total, each
tagged by batting order. Ties, no-results, and reduced-overs matches are
excluded from every sample so the four cases stay comparable.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import os
from enum import Enum
from itertools import chain
from typing import IO, Collection, Iterable, Mapping, Sequence, Union

from .errors import (
    DuplicateMatchId,
    EmptyVenue,
    InconsistentOutcome,
    MalformedRow,
    RowError,
    UnknownVenue,
    _frozen,
)

CSV_HEADER = (
    "match_id",
    "venue",
    "date",
    "first_innings_runs",
    "second_innings_runs",
    "outcome",
    "reduced_overs",
)

#: Sentinel venue key under which all venues are pooled. Reserved: input rows
#: may not use it as a venue name.
OVERALL_VENUE = "overall"


class Outcome(str, Enum):
    BAT_FIRST_WIN = "BatFirstWin"
    BAT_SECOND_WIN = "BatSecondWin"
    TIE = "Tie"
    NO_RESULT = "NoResult"


_OUTCOMES = {o.value: o for o in Outcome}


class CaseLabel(str, Enum):
    """The four experimental cases a decisive innings score falls into."""

    BAT_FIRST_WIN = "BatFirstWin"
    BAT_FIRST_LOSE = "BatFirstLose"
    BAT_SECOND_WIN = "BatSecondWin"
    BAT_SECOND_LOSE = "BatSecondLose"


@_frozen
class MatchRecord:
    def __init__(self, match_id: str, venue: str, date: dt.date | None, first_innings_runs: int,
                 second_innings_runs: int, outcome: Outcome, reduced_overs: bool):
        """Check the value rules once, in order, then store the fields."""
        first, second = first_innings_runs, second_innings_runs
        if not match_id:
            raise MalformedRow("match_id must be non-empty")
        if not venue or venue != venue.strip():
            raise MalformedRow(f"venue must be non-empty and trimmed, got {venue!r}")
        if venue.casefold() == OVERALL_VENUE:
            raise MalformedRow(f"venue name {OVERALL_VENUE!r} is reserved for the pooled entry")
        if "\x00" in match_id or "\x00" in venue:
            raise MalformedRow(f"match_id and venue must not contain NUL, got {match_id!r} and {venue!r}")
        if first < 0 or second < 0:
            raise MalformedRow("innings runs must be non-negative")
        if outcome is Outcome.BAT_FIRST_WIN and not second < first:
            raise InconsistentOutcome(
                f"outcome {outcome.value} requires second innings ({second}) below first ({first})"
            )
        if outcome is Outcome.BAT_SECOND_WIN and not second > first:
            raise InconsistentOutcome(
                f"outcome {outcome.value} requires second innings ({second}) above first ({first})"
            )
        if outcome is Outcome.TIE and first != second:
            raise InconsistentOutcome(f"tie requires equal scores, got {first} and {second}")
        object.__setattr__(self, "__dict__", {
            "match_id": match_id, "venue": venue, "date": date, "first_innings_runs": first,
            "second_innings_runs": second, "outcome": outcome, "reduced_overs": reduced_overs,
        })


#: Map from venue (plus the pooled OVERALL_VENUE entry) to each case's
#: scores, sorted.
CategorizedScores = Mapping[str, Mapping[CaseLabel, tuple[int, ...]]]


@_frozen
class SummaryRow:
    """One venue line of the summary table. Percentages and averages keep
    full precision; rounding happens only at display time."""

    def __init__(self, venue: str, total_matches: int, pct_bat_first_win: float, avg_bat_first_win: float,
                 avg_bat_second_lose: float, pct_bat_second_win: float, avg_bat_second_win: float,
                 avg_bat_first_lose: float):
        object.__setattr__(self, "__dict__", {
            "venue": venue, "total_matches": total_matches, "pct_bat_first_win": pct_bat_first_win,
            "avg_bat_first_win": avg_bat_first_win, "avg_bat_second_lose": avg_bat_second_lose,
            "pct_bat_second_win": pct_bat_second_win, "avg_bat_second_win": avg_bat_second_win,
            "avg_bat_first_lose": avg_bat_first_lose,
        })


Source = Union[str, os.PathLike, IO[str]]


def parse_matches(source: Source) -> list[MatchRecord]:
    """Parse match records from CSV.

    source may be a filesystem path, decoded as UTF-8 after an optional
    byte-order mark, or an open text stream the caller has decoded. Each row
    is checked once, where it is read: _parse_row's text rules, then the
    value rules of MatchRecord's constructor, which every record goes
    through, then _parse_stream's duplicate id. The first offending row
    raises MalformedRow, InconsistentOutcome, or DuplicateMatchId with its
    line number; input that is not UTF-8 raises MalformedRow with none.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return _parse_stream(handle)
    return _parse_stream(source)


def _parse_stream(stream: IO[str]) -> list[MatchRecord]:
    reader = csv.reader(stream)
    records: list[MatchRecord] = []
    seen: set[str] = set()
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow("missing header", row=1) from None
        if tuple(header) != CSV_HEADER:
            raise MalformedRow(f"header must be exactly {','.join(CSV_HEADER)}", row=1)
        for fields in reader:
            if not fields:
                continue
            try:
                record = _parse_row(fields)
                if record.match_id in seen:
                    raise DuplicateMatchId(f"match_id {record.match_id!r} already seen")
            except RowError as exc:
                raise type(exc)(str(exc), row=reader.line_num) from None
            seen.add(record.match_id)
            records.append(record)
    except csv.Error as exc:
        raise MalformedRow(f"unreadable CSV: {exc}", row=reader.line_num) from None
    except UnicodeDecodeError as exc:
        # the text layer decodes ahead of the reader, so the row is unknown,
        # and exc's position counts from the start of a read chunk, not the file
        raise MalformedRow(f"unreadable CSV: not UTF-8 ({exc.reason})") from None
    return records


def _parse_row(fields: Sequence[str]) -> MatchRecord:
    """One row's record: the text rules here, then the value rules in
    MatchRecord's constructor."""
    if len(fields) != len(CSV_HEADER):
        raise MalformedRow(f"expected {len(CSV_HEADER)} fields, got {len(fields)}")
    match_id, venue, date_text, first_text, second_text, outcome_text, reduced_text = fields

    date: dt.date | None = None
    if date_text:
        # fromisoformat alone also takes other ISO forms on newer Pythons
        # (20240101, 2024-W01-1); this shape leaves only YYYY-MM-DD, whose
        # digits it checks itself
        try:
            if not (len(date_text) == 10 and date_text[4] == date_text[7] == "-" and date_text.isascii()):
                raise ValueError
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise MalformedRow(f"date must be YYYY-MM-DD or empty, got {date_text!r}")

    first = _parse_runs("first_innings_runs", first_text)
    second = _parse_runs("second_innings_runs", second_text)

    outcome = _OUTCOMES.get(outcome_text)
    if outcome is None:
        raise MalformedRow(f"outcome must be one of {[o.value for o in Outcome]}, got {outcome_text!r}")
    if reduced_text not in ("true", "false"):
        raise MalformedRow(f"reduced_overs must be true or false, got {reduced_text!r}")
    return MatchRecord(match_id, venue.strip(), date, first, second, outcome, reduced_text == "true")


def _parse_runs(label: str, text: str) -> int:
    """Innings runs written as plain ASCII digits; int() alone also takes
    signs, spaces, underscores and other scripts' digits."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise MalformedRow(f"{label} must be a non-negative integer, got {text!r}")


def serialize_matches(records: Iterable[MatchRecord]) -> str:
    """CSV text that parse_matches reads back into an identical record list."""
    rows = (
        [
            rec.match_id, rec.venue, rec.date.isoformat() if rec.date else "", rec.first_innings_runs,
            rec.second_innings_runs, rec.outcome.value, "true" if rec.reduced_overs else "false",
        ]
        for rec in records
    )
    return csv_text(chain([CSV_HEADER], rows))


def csv_text(rows: Iterable[Collection]) -> str:
    """Every CSV table fairchase writes: a line ending in "\\n" per row, and a
    row holding a "\\r" in a string field quoted whole."""
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    # before 3.13 csv quotes only the line terminator's "\n", and 3.13 a "\r"
    # field alone; so on every Python a row holding a "\r" is quoted whole
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any(isinstance(v, str) and "\r" in v for v in row) else plain).writerow(row)
    return out.getvalue()


def csv_fields(values: Iterable, digits: int) -> list:
    """A table's CSV fields: "" for None, a float to digits decimals, anything else as it is."""
    return ["" if v is None else f"{v:.{digits}f}" if isinstance(v, float) else v for v in values]


def categorize(records: Sequence[MatchRecord]) -> dict[str, dict[CaseLabel, tuple[int, ...]]]:
    """Classify innings scores into the four cases, per venue and pooled.

    Ties, no-results, and reduced-overs matches are excluded. Venues are
    matched case-insensitively after trimming; a venue seen only through
    excluded matches still appears, with empty samples. Scores are stored
    sorted, so the result is invariant under input permutation.
    """
    display: dict[str, str] = {}
    scores: dict[str, tuple[list[int], ...]] = {}  # each venue's samples in CaseLabel order
    first_win, second_win = Outcome.BAT_FIRST_WIN, Outcome.BAT_SECOND_WIN  # looked up once, not per record
    for rec in records:
        venue = rec.venue
        key = venue.casefold()
        samples = scores.get(key)
        if samples is None:
            samples = scores[key] = ([], [], [], [])
            display[key] = venue
        elif venue < display[key]:
            display[key] = venue  # deterministic spelling: lexicographic min
        if rec.reduced_overs:
            continue
        if rec.outcome is first_win:
            samples[0].append(rec.first_innings_runs)  # BAT_FIRST_WIN
            samples[3].append(rec.second_innings_runs)  # BAT_SECOND_LOSE
        elif rec.outcome is second_win:
            samples[2].append(rec.second_innings_runs)  # BAT_SECOND_WIN
            samples[1].append(rec.first_innings_runs)  # BAT_FIRST_LOSE

    dataset: dict[str, dict[CaseLabel, tuple[int, ...]]] = {}
    pooled: tuple[list[int], ...] = ([], [], [], [])
    for key in sorted(scores, key=display.__getitem__):
        dataset[display[key]] = _by_label(scores[key])
        for values, more in zip(pooled, scores[key]):
            values.extend(more)
    if scores:
        dataset[OVERALL_VENUE] = _by_label(pooled)
    return dataset


def _by_label(samples: Sequence[list[int]]) -> dict[CaseLabel, tuple[int, ...]]:
    return {label: tuple(sorted(values)) for label, values in zip(CaseLabel, samples)}


def venue_names(dataset: CategorizedScores) -> list[str]:
    """Venue keys sorted by name, with the pooled entry last."""
    names = sorted(v for v in dataset if v != OVERALL_VENUE)
    if OVERALL_VENUE in dataset:
        names.append(OVERALL_VENUE)
    return names


def resolve_venue(dataset: CategorizedScores, venue: str) -> str:
    """Find the dataset key matching a venue name, case-insensitively."""
    wanted = venue.strip().casefold()
    for key in dataset:
        if key.casefold() == wanted:
            return key
    raise UnknownVenue(f"venue {venue!r} not present in the dataset")


def select_venues(dataset: CategorizedScores, venues: Sequence[str] | None = None) -> list[str]:
    """Dataset keys of the named venues, each once, in venue_names order
    (every venue with venues=None); UnknownVenue for a name not present."""
    if venues is None:
        return venue_names(dataset)
    wanted = {resolve_venue(dataset, v) for v in venues}
    return [name for name in venue_names(dataset) if name in wanted]


def summarize(
    dataset: CategorizedScores, venues: Sequence[str] | None = None
) -> list[SummaryRow]:
    """Build summary rows for the venues select_venues picks, in its order.

    With venues=None, venues without decisive matches are omitted; naming one
    explicitly raises EmptyVenue instead.
    """
    rows = []
    for name in select_venues(dataset, venues):
        samples = dataset[name]
        n_first = len(samples[CaseLabel.BAT_FIRST_WIN])
        n_second = len(samples[CaseLabel.BAT_SECOND_WIN])
        total = n_first + n_second
        if total == 0:
            if venues is not None:
                raise EmptyVenue(f"venue {name!r} has no decisive full-length matches")
            continue
        rows.append(
            SummaryRow(
                venue=name,
                total_matches=total,
                pct_bat_first_win=100.0 * n_first / total,
                avg_bat_first_win=_mean(samples[CaseLabel.BAT_FIRST_WIN]),
                avg_bat_second_lose=_mean(samples[CaseLabel.BAT_SECOND_LOSE]),
                pct_bat_second_win=100.0 * n_second / total,
                avg_bat_second_win=_mean(samples[CaseLabel.BAT_SECOND_WIN]),
                avg_bat_first_lose=_mean(samples[CaseLabel.BAT_FIRST_LOSE]),
            )
        )
    return rows


def _mean(scores: Sequence[int]) -> float:
    return sum(scores) / len(scores) if scores else math.nan


def round_half_away(x: float, ndigits: int = 0) -> float:
    """Round half away from zero, the convention used for displayed values."""
    scale = 10**ndigits
    if x >= 0:
        value = math.floor(x * scale + 0.5) / scale
    else:
        value = math.ceil(x * scale - 0.5) / scale
    return value if ndigits > 0 else int(value)


def _display_avg(x: float) -> int | None:
    return None if math.isnan(x) else round_half_away(x)


def _display_row(row: SummaryRow) -> dict:
    return {
        "venue": row.venue,
        "total_matches": row.total_matches,
        "pct_bat_first_win": round_half_away(row.pct_bat_first_win, 1),
        "avg_bat_first_win": _display_avg(row.avg_bat_first_win),
        "avg_bat_second_lose": _display_avg(row.avg_bat_second_lose),
        "pct_bat_second_win": round_half_away(row.pct_bat_second_win, 1),
        "avg_bat_second_win": _display_avg(row.avg_bat_second_win),
        "avg_bat_first_lose": _display_avg(row.avg_bat_first_lose),
    }


def summary_to_csv(rows: Sequence[SummaryRow]) -> str:
    return csv_text([SummaryRow.__dataclass_fields__, *(csv_fields(_display_row(r).values(), 1) for r in rows)])


def summary_to_json(rows: Sequence[SummaryRow]) -> str:
    return json.dumps([_display_row(row) for row in rows], indent=2)
