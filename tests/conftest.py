"""Shared fixtures: tiny hand-built datasets and a seeded synthetic one."""

from __future__ import annotations

import sys

import pytest

from fairchase import (
    CaseLabel,
    FittedDist,
    MatchRecord,
    Outcome,
    SyntheticVenueSpec,
    categorize,
    generate_synthetic_dataset,
)


def record(
    match_id: str,
    venue: str = "Alpha",
    first: int = 250,
    second: int = 200,
    outcome: Outcome = Outcome.BAT_FIRST_WIN,
    reduced: bool = False,
) -> MatchRecord:
    return MatchRecord(
        match_id=match_id,
        venue=venue,
        date=None,
        first_innings_runs=first,
        second_innings_runs=second,
        outcome=outcome,
        reduced_overs=reduced,
    )


@pytest.fixture
def tiny_records() -> list[MatchRecord]:
    """Two venues, both outcomes, a tie, a no-result, and a reduced match."""
    return [
        record("m1", "Alpha", 250, 200, Outcome.BAT_FIRST_WIN),
        record("m2", "Alpha", 220, 221, Outcome.BAT_SECOND_WIN),
        record("m3", "Alpha", 240, 240, Outcome.TIE),
        record("m4", "Beta", 180, 150, Outcome.BAT_FIRST_WIN),
        record("m5", "Beta", 260, 261, Outcome.BAT_SECOND_WIN),
        record("m6", "Beta", 0, 0, Outcome.NO_RESULT),
        record("m7", "Beta", 300, 250, Outcome.BAT_FIRST_WIN, reduced=True),
    ]


@pytest.fixture(scope="session")
def synthetic_records() -> list[MatchRecord]:
    spec = SyntheticVenueSpec(
        venue="Synthville",
        bat_first_wins=120,
        bat_second_wins=80,
        case_dists={
            CaseLabel.BAT_FIRST_WIN: FittedDist.negbin(8.0, 8.0 / 208.0),
            CaseLabel.BAT_SECOND_LOSE: FittedDist.negbin(8.0, 8.0 / 158.0),
            CaseLabel.BAT_SECOND_WIN: FittedDist.negbin(9.0, 9.0 / 189.0),
            CaseLabel.BAT_FIRST_LOSE: FittedDist.negbin(8.0, 8.0 / 168.0),
        },
    )
    return generate_synthetic_dataset([spec], seed=2026)


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_records):
    return categorize(synthetic_records)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per executed acceptance criterion."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(module, "ACCEPTANCE_RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, outcome, label in sorted(results):
        terminalreporter.write_line(f"[acceptance] criterion {number}: {outcome} - {label}")
