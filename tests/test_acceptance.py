"""Acceptance gate: one test per criterion, one PASS/FAIL line per criterion.

The per-criterion lines are collected here and printed by the
pytest_terminal_summary hook in conftest.py, so they appear in the run
output under every capture mode.

Criteria 1-3 compare against golden tables computed from a historical
1117-match, 10-venue ODI dataset that is not distributed with the
repository. Set FAIRCHASE_ODI_DATA to a CSV copy of it to activate them;
otherwise they are skipped and the self-contained property criteria (4-9)
stand in, as the gate's contract allows.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np
import pytest

from fairchase import (
    CaseLabel,
    Family,
    FitConfig,
    FittedDist,
    InsufficientSample,
    RevisionModel,
    UnderdispersedSample,
    ZeroVariance,
    bias_totals,
    categorize,
    cdf,
    check_equalization,
    default_synthetic_spec,
    fit,
    fit_nb,
    generate_synthetic_dataset,
    parse_matches,
    pmf,
    quantile,
    revise_target,
    revision_report,
    sample_scores,
    serialize_matches,
    summarize,
    survival,
)
from fairchase.matches import OVERALL_VENUE, resolve_venue
from fairchase.revision import equalization_slack, pmf_mass, survival_rise

DATA_ENV = "FAIRCHASE_ODI_DATA"
GRID = (300, 315, 330, 340, 350)

# (number, outcome, label) per executed criterion; conftest prints these in
# the terminal summary.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def _report(number: int, label: str, outcome: str) -> None:
    ACCEPTANCE_RESULTS.append((number, outcome, label))


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception:
                _report(number, label, "SKIP (reference dataset not provided)")
                raise
            except BaseException:
                _report(number, label, "FAIL")
                raise
            _report(number, label, "PASS")
            return result

        return wrapper

    return decorate


def _reference_dataset():
    path = os.environ.get(DATA_ENV)
    if not path:
        pytest.skip(f"set {DATA_ENV} to the 1117-match reference CSV to run this criterion")
    return categorize(parse_matches(path))


# Golden reference tables, frozen from the published results this library
# reproduces. Summary columns: total matches, % bat-first wins, average
# bat-first-win score, average bat-second-lose score, % bat-second wins,
# average bat-second-win score, average bat-first-lose score.
GOLDEN_SUMMARY = {
    "Auckland": (71, 42.3, 240, 185, 57.7, 200, 203),
    "Bangalore": (22, 50.0, 294, 248, 50.0, 236, 234),
    "Harare": (149, 49.7, 255, 183, 50.3, 205, 204),
    "Lahore": (58, 56.9, 266, 205, 43.1, 233, 231),
    "Lords": (62, 48.4, 268, 215, 51.6, 218, 217),
    "Melbourne": (145, 49.7, 245, 191, 50.3, 202, 201),
    "Mirpur": (107, 46.7, 261, 194, 53.3, 203, 204),
    "Premadasa": (118, 58.5, 266, 196, 41.5, 204, 203),
    "Sharjah": (236, 53.8, 252, 189, 46.2, 195, 192),
    "Sydney": (149, 59.1, 248, 189, 40.9, 195, 198),
    OVERALL_VENUE: (1117, 51.5, 260, 200, 48.5, 209, 209),
}

# Revised targets for the negative binomial family at the default grid,
# plus total (actual - revised) across the grid for all three families.
GOLDEN_REVISED_NB = {
    "Auckland": (283, 301, 320, 332, 345),
    "Bangalore": (241, 251, 261, 268, 275),
    "Harare": (276, 289, 312, 327, 342),
    "Lahore": (251, 266, 280, 289, 298),
    "Lords": (263, 284, 306, 321, 335),
    "Melbourne": (267, 286, 304, 317, 329),
    "Mirpur": (255, 273, 291, 303, 316),
    "Premadasa": (225, 243, 260, 271, 282),
    "Sharjah": (242, 259, 277, 289, 301),
    "Sydney": (230, 247, 263, 274, 285),
    OVERALL_VENUE: (249, 266, 284, 295, 307),
}

GOLDEN_BIAS_TOTALS = {  # family -> venue -> total runs
    Family.NEGBIN: {
        "Auckland": 54, "Bangalore": 335, "Harare": 95, "Lahore": 250,
        "Lords": 120, "Melbourne": 131, "Mirpur": 197, "Premadasa": 355,
        "Sharjah": 267, "Sydney": 336, OVERALL_VENUE: 234,
    },
    Family.NORMAL: {
        "Auckland": 63, "Bangalore": 329, "Harare": 155, "Lahore": 233,
        "Lords": 145, "Melbourne": 164, "Mirpur": 211, "Premadasa": 363,
        "Sharjah": 282, "Sydney": 343, OVERALL_VENUE: 245,
    },
    Family.LOGISTIC: {
        "Auckland": 6, "Bangalore": 327, "Harare": 152, "Lahore": 283,
        "Lords": 134, "Melbourne": 163, "Mirpur": 184, "Premadasa": 420,
        "Sharjah": 308, "Sydney": 414, OVERALL_VENUE: 261,
    },
}


@criterion(1, "summary table reproduction (counts exact, pct +/-0.1, averages +/-1)")
def test_criterion_1_summary_reproduction():
    dataset = _reference_dataset()
    start = time.perf_counter()
    rows = {row.venue: row for row in summarize(dataset)}
    elapsed = time.perf_counter() - start
    for venue, golden in GOLDEN_SUMMARY.items():
        key = resolve_venue(dataset, venue)
        row = rows[key]
        total, pct_first, avg_bfw, avg_bsl, pct_second, avg_bsw, avg_bfl = golden
        assert row.total_matches == total, f"{venue}: match count"
        assert abs(row.pct_bat_first_win - pct_first) <= 0.1, f"{venue}: first-win pct"
        assert abs(row.pct_bat_second_win - pct_second) <= 0.1, f"{venue}: second-win pct"
        assert abs(row.avg_bat_first_win - avg_bfw) <= 1.0, f"{venue}: bat-first-win avg"
        assert abs(row.avg_bat_second_lose - avg_bsl) <= 1.0, f"{venue}: bat-second-lose avg"
        assert abs(row.avg_bat_second_win - avg_bsw) <= 1.0, f"{venue}: bat-second-win avg"
        assert abs(row.avg_bat_first_lose - avg_bfl) <= 1.0, f"{venue}: bat-first-lose avg"
    assert elapsed < 1.0, f"summary took {elapsed:.2f}s"


@criterion(2, "revised-target table, negative binomial (cells +/-3, totals +/-15, <5s)")
def test_criterion_2_revised_targets_negbin():
    dataset = _reference_dataset()
    start = time.perf_counter()
    report = revision_report(dataset, families=(Family.NEGBIN,), target_grid=GRID)
    elapsed = time.perf_counter() - start
    cells = {(c.venue, c.actual): c for c in report.cells}
    totals = {venue: total for venue, _, total, _ in bias_totals(report)}
    for venue, golden_row in GOLDEN_REVISED_NB.items():
        key = resolve_venue(dataset, venue)
        for actual, golden_revised in zip(GRID, golden_row):
            cell = cells[(key, actual)]
            assert cell.status == "ok", f"{venue}@{actual}: {cell.status}"
            assert abs(cell.revised - golden_revised) <= 3, (
                f"{venue}@{actual}: got {cell.revised}, expected {golden_revised}"
            )
        golden_total = GOLDEN_BIAS_TOTALS[Family.NEGBIN][venue]
        assert abs(totals[key] - golden_total) <= 15, f"{venue}: NB bias total"
    assert elapsed < 5.0, f"full table took {elapsed:.2f}s"


@criterion(3, "family comparison: normal and logistic bias totals +/-15")
def test_criterion_3_family_comparison():
    dataset = _reference_dataset()
    report = revision_report(dataset, families=(Family.NORMAL, Family.LOGISTIC), target_grid=GRID)
    totals = {(family, venue): total for venue, family, total, _ in bias_totals(report)}
    for family in (Family.NORMAL, Family.LOGISTIC):
        for venue, golden_total in GOLDEN_BIAS_TOTALS[family].items():
            key = resolve_venue(dataset, venue)
            assert abs(totals[(family, key)] - golden_total) <= 15, (
                f"{venue}/{family.value}: bias total"
            )


def _synthetic_models(family: Family = Family.NEGBIN) -> list[RevisionModel]:
    """Models of one family for three synthetic venues plus the pooled entry."""
    specs = default_synthetic_spec(num_venues=3, matches_per_venue=150)
    dataset = categorize(generate_synthetic_dataset(specs, seed=314))
    from fairchase import build_model, venue_names

    return [build_model(dataset, name, family) for name in venue_names(dataset)]


@criterion(4, "equalization identity within one pmf step at every grid target")
def test_criterion_4_equalization_identity():
    checked = 0
    for model in _synthetic_models():
        cells = [revise_target(model, actual) for actual in range(300, 351)]
        assert equalization_slack(model, cells) <= 1e-15, model.venue
        checked += len(cells)
    assert checked == 4 * 51


@criterion(5, "NB fitter recovers seeded parameters (mean 1%, n 10%, identity 1e-6, <1s)")
def test_criterion_5_fitter_recovery():
    scores = sample_scores(FittedDist.negbin(8.0, 0.04), 5000, seed=11)
    start = time.perf_counter()
    fitted = fit_nb(scores)
    elapsed = time.perf_counter() - start
    assert abs(fitted.params.mean - 192.0) / 192.0 <= 0.01
    assert abs(fitted.params.n - 8.0) / 8.0 <= 0.10
    sample_mean = sum(scores) / len(scores)
    assert abs(fitted.params.mean - sample_mean) / sample_mean <= 1e-6
    assert elapsed < 1.0, f"fit took {elapsed:.3f}s"


@criterion(6, "quantile/CDF Galois adjunction on 20 randomized NB parameter sets")
def test_criterion_6_galois_property():
    rng = np.random.default_rng(1729)
    q_grid = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    for _ in range(20):
        n = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
        p = float(rng.uniform(0.02, 0.9))
        dist = FittedDist.negbin(n, p)
        for q in q_grid:
            x = quantile(dist, q, cap=10_000_000)
            assert cdf(dist, x) >= q, f"n={n}, p={p}, q={q}"
            if x > 0:
                assert cdf(dist, x - 1) < q, f"n={n}, p={p}, q={q}"


@criterion(7, "pmf normalization to 1e-9 and survival monotonicity on [0, 600]")
def test_criterion_7_normalization_and_monotonicity():
    specs = default_synthetic_spec(num_venues=2, matches_per_venue=150)
    dataset = categorize(generate_synthetic_dataset(specs, seed=501))
    fitted_models = []
    for samples in dataset.values():
        for label in CaseLabel:
            for family in Family:
                try:
                    fitted_models.append(fit(samples[label], family))
                except (InsufficientSample, UnderdispersedSample, ZeroVariance):
                    continue
    assert len(fitted_models) >= 24
    for dist in fitted_models:
        total = pmf_mass(dist, quantile(dist, 1.0 - 1e-10, cap=1_000_000))
        assert abs(total - 1.0) <= 1e-9, f"{dist.family.value}: mass {total}"
        assert survival_rise(dist, 600) <= 1e-12, dist.family.value


@criterion(8, "Monte Carlo agrees with analytic survivals at 1e6 trials, every family; reruns bit-identical")
def test_criterion_8_monte_carlo_consistency():
    for family in Family:
        model = _synthetic_models(family)[-1]  # pooled venue, largest samples
        result = check_equalization(model, 330, 1_000_000, 99)
        rerun = check_equalization(model, 330, 1_000_000, 99)
        assert result == rerun
        assert json.dumps(result.to_dict()) == json.dumps(rerun.to_dict())

        analytic_first = survival(model.dist_bat_first_win, 330)
        analytic_second = survival(model.dist_bat_second_win, result.revised_target)
        assert abs(result.est_first_exceed - analytic_first) <= 4.0 * result.se_first_exceed, (
            f"{family.value}: first-innings exceedance"
        )
        assert abs(result.est_second_exceed - analytic_second) <= 4.0 * result.se_second_exceed, (
            f"{family.value}: second-innings exceedance"
        )
        bound = 4.0 * (
            result.se_second_exceed + model.win_ratio * result.se_first_exceed
        ) + pmf(model.dist_bat_second_win, result.revised_target)
        assert abs(result.est_second_exceed - model.win_ratio * result.est_first_exceed) <= bound, (
            f"{family.value}: equalization"
        )


@criterion(9, "end-to-end round trip: 2000 synthetic matches, fitted means within 2%")
def test_criterion_9_end_to_end_round_trip():
    specs = default_synthetic_spec(num_venues=1, matches_per_venue=2000)
    records = generate_synthetic_dataset(specs, seed=9)
    assert len(records) == 2000

    # full ingest cycle through the CSV layer
    import io

    reparsed = parse_matches(io.StringIO(serialize_matches(records)))
    assert reparsed == records
    dataset = categorize(reparsed)

    from fairchase import build_model

    model = build_model(dataset, "venue01")
    # generation draws winning scores from a mean-192 model conditioned on a
    # score above zero (P(0) = 0.04**8, so the mean moves by about 1e-9 runs),
    # and losers never constrain winners, so their fitted means must match
    for dist in (model.dist_bat_first_win, model.dist_bat_second_win):
        assert abs(dist.params.mean - 192.0) / 192.0 <= 0.02

    cells = [revise_target(model, actual) for actual in GRID]
    assert all(0 <= c.revised <= c.actual + 50 for c in cells)
    assert equalization_slack(model, cells) <= 1e-15
    revised = [c.revised for c in cells]
    assert revised == sorted(revised)

    rows = summarize(dataset, venues=["venue01"])
    assert rows[0].total_matches == 2000
    assert rows[0].pct_bat_first_win == pytest.approx(55.0, abs=0.1)
