"""Revision models: win ratio, target equalization, and report generation."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchase import (
    CaseLabel,
    FairchaseError,
    Family,
    FitConfig,
    FittedDist,
    InsufficientSample,
    RevisionModel,
    SyntheticVenueSpec,
    TargetUnattainable,
    UnknownVenue,
    build_model,
    categorize,
    generate_synthetic_dataset,
    pmf,
    report_to_csv,
    report_to_json,
    revise_target,
    revision_report,
    survival,
)

GRID = (300, 315, 330, 340, 350)

WIN_DIST = FittedDist.negbin(8.0, 8.0 / 200.0)  # mean 192
LOSE_DIST = FittedDist.negbin(8.0, 8.0 / 158.0)  # mean 150


def counted_dataset(
    n_first_wins: int, n_second_wins: int, venue: str = "Alpha", second_win_dist: FittedDist = WIN_DIST
):
    """Synthetic dataset with exact decisive-win counts for one venue."""
    spec = SyntheticVenueSpec(
        venue=venue,
        case_counts={
            CaseLabel.BAT_FIRST_WIN: n_first_wins,
            CaseLabel.BAT_SECOND_LOSE: n_first_wins,
            CaseLabel.BAT_SECOND_WIN: n_second_wins,
            CaseLabel.BAT_FIRST_LOSE: n_second_wins,
        },
        case_dists={
            CaseLabel.BAT_FIRST_WIN: WIN_DIST,
            CaseLabel.BAT_SECOND_LOSE: LOSE_DIST,
            CaseLabel.BAT_SECOND_WIN: second_win_dist,
            CaseLabel.BAT_FIRST_LOSE: LOSE_DIST,
        },
    )
    return categorize(generate_synthetic_dataset([spec], seed=7))


def bias_totals(dataset) -> dict[str, int | None]:
    """Venue -> negative-binomial bias total over GRID, as revision_report sums it."""
    report = revision_report(dataset, (Family.NEGBIN,), GRID)
    return {row.venue: row.total for row in report.bias_rows}


def identity_model(dist: FittedDist) -> RevisionModel:
    return RevisionModel(
        venue="ident",
        win_ratio=1.0,
        dist_bat_first_win=dist,
        dist_bat_second_win=dist,
        family=dist.family,
        quantile_cap=2000,
    )


class TestBuildModel:
    @pytest.mark.parametrize("wins", [(88, 61), (69, 49)])
    def test_win_ratio_is_exact_count_ratio(self, wins):
        n_first, n_second = wins
        dataset = counted_dataset(n_first, n_second)
        model = build_model(dataset, "Alpha")
        assert model.win_ratio == n_first / n_second

    def test_equal_counts_give_ratio_one(self):
        model = build_model(counted_dataset(30, 30), "Alpha")
        assert model.win_ratio == 1.0

    def test_count_scaling_leaves_ratio_unchanged(self):
        small = build_model(counted_dataset(12, 10), "Alpha")
        large = build_model(counted_dataset(36, 30), "Alpha")
        assert small.win_ratio == large.win_ratio == 1.2

    def test_unknown_venue(self):
        with pytest.raises(UnknownVenue):
            build_model(counted_dataset(30, 30), "Nowhere")

    def test_insufficient_sample(self):
        dataset = counted_dataset(30, 5)
        with pytest.raises(InsufficientSample):
            build_model(dataset, "Alpha")

    def test_fits_requested_family(self):
        dataset = counted_dataset(40, 40)
        model = build_model(dataset, "Alpha", Family.LOGISTIC)
        assert model.family is Family.LOGISTIC
        assert model.dist_bat_first_win.family is Family.LOGISTIC

    def test_mixed_families_rejected(self):
        with pytest.raises(FairchaseError):
            RevisionModel(
                venue="x",
                win_ratio=1.0,
                dist_bat_first_win=WIN_DIST,
                dist_bat_second_win=FittedDist.normal(192.0, 40.0),
                family=Family.NEGBIN,
                quantile_cap=2000,
            )

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(FairchaseError):
            RevisionModel(
                venue="x",
                win_ratio=0.0,
                dist_bat_first_win=WIN_DIST,
                dist_bat_second_win=WIN_DIST,
                family=Family.NEGBIN,
                quantile_cap=2000,
            )


class TestReviseTarget:
    def test_identity_model_returns_the_target_negbin(self):
        model = identity_model(WIN_DIST)
        for actual in (250, 300, 330, 350):
            result = revise_target(model, actual)
            assert result.revised in (actual, actual + 1)

    @pytest.mark.parametrize(
        "dist", [FittedDist.normal(192.0, 45.0), FittedDist.logistic(192.0, 25.0)]
    )
    def test_identity_model_continuous(self, dist):
        model = identity_model(dist)
        for actual in (250, 300, 350):
            assert revise_target(model, actual).revised in (actual, actual + 1)

    def test_equalization_identity_exact_bound(self):
        dataset = counted_dataset(88, 61)
        model = build_model(dataset, "Alpha")
        for actual in GRID:
            result = revise_target(model, actual)
            gap = abs(
                survival(model.dist_bat_second_win, result.revised)
                - model.win_ratio * survival(model.dist_bat_first_win, actual)
            )
            assert gap <= pmf(model.dist_bat_second_win, result.revised) + 1e-12

    def test_q_internal_in_unit_interval(self):
        model = build_model(counted_dataset(88, 61), "Alpha")
        for actual in GRID:
            result = revise_target(model, actual)
            assert 0.0 < result.q_internal <= 1.0

    def test_monotone_in_actual_target(self):
        model = build_model(counted_dataset(88, 61), "Alpha")
        revised = [revise_target(model, a).revised for a in range(200, 400, 5)]
        assert all(a <= b for a, b in zip(revised, revised[1:]))

    def test_dominated_chasing_distribution_lowers_target(self):
        # chasing winners score strictly lower on average and the ratio favors
        # batting first, so the revised target can never exceed the actual
        model = RevisionModel(
            venue="dom",
            win_ratio=1.4,
            dist_bat_first_win=WIN_DIST,
            dist_bat_second_win=LOSE_DIST,
            family=Family.NEGBIN,
            quantile_cap=2000,
        )
        assert all(
            survival(LOSE_DIST, x) <= survival(WIN_DIST, x) + 1e-15 for x in range(601)
        )
        for actual in GRID:
            assert revise_target(model, actual).revised <= actual

    def test_unattainable_target(self):
        model = RevisionModel(
            venue="steep",
            win_ratio=2.0,
            dist_bat_first_win=WIN_DIST,
            dist_bat_second_win=WIN_DIST,
            family=Family.NEGBIN,
            quantile_cap=2000,
        )
        with pytest.raises(TargetUnattainable):
            revise_target(model, 100)

    def test_negative_target_rejected(self):
        with pytest.raises(FairchaseError):
            revise_target(identity_model(WIN_DIST), -1)

    @settings(max_examples=30, deadline=None)
    @given(
        ratio=st.floats(min_value=0.5, max_value=2.0),
        n=st.floats(min_value=2.0, max_value=20.0),
        mean_first=st.floats(min_value=150.0, max_value=280.0),
        mean_second=st.floats(min_value=150.0, max_value=280.0),
        actual_pair=st.tuples(
            st.integers(min_value=200, max_value=400),
            st.integers(min_value=200, max_value=400),
        ),
    )
    def test_monotonicity_property(self, ratio, n, mean_first, mean_second, actual_pair):
        model = RevisionModel(
            venue="prop",
            win_ratio=ratio,
            dist_bat_first_win=FittedDist.negbin(n, n / (n + mean_first)),
            dist_bat_second_win=FittedDist.negbin(n, n / (n + mean_second)),
            family=Family.NEGBIN,
            quantile_cap=100_000,
        )
        low, high = sorted(actual_pair)
        try:
            first = revise_target(model, low).revised
            second = revise_target(model, high).revised
        except TargetUnattainable:
            return
        assert first <= second

    @settings(max_examples=30, deadline=None)
    @given(
        ratio=st.floats(min_value=0.5, max_value=2.0),
        n=st.floats(min_value=2.0, max_value=20.0),
        mean_first=st.floats(min_value=150.0, max_value=280.0),
        mean_second=st.floats(min_value=150.0, max_value=280.0),
        actual=st.integers(min_value=150, max_value=450),
    )
    def test_equalization_property(self, ratio, n, mean_first, mean_second, actual):
        model = RevisionModel(
            venue="prop",
            win_ratio=ratio,
            dist_bat_first_win=FittedDist.negbin(n, n / (n + mean_first)),
            dist_bat_second_win=FittedDist.negbin(n, n / (n + mean_second)),
            family=Family.NEGBIN,
            quantile_cap=100_000,
        )
        try:
            result = revise_target(model, actual)
        except TargetUnattainable:
            return
        gap = abs(
            survival(model.dist_bat_second_win, result.revised)
            - model.win_ratio * survival(model.dist_bat_first_win, actual)
        )
        assert gap <= pmf(model.dist_bat_second_win, result.revised) + 1e-12


class TestBiasTotal:
    def test_identity_model_bound(self):
        # equal win counts and one sample for both winning cases: an identity model
        samples = counted_dataset(88, 88)["Alpha"]
        first = samples[CaseLabel.BAT_FIRST_WIN]
        second = replace(first, case=CaseLabel.BAT_SECOND_WIN)
        dataset = {"Alpha": {**samples, CaseLabel.BAT_SECOND_WIN: second}}
        assert abs(bias_totals(dataset)["Alpha"]) <= len(GRID)

    def test_matches_per_target_sum(self):
        dataset = counted_dataset(88, 61)
        model = build_model(dataset, "Alpha")
        expected = sum(a - revise_target(model, a).revised for a in GRID)
        assert bias_totals(dataset)["Alpha"] == expected

    def test_dominated_model_bias_positive(self):
        # win ratio 1.4, and chasing winners score like the first-innings losers
        dataset = counted_dataset(70, 50, second_win_dist=LOSE_DIST)
        assert bias_totals(dataset)["Alpha"] > 0


class TestRevisionReport:
    def dataset(self):
        return counted_dataset(88, 61)

    def test_cell_layout_and_status(self):
        report = revision_report(self.dataset(), target_grid=GRID)
        venues = ["Alpha", "overall"]
        families = [Family.NEGBIN, Family.NORMAL, Family.LOGISTIC]
        assert len(report.cells) == len(venues) * len(families) * len(GRID)
        assert [c.venue for c in report.cells[:5]] == ["Alpha"] * 5
        assert [c.actual for c in report.cells[:5]] == list(GRID)
        assert all(c.status == "ok" for c in report.cells)
        assert len(report.bias_rows) == len(venues) * len(families)

    def test_family_order_respected(self):
        report = revision_report(
            self.dataset(), families=(Family.LOGISTIC, Family.NEGBIN), target_grid=GRID
        )
        assert report.cells[0].family is Family.LOGISTIC
        assert report.cells[len(GRID)].family is Family.NEGBIN

    def test_insufficient_venue_reported_not_dropped(self):
        dataset = counted_dataset(30, 5)
        report = revision_report(dataset, families=(Family.NEGBIN,), target_grid=GRID)
        alpha_cells = [c for c in report.cells if c.venue == "Alpha"]
        assert len(alpha_cells) == len(GRID)
        assert all(c.status.startswith("skipped:") for c in alpha_cells)
        assert all(c.revised is None for c in alpha_cells)
        statuses = {s.venue: s.status for s in report.venue_status}
        assert statuses["Alpha"].startswith("skipped:")

    def test_empty_dataset(self):
        report = revision_report({}, target_grid=GRID)
        assert report.cells == ()
        assert len(report.venue_status) == 1
        assert report.venue_status[0].status == "empty dataset"

    def test_deterministic(self):
        first = revision_report(self.dataset(), target_grid=GRID)
        second = revision_report(self.dataset(), target_grid=GRID)
        assert first == second
        assert report_to_csv(first) == report_to_csv(second)

    def test_csv_has_target_and_bias_sections(self):
        text = report_to_csv(revision_report(self.dataset(), target_grid=GRID))
        lines = text.splitlines()
        assert lines[0] == "venue,family,actual_target,revised_target,q_internal,status"
        blank = lines.index("")
        assert lines[blank + 1] == "venue,family,bias_total,status"
        assert len(lines) > blank + 2

    def test_json_shape(self):
        doc = json.loads(report_to_json(revision_report(self.dataset(), target_grid=GRID)))
        assert doc["target_grid"] == list(GRID)
        assert {row["family"] for row in doc["bias_totals"]} == {
            "negbin",
            "normal",
            "logistic",
        }
        assert all(row["status"] == "ok" for row in doc["targets"])

    def test_custom_fit_config_respected(self):
        dataset = counted_dataset(8, 8)
        strict = revision_report(dataset, families=(Family.NEGBIN,), target_grid=GRID)
        assert all(c.status.startswith("skipped:") for c in strict.cells)
        relaxed = revision_report(
            dataset,
            families=(Family.NEGBIN,),
            target_grid=GRID,
            config=FitConfig(min_sample_size=5),
        )
        assert all(c.status == "ok" for c in relaxed.cells)
