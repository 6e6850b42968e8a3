"""Revision models: win ratio, target equalization, and report generation."""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

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
    InvalidParams,
    RevisionModel,
    SyntheticVenueSpec,
    TargetCell,
    TargetUnattainable,
    UnknownVenue,
    bias_totals,
    build_model,
    categorize,
    generate_synthetic_dataset,
    parse_matches,
    pmf,
    report_to_csv,
    report_to_json,
    revise_target,
    revision_report,
    survival,
)
from fairchase.revision import (
    CELL_COLUMNS, cell_to_dict, cell_to_row, equalization_slack, pmf_mass, survival_rise,
)

GOLDEN_DATA = Path(__file__).resolve().parent / "golden" / "matches.csv"
GRID = (300, 315, 330, 340, 350)

WIN_DIST = FittedDist.negbin(8.0, 8.0 / 200.0)  # mean 192
LOSE_DIST = FittedDist.negbin(8.0, 8.0 / 158.0)  # mean 150

#: Per family: the range of the one drawn value that scales a property
#: model's laws (the count model's n, a continuous scale), and the law it scales.
PROPERTY_LAWS = {
    Family.NEGBIN: ((2.0, 20.0), lambda mean, n: FittedDist.negbin(n, n / (n + mean))),
    Family.NORMAL: ((10.0, 80.0), FittedDist.normal),
    Family.LOGISTIC: ((10.0, 80.0), FittedDist.logistic),
}


#: Hypothesis strategies for a random property model of any family.
PROPERTY_MODELS = dict(
    family=st.sampled_from(list(Family)),
    data=st.data(),
    ratio=st.floats(min_value=0.5, max_value=2.0),
    mean_first=st.floats(min_value=150.0, max_value=280.0),
    mean_second=st.floats(min_value=150.0, max_value=280.0),
)


def property_model(family: Family, data, ratio: float, mean_first: float, mean_second: float) -> RevisionModel:
    """A model of ``family`` whose two laws share one scale drawn from PROPERTY_LAWS."""
    (low, high), law = PROPERTY_LAWS[family]
    scale = data.draw(st.floats(min_value=low, max_value=high), label="scale")
    return RevisionModel("prop", ratio, law(mean_first, scale), law(mean_second, scale), quantile_cap=100_000)


def counted_dataset(
    n_first_wins: int, n_second_wins: int, venue: str = "Alpha", second_win_dist: FittedDist = WIN_DIST
):
    """Synthetic dataset with exact decisive-win counts for one venue."""
    spec = SyntheticVenueSpec(
        venue=venue,
        bat_first_wins=n_first_wins,
        bat_second_wins=n_second_wins,
        case_dists={
            CaseLabel.BAT_FIRST_WIN: WIN_DIST,
            CaseLabel.BAT_SECOND_LOSE: LOSE_DIST,
            CaseLabel.BAT_SECOND_WIN: second_win_dist,
            CaseLabel.BAT_FIRST_LOSE: LOSE_DIST,
        },
    )
    return categorize(generate_synthetic_dataset([spec], seed=7))


def nb_totals(dataset) -> dict[str, int | None]:
    """Venue -> negative-binomial bias total over GRID, as bias_totals sums it."""
    report = revision_report(dataset, (Family.NEGBIN,), GRID)
    return {venue: total for venue, _, total, _ in bias_totals(report)}


def identity_model(dist: FittedDist) -> RevisionModel:
    return RevisionModel(
        venue="ident",
        win_ratio=1.0,
        dist_bat_first_win=dist,
        dist_bat_second_win=dist,
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
                quantile_cap=2000,
            )

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(FairchaseError):
            RevisionModel(
                venue="x",
                win_ratio=0.0,
                dist_bat_first_win=WIN_DIST,
                dist_bat_second_win=WIN_DIST,
                quantile_cap=2000,
            )

    @pytest.mark.parametrize("cap", [-5, 2**63])
    def test_cap_outside_the_score_range_rejected(self, cap):
        """A cap quantile would refuse fails when the model is built, not at revise_target."""
        with pytest.raises(InvalidParams, match=r"quantile cap must lie in \[0, 9223372036854775807\]"):
            RevisionModel("x", 1.5, WIN_DIST, WIN_DIST, quantile_cap=cap)

    @pytest.mark.parametrize("cap", [0, 2**63 - 1, 2000])
    def test_cap_inside_the_score_range_accepted(self, cap):
        assert RevisionModel("x", 1.5, WIN_DIST, WIN_DIST, quantile_cap=cap).quantile_cap == cap


class TestReviseTarget:
    def test_returns_an_ok_cell_of_the_model(self):
        model = build_model(counted_dataset(88, 61), "Alpha", Family.LOGISTIC)
        cell = revise_target(model, 330)
        assert isinstance(cell, TargetCell)
        assert (cell.venue, cell.family, cell.actual, cell.status) == ("Alpha", Family.LOGISTIC, 330, "ok")

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
        model = build_model(counted_dataset(88, 61), "Alpha")
        assert equalization_slack(model, [revise_target(model, actual) for actual in GRID]) <= 1e-12

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
            quantile_cap=2000,
        )
        with pytest.raises(TargetUnattainable):
            revise_target(model, 100)

    def test_negative_target_rejected(self):
        with pytest.raises(FairchaseError):
            revise_target(identity_model(WIN_DIST), -1)

    def test_invariant_measures_at_their_edges(self):
        assert equalization_slack(identity_model(WIN_DIST), []) == -math.inf
        assert survival_rise(WIN_DIST, 0) == 0.0
        assert pmf_mass(WIN_DIST, 0) == pmf(WIN_DIST, 0)

    @settings(max_examples=90, deadline=None)
    @given(**PROPERTY_MODELS, actual=st.integers(min_value=150, max_value=450))
    def test_equalization_property(self, family, data, ratio, mean_first, mean_second, actual):
        model = property_model(family, data, ratio, mean_first, mean_second)
        try:
            cell = revise_target(model, actual)
        except TargetUnattainable:
            return
        assert equalization_slack(model, [cell]) <= 1e-12

    @settings(max_examples=90, deadline=None)
    @given(
        **PROPERTY_MODELS,
        actuals=st.tuples(st.integers(min_value=150, max_value=450), st.integers(min_value=150, max_value=450)),
    )
    def test_monotonicity_property(self, family, data, ratio, mean_first, mean_second, actuals):
        model = property_model(family, data, ratio, mean_first, mean_second)
        revised = []
        for actual in sorted(actuals):
            with contextlib.suppress(TargetUnattainable):
                revised.append(revise_target(model, actual).revised)
        assert revised == sorted(revised)


class TestBiasTotal:
    def test_identity_model_bound(self):
        # equal win counts and one sample for both winning cases: an identity model
        samples = counted_dataset(88, 88)["Alpha"]
        first = samples[CaseLabel.BAT_FIRST_WIN]
        dataset = {"Alpha": {**samples, CaseLabel.BAT_SECOND_WIN: first}}
        assert abs(nb_totals(dataset)["Alpha"]) <= len(GRID)

    def test_matches_per_target_sum(self):
        dataset = counted_dataset(88, 61)
        model = build_model(dataset, "Alpha")
        expected = sum(a - revise_target(model, a).revised for a in GRID)
        assert nb_totals(dataset)["Alpha"] == expected

    def test_dominated_model_bias_positive(self):
        # win ratio 1.4, and chasing winners score like the first-innings losers
        dataset = counted_dataset(70, 50, second_win_dist=LOSE_DIST)
        assert nb_totals(dataset)["Alpha"] > 0


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
        assert len(bias_totals(report)) == len(venues) * len(families)

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
        statuses = {venue: status for venue, _, _, status in bias_totals(report)}
        assert statuses["Alpha"].startswith("skipped:")

    def test_empty_dataset(self):
        report = revision_report({}, target_grid=GRID)
        assert report.cells == ()
        assert bias_totals(report) == []
        venue_status = json.loads(report_to_json(report))["venue_status"]
        assert len(venue_status) == 1
        assert venue_status[0]["status"] == "empty dataset"

    @pytest.mark.parametrize(
        "families, grid",
        [((), GRID), ((Family.NEGBIN, Family.NEGBIN), GRID), ((Family.NEGBIN,), ())],
    )
    def test_rejects_empty_or_repeated_axes(self, families, grid):
        """Each bias total sums one family's whole grid, so neither axis may be empty or repeat a family."""
        with pytest.raises(FairchaseError):
            revision_report(self.dataset(), families=families, target_grid=grid)

    def test_deterministic(self):
        first = revision_report(self.dataset(), target_grid=GRID)
        second = revision_report(self.dataset(), target_grid=GRID)
        assert first == second
        assert report_to_csv(first) == report_to_csv(second)

    def test_ok_cells_are_revise_target_cells(self):
        """On the golden data every "ok" cell is the very cell revise_target returns."""
        dataset = categorize(parse_matches(GOLDEN_DATA))
        report = revision_report(dataset)
        ok = [c for c in report.cells if c.status == "ok"]
        assert 0 < len(ok) < len(report.cells)  # skipped and unattainable cells too
        models = {}
        for cell in ok:
            key = (cell.venue, cell.family)
            if key not in models:
                models[key] = build_model(dataset, cell.venue, cell.family)
            assert cell == revise_target(models[key], cell.actual)

    def test_cell_helpers_share_the_columns(self):
        ok = revise_target(build_model(self.dataset(), "Alpha"), 330)
        skipped = TargetCell("Beta", Family.NORMAL, 300, None, None, "skipped: thin")
        assert tuple(cell_to_dict(ok)) == CELL_COLUMNS
        assert cell_to_dict(skipped)["revised_target"] is None
        assert cell_to_row(ok) == ["Alpha", "negbin", 330, ok.revised, f"{ok.q_internal:.6f}", "ok"]
        assert cell_to_row(skipped) == ["Beta", "normal", 300, "", "", "skipped: thin"]

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
