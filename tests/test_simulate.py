"""Monte Carlo engine: sampling fidelity, equalization checks, synthetic data."""

from __future__ import annotations

import hashlib
import io
import warnings

import numpy as np
import pytest

from fairchase import (
    CaseLabel,
    FairchaseError,
    Family,
    FittedDist,
    InconsistentSpec,
    RevisionModel,
    SimConfig,
    SyntheticVenueSpec,
    categorize,
    cdf,
    check_equalization,
    default_synthetic_spec,
    fit_nb,
    generate_synthetic_dataset,
    parse_matches,
    pmf,
    sample_scores,
    serialize_matches,
    survival,
)
from fairchase import simulate
from fairchase.simulate import _draw, _draw_match_pair

NB_MODEL = FittedDist.negbin(8.0, 0.04)  # mean 192


class TestSampling:
    def test_same_seed_same_draws(self):
        first = sample_scores(NB_MODEL, 1000, seed=123)
        second = sample_scores(NB_MODEL, 1000, seed=123)
        assert first == second

    def test_different_seed_differs(self):
        assert sample_scores(NB_MODEL, 1000, seed=1) != sample_scores(NB_MODEL, 1000, seed=2)

    def test_count_zero_gives_empty_list(self):
        assert sample_scores(NB_MODEL, 0, seed=0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(FairchaseError):
            sample_scores(NB_MODEL, -1, seed=0)

    def test_nb_sample_mean_near_analytic(self):
        draws = sample_scores(NB_MODEL, 100_000, seed=11)
        assert np.mean(draws) == pytest.approx(192.0, rel=0.02)

    def test_nb_ecdf_matches_analytic_cdf_at_deciles(self):
        draws = np.asarray(sample_scores(NB_MODEL, 100_000, seed=17))
        for decile in range(1, 10):
            q = decile / 10.0
            x = int(np.quantile(draws, q, method="inverted_cdf"))
            ecdf = float(np.mean(draws <= x))
            assert abs(ecdf - cdf(NB_MODEL, x)) < 0.01

    @pytest.mark.parametrize(
        "dist",
        [FittedDist.normal(192.0, 45.0), FittedDist.logistic(192.0, 25.0)],
    )
    def test_continuous_draws_are_nonnegative_ints(self, dist):
        draws = sample_scores(dist, 20_000, seed=23)
        assert all(isinstance(d, int) and d >= 0 for d in draws)
        assert np.mean(draws) == pytest.approx(192.0, rel=0.02)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(99)
        assert sample_scores(NB_MODEL, 10, seq) == sample_scores(
            NB_MODEL, 10, np.random.SeedSequence(99)
        )


def make_model(ratio: float = 1.0, second: FittedDist = NB_MODEL) -> RevisionModel:
    return RevisionModel(
        venue="sim",
        win_ratio=ratio,
        dist_bat_first_win=NB_MODEL,
        dist_bat_second_win=second,
        family=Family.NEGBIN,
        quantile_cap=2000,
    )


class TestCheckEqualization:
    def test_identity_model_estimates_agree(self):
        config = SimConfig(model=make_model(), actual_target=300, n_trials=1_000_000, seed=5)
        result = check_equalization(config)
        combined = 4.0 * (result.se_first_exceed + result.se_second_exceed)
        assert abs(result.est_second_exceed - result.est_first_exceed) <= combined

    def test_estimates_match_analytic_survival(self):
        model = make_model(ratio=1.3, second=FittedDist.negbin(9.0, 9.0 / 190.0))
        config = SimConfig(model=model, actual_target=320, n_trials=400_000, seed=8)
        result = check_equalization(config)
        analytic_first = survival(model.dist_bat_first_win, 320)
        analytic_second = survival(model.dist_bat_second_win, result.revised_target)
        assert abs(result.est_first_exceed - analytic_first) <= 4.0 * result.se_first_exceed
        assert abs(result.est_second_exceed - analytic_second) <= 4.0 * result.se_second_exceed

    def test_identity_bound_with_pmf_step(self):
        model = make_model(ratio=1.3, second=FittedDist.negbin(9.0, 9.0 / 190.0))
        config = SimConfig(model=model, actual_target=320, n_trials=400_000, seed=8)
        result = check_equalization(config)
        bound = 4.0 * (
            result.se_second_exceed + model.win_ratio * result.se_first_exceed
        ) + pmf(model.dist_bat_second_win, result.revised_target)
        assert (
            abs(result.est_second_exceed - model.win_ratio * result.est_first_exceed)
            <= bound
        )

    def test_deterministic_across_calls(self):
        config = SimConfig(model=make_model(), actual_target=310, n_trials=50_000, seed=21)
        assert check_equalization(config) == check_equalization(config)

    def test_single_trial_degenerate(self):
        config = SimConfig(model=make_model(), actual_target=300, n_trials=1, seed=3)
        result = check_equalization(config)
        assert result.est_first_exceed in (0.0, 1.0)
        assert result.est_second_exceed in (0.0, 1.0)
        assert result.se_first_exceed == 0.0
        assert result.degenerate

    def test_zero_trials_rejected(self):
        with pytest.raises(FairchaseError):
            SimConfig(model=make_model(), actual_target=300, n_trials=0, seed=0)

    def test_propagates_unattainable(self):
        from fairchase import TargetUnattainable

        config = SimConfig(model=make_model(ratio=2.0), actual_target=50, n_trials=10, seed=0)
        with pytest.raises(TargetUnattainable):
            check_equalization(config)

    def test_result_serializes(self):
        config = SimConfig(model=make_model(), actual_target=300, n_trials=1000, seed=5)
        doc = check_equalization(config).to_dict()
        assert doc["trials"] == 1000
        assert 0.0 <= doc["est_first_exceed"] <= 1.0


WIN = FittedDist.negbin(8.0, 8.0 / 208.0)  # mean 200
LOSE = FittedDist.negbin(8.0, 8.0 / 158.0)  # mean 150


def spec_for(venue: str, bfw: int, bsw: int) -> SyntheticVenueSpec:
    return SyntheticVenueSpec(
        venue=venue,
        case_counts={
            CaseLabel.BAT_FIRST_WIN: bfw,
            CaseLabel.BAT_SECOND_LOSE: bfw,
            CaseLabel.BAT_SECOND_WIN: bsw,
            CaseLabel.BAT_FIRST_LOSE: bsw,
        },
        case_dists={
            CaseLabel.BAT_FIRST_WIN: WIN,
            CaseLabel.BAT_SECOND_LOSE: LOSE,
            CaseLabel.BAT_SECOND_WIN: WIN,
            CaseLabel.BAT_FIRST_LOSE: LOSE,
        },
    )


class TestSyntheticData:
    def test_counts_reproduced_exactly(self):
        records = generate_synthetic_dataset([spec_for("Alpha", 50, 30)], seed=1)
        samples = categorize(records)["Alpha"]
        assert samples[CaseLabel.BAT_FIRST_WIN].size == 50
        assert samples[CaseLabel.BAT_SECOND_LOSE].size == 50
        assert samples[CaseLabel.BAT_SECOND_WIN].size == 30
        assert samples[CaseLabel.BAT_FIRST_LOSE].size == 30

    def test_records_satisfy_outcome_invariants(self, synthetic_records):
        # MatchRecord construction validates; surviving a parse round trip
        # proves every emitted row is well-formed
        reparsed = parse_matches(io.StringIO(serialize_matches(synthetic_records)))
        assert reparsed == synthetic_records

    def test_deterministic(self):
        specs = [spec_for("Alpha", 20, 20), spec_for("Beta", 15, 25)]
        assert generate_synthetic_dataset(specs, seed=4) == generate_synthetic_dataset(
            specs, seed=4
        )

    def test_winner_marginal_preserved(self):
        records = generate_synthetic_dataset([spec_for("Alpha", 1100, 900)], seed=13)
        samples = categorize(records)["Alpha"]
        fitted = fit_nb(samples[CaseLabel.BAT_FIRST_WIN].scores)
        assert fitted.params.mean == pytest.approx(200.0, rel=0.02)
        fitted_second = fit_nb(samples[CaseLabel.BAT_SECOND_WIN].scores)
        assert fitted_second.params.mean == pytest.approx(200.0, rel=0.02)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(InconsistentSpec):
            SyntheticVenueSpec(
                venue="Bad",
                case_counts={
                    CaseLabel.BAT_FIRST_WIN: 10,
                    CaseLabel.BAT_SECOND_LOSE: 9,
                },
                case_dists={
                    CaseLabel.BAT_FIRST_WIN: WIN,
                    CaseLabel.BAT_SECOND_LOSE: LOSE,
                },
            )

    def test_missing_distribution_rejected(self):
        with pytest.raises(InconsistentSpec):
            SyntheticVenueSpec(
                venue="Bad",
                case_counts={
                    CaseLabel.BAT_FIRST_WIN: 10,
                    CaseLabel.BAT_SECOND_LOSE: 10,
                },
                case_dists={CaseLabel.BAT_FIRST_WIN: WIN},
            )

    def test_default_spec_shape(self):
        specs = default_synthetic_spec(num_venues=3, matches_per_venue=100)
        assert len(specs) == 3
        for spec in specs:
            assert spec.count(CaseLabel.BAT_FIRST_WIN) == 55
            assert spec.count(CaseLabel.BAT_SECOND_WIN) == 45

    def test_loser_below_winner_in_every_record(self, synthetic_records):
        for rec in synthetic_records:
            if rec.outcome.value == "BatFirstWin":
                assert rec.second_innings_runs < rec.first_innings_runs
            else:
                assert rec.second_innings_runs > rec.first_innings_runs


def fixed_winner(score: int) -> FittedDist:
    """A winner law that always draws score (ceil of a normal within 1e-6 of
    score - 0.5)."""
    return FittedDist.normal(score - 0.5, 1e-6)


def far_losers(family: Family) -> FittedDist:
    """A loser law whose mean sits 1000 runs above a winner of 20."""
    if family is Family.NEGBIN:
        return FittedDist.negbin(8.0, 8.0 / 1008.0)
    if family is Family.NORMAL:
        return FittedDist.normal(1000.0, 100.0)
    return FittedDist.logistic(1000.0, 55.0)


class TestDrawStream:
    """One scalar draw takes the generator stream exactly as an array of one."""

    @pytest.mark.parametrize("family", list(Family))
    def test_scalar_draw_equals_array_of_one(self, family):
        dist = {
            Family.NEGBIN: NB_MODEL,
            Family.NORMAL: FittedDist.normal(192.0, 45.0),
            Family.LOGISTIC: FittedDist.logistic(192.0, 25.0),
        }[family]
        rng, rng2 = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(200):
            score = _draw(rng, dist)
            assert type(score) is int
            assert score == int(_draw(rng2, dist, 1)[0])
        assert rng.bit_generator.state == rng2.bit_generator.state


class TestGenerateNeverGivesUp:
    #: sha256 of serialize_matches at 10 venues x 1000 matches, recorded
    #: before the scalar draw and the truncated fallback went in
    PINNED = {
        0: "d58d5869e572a225dfddfc39a0731b0ea119b8df7ab850077da22914f10a8e7c",
        1: "57289c11763f1eb3be00a6ce97c73c5baa70301b7887432167a0b6a133349c94",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_stream_pinned_at_benchmark_scale(self, seed):
        records = generate_synthetic_dataset(default_synthetic_spec(10, 1000), seed)
        digest = hashlib.sha256(serialize_matches(records).encode()).hexdigest()
        assert digest == self.PINNED[seed]

    def test_seed_that_exhausted_rejection_completes(self):
        # seed 7 once gave up on a loser below a winner of 20 after 10 000 draws
        records = generate_synthetic_dataset(default_synthetic_spec(10, 1000), 7)
        assert len(records) == 10_000
        assert all(r.first_innings_runs != r.second_innings_runs for r in records)

    @pytest.mark.parametrize("family", list(Family))
    def test_unmodified_loop_falls_back(self, family):
        # every loser draw fails here, so each pair comes from the fallback
        rng = np.random.default_rng(3)
        for _ in range(3):
            assert _draw_match_pair(rng, fixed_winner(20), far_losers(family)) < (20, 20)

    @pytest.mark.parametrize("family", list(Family))
    def test_fallback_losers_follow_truncated_pmf(self, family, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_REDRAWS", 2)
        loser_dist = far_losers(family)
        rng = np.random.default_rng(29)
        draws = 4000
        losers = np.array([_draw_match_pair(rng, fixed_winner(20), loser_dist)[1] for _ in range(draws)])
        support = np.arange(20)
        truncated = np.cumsum(pmf(loser_dist, support)) / cdf(loser_dist, 19)
        empirical = np.cumsum(np.bincount(losers, minlength=20)) / draws
        # Kolmogorov-Smirnov at the 0.1% level (conservative for a discrete law)
        assert np.max(np.abs(empirical - truncated)) < 1.95 / np.sqrt(draws)

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LOGISTIC])
    def test_continuous_fallback_never_reaches_winner(self, family, monkeypatch):
        class TopUniform:
            """A generator whose uniforms sit just below 1."""

            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def random(self):
                return float(np.nextafter(1.0, 0.0))

        monkeypatch.setattr(simulate, "_MAX_REDRAWS", 1)
        rng = TopUniform(np.random.default_rng(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for winner in range(1, 400):
                assert _draw_match_pair(rng, fixed_winner(winner), far_losers(family))[1] < winner

    def test_loser_law_without_mass_below_winner_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_REDRAWS", 5)
        with pytest.raises(FairchaseError, match="below 20"):
            _draw_match_pair(np.random.default_rng(0), fixed_winner(20), FittedDist.normal(1e6, 1.0))
