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

    def test_negative_seed_rejected(self):
        with pytest.raises(FairchaseError, match="seed must be non-negative, got -1"):
            sample_scores(NB_MODEL, 5, seed=-1)

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

    #: sha256 of repr(sample_scores(dist, 10_000, seed)), recorded at version
    #: 0.9.0, before each family's draw moved onto its params class
    PINNED = {
        ("negbin", 0): "e908df04a3abe3cea8eef412e4a6c1d63c6123d6f1e2e89ecad27f3b8fcd209c",
        ("negbin", 1): "9580640102d14e2f2d714eb470af818f755320373437822028e12912126b9f46",
        ("normal", 0): "fcac49fe290319483e74303caad59b575d19ed203375be51f9350c637653d771",
        ("normal", 1): "4f8a92b329a9719af819ede352761c771b6cbab3c9121e54440be7a1a98343b4",
        ("logistic", 0): "f2f3da074b39238f843f395abcd955309ad686c033375000d12f2e54b548bb8a",
        ("logistic", 1): "860ac8f6c5cd352f653cc2125a2e6768e84eb4fe34ddec8841c5ce6065155fc9",
    }
    PINNED_DISTS = {
        "negbin": NB_MODEL,
        "normal": FittedDist.normal(192.0, 45.0),
        "logistic": FittedDist.logistic(192.0, 25.0),
    }

    @pytest.mark.parametrize("family,seed", sorted(PINNED))
    def test_stream_pinned(self, family, seed):
        draws = sample_scores(self.PINNED_DISTS[family], 10_000, seed)
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == self.PINNED[family, seed]


def make_model(ratio: float = 1.0, second: FittedDist = NB_MODEL) -> RevisionModel:
    return RevisionModel(
        venue="sim",
        win_ratio=ratio,
        dist_bat_first_win=NB_MODEL,
        dist_bat_second_win=second,
        quantile_cap=2000,
    )


class TestCheckEqualization:
    def test_identity_model_estimates_agree(self):
        result = check_equalization(make_model(), 300, 1_000_000, 5)
        combined = 4.0 * (result.se_first_exceed + result.se_second_exceed)
        assert abs(result.est_second_exceed - result.est_first_exceed) <= combined

    def test_estimates_match_analytic_survival(self):
        model = make_model(ratio=1.3, second=FittedDist.negbin(9.0, 9.0 / 190.0))
        result = check_equalization(model, 320, 400_000, 8)
        analytic_first = survival(model.dist_bat_first_win, 320)
        analytic_second = survival(model.dist_bat_second_win, result.revised_target)
        assert abs(result.est_first_exceed - analytic_first) <= 4.0 * result.se_first_exceed
        assert abs(result.est_second_exceed - analytic_second) <= 4.0 * result.se_second_exceed

    def test_identity_bound_with_pmf_step(self):
        model = make_model(ratio=1.3, second=FittedDist.negbin(9.0, 9.0 / 190.0))
        result = check_equalization(model, 320, 400_000, 8)
        bound = 4.0 * (
            result.se_second_exceed + model.win_ratio * result.se_first_exceed
        ) + pmf(model.dist_bat_second_win, result.revised_target)
        assert (
            abs(result.est_second_exceed - model.win_ratio * result.est_first_exceed)
            <= bound
        )

    def test_deterministic_across_calls(self):
        model = make_model()
        assert check_equalization(model, 310, 50_000, 21) == check_equalization(model, 310, 50_000, 21)

    def test_single_trial_degenerate(self):
        result = check_equalization(make_model(), 300, 1, 3)
        assert result.est_first_exceed in (0.0, 1.0)
        assert result.est_second_exceed in (0.0, 1.0)
        assert result.se_first_exceed == 0.0
        assert result.degenerate

    def test_zero_trials_rejected(self):
        with pytest.raises(FairchaseError):
            check_equalization(make_model(), 300, 0, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(FairchaseError):
            check_equalization(make_model(), 300, 10, -1)

    def test_propagates_unattainable(self):
        from fairchase import TargetUnattainable

        with pytest.raises(TargetUnattainable):
            check_equalization(make_model(ratio=2.0), 50, 10, 0)

    def test_result_serializes(self):
        doc = check_equalization(make_model(), 300, 1000, 5).to_dict()
        assert doc["trials"] == 1000
        assert 0.0 <= doc["est_first_exceed"] <= 1.0


WIN = FittedDist.negbin(8.0, 8.0 / 208.0)  # mean 200
LOSE = FittedDist.negbin(8.0, 8.0 / 158.0)  # mean 150


def spec_for(venue: str, bfw: int, bsw: int) -> SyntheticVenueSpec:
    return SyntheticVenueSpec(
        venue=venue,
        bat_first_wins=bfw,
        bat_second_wins=bsw,
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
        assert len(samples[CaseLabel.BAT_FIRST_WIN]) == 50
        assert len(samples[CaseLabel.BAT_SECOND_LOSE]) == 50
        assert len(samples[CaseLabel.BAT_SECOND_WIN]) == 30
        assert len(samples[CaseLabel.BAT_FIRST_LOSE]) == 30

    def test_records_satisfy_outcome_invariants(self, synthetic_records):
        # MatchRecord construction validates; surviving a parse round trip
        # proves every emitted row is well-formed
        reparsed = parse_matches(io.StringIO(serialize_matches(synthetic_records)))
        assert reparsed == synthetic_records

    def test_negative_seed_rejected(self):
        with pytest.raises(FairchaseError, match="seed must be non-negative, got -1"):
            generate_synthetic_dataset(default_synthetic_spec(), -1)

    def test_deterministic(self):
        specs = [spec_for("Alpha", 20, 20), spec_for("Beta", 15, 25)]
        assert generate_synthetic_dataset(specs, seed=4) == generate_synthetic_dataset(
            specs, seed=4
        )

    def test_winner_marginal_preserved(self):
        records = generate_synthetic_dataset([spec_for("Alpha", 1100, 900)], seed=13)
        samples = categorize(records)["Alpha"]
        fitted = fit_nb(samples[CaseLabel.BAT_FIRST_WIN])
        assert fitted.params.mean == pytest.approx(200.0, rel=0.02)
        fitted_second = fit_nb(samples[CaseLabel.BAT_SECOND_WIN])
        assert fitted_second.params.mean == pytest.approx(200.0, rel=0.02)

    def test_missing_distribution_rejected(self):
        with pytest.raises(InconsistentSpec):
            SyntheticVenueSpec(
                venue="Bad",
                bat_first_wins=10,
                bat_second_wins=0,
                case_dists={CaseLabel.BAT_FIRST_WIN: WIN},
            )

    def test_negative_count_rejected(self):
        with pytest.raises(InconsistentSpec, match="match counts must be non-negative"):
            SyntheticVenueSpec(venue="Bad", bat_first_wins=-1, bat_second_wins=0, case_dists={})

    @pytest.mark.parametrize("num_venues, matches_per_venue", [(0, 100), (1, 1)])
    def test_default_spec_rejects_too_few(self, num_venues, matches_per_venue):
        with pytest.raises(FairchaseError, match="need at least one venue and two matches per venue"):
            default_synthetic_spec(num_venues, matches_per_venue)

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


def one_kind_spec(winner_dist: FittedDist, loser_dist: FittedDist, count: int) -> list[SyntheticVenueSpec]:
    """One venue whose count matches are all won by the side batting first."""
    return [
        SyntheticVenueSpec(
            venue="V",
            bat_first_wins=count,
            bat_second_wins=0,
            case_dists={CaseLabel.BAT_FIRST_WIN: winner_dist, CaseLabel.BAT_SECOND_LOSE: loser_dist},
        )
    ]


def generated_pairs(winner_dist: FittedDist, loser_dist: FittedDist, count: int, seed: int = 29):
    """(winners, losers) arrays of generate on one_kind_spec."""
    records = generate_synthetic_dataset(one_kind_spec(winner_dist, loser_dist, count), seed)
    return (
        np.array([r.first_innings_runs for r in records]),
        np.array([r.second_innings_runs for r in records]),
    )


class ConstantUniform:
    """A generator whose uniforms all take one value."""

    def __init__(self, value: float):
        self._value = value

    def random(self, size: int) -> np.ndarray:
        return np.full(size, self._value)


def ks_bound(draws: int) -> float:
    """Kolmogorov-Smirnov at the 0.1% level (conservative for a discrete law)."""
    return 1.95 / np.sqrt(draws)


class TestGenerateNeverGivesUp:
    #: sha256 of serialize_matches at 10 venues x 1000 matches, recorded
    #: when generate moved to batched truncated inversion (version 0.2.0)
    PINNED = {
        0: "d80d82ec2a27e147b5b37fafc1c96a3e4d3dfe11c6a625729da8bce1249630cf",
        1: "e471912563af38a7edc4f0294d5b0c929ff58eee41c5faa67c82505d12ef99e9",
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
        # a rejection loop would almost never draw these losers below 20
        winners, losers = generated_pairs(fixed_winner(20), far_losers(family), 3, seed=3)
        assert winners.tolist() == [20, 20, 20]
        assert (losers < 20).all()

    @pytest.mark.parametrize("family", list(Family))
    def test_fallback_losers_follow_truncated_pmf(self, family):
        loser_dist = far_losers(family)
        draws = 4000
        _, losers = generated_pairs(fixed_winner(20), loser_dist, draws)
        support = np.arange(20)
        truncated = np.cumsum(pmf(loser_dist, support)) / cdf(loser_dist, 19)
        empirical = np.cumsum(np.bincount(losers, minlength=20)) / draws
        assert np.max(np.abs(empirical - truncated)) < ks_bound(draws)

    @pytest.mark.parametrize(
        "winner_dist",
        [FittedDist.negbin(2.0, 0.3), FittedDist.normal(2.0, 3.0), FittedDist.logistic(2.0, 2.0)],
        ids=[family.value for family in Family],
    )
    def test_winners_follow_law_conditioned_above_zero(self, winner_dist):
        # each law puts between 9% and 30% of its mass at zero, which no winner may take
        draws = 4000
        winners, _ = generated_pairs(winner_dist, FittedDist.normal(0.0, 1.0), draws)
        assert winners.min() >= 1
        support = np.arange(1, 60)
        floor = cdf(winner_dist, 0)
        conditioned = (cdf(winner_dist, support) - floor) / (1.0 - floor)
        empirical = np.searchsorted(np.sort(winners), support, side="right") / draws
        assert np.max(np.abs(empirical - conditioned)) < ks_bound(draws)

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LOGISTIC])
    def test_continuous_fallback_never_reaches_winner(self, family):
        # uniforms just below 1 ask for the top of each truncated law, where a
        # continuous inverse can round up to the winner itself
        winners = np.arange(1, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losers = simulate._draw_losers(ConstantUniform(np.nextafter(1.0, 0.0)), far_losers(family), winners)
        assert (losers < winners).all()

    @pytest.mark.parametrize("family", list(Family))
    def test_extreme_uniforms_give_finite_winners(self, family):
        winner_dist = {
            Family.NEGBIN: FittedDist.negbin(20.0, 0.1),  # its table settles below 1
            Family.NORMAL: FittedDist.normal(192.0, 45.0),
            Family.LOGISTIC: FittedDist.logistic(192.0, 25.0),
        }[family]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lowest = simulate._draw_winners(ConstantUniform(0.0), winner_dist, 2)
            highest = simulate._draw_winners(ConstantUniform(np.nextafter(1.0, 0.0)), winner_dist, 2)
        assert lowest.tolist() == [1, 1]
        assert (highest > winner_dist.mean).all() and (highest < 5000).all()

    def test_winner_law_with_little_mass_above_zero_completes(self):
        # P(winner > 0) = 2.9e-7: a rejection loop of 10 000 draws gave up here
        winners, losers = generated_pairs(FittedDist.normal(-50.0, 10.0), FittedDist.normal(0.0, 1.0), 200)
        assert winners.min() >= 1
        assert (losers < winners).all()

    def test_winner_law_concentrated_at_zero_raises(self):
        with pytest.raises(FairchaseError, match="concentrated at zero"):
            generated_pairs(FittedDist.normal(-100.0, 1.0), FittedDist.normal(0.0, 1.0), 5)

    def test_loser_law_without_mass_below_winner_raises(self):
        with pytest.raises(FairchaseError, match="below 20"):
            generated_pairs(fixed_winner(20), FittedDist.normal(1e6, 1.0), 5)

    def test_no_quantile_warning_leaks(self):
        laws = [(FittedDist.normal(192.0, 45.0), FittedDist.normal(150.0, 40.0)),
                (FittedDist.logistic(192.0, 25.0), FittedDist.logistic(150.0, 22.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_synthetic_dataset(default_synthetic_spec(3, 500), 11)
            for winner_dist, loser_dist in laws:
                generated_pairs(winner_dist, loser_dist, 1000)
