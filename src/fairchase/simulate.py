"""Seeded Monte Carlo: sampling fitted models, empirical checks of the
equalization contract, and synthetic dataset generation.

All randomness flows from numpy's PCG64 generator through SeedSequence
substreams spawned in a fixed order, so every output is a pure function of
(seed, inputs). Substreams are independent by construction, which is also
how trial work could be partitioned across workers without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .distributions import FittedDist, NegBinParams, NormalParams, cdf, quantile
from .errors import FairchaseError, InconsistentSpec
from .matches import CaseLabel, MatchRecord, Outcome
from .revision import RevisionModel, revise_target

Seed = Union[int, np.random.SeedSequence]

#: Draws before giving up on a winner above zero, or inverting for a loser below it.
_MAX_REDRAWS = 10_000


def _draw(rng: np.random.Generator, dist: FittedDist, count: int | None = None) -> int | np.ndarray:
    """count i.i.d. non-negative integer scores from a fitted model, or one as an
    int when count is None, taking the stream exactly as an array of one does.
    A continuous draw X gives ceil(X) floored at 0: ceil(X) > t exactly when X > t,
    so the draws exceed a target with the probability survival() reports."""
    params = dist.params
    if isinstance(params, NegBinParams):
        scores = rng.poisson(rng.gamma(shape=params.n, scale=(1.0 - params.p) / params.p, size=count))
    elif isinstance(params, NormalParams):
        scores = np.maximum(np.ceil(rng.normal(params.mu, params.sigma, size=count)), 0.0)
    else:
        scores = np.maximum(np.ceil(rng.logistic(params.mu, params.s, size=count)), 0.0)
    return int(scores) if count is None else scores.astype(np.int64)


def sample_scores(dist: FittedDist, count: int, seed: Seed) -> list[int]:
    """Deterministic i.i.d. sample of integer scores from a fitted model."""
    if count < 0:
        raise FairchaseError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    return [int(x) for x in _draw(rng, dist, count)]


@dataclass(frozen=True)
class SimConfig:
    model: RevisionModel
    actual_target: int
    n_trials: int
    seed: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise FairchaseError(f"n_trials must be at least 1, got {self.n_trials}")
        if self.seed < 0:
            raise FairchaseError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SimResult:
    """Simulated exceedance probabilities on both sides of the equalization
    identity, with binomial standard errors."""

    venue: str
    actual_target: int
    revised_target: int
    win_ratio: float
    est_first_exceed: float
    se_first_exceed: float
    est_second_exceed: float
    se_second_exceed: float
    trials: int

    @property
    def degenerate(self) -> bool:
        """True when an estimate sits on the boundary and its SE collapses."""
        return self.se_first_exceed == 0.0 or self.se_second_exceed == 0.0

    def to_dict(self) -> dict:
        return {
            "venue": self.venue,
            "actual_target": self.actual_target,
            "revised_target": self.revised_target,
            "win_ratio": self.win_ratio,
            "est_first_exceed": self.est_first_exceed,
            "se_first_exceed": self.se_first_exceed,
            "est_second_exceed": self.est_second_exceed,
            "se_second_exceed": self.se_second_exceed,
            "trials": self.trials,
            "degenerate": self.degenerate,
        }


def _estimate(draws: np.ndarray, threshold: int, trials: int) -> tuple[float, float]:
    p_hat = float(np.count_nonzero(draws > threshold)) / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def check_equalization(config: SimConfig) -> SimResult:
    """Estimate both sides of the equalization identity by simulation.

    Draws n_trials scores from each winning-score distribution on
    independent substreams and reports the fractions exceeding the actual
    and revised targets. Propagates TargetUnattainable from the revision.
    """
    model = config.model
    revised = revise_target(model, config.actual_target).revised
    first_seq, second_seq = np.random.SeedSequence(config.seed).spawn(2)
    first_draws = _draw(np.random.default_rng(first_seq), model.dist_bat_first_win, config.n_trials)
    second_draws = _draw(np.random.default_rng(second_seq), model.dist_bat_second_win, config.n_trials)
    est_first, se_first = _estimate(first_draws, config.actual_target, config.n_trials)
    est_second, se_second = _estimate(second_draws, revised, config.n_trials)
    return SimResult(
        venue=model.venue,
        actual_target=config.actual_target,
        revised_target=revised,
        win_ratio=model.win_ratio,
        est_first_exceed=est_first,
        se_first_exceed=se_first,
        est_second_exceed=est_second,
        se_second_exceed=se_second,
        trials=config.n_trials,
    )


@dataclass(frozen=True)
class SyntheticVenueSpec:
    """Recipe for one venue's synthetic matches.

    case_counts gives the number of score observations per case;
    winner and loser counts must pair up because each decisive match
    contributes one of each.
    """

    venue: str
    case_counts: Mapping[CaseLabel, int]
    case_dists: Mapping[CaseLabel, FittedDist]

    def __post_init__(self):
        counts = {label: int(self.case_counts.get(label, 0)) for label in CaseLabel}
        if any(c < 0 for c in counts.values()):
            raise InconsistentSpec(f"venue {self.venue!r}: case counts must be non-negative")
        if counts[CaseLabel.BAT_FIRST_WIN] != counts[CaseLabel.BAT_SECOND_LOSE]:
            raise InconsistentSpec(
                f"venue {self.venue!r}: bat-first-win count must equal bat-second-lose count"
            )
        if counts[CaseLabel.BAT_SECOND_WIN] != counts[CaseLabel.BAT_FIRST_LOSE]:
            raise InconsistentSpec(
                f"venue {self.venue!r}: bat-second-win count must equal bat-first-lose count"
            )
        for label, count in counts.items():
            if count > 0 and label not in self.case_dists:
                raise InconsistentSpec(f"venue {self.venue!r}: no distribution for {label.value}")

    def count(self, label: CaseLabel) -> int:
        return int(self.case_counts.get(label, 0))


def _draw_match_pair(
    rng: np.random.Generator, winner_dist: FittedDist, loser_dist: FittedDist
) -> tuple[int, int]:
    """One (winner, loser) score pair with loser strictly below winner.

    The winner score is kept as drawn (redrawn only while zero, which no
    loser can undercut); the loser is redrawn until it falls below the
    winner, so the winner marginal matches its distribution exactly. When every
    redraw fails, inverting the loser law truncated below the winner (Devroye
    1986, ch. 2) draws from the law a successful rejection has.
    """
    for _ in range(_MAX_REDRAWS):
        winner = _draw(rng, winner_dist)
        if winner > 0:
            break
    else:
        raise FairchaseError("winner distribution is concentrated at zero; cannot pair a loser")
    for _ in range(_MAX_REDRAWS):
        loser = _draw(rng, loser_dist)
        if loser < winner:
            return winner, loser
    below = cdf(loser_dist, winner - 1)
    if below == 0.0:
        raise FairchaseError(f"the loser distribution has no mass below {winner}")
    # a continuous inverse can round up to the winner; that draw stands for winner - 1
    return winner, min(quantile(loser_dist, rng.random() * below, cap=winner), winner - 1)


#: The two kinds of decisive match, drawn in this order at each venue:
#: winning case, losing case, outcome, match-id tag, and the step that puts
#: a (winner, loser) pair in innings order.
_MATCH_KINDS = (
    (CaseLabel.BAT_FIRST_WIN, CaseLabel.BAT_SECOND_LOSE, Outcome.BAT_FIRST_WIN, "bfw", 1),
    (CaseLabel.BAT_SECOND_WIN, CaseLabel.BAT_FIRST_LOSE, Outcome.BAT_SECOND_WIN, "bsw", -1),
)


def generate_synthetic_dataset(
    specs: Sequence[SyntheticVenueSpec], seed: Seed
) -> list[MatchRecord]:
    """Synthetic match records whose categorization reproduces each venue spec.

    Venues consume SeedSequence substreams in listed order, so output is a
    pure function of (specs, seed). Within a match the two innings are drawn
    independently except for the rejection constraint that the loser stays
    below the winner.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(len(specs))
    records: list[MatchRecord] = []
    for spec, stream in zip(specs, streams):
        rng = np.random.default_rng(stream)
        for win_label, lose_label, outcome, tag, innings_order in _MATCH_KINDS:
            for i in range(spec.count(win_label)):
                winner_dist, loser_dist = spec.case_dists[win_label], spec.case_dists[lose_label]
                first, second = _draw_match_pair(rng, winner_dist, loser_dist)[::innings_order]
                records.append(
                    MatchRecord(
                        match_id=f"{spec.venue}-{tag}-{i:04d}",
                        venue=spec.venue,
                        date=None,
                        first_innings_runs=first,
                        second_innings_runs=second,
                        outcome=outcome,
                        reduced_overs=False,
                    )
                )
    return records


def default_synthetic_spec(
    num_venues: int = 2, matches_per_venue: int = 100
) -> list[SyntheticVenueSpec]:
    """Plausible ODI-scale venue specs for round-trip and pipeline tests.

    Winning innings average 192 runs, losing innings 150, with 55% of
    decisive matches won by the side batting first.
    """
    if num_venues < 1 or matches_per_venue < 2:
        raise FairchaseError("need at least one venue and two matches per venue")
    win_dist = FittedDist.negbin(8.0, 8.0 / 200.0)  # mean 192
    lose_dist = FittedDist.negbin(8.0, 8.0 / 158.0)  # mean 150
    bfw = max(1, round(0.55 * matches_per_venue))
    bsw = max(1, matches_per_venue - bfw)
    specs = []
    for v in range(1, num_venues + 1):
        specs.append(
            SyntheticVenueSpec(
                venue=f"venue{v:02d}",
                case_counts={
                    CaseLabel.BAT_FIRST_WIN: bfw,
                    CaseLabel.BAT_SECOND_LOSE: bfw,
                    CaseLabel.BAT_SECOND_WIN: bsw,
                    CaseLabel.BAT_FIRST_LOSE: bsw,
                },
                case_dists={
                    CaseLabel.BAT_FIRST_WIN: win_dist,
                    CaseLabel.BAT_SECOND_LOSE: lose_dist,
                    CaseLabel.BAT_SECOND_WIN: win_dist,
                    CaseLabel.BAT_FIRST_LOSE: lose_dist,
                },
            )
        )
    return specs
