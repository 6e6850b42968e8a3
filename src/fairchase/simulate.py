"""Seeded Monte Carlo: sampling fitted models, empirical checks of the
equalization contract, and synthetic dataset generation.

All randomness flows from numpy's PCG64 generator through SeedSequence
substreams spawned in a fixed order, so every output is a pure function of
(seed, inputs). Substreams are independent by construction, which is also
how trial work could be partitioned across workers without changing results.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .distributions import _SCORE_LIMIT, FittedDist, NegBinParams, NormalParams, cdf, quantile
from .errors import FairchaseError, InconsistentSpec
from .matches import CaseLabel, MatchRecord, Outcome
from .revision import RevisionModel, revise_target

Seed = Union[int, "np.random.SeedSequence"]  # a string, so importing this module leaves numpy.random unloaded


def _draw(rng: np.random.Generator, dist: FittedDist, count: int) -> np.ndarray:
    """count i.i.d. non-negative integer scores from a fitted model.
    A continuous draw X gives ceil(X) floored at 0: ceil(X) > t exactly when X > t,
    so the draws exceed a target with the probability survival() reports."""
    params = dist.params
    if isinstance(params, NegBinParams):
        scores = rng.poisson(rng.gamma(shape=params.n, scale=(1.0 - params.p) / params.p, size=count))
    elif isinstance(params, NormalParams):
        scores = np.maximum(np.ceil(rng.normal(params.mu, params.sigma, size=count)), 0.0)
    else:
        scores = np.maximum(np.ceil(rng.logistic(params.mu, params.s, size=count)), 0.0)
    return scores.astype(np.int64)


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
        return {**asdict(self), "degenerate": self.degenerate}


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


def _draw_winners(rng: np.random.Generator, dist: FittedDist, count: int) -> np.ndarray:
    """count winning scores: dist conditioned on a score of at least 1, by
    inversion (Devroye 1986, ch. 2) at q = F(0) + u (1 - F(0)), u uniform on
    [0, 1). q stays below the law's total mass (a settled negative binomial
    table can stop short of 1), so every q has a finite quantile; a q that
    rounds down to F(0) stands for 1, the least score the conditioned law has."""
    floor = cdf(dist, 0)
    if floor == 1.0:
        raise FairchaseError("winner distribution is concentrated at zero; cannot pair a loser")
    top = np.nextafter(cdf(dist, _SCORE_LIMIT), 0.0)
    q = np.minimum(floor + rng.random(count) * (1.0 - floor), top)
    return np.maximum(quantile(dist, q, cap=_SCORE_LIMIT), 1)


def _draw_losers(rng: np.random.Generator, dist: FittedDist, winners: np.ndarray) -> np.ndarray:
    """One losing score below each winner: dist conditioned on a score of at
    most winner - 1, by inversion at q = u F(winner - 1)."""
    below = cdf(dist, winners - 1)
    if (below == 0.0).any():
        raise FairchaseError(f"the loser distribution has no mass below {winners[np.argmin(below)]}")
    losers = quantile(dist, rng.random(winners.size) * below, cap=_SCORE_LIMIT)
    # a continuous inverse can round up to the winner; that draw stands for winner - 1
    return np.minimum(losers, winners - 1)


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
    pure function of (specs, seed). Each kind of match at a venue takes one
    array of uniforms for its winners, each drawn from its law conditioned on
    a score above zero, then one for its losers, each conditioned on a score
    below its winner. Raises only when a winner law has no mass above zero
    or a loser law none below a drawn winner.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(len(specs))
    records: list[MatchRecord] = []
    for spec, stream in zip(specs, streams):
        rng = np.random.default_rng(stream)
        for win_label, lose_label, outcome, tag, innings_order in _MATCH_KINDS:
            count = spec.count(win_label)
            if count == 0:
                continue
            winners = _draw_winners(rng, spec.case_dists[win_label], count)
            losers = _draw_losers(rng, spec.case_dists[lose_label], winners)
            for i, pair in enumerate(zip(winners.tolist(), losers.tolist())):
                first, second = pair[::innings_order]
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
