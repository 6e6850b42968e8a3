"""Seeded Monte Carlo: sampling fitted models, empirical checks of the
equalization contract, and synthetic dataset generation.

All randomness flows from numpy's PCG64 generator through SeedSequence
substreams spawned in a fixed order, so every output is a pure function of
(seed, inputs). Substreams are independent by construction, which is also
how trial work could be partitioned across workers without changing results.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Mapping, Sequence, Union

import numpy as np

from .distributions import _SCORE_LIMIT, FittedDist, _is_integer, cdf, quantile
from .errors import FairchaseError, InconsistentSpec, _frozen
from .matches import CaseLabel, MatchRecord, Outcome
from .revision import RevisionModel, revise_target

Seed = Union[int, "np.random.SeedSequence"]  # a string, so importing this module leaves numpy.random unloaded


def _root_sequence(seed: Seed) -> np.random.SeedSequence:
    """The SeedSequence every stream of one call spawns from; numpy would
    reject a negative integer seed with its own ValueError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed < 0:
        raise FairchaseError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def sample_scores(dist: FittedDist, count: int, seed: Seed) -> list[int]:
    """Deterministic i.i.d. sample of integer scores from a fitted model."""
    if count < 0:
        raise FairchaseError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(_root_sequence(seed))
    return [int(x) for x in dist.params._draw(rng, count)]


@_frozen
class SimResult:
    """Simulated exceedance probabilities on both sides of the equalization
    identity, with binomial standard errors."""

    def __init__(self, venue: str, actual_target: int, revised_target: int, win_ratio: float, est_first_exceed: float,
                 se_first_exceed: float, est_second_exceed: float, se_second_exceed: float, trials: int):
        object.__setattr__(self, "__dict__", {
            "venue": venue, "actual_target": actual_target, "revised_target": revised_target, "win_ratio": win_ratio,
            "est_first_exceed": est_first_exceed, "se_first_exceed": se_first_exceed,
            "est_second_exceed": est_second_exceed, "se_second_exceed": se_second_exceed, "trials": trials,
        })

    @property
    def degenerate(self) -> bool:
        """True when an estimate sits on the boundary and its SE collapses."""
        return self.se_first_exceed == 0.0 or self.se_second_exceed == 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "degenerate": self.degenerate}


def _estimate(draws: np.ndarray, threshold: int, trials: int) -> tuple[float, float]:
    p_hat = float(np.count_nonzero(draws > threshold)) / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def check_equalization(model: RevisionModel, actual_target: int, n_trials: int, seed: Seed) -> SimResult:
    """Estimate both sides of the equalization identity by simulation.

    Draws n_trials scores from each winning-score distribution on
    independent substreams and reports the fractions exceeding the actual
    and revised targets. Propagates TargetUnattainable from the revision.
    """
    if n_trials < 1:
        raise FairchaseError(f"n_trials must be at least 1, got {n_trials}")
    first_seq, second_seq = _root_sequence(seed).spawn(2)
    revised = revise_target(model, actual_target).revised
    first_draws = model.dist_bat_first_win.params._draw(np.random.default_rng(first_seq), n_trials)
    second_draws = model.dist_bat_second_win.params._draw(np.random.default_rng(second_seq), n_trials)
    est_first, se_first = _estimate(first_draws, actual_target, n_trials)
    est_second, se_second = _estimate(second_draws, revised, n_trials)
    return SimResult(
        venue=model.venue,
        actual_target=actual_target,
        revised_target=revised,
        win_ratio=model.win_ratio,
        est_first_exceed=est_first,
        se_first_exceed=se_first,
        est_second_exceed=est_second,
        se_second_exceed=se_second,
        trials=n_trials,
    )


@_frozen
class SyntheticVenueSpec:
    """Recipe for one venue's synthetic matches: the decisive matches won
    batting first and batting second, and a law for each case's scores.
    """

    def __init__(self, venue: str, bat_first_wins: int, bat_second_wins: int,
                 case_dists: Mapping[CaseLabel, FittedDist]):
        if not (_is_integer(bat_first_wins) and _is_integer(bat_second_wins)):
            raise InconsistentSpec(f"venue {venue!r}: match counts must be integers, "
                                   f"got {bat_first_wins!r} and {bat_second_wins!r}")
        if bat_first_wins < 0 or bat_second_wins < 0:
            raise InconsistentSpec(f"venue {venue!r}: match counts must be non-negative")
        object.__setattr__(self, "__dict__", {
            "venue": venue, "bat_first_wins": bat_first_wins, "bat_second_wins": bat_second_wins,
            "case_dists": case_dists,
        })
        for label in CaseLabel:
            if self.count(label) > 0 and label not in self.case_dists:
                raise InconsistentSpec(f"venue {self.venue!r}: no distribution for {label.value}")

    def count(self, label: CaseLabel) -> int:
        """Scores of one case: each decisive match gives one winner's and one loser's."""
        if label in (CaseLabel.BAT_FIRST_WIN, CaseLabel.BAT_SECOND_LOSE):
            return self.bat_first_wins
        return self.bat_second_wins


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
    streams = _root_sequence(seed).spawn(len(specs))
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
                bat_first_wins=bfw,
                bat_second_wins=bsw,
                case_dists={
                    CaseLabel.BAT_FIRST_WIN: win_dist,
                    CaseLabel.BAT_SECOND_LOSE: lose_dist,
                    CaseLabel.BAT_SECOND_WIN: win_dist,
                    CaseLabel.BAT_FIRST_LOSE: lose_dist,
                },
            )
        )
    return specs
