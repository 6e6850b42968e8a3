"""Benchmark-owned input generator: match CSVs made with numpy alone.

The benchmark does not use fairchase's own synthetic generator. That
generator is part of what the benchmark measures (it can give up on a
seed), and any change in how it consumes its random stream would silently
change every workload's inputs. Inputs here are a pure function of the
workload seed and the installed numpy; their sha256 is printed with every
run so two commits can be shown to read the same bytes.

Every decisive match yields one score per case. Winners batting first are
drawn from a negative binomial (gamma-Poisson, dispersion 30, so the
spread of ODI totals is about 48 runs); a loser that would not have lost is
given a margin of defeat of 1 to 60 runs instead. Winning chases finish a
few runs above the first innings. A few ties, no-results and reduced-overs matches
are mixed in; the program must exclude them.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass

import numpy as np

CASES = ("BatFirstWin", "BatFirstLose", "BatSecondWin", "BatSecondLose")
OVERALL = "overall"
HEADER = "match_id,venue,date,first_innings_runs,second_innings_runs,outcome,reduced_overs"

#: Shape of the paper's 1117-match table: decisive matches, % bat-first
#: wins, then average bat-first-win, bat-second-lose and bat-first-lose
#: scores. Winning chases are drawn a few runs above the first innings, so
#: their average follows from the bat-first-lose column.
PAPER_VENUES = {
    "Auckland": (71, 42.3, 240, 185, 203),
    "Bangalore": (22, 50.0, 294, 248, 234),
    "Harare": (149, 49.7, 255, 183, 204),
    "Lahore": (58, 56.9, 266, 205, 231),
    "Lords": (62, 48.4, 268, 215, 217),
    "Melbourne": (145, 49.7, 245, 191, 201),
    "Mirpur": (107, 46.7, 261, 194, 204),
    "Premadasa": (118, 58.5, 266, 196, 203),
    "Sharjah": (236, 53.8, 252, 189, 192),
    "Sydney": (149, 59.1, 248, 189, 198),
}

_DISPERSION = 30.0
_NON_DECISIVE_SHARE = 0.03
_EPOCH = dt.date(2000, 1, 1)


@dataclass(frozen=True)
class Dataset:
    """A generated match CSV and the samples the program should derive from it."""

    csv: bytes
    rows: int
    #: venue -> case -> sorted scores of full-length decisive matches,
    #: including the pooled OVERALL entry.
    samples: dict[str, dict[str, np.ndarray]]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv).hexdigest()

    @property
    def venues(self) -> list[str]:
        """Venue names in the program's order: sorted, pooled entry last."""
        return sorted(v for v in self.samples if v != OVERALL) + [OVERALL]

    def decisive(self, venue: str) -> int:
        cases = self.samples[venue]
        return int(cases["BatFirstWin"].size + cases["BatSecondWin"].size)


def _negbin(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    lam = rng.gamma(shape=_DISPERSION, scale=mean / _DISPERSION, size=size)
    return rng.poisson(lam).astype(np.int64)


def _venue_rows(rng, matches, pct_first, avg_bfw, avg_bsl, avg_bfl):
    """Rows of one venue as (first, second, outcome, reduced) arrays plus its samples."""
    n_bfw = int(round(matches * pct_first / 100.0))
    n_bsw = matches - n_bfw

    bfw = np.maximum(_negbin(rng, avg_bfw, n_bfw), 1)
    bsl = _negbin(rng, avg_bsl, n_bfw)
    margin = 1 + np.floor(rng.random(n_bfw) * np.minimum(bfw, 60)).astype(np.int64)
    bsl = np.where(bsl < bfw, bsl, bfw - margin)

    bfl = _negbin(rng, avg_bfl, n_bsw)
    bsw = bfl + 1 + rng.poisson(2.0, n_bsw)

    n_extra = int(round(matches * _NON_DECISIVE_SHARE))
    extra_first = np.maximum(_negbin(rng, avg_bfw, n_extra), 1)
    kind = rng.integers(0, 3, n_extra)  # 0 tie, 1 no result, 2 reduced-overs win
    extra_second = np.where(kind == 0, extra_first, np.floor(rng.random(n_extra) * extra_first))

    first = np.concatenate([bfw, bfl, extra_first])
    second = np.concatenate([bsl, bsw, extra_second.astype(np.int64)])
    outcome = (
        ["BatFirstWin"] * n_bfw
        + ["BatSecondWin"] * n_bsw
        + [("Tie", "NoResult", "BatFirstWin")[k] for k in kind]
    )
    reduced = [False] * (n_bfw + n_bsw) + [k == 2 for k in kind]
    samples = {
        "BatFirstWin": np.sort(bfw),
        "BatFirstLose": np.sort(bfl),
        "BatSecondWin": np.sort(bsw),
        "BatSecondLose": np.sort(bsl),
    }
    return first, second, outcome, reduced, samples


def _build(rng: np.random.Generator, venues: dict[str, tuple]) -> Dataset:
    firsts, seconds, outcomes, reduceds, names = [], [], [], [], []
    samples: dict[str, dict[str, np.ndarray]] = {}
    for venue, (matches, pct, avg_bfw, avg_bsl, avg_bfl) in venues.items():
        first, second, outcome, reduced, cases = _venue_rows(
            rng, matches, pct, avg_bfw, avg_bsl, avg_bfl
        )
        firsts.append(first)
        seconds.append(second)
        outcomes += outcome
        reduceds += reduced
        names += [venue] * first.size
        samples[venue] = cases
    samples[OVERALL] = {
        case: np.sort(np.concatenate([samples[v][case] for v in venues])) for case in CASES
    }

    first = np.concatenate(firsts)
    second = np.concatenate(seconds)
    rows = first.size
    days = rng.integers(0, 20 * 365, rows)
    order = np.lexsort((rng.random(rows), days))  # chronological, ties shuffled
    lines = [HEADER]
    for i, k in enumerate(order):
        date = (_EPOCH + dt.timedelta(days=int(days[k]))).isoformat()
        lines.append(
            f"m{i:07d},{names[k]},{date},{first[k]},{second[k]},{outcomes[k]},"
            f"{'true' if reduceds[k] else 'false'}"
        )
    csv = ("\n".join(lines) + "\n").encode("utf-8")
    return Dataset(csv=csv, rows=rows, samples=samples)


def paper_dataset(seed: int, scale: int = 1) -> Dataset:
    """The paper's ten venues with their match counts and case averages, times scale."""
    rng = np.random.default_rng([seed, scale])
    venues = {name: (spec[0] * scale,) + spec[1:] for name, spec in PAPER_VENUES.items()}
    return _build(rng, venues)


def thin_venues_dataset(seed: int, num_venues: int = 200) -> Dataset:
    """Many venues of about 40 matches; one in seven has too few to fit every case."""
    rng = np.random.default_rng([seed, 0xC0FFEE])
    venues = {}
    for v in range(num_venues):
        matches = int(rng.integers(10, 19)) if v % 7 == 3 else int(rng.integers(34, 47))
        avg_bfw = float(rng.uniform(240, 270))
        venues[f"Ground {v:03d}"] = (
            matches,
            float(rng.uniform(40, 60)),
            avg_bfw,
            avg_bfw - float(rng.uniform(45, 65)),
            float(rng.uniform(195, 215)),
        )
    return _build(rng, venues)
