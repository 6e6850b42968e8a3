"""Independent reference for the benchmark's correctness checks.

The reference never calls fairchase. It fits the three families from the
samples the input generator recorded, not from the program's parse of the
CSV, and it finds the negative binomial dispersion by a different route
than the program: a root of the profile score in tail-count form,
sum_j A_j / (n + j) = N log(1 + mean / n) with A_j = #{x_i > j}
(Bliss and Fisher 1953), solved by Brent's method on log n. CDFs come from
a cumulative pmf table. The program's bounded search leaves n uncertain
to about 1e-6 relative on a flat likelihood, which moves CDF values by up
to about 1e-7. So an integer target is compared exactly unless the CDF
level lies within PRECISION of a step, where either neighbour is
accepted, and the equalization identity is allowed the same PRECISION.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit, gammaln, ndtr

FAMILIES = ("negbin", "normal", "logistic")
MIN_SAMPLE_SIZE = 10
N_BOUNDS = (1e-3, 1e6)
QUANTILE_CAP = 2000
GRID = (300, 315, 330, 340, 350)
#: How far the reference's CDF values may sit from the program's; far below
#: a pmf step (about 3e-3 near the targets).
PRECISION = 1e-6


class Unfittable(Exception):
    """The program must skip this sample (too small, or no spread to fit)."""


@dataclass(frozen=True)
class Dist:
    family: str
    a: float  # n, mu or mu
    b: float  # p, sigma or s

    def cdf(self, x) -> np.ndarray:
        """P(X <= x) at integer x, 0 below zero (same convention as the program)."""
        x = np.asarray(x)
        if self.family == "negbin":
            table = _nb_cdf_table(self.a, self.b)
            out = table[np.clip(x, 0, QUANTILE_CAP)]
        elif self.family == "normal":
            out = ndtr((x - self.a) / self.b)
        else:
            out = expit((x - self.a) / self.b)
        return np.where(x < 0, 0.0, out)

    def survival(self, x) -> np.ndarray:
        return 1.0 - self.cdf(x)

    def pmf(self, x) -> np.ndarray:
        return self.cdf(x) - self.cdf(np.asarray(x) - 1)


@functools.lru_cache(maxsize=None)
def _nb_cdf_table(n: float, p: float) -> np.ndarray:
    x = np.arange(QUANTILE_CAP + 1)
    logpmf = gammaln(x + n) - gammaln(n) - gammaln(x + 1) + n * math.log(p) + x * math.log1p(-p)
    return np.minimum(np.cumsum(np.exp(logpmf)), 1.0)


def fit(scores: np.ndarray, family: str) -> Dist:
    xs = np.asarray(scores, dtype=float)
    if xs.size < MIN_SAMPLE_SIZE:
        raise Unfittable(f"{xs.size} scores")
    mean = float(xs.mean())
    var = float(xs.var(ddof=1))
    if family == "normal":
        if var == 0.0:
            raise Unfittable("zero variance")
        return Dist("normal", mean, math.sqrt(var))
    if family == "logistic":
        if var == 0.0:
            raise Unfittable("zero variance")
        return Dist("logistic", mean, math.sqrt(3.0 * var) / math.pi)
    if var <= mean:
        raise Unfittable("underdispersed")
    tail = np.cumsum(np.bincount(np.asarray(scores, dtype=np.int64))[::-1])[::-1][1:]
    j = np.arange(tail.size)
    size = xs.size

    def score(log_n: float) -> float:
        n = math.exp(log_n)
        return float(np.sum(tail / (n + j))) - size * math.log1p(mean / n)

    lo, hi = (math.log(b) for b in N_BOUNDS)
    n = N_BOUNDS[1] if score(hi) > 0 else math.exp(brentq(score, lo, hi, xtol=1e-12))
    return Dist("negbin", n, n / (n + mean))


@dataclass(frozen=True)
class Model:
    venue: str
    family: str
    win_ratio: float
    first: Dist
    second: Dist

    def level(self, actual: int) -> float:
        """The CDF level the revised target is read off at."""
        return 1.0 - self.win_ratio * float(self.first.survival(actual))

    def revised(self, actual: int) -> tuple[int, ...] | None:
        """Acceptable negative binomial revised targets (two at an ambiguous step); None if unattainable."""
        q = self.level(actual)
        if q <= 0.0:
            return None
        table = _nb_cdf_table(self.second.a, self.second.b)
        t = min(int(np.searchsorted(table, q, side="left")), QUANTILE_CAP)
        accepted = {t}
        if abs(table[t] - q) < PRECISION:
            accepted.add(t + 1)
        if t > 0 and abs(table[t - 1] - q) < PRECISION:
            accepted.add(t - 1)
        return tuple(sorted(accepted))

    def identity_holds(self, actual: int, revised: int) -> bool:
        """Equalization identity within one pmf step at the program's revised target."""
        gap = abs(float(self.second.survival(revised)) - self.win_ratio * float(self.first.survival(actual)))
        return gap <= float(self.second.pmf(revised)) + PRECISION


def build(cases: dict[str, np.ndarray], venue: str, family: str) -> Model:
    first, second = cases["BatFirstWin"], cases["BatSecondWin"]
    if min(first.size, second.size) < MIN_SAMPLE_SIZE:
        raise Unfittable("too few wins")
    return Model(venue, family, first.size / second.size, fit(first, family), fit(second, family))


def models(samples: dict[str, dict[str, np.ndarray]]) -> dict[tuple[str, str], Model | None]:
    """Reference model per (venue, family); None where the program must skip the venue."""
    out: dict[tuple[str, str], Model | None] = {}
    for venue, cases in samples.items():
        for family in FAMILIES:
            try:
                out[(venue, family)] = build(cases, venue, family)
            except Unfittable:
                out[(venue, family)] = None
    return out


def fittable_cases(samples: dict[str, dict[str, np.ndarray]], family: str) -> set[tuple[str, str]]:
    """(venue, case) pairs the fit command must emit."""
    out = set()
    for venue, cases in samples.items():
        for case, scores in cases.items():
            try:
                fit(scores, family)
            except Unfittable:
                continue
            out.add((venue, case))
    return out
