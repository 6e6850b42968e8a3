"""Score distribution families and their fitting routines.

Three families model innings totals: a negative binomial (the primary count
model, fitted by maximum likelihood), plus normal and logistic comparators
fitted by moments. The negative binomial's pmf sums the ratio of successive
scores in log space; its cdf, survival and quantile read a cumulative-mass
table of those terms. Terms and table are cached together on its parameters
(replaced whole, never mutated, so fitted distributions are immutable values
safe to share across threads). pmf, cdf and survival take one integer score
or an integer numpy array of them and evaluate both the same way: one score
gives a float, an array a float array of its shape. Each params class holds
its family's formulas: the mean, seeded draws, and the cumulative mass, the
mass and the inverse up to a cap, at one score or an array of them.
"""

from __future__ import annotations

import json
import math
import warnings
from _statistics import _normal_dist_inv_cdf  # NormalDist.inv_cdf's own C code, without statistics' imports
from dataclasses import asdict
from enum import Enum
from typing import Callable, ClassVar, Sequence, Union, get_args

import numpy as np

from .errors import (
    DegenerateQuantileWarning,
    FairchaseError,
    InsufficientSample,
    InvalidParams,
    UnderdispersedSample,
    ZeroVariance,
    _frozen,
)

DEFAULT_QUANTILE_CAP = 2000
DEFAULT_MIN_SAMPLE_SIZE = 10

#: The count-model fit searches the dispersion n over [_N_LOWER, _N_UPPER]
#: to _N_REL_TOL in log(n); a fit within 0.1% of _N_UPPER, or whose likelihood
#: is flat to tolerance from its n up to _N_UPPER, is flagged degenerate.
_N_LOWER = 1e-3
_N_UPPER = 1e6
_N_REL_TOL = 1e-8
#: The log-grid over [_N_LOWER, _N_UPPER], of log spacing _N_STEP, that fit_nb walks before refining.
_N_GRID = np.exp(np.linspace(math.log(_N_LOWER), math.log(_N_UPPER), 64))
_N_STEP = math.log(_N_UPPER / _N_LOWER) / (_N_GRID.size - 1)
_SQRT2 = math.sqrt(2.0)


class Family(str, Enum):
    NEGBIN = "negbin"
    NORMAL = "normal"
    LOGISTIC = "logistic"


def _finite(name: str, value: object) -> bool:
    """Whether a number as fitted JSON carries it is finite: InvalidParams for a bool or anything but an
    int or a float (a numpy float64 is a float, a numpy float32 or integer is not), or an int past floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParams(f"{name} must be a number, got {value!r}")
    try:
        return math.isfinite(value)
    except OverflowError:
        raise InvalidParams(f"{name} must be finite, got an int past the float range") from None


@_frozen
class NegBinParams:
    """Count-model parameters: dispersion n > 0 and probability 0 < p < 1.

    The mean is n * (1 - p) / p; libraries disagree on which probability is
    called p, so this parameterization is fixed here and everywhere below.
    """

    family: ClassVar[Family] = Family.NEGBIN

    def __init__(self, n: float, p: float):
        if not (_finite("n", n) and n > 0):
            raise InvalidParams(f"dispersion n must be finite and positive, got {n}")
        if not (_finite("p", p) and 0.0 < p < 1.0):
            raise InvalidParams(f"probability p must lie in (0, 1), got {p}")
        object.__setattr__(self, "__dict__", {"n": n, "p": p})

    @property
    def mean(self) -> float:
        return self.n * (1.0 - self.p) / self.p

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.poisson(rng.gamma(shape=self.n, scale=(1.0 - self.p) / self.p, size=count)).astype(np.int64)

    # take clips x < 0 to index 0, which the mask zeroes, and x past underflowed terms to 0.0
    def _cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _nb_table(self, math.inf, int(x.max(initial=0))).take(x, mode="clip") * (x >= 0)

    def _pmf_array(self, x: np.ndarray) -> np.ndarray:
        return _nb_arrays(self, int(x.max(initial=0)), _nb_underflowed)[0].take(x, mode="clip") * (x >= 0)

    def _inverse(self, q: float, cap: int) -> int:
        table = _nb_table(self, q, cap)
        x = int(np.searchsorted(table, q))
        return cap + 1 if x == table.size else x  # the table settled below q, or ran past the cap

    def _inverse_array(self, q: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
        table = _nb_table(self, float(q.max(initial=0.0)), cap)
        found = np.searchsorted(table, q)
        return found, (found == table.size) | (found > cap)


class _Continuous:
    """Array evaluation the analytic laws share, built on their _cdf and _inverse."""

    def _cdf_array(self, x: np.ndarray) -> np.ndarray:
        family_cdf = self._cdf
        values = [0.0 if v < 0 else family_cdf(v) for v in x.ravel().tolist()]
        return np.array(values, dtype=float).reshape(x.shape)

    def _pmf_array(self, x: np.ndarray) -> np.ndarray:
        points, index = np.unique(np.concatenate((x.ravel(), x.ravel() - 1)), return_inverse=True)
        values = self._cdf_array(points)[index]  # one cdf evaluation per distinct score among x and x - 1
        return (values[: x.size] - values[x.size :]).reshape(x.shape)

    def _inverse_array(self, q: np.ndarray, cap: int) -> tuple[list[int], list[bool]]:
        """The scores, clamped to [0, cap] as Python ints (a ceiling can pass int64), and which passed cap."""
        found = [self._inverse(v, cap) for v in q.tolist()]
        return [min(max(v, 0), cap) for v in found], [v > cap for v in found]


@_frozen
class NormalParams(_Continuous):
    family: ClassVar[Family] = Family.NORMAL

    def __init__(self, mu: float, sigma: float):
        if not (_finite("sigma", sigma) and sigma > 0):
            raise InvalidParams(f"sigma must be finite and positive, got {sigma}")
        if not _finite("mu", mu):
            raise InvalidParams(f"mu must be finite, got {mu}")
        object.__setattr__(self, "__dict__", {"mu": mu, "sigma": sigma})

    @property
    def mean(self) -> float:
        return self.mu

    def _cdf(self, x: int) -> float:
        return 0.5 * math.erfc(-(x - self.mu) / self.sigma / _SQRT2)

    def _inverse(self, q: float, cap: int) -> int:
        """Ceiling of the inverse CDF at 0 < q < 1 (not floored at 0, nor capped)."""
        return math.ceil(self.mu + self.sigma * _normal_dist_inv_cdf(q, 0.0, 1.0))

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """A draw X scores ceil(X) floored at 0: ceil(X) > t exactly when X > t, as survival() counts."""
        return np.maximum(np.ceil(rng.normal(self.mu, self.sigma, size=count)), 0.0).astype(np.int64)


@_frozen
class LogisticParams(_Continuous):
    family: ClassVar[Family] = Family.LOGISTIC

    def __init__(self, mu: float, s: float):
        if not (_finite("s", s) and s > 0):
            raise InvalidParams(f"scale s must be finite and positive, got {s}")
        if not _finite("mu", mu):
            raise InvalidParams(f"mu must be finite, got {mu}")
        object.__setattr__(self, "__dict__", {"mu": mu, "s": s})

    @property
    def mean(self) -> float:
        return self.mu

    def _cdf(self, x: int) -> float:
        z = (x - self.mu) / self.s
        # written to avoid overflow for large |z|
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    def _inverse(self, q: float, cap: int) -> int:
        return math.ceil(self.mu + self.s * (math.log(q) - math.log1p(-q)))

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.maximum(np.ceil(rng.logistic(self.mu, self.s, size=count)), 0.0).astype(np.int64)


Params = Union[NegBinParams, NormalParams, LogisticParams]

_PARAMS_BY_FAMILY = {cls.family: cls for cls in get_args(Params)}


@_frozen
class FittedDist:
    """One fitted (or hand-specified) score distribution.

    sample_size is 0 for distributions built directly from parameters rather
    than from data. degenerate marks fits where the dispersion search hit its
    bound, or found the likelihood flat up to it, and the parameters should
    not be trusted. The family is the params class's.
    """

    def __init__(self, params: Params, sample_size: int = 0, log_likelihood: float = 0.0, degenerate: bool = False):
        if not isinstance(params, Params):
            raise InvalidParams(f"params of no family: {type(params).__name__}")
        if not _finite("log_likelihood", log_likelihood):
            raise InvalidParams("log_likelihood must be finite")
        if isinstance(sample_size, bool) or not isinstance(sample_size, int):  # as JSON carries it: not a numpy integer
            raise InvalidParams(f"sample_size must be an integer, got {sample_size!r}")
        if sample_size < 0:
            raise InvalidParams("sample_size must be non-negative")
        if not isinstance(degenerate, bool):
            raise InvalidParams(f"degenerate must be True or False, got {degenerate!r}")
        object.__setattr__(self, "__dict__", {
            "params": params, "sample_size": sample_size, "log_likelihood": log_likelihood, "degenerate": degenerate,
        })

    @classmethod
    def negbin(cls, n: float, p: float) -> "FittedDist":
        return cls(NegBinParams(n, p))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "FittedDist":
        return cls(NormalParams(mu, sigma))

    @classmethod
    def logistic(cls, mu: float, s: float) -> "FittedDist":
        return cls(LogisticParams(mu, s))

    @property
    def family(self) -> Family:
        return self.params.family

    @property
    def mean(self) -> float:
        return self.params.mean


def _is_integer(value: object) -> bool:
    """Whether value is an int that is not a bool, or a numpy integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@_frozen
class FitConfig:
    """The fit settings a caller chooses: the smallest case sample a fit
    accepts, and the ceiling for discrete quantiles."""

    def __init__(self, min_sample_size: int = DEFAULT_MIN_SAMPLE_SIZE, quantile_cap: int = DEFAULT_QUANTILE_CAP):
        for name, value in (("min_sample_size", min_sample_size), ("quantile_cap", quantile_cap)):
            if not _is_integer(value):
                raise FairchaseError(f"{name} must be an integer, got {type(value).__name__}")
        object.__setattr__(self, "__dict__", {"min_sample_size": min_sample_size, "quantile_cap": quantile_cap})
        if min_sample_size < 2 or quantile_cap < 1:
            raise FairchaseError(f"need min_sample_size >= 2 and quantile_cap >= 1, got {self}")


DEFAULT_FIT_CONFIG = FitConfig()


#: Shortest cumulative-mass table; tables grow in powers of two from here.
_MIN_TABLE = 512


def _past_mode(params: NegBinParams, x: int) -> bool:
    """Whether every pmf term after score x is smaller than the one before."""
    return x > (params.n * (1.0 - params.p) - 1.0) / params.p


def _nb_underflowed(params: NegBinParams, terms: np.ndarray, table: np.ndarray) -> bool:
    """Whether every pmf term past the array is 0.0: the last one has
    underflowed past the mode, where the terms only shrink."""
    return terms[-1] == 0.0 and _past_mode(params, terms.size - 1)


def _nb_log_terms(params: NegBinParams, length: int) -> np.ndarray:
    """Log-pmf at 0, 1, ..., length - 1, length a power of two from _MIN_TABLE.

    Terms come from the ratio pmf(k) / pmf(k - 1) = (k - 1 + n)(1 - p) / k,
    summed in log space; near the top of the table this is more accurate
    than differencing log-gamma values in the thousands (or, for large n,
    the millions). Every array has the table's power-of-two length, so a
    term never depends on which scores were asked for first.
    """
    log_p0 = params.n * math.log(params.p)
    k = np.arange(1.0, length + 1.0)
    log_pmf = log_p0 + np.cumsum(np.log1p((params.n - 1.0) / k) + math.log1p(-params.p))
    return np.concatenate(([log_p0], log_pmf[:-1]))


def _nb_arrays(
    params: NegBinParams, x: int, done: Callable[[NegBinParams, np.ndarray, np.ndarray], bool]
) -> tuple[np.ndarray, np.ndarray]:
    """The count model's pmf terms and cumulative-mass table, long enough to
    hold score x or until done(params, terms, table) holds.

    The terms are the exponentiated _nb_log_terms; the table sums them in
    order and clips at 1. Every length is computed from scratch. Both are
    cached on params outside its fields, unseen by asdict, ==, hash and repr.
    """
    arrays = params.__dict__.get("_nb_cache")
    if arrays is not None and (x < arrays[0].size or done(params, *arrays)):
        return arrays
    length = _MIN_TABLE if arrays is None else 2 * arrays[0].size
    while True:
        terms = np.exp(_nb_log_terms(params, length))
        arrays = terms, np.minimum(np.cumsum(terms), 1.0)
        if x < length or done(params, *arrays):
            break
        length *= 2
    object.__setattr__(params, "_nb_cache", arrays)  # one assignment: readers see old or new
    return arrays


def _nb_table(params: NegBinParams, q: float, cap: int) -> np.ndarray:
    """The count model's cumulative-mass table, grown until it holds score
    cap, reaches q, or settles: past the mode each pmf term is smaller than
    the one before, so once a term leaves the sum unchanged every later
    score has the table's last value."""
    def done(params: NegBinParams, terms: np.ndarray, table: np.ndarray) -> bool:
        return table[-1] >= q or (_past_mode(params, table.size - 2) and table[-1] == table[-2])

    return _nb_arrays(params, cap, done)[1]


#: Largest int64. A score past it either way (a Python int, an unsigned score
#: or int64's minimum) is clamped to +-_SCORE_LIMIT, where every family already
#: reads its far-tail value and x - 1 cannot wrap.
_SCORE_LIMIT = 2**63 - 1


def _check_cap(cap: int) -> None:
    if not _is_integer(cap):
        raise InvalidParams(f"quantile cap must be an integer, got {type(cap).__name__}")
    if not 0 <= cap <= _SCORE_LIMIT:
        raise InvalidParams(f"quantile cap must lie in [0, {_SCORE_LIMIT}], got {cap}")


def _score_array(x: int | np.ndarray) -> np.ndarray:
    """Scores as an int64 array; a Python int becomes a 0-d array. A bool, a list or
    anything else but an int, a numpy integer or an integer numpy array is refused."""
    if isinstance(x, int) and not isinstance(x, bool):
        return np.array(min(max(x, -_SCORE_LIMIT), _SCORE_LIMIT), dtype=np.int64)
    if not isinstance(x, (np.ndarray, np.integer)):
        raise InvalidParams(f"scores must be integers, got {type(x).__name__}")
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise InvalidParams(f"scores must be integers, got dtype {x.dtype}")
    if x.dtype == np.uint64:
        x = np.minimum(x, _SCORE_LIMIT)
    return np.maximum(x.astype(np.int64, copy=False), -_SCORE_LIMIT, out=np.empty(x.shape, np.int64))


def _result(values: np.ndarray) -> float | np.ndarray:
    """A float for a single score, the array otherwise."""
    return values if values.ndim else float(values)


def cdf(dist: FittedDist, x: int | np.ndarray) -> float | np.ndarray:
    """P(X <= x). Scores are non-negative, so any x < 0 returns 0.

    The negative binomial reads a cumulative-mass table held by its
    parameters: the pmf summed in order from 0 to x, grown to the largest
    score asked for. The continuous families evaluate their analytic CDF
    directly at integer x, with no continuity correction. One integer gives
    a float; an integer array gives a float array of its shape.
    """
    return _result(dist.params._cdf_array(_score_array(x)))


def survival(dist: FittedDist, x: int | np.ndarray) -> float | np.ndarray:
    """P(X > x), the complement of cdf; elementwise for an integer array."""
    return 1.0 - cdf(dist, x)


def pmf(dist: FittedDist, x: int | np.ndarray) -> float | np.ndarray:
    """Probability mass at integer x, or at every score of an integer array.

    Exact for the negative binomial, read from the same ratio terms its
    cumulative-mass table sums; for the continuous comparators this is the
    unit-step mass cdf(x) - cdf(x - 1), which is the resolution limit of any
    integer-valued inversion.
    """
    return _result(dist.params._pmf_array(_score_array(x)))


def quantile(dist: FittedDist, q: float | np.ndarray, cap: int = DEFAULT_QUANTILE_CAP) -> int | np.ndarray:
    """Smallest integer score x >= 0 with cdf(x) >= q, up to a cap in [0, 2**63 - 1].

    The negative binomial is inverted exactly by binary search on its
    cumulative-mass table; the continuous families take the ceiling of the
    analytic inverse CDF (so the returned score never understates the
    probability), floored at 0. q = 1 cannot be reached on unbounded
    support: the hard cap is returned and a DegenerateQuantileWarning is
    issued. The same applies whenever the true quantile exceeds the cap, or
    a settled negative binomial table stays below q. A numpy array of
    probabilities gives an int64 array of its shape, every element the
    scalar answer, and at most one warning for all elements at the cap.
    """
    _check_cap(cap)
    if isinstance(q, np.ndarray):
        if q.dtype.kind not in "iuf":
            raise InvalidParams(f"quantile probabilities must be numbers, got dtype {q.dtype}")
        if q.ndim:
            return _quantile_array(dist, q, cap)
        q = float(q)  # a 0-d array is one probability
    elif isinstance(q, bool) or not isinstance(q, (float, int, np.floating, np.integer)):
        raise InvalidParams(f"quantile probability must be a number, got {type(q).__name__}")
    if not (0.0 <= q <= 1.0):
        raise InvalidParams(f"quantile probability must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0
    if q == 1.0:
        warnings.warn(
            f"quantile at probability 1 is unbounded; returning cap {cap}",
            DegenerateQuantileWarning,
            stacklevel=2,
        )
        return cap

    x = dist.params._inverse(q, cap)
    if x > cap:
        warnings.warn(
            f"quantile({q}) exceeds the hard cap {cap}", DegenerateQuantileWarning, stacklevel=2
        )
        return cap
    return max(x, 0)


def _quantile_array(dist: FittedDist, q: np.ndarray, cap: int) -> np.ndarray:
    """quantile at every probability of an array: one table search for the
    negative binomial, the analytic inverse per element otherwise."""
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise InvalidParams("quantile probabilities must lie in [0, 1]")
    inner, over, x = (q > 0.0) & (q < 1.0), q == 1.0, np.zeros(q.shape, dtype=np.int64)
    x[inner], over[inner] = dist.params._inverse_array(q[inner], cap)
    if over.any():
        message = f"{np.count_nonzero(over)} quantiles exceed the hard cap {cap}"
        warnings.warn(message, DegenerateQuantileWarning, stacklevel=3)
        x[over] = cap
    return x


#: Largest score the count-model fit accepts: its tail-count arrays hold one
#: entry per run up to the largest score.
_MAX_COUNT_SCORE = 10_000_000


def _checked_sample(scores: Sequence[int], config: FitConfig, count: bool = False) -> tuple[np.ndarray, float, float]:
    """The scores checked in one pass, with the mean and variance (N - 1) that ndarray.mean and var give.
    They must be one dimension of numbers as numpy reads them: no value of an integer or float array is visited.
    The count model (count=True) gets them as int64: an integer array as it is, others read as floats."""
    try:
        xs = np.asarray(scores)
        if xs.dtype.kind == "O" and not any(isinstance(x, (str, bytes, bool, np.bool_)) for x in xs.flat):
            xs = xs.astype(float)  # None, ints past int64 and other numbers numpy holds as objects
    except (TypeError, ValueError, OverflowError):  # a ragged nesting, an object float() refuses, an int past floats
        xs = None
    if xs is None or xs.ndim != 1 or xs.dtype.kind not in "iuf":
        raise InvalidParams("scores must be a one-dimensional sequence of numbers")
    integral = count and xs.dtype.kind in "iu"
    if not integral:
        xs = xs.astype(float, copy=False)
    if xs.size < config.min_sample_size:
        raise InsufficientSample(f"need at least {config.min_sample_size} scores, got {xs.size}")
    if xs.min() < 0:
        raise InvalidParams("scores must be non-negative")
    top = xs.max()
    if not (integral or math.isfinite(top)):  # a NaN passes the sign check and is the maximum
        raise InvalidParams("scores must be finite")
    if count:
        if top > _MAX_COUNT_SCORE:
            raise InvalidParams(f"count-model scores above {_MAX_COUNT_SCORE} are not supported")
        xs, floats = xs.astype(np.int64, copy=False), xs
        if not (integral or np.array_equal(xs, floats)):
            raise InvalidParams("count-model scores must be integers")
    mean = float(np.add.reduce(xs, axis=None)) / xs.size  # their pairwise sum, exact for integer scores
    return xs, mean, float(np.add.reduce(np.square(xs - mean), axis=None)) / (xs.size - 1)


def _tail_counts(ints: np.ndarray) -> np.ndarray:
    """A[j] = #{i : x_i > j} for j = 0 .. max(x) - 1, from checked integer scores."""
    return (ints.size - np.add.accumulate(np.bincount(ints))[:-1]).astype(float)


class _NbProfile:
    """One sample's profile log-likelihood and score in the dispersion n, with
    p profiled out at n / (n + mean).

    Sum_i log Gamma(x_i + n) / Gamma(n) telescopes into Sum_j A_j log(n + j)
    (Bliss & Fisher 1953), and Sum_i log x_i! into Sum_j A_j log(j + 1).
    Since Sum_j A_j = Sum_i x_i, each log(n + j) is taken relative to
    n + mean, which keeps the large parts of the sum from cancelling. What
    depends on the sample alone is built once per fit, with a scratch row the
    score evaluates into, so one profile serves one fit at a time; it keeps
    each score it computed by n, since the root search starts at grid points
    the walk visited.
    """

    def __init__(self, tails: np.ndarray, size: int, xbar: float):
        self.tails, self.size, self.xbar = tails, size, xbar
        self.j = np.arange(tails.size, dtype=float)
        self.offsets = self.j - xbar
        self.log_factorials = tails @ np.log1p(self.j)
        self.mean_term = size * xbar * math.log(xbar)
        self.row = np.empty(tails.size)
        self.scores: dict[float, float] = {}

    def loglik(self, n: float) -> float:
        """Log-likelihood at dispersion n."""
        ratios = self.offsets / (n + self.xbar)
        spread = np.log1p(ratios, out=ratios) @ self.tails
        return float(spread - self.log_factorials - self.size * n * np.log1p(self.xbar / n) + self.mean_term)

    def _score(self, n: float) -> tuple[float, np.ndarray]:
        row = np.divide(1.0, np.add(n, self.j, out=self.row), out=self.row)
        return float(self.tails @ row) - self.size * math.log1p(self.xbar / n), row

    def score(self, n: float) -> float:
        """Derivative in n of the log-likelihood: Sum_j A_j/(n + j) - N log(1 + mean/n)."""
        if n not in self.scores:
            self.scores[n] = self._score(n)[0]
        return self.scores[n]

    def score_and_slope(self, n: float) -> tuple[float, float]:
        """The score and its derivative in n, N mean/(n(n + mean)) - Sum_j A_j/(n + j)**2,
        which is minus the observed information I(n) (Piegorsch 1990)."""
        score, row = self._score(n)
        return score, self.size * self.xbar / (n * (n + self.xbar)) - float(self.tails @ np.square(row, out=row))


def _nb_refine(lo: float, hi: float, profile: _NbProfile, tol: float) -> float:
    """Profile-likelihood maximizer over [lo, hi], to tol in log(n).

    On an overdispersed sample the score has a single root (Aragon, Eberly &
    Eberly 1992), positive below it and negative above. Without a sign
    change the maximum sits at the end the score points to; otherwise a false
    position step across the bracket starts Newton's method on t = log(n),
    whose slope n dS/dn is in closed form. A bisection step replaces any
    Newton step that would leave the bracket, fail to halve the step before,
    or come from a slope that is not negative; Newton stops once its step is
    within tol.
    """
    f_lo, f_hi = profile.score(lo), profile.score(hi)
    if f_lo <= 0.0:
        return lo
    if f_hi >= 0.0:
        return hi
    lo, hi = math.log(lo), math.log(hi)
    t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
    step = hi - lo
    while True:
        n = math.exp(t)
        f, slope = profile.score_and_slope(n)
        if f > 0.0:
            lo = t
        elif f < 0.0:
            hi = t
        else:
            return n
        last, step = step, -f / (n * slope) if slope < 0.0 else math.inf
        if lo < t + step < hi and abs(step) <= 0.5 * abs(last):
            t += step
            if abs(step) <= tol:
                return math.exp(t)
        else:
            step = 0.5 * (lo + hi) - t
            t += step
            if hi - lo <= tol:
                return math.exp(t)


def fit_nb(scores: Sequence[int], config: FitConfig = DEFAULT_FIT_CONFIG) -> FittedDist:
    """Maximum-likelihood negative binomial fit.

    p is profiled out analytically, which pins the fitted mean to the sample
    mean; the dispersion n is then found on log(n) over [_N_LOWER, _N_UPPER].
    The score has one root, so a walk along a log-grid from the moment
    estimate finds the grid points around it; a walk down while the likelihood
    is flat to tolerance resolves it to the smallest (heaviest-tailed) n, and a
    root search then refines n between its grid neighbours. Scores must be integers.
    """
    ints, xbar, var = _checked_sample(scores, config, count=True)
    if var <= xbar:
        raise UnderdispersedSample(
            f"sample variance {var:.3f} <= mean {xbar:.3f}; "
            "the count model cannot represent this sample"
        )

    profile = _NbProfile(_tail_counts(ints), ints.size, xbar)
    logliks: dict[float, float] = {}  # by n: the walk, the checks below and the refine's ends revisit grid points

    def loglik(n: float) -> float:
        if n not in logliks:
            logliks[n] = profile.loglik(n)
        return logliks[n]

    # from n0 = mean**2 / (var - mean)'s grid point, step the way the score points until its sign turns
    top = _N_GRID.size - 1
    k = min(max(round(math.log(xbar * xbar / (var - xbar) / _N_LOWER) / _N_STEP), 0), top)
    step = 1 if profile.score(float(_N_GRID[k])) > 0.0 else -1
    while 0 <= k + step <= top and (profile.score(float(_N_GRID[k + step])) > 0.0) == (step > 0):
        k += step
    best, i = max((loglik(float(_N_GRID[j])), j) for j in {k, min(max(k + step, 0), top)})
    floor = best - 1e-9 * max(1.0, abs(best))
    while i > 0 and loglik(float(_N_GRID[i - 1])) >= floor:  # smallest n among ties
        i -= 1

    lo, hi = float(_N_GRID[max(i - 1, 0)]), float(_N_GRID[min(i + 1, top)])
    n_hat = _nb_refine(lo, hi, profile, _N_REL_TOL)
    ll = loglik(n_hat)
    if ll < best:
        n_hat = float(_N_GRID[i])
        ll = loglik(n_hat)

    params = NegBinParams(n_hat, n_hat / (n_hat + xbar))
    degenerate = loglik(float(_N_GRID[top])) >= floor or n_hat >= 0.999 * _N_UPPER
    return FittedDist(params, ints.size, ll, degenerate=degenerate)


def fit_normal(scores: Sequence[int], config: FitConfig = DEFAULT_FIT_CONFIG) -> FittedDist:
    """Moment fit: mu = sample mean, sigma = sample standard deviation (N-1)."""
    xs, mean, var = _checked_sample(scores, config)
    if var == 0.0:
        raise ZeroVariance("all scores identical; normal fit undefined")
    params = NormalParams(mean, math.sqrt(var))
    z = (xs - params.mu) / params.sigma
    ll = float(-0.5 * np.sum(z**2) - xs.size * math.log(params.sigma * math.sqrt(2 * math.pi)))
    return FittedDist(params, int(xs.size), ll)


def fit_logistic(scores: Sequence[int], config: FitConfig = DEFAULT_FIT_CONFIG) -> FittedDist:
    """Moment fit: mu = sample mean, s = sqrt(3 * variance) / pi."""
    xs, mean, var = _checked_sample(scores, config)
    if var == 0.0:
        raise ZeroVariance("all scores identical; logistic fit undefined")
    params = LogisticParams(mean, math.sqrt(3.0 * var) / math.pi)
    z = (xs - params.mu) / params.s
    ll = float(np.sum(-z - 2.0 * np.logaddexp(0.0, -z)) - xs.size * math.log(params.s))
    return FittedDist(params, int(xs.size), ll)


_FITTERS = {
    Family.NEGBIN: fit_nb,
    Family.NORMAL: fit_normal,
    Family.LOGISTIC: fit_logistic,
}


def fit(scores: Sequence[int], family: Family, config: FitConfig = DEFAULT_FIT_CONFIG) -> FittedDist:
    """Fit the requested family to the scores."""
    return _FITTERS[family](scores, config)


def fitted_to_dict(dist: FittedDist, venue: str, case: str) -> dict:
    """JSON-ready document for one labeled fit."""
    return {
        "venue": venue,
        "case": case,
        "family": dist.family.value,
        "params": asdict(dist.params),
        "sample_size": dist.sample_size,
        "log_likelihood": dist.log_likelihood,
        "degenerate_flag": dist.degenerate,
    }


def fitted_from_dict(doc: dict) -> tuple[str, str, FittedDist]:
    """Inverse of fitted_to_dict; checks the labels' types, and the params and FittedDist check their own fields."""
    try:
        params = _PARAMS_BY_FAMILY[Family(doc["family"])](**doc["params"])
        venue, case = doc["venue"], doc["case"]
        if not (isinstance(venue, str) and isinstance(case, str)):
            raise TypeError(f"venue and case must be strings, got {venue!r} and {case!r}")
        size, loglik, degenerate = doc["sample_size"], doc["log_likelihood"], doc.get("degenerate_flag", False)
        return venue, case, FittedDist(params, size, loglik, degenerate)
    except (KeyError, TypeError, ValueError, InvalidParams) as exc:
        raise InvalidParams(f"malformed fitted-distribution document: {exc}") from exc


def fitted_to_json(entries: Sequence[tuple[str, str, FittedDist]]) -> str:
    """Serialize labeled fits to a JSON array (venue, case, dist triples)."""
    return json.dumps(
        [fitted_to_dict(dist, venue, case) for venue, case, dist in entries],
        indent=2,
    )


def fitted_from_json(text: str) -> list[tuple[str, str, FittedDist]]:
    """Inverse of fitted_to_json; InvalidParams for text that is not a JSON array of fit documents."""
    try:
        docs = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParams(f"malformed fitted-distribution JSON: {exc}") from exc
    if not isinstance(docs, list):
        raise InvalidParams(f"malformed fitted-distribution JSON: expected an array, got {type(docs).__name__}")
    return [fitted_from_dict(doc) for doc in docs]

