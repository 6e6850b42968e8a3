"""Distribution families: pmf/cdf/survival/quantile evaluation and fitting.

Frozen expectations come from independent routes: exact binomial-coefficient
arithmetic for the pmf, geometric closed forms for the n=1 case, and linear
CDF scans for quantiles.
"""

from __future__ import annotations

import importlib.util
import json
import math
import pickle
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fairchase.distributions as distributions
from fairchase import (
    DegenerateQuantileWarning,
    FairchaseError,
    Family,
    FitConfig,
    FittedDist,
    InsufficientSample,
    InvalidParams,
    LogisticParams,
    NegBinParams,
    NormalParams,
    UnderdispersedSample,
    ZeroVariance,
    categorize,
    cdf,
    fit,
    fit_logistic,
    fit_nb,
    fit_normal,
    fitted_from_dict,
    fitted_from_json,
    fitted_to_dict,
    fitted_to_json,
    parse_matches,
    pmf,
    quantile,
    sample_scores,
    survival,
)
from fairchase.revision import pmf_mass

SMALL = FitConfig(min_sample_size=2)
EPS = float(np.finfo(float).eps)

GOLDEN_MATCHES = Path(__file__).resolve().parent / "golden" / "matches.csv"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"

GEOMETRIC = FittedDist.negbin(1.0, 0.5)


def nb_logpmf(x: int, params: NegBinParams) -> float:
    """Log of the count pmf at x through log-gamma: the reference that pmf is
    held to (pmf itself sums the ratio terms of _nb_log_terms)."""
    if x < 0:
        return -math.inf
    return (
        math.lgamma(x + params.n)
        - math.lgamma(params.n)
        - math.lgamma(x + 1)
        + params.n * math.log(params.p)
        + x * math.log1p(-params.p)
    )


def nb_pmf(x: int, params: NegBinParams) -> float:
    """P(X = x) for the count model through log-gamma; 0 for x < 0."""
    if x < 0:
        return 0.0
    return math.exp(nb_logpmf(x, params))


def exact_nb_pmf(x: int, n: int, p: float) -> float:
    """Independent oracle: integer-n pmf via exact binomial coefficients."""
    return math.comb(x + n - 1, x) * p**n * (1.0 - p) ** x


def scan_quantile(dist: FittedDist, q: float, limit: int = 10_000) -> int:
    for x in range(limit + 1):
        if cdf(dist, x) >= q:
            return x
    raise AssertionError("scan exhausted")


class TestParams:
    @pytest.mark.parametrize("n,p", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5)])
    def test_negbin_rejects_bad_params(self, n, p):
        with pytest.raises(InvalidParams):
            NegBinParams(n, p)

    def test_normal_rejects_bad_sigma(self):
        with pytest.raises(InvalidParams):
            NormalParams(200.0, 0.0)

    def test_logistic_rejects_bad_scale(self):
        with pytest.raises(InvalidParams):
            LogisticParams(200.0, -1.0)

    @pytest.mark.parametrize("params", [NormalParams, LogisticParams])
    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_continuous_rejects_non_finite_mu(self, params, mu):
        with pytest.raises(InvalidParams, match="^mu must be finite"):
            params(mu, 1.0)

    def test_negbin_mean(self):
        assert NegBinParams(8.0, 0.04).mean == pytest.approx(192.0)

    @pytest.mark.parametrize(
        "dist,expected",
        [
            (FittedDist.negbin(8.0, 0.04), 8.0 * (1.0 - 0.04) / 0.04),
            (FittedDist.normal(192.0, 45.0), 192.0),
            (FittedDist.logistic(187.5, 25.0), 187.5),
        ],
        ids=["negbin", "normal", "logistic"],
    )
    def test_fitted_mean_is_the_params_mean(self, dist, expected):
        assert dist.mean == dist.params.mean == expected

    def test_params_of_no_family_raise(self):
        with pytest.raises(InvalidParams):
            FittedDist(params=(1.0, 0.5))

    @pytest.mark.parametrize(
        "fields, message",
        [({"log_likelihood": math.inf}, "log_likelihood must be finite"), ({"sample_size": -1}, "sample_size must be non-negative")],
        ids=["log_likelihood", "sample_size"],
    )
    def test_fitted_rejects_bad_fields(self, fields, message):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            FittedDist(NormalParams(200.0, 40.0), **fields)

    @pytest.mark.parametrize(
        "kwargs", [{"min_sample_size": 1}, {"min_sample_size": 0}, {"quantile_cap": 0}, {"quantile_cap": -5}]
    )
    def test_fit_config_rejects_out_of_range(self, kwargs):
        # a configuration error (exit 2), not a model error like InvalidParams (exit 3)
        with pytest.raises(FairchaseError) as info:
            FitConfig(**kwargs)
        assert not isinstance(info.value, InvalidParams)

    @pytest.mark.parametrize(
        "cap", [150.5, 300.0, True, "300", None], ids=["float", "integral-float", "bool", "str", "none"]
    )
    def test_fit_config_rejects_a_cap_that_is_not_an_integer(self, cap):
        message = f"^quantile_cap must be an integer, got {type(cap).__name__}$"
        with pytest.raises(FairchaseError, match=message) as info:
            FitConfig(quantile_cap=cap)
        assert not isinstance(info.value, InvalidParams)

    def test_fit_config_takes_a_numpy_integer_cap(self):
        assert FitConfig(quantile_cap=np.int64(150)) == FitConfig(quantile_cap=150)

    @pytest.mark.parametrize(
        "size", [2.5, 3.0, True, "3", None], ids=["float", "integral-float", "bool", "str", "none"]
    )
    def test_fit_config_rejects_a_min_sample_size_that_is_not_an_integer(self, size):
        message = f"^min_sample_size must be an integer, got {type(size).__name__}$"
        with pytest.raises(FairchaseError, match=message) as info:
            FitConfig(min_sample_size=size)
        assert not isinstance(info.value, InvalidParams)
        assert FitConfig(np.int64(12)) == FitConfig(12)

    @pytest.mark.parametrize(
        "key, refused, accepted",
        [
            ("sample_size", 2.5, 12),
            ("sample_size", True, 0),
            ("sample_size", "3", 3),
            ("sample_size", np.int64(5), 5),
            ("log_likelihood", True, -3),
            ("log_likelihood", "-3.5", np.float64(-3.5)),
            ("log_likelihood", None, -650.5),
            ("log_likelihood", 10**400, -650),
            ("log_likelihood", -(10**400), -650),
            ("degenerate", 1, True),
            ("degenerate", np.True_, False),
        ],
        ids=["size-float", "size-bool", "size-str", "size-numpy", "loglik-bool", "loglik-str", "loglik-none",
             "loglik-past-floats", "loglik-past-floats-below", "degenerate-int", "degenerate-numpy"],
    )
    def test_fitted_refuses_what_its_json_cannot_carry(self, key, refused, accepted):
        with pytest.raises(InvalidParams, match=f"^{key} must be "):
            FittedDist(NegBinParams(8.0, 0.04), **{key: refused})
        entries = [("Sydney", "BatFirstWin", FittedDist(NegBinParams(8.0, 0.04), **{key: accepted}))]
        assert fitted_from_json(fitted_to_json(entries)) == entries

    #: Each numeric params field, as (class, the other fields' values, field name).
    PARAMS_FIELDS = [
        (NegBinParams, {"p": 0.04}, "n"),
        (NegBinParams, {"n": 8.0}, "p"),
        (NormalParams, {"sigma": 40.0}, "mu"),
        (NormalParams, {"mu": 200.0}, "sigma"),
        (LogisticParams, {"s": 20.0}, "mu"),
        (LogisticParams, {"mu": 200.0}, "s"),
    ]

    @pytest.mark.parametrize("cls, others, field", PARAMS_FIELDS, ids=[f"{c.__name__}-{f}" for c, _, f in PARAMS_FIELDS])
    @pytest.mark.parametrize(
        "value",
        [True, False, "3", None, [0.5], np.float32(0.5), np.int64(3), 10**400, -(10**400), 10**5000],
        ids=["true", "false", "str", "none", "list", "float32", "int64", "past-floats", "past-floats-below", "past-str"],
    )
    def test_params_refuse_what_fitted_json_cannot_carry(self, cls, others, field, value):
        with pytest.raises(InvalidParams, match=f"^{field} must be "):
            cls(**others, **{field: value})

    @pytest.mark.parametrize("cls, others, field", PARAMS_FIELDS, ids=[f"{c.__name__}-{f}" for c, _, f in PARAMS_FIELDS])
    def test_params_take_ints_and_floats(self, cls, others, field):
        """An int stays an int, and a numpy float64 is a float: each builds and round-trips through JSON."""
        for value in ((1 if field != "p" else 0.5), np.float64(0.25), 0.25):
            params = cls(**others, **{field: value})
            assert getattr(params, field) is value
            entries = [("Sydney", "BatFirstWin", FittedDist(params))]
            assert fitted_from_json(fitted_to_json(entries)) == entries


class TestPmf:
    def test_geometric_at_zero(self):
        assert nb_pmf(0, NegBinParams(1.0, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_at_two(self):
        assert nb_pmf(2, NegBinParams(1.0, 0.5)) == pytest.approx(0.125, abs=1e-15)

    def test_n2_at_one(self):
        assert nb_pmf(1, NegBinParams(2.0, 0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_negative_x_has_no_mass(self):
        assert nb_pmf(-1, NegBinParams(1.0, 0.5)) == 0.0
        assert nb_logpmf(-1, NegBinParams(1.0, 0.5)) == -math.inf

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_log_gamma_agrees_with_exact_factorials(self, n, p):
        params = NegBinParams(float(n), p)
        for x in range(21):
            expected = exact_nb_pmf(x, n, p)
            assert nb_pmf(x, params) == pytest.approx(expected, rel=1e-12)

    def test_unified_pmf_matches_cdf_increment(self):
        for dist in (
            GEOMETRIC,
            FittedDist.normal(200.0, 30.0),
            FittedDist.logistic(200.0, 18.0),
        ):
            for x in (0, 1, 150, 200, 320):
                step = cdf(dist, x) - cdf(dist, x - 1)
                assert pmf(dist, x) == pytest.approx(step, abs=1e-12)


class TestCdfSurvival:
    @pytest.mark.parametrize(
        "dist",
        [GEOMETRIC, FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)],
    )
    def test_no_mass_below_zero(self, dist):
        assert cdf(dist, -1) == 0.0
        assert survival(dist, -1) == 1.0

    def test_geometric_cdf_at_one(self):
        assert cdf(GEOMETRIC, 1) == pytest.approx(0.75, abs=1e-15)

    def test_geometric_survival_at_one(self):
        assert survival(GEOMETRIC, 1) == pytest.approx(0.25, abs=1e-15)

    def test_logistic_symmetry_at_location(self):
        assert cdf(FittedDist.logistic(200.0, 20.0), 200) == pytest.approx(0.5, abs=1e-15)

    def test_normal_symmetry_at_location(self):
        assert cdf(FittedDist.normal(200.0, 30.0), 200) == pytest.approx(0.5, abs=1e-12)

    def test_nb_cdf_matches_partial_pmf_sum(self):
        params = NegBinParams(8.0, 0.04)
        dist = FittedDist.negbin(params.n, params.p)
        running = 0.0
        for x in range(0, 400, 7):
            running = sum(nb_pmf(k, params) for k in range(x + 1))
            assert cdf(dist, x) == pytest.approx(running, abs=1e-12)

    def test_nb_cdf_independent_of_query_order(self):
        far_first = FittedDist.negbin(8.0, 0.04)
        near_only = FittedDist.negbin(8.0, 0.04)
        cdf(far_first, 3000)
        assert [cdf(near_only, x) for x in range(2100)] == [cdf(far_first, x) for x in range(2100)]

    def test_nb_cdf_far_tail_reads_settled_table(self):
        dist = FittedDist.negbin(8.0, 0.04)
        assert cdf(dist, 10**9) == cdf(dist, 5000)
        assert cdf(dist, 10**9) == pytest.approx(1.0, abs=1e-12)
        assert len(dist.params._nb_cache[1]) <= 4096

    def test_nb_cdf_shared_across_threads(self):
        reference = FittedDist.negbin(3.0, 0.02)
        points = list(range(0, 3000, 37))
        expected = [cdf(reference, x) for x in points]
        shared = FittedDist.negbin(3.0, 0.02)
        results: dict[int, list[float]] = {}

        def worker(index: int) -> None:
            order = points[index % len(points):] + points[: index % len(points)]
            values = {x: cdf(shared, x) for x in order}
            results[index] = [values[x] for x in points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i * 11,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(values == expected for values in results.values())

    def test_complement_identity_exact(self):
        dist = FittedDist.negbin(8.0, 0.04)
        for x in (0, 100, 192, 300, 550):
            assert survival(dist, x) + cdf(dist, x) == 1.0

    @pytest.mark.parametrize(
        "dist",
        [
            FittedDist.negbin(8.0, 0.04),
            FittedDist.normal(200.0, 30.0),
            FittedDist.logistic(200.0, 18.0),
        ],
    )
    def test_survival_monotone_on_score_range(self, dist):
        values = [survival(dist, x) for x in range(-1, 601)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert survival(dist, 200) >= survival(dist, 300)


class TestQuantile:
    def test_zero_probability_gives_zero(self):
        assert quantile(GEOMETRIC, 0.0) == 0

    def test_geometric_exact_boundary(self):
        # cdf(1) = 0.75 exactly, so 0.75 lands on 1 and anything above moves on
        assert quantile(GEOMETRIC, 0.75) == 1
        assert quantile(GEOMETRIC, 0.76) == 2
        assert scan_quantile(GEOMETRIC, 0.76) == 2

    def test_continuous_quantile_is_ceiling(self):
        dist = FittedDist.logistic(200.0, 20.0)
        assert quantile(dist, 0.5) == 200
        assert cdf(dist, quantile(dist, 0.9)) >= 0.9

    def test_normal_inverse_is_the_standard_library_one(self):
        """The normal quantile inverts through the C function NormalDist.inv_cdf
        itself calls, so every answer equals the one statistics gives."""
        import statistics

        standard = statistics.NormalDist()
        qs = np.linspace(0.0, 1.0, 20001)[1:-1].tolist() + [5e-324, 1e-300, 1e-17, 0.5 - 2**-54, 1.0 - 2**-53]
        assert [distributions._normal_dist_inv_cdf(q, 0.0, 1.0) for q in qs] == [standard.inv_cdf(q) for q in qs]
        dist = FittedDist.normal(200.0, 45.0)
        expected = [max(math.ceil(200.0 + 45.0 * standard.inv_cdf(q)), 0) for q in qs]
        assert [quantile(dist, q, cap=10**6) for q in qs] == expected

    def test_continuous_quantile_floors_at_zero(self):
        assert quantile(FittedDist.normal(5.0, 50.0), 0.05) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParams):
            quantile(GEOMETRIC, -0.1)
        with pytest.raises(InvalidParams):
            quantile(GEOMETRIC, 1.1)

    def test_q_one_hits_cap_with_warning(self):
        with pytest.warns(DegenerateQuantileWarning):
            assert quantile(GEOMETRIC, 1.0, cap=500) == 500

    def test_cap_respected_for_extreme_q(self):
        with pytest.warns(DegenerateQuantileWarning):
            assert quantile(FittedDist.negbin(8.0, 0.04), 1.0 - 1e-300, cap=50) == 50

    @pytest.mark.parametrize(
        "dist",
        [FittedDist.negbin(8.0, 0.04), FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)],
    )
    def test_cap_warning_names_q(self, dist):
        q = 1.0 - 1e-12
        with pytest.warns(DegenerateQuantileWarning, match=rf"^quantile\({q}\) exceeds the hard cap 50$"):
            assert quantile(dist, q, cap=50) == 50

    @pytest.mark.parametrize(
        "dist",
        [FittedDist.negbin(8.0, 0.04), FittedDist.normal(192.0, 45.0), FittedDist.logistic(192.0, 25.0)],
    )
    def test_cap_must_be_a_score(self, dist):
        """A cap below 0 or past int64 is rejected by the scalar and the array
        call alike; at either edge both answer, and agree."""
        for cap in (-1, 2**63):
            for q in (0.5, np.array([0.5, 1.0])):
                with pytest.raises(InvalidParams, match="cap"):
                    quantile(dist, q, cap=cap)
        median = quantile(dist, 0.5)
        for cap in (0, 2**63 - 1):
            xs, warned = _quantile_warned(dist, np.array([0.5, 1.0]), cap)
            assert xs.tolist() == [_quantile_warned(dist, q, cap)[0] for q in (0.5, 1.0)]
            assert xs.tolist() == [min(median, cap), cap] and warned

    @pytest.mark.parametrize(
        "cap", [True, False, np.bool_(True), 150.5, 150.0, np.float64(150.0), "300", None],
        ids=["true", "false", "numpy-bool", "float", "integral-float", "numpy-float", "str", "none"],
    )
    @pytest.mark.parametrize("q", [0.99, np.array([0.99, 0.99])], ids=["scalar", "array"])
    def test_cap_must_be_an_integer(self, cap, q):
        """A bool or a number that is not an integer is refused by the scalar
        and the array call alike, as is anything that is not a number."""
        with pytest.raises(InvalidParams, match=f"^quantile cap must be an integer, got {type(cap).__name__}$"):
            quantile(GEOMETRIC, q, cap=cap)

    @pytest.mark.parametrize("cap", [np.int64(1), np.uint8(1), np.int32(0)], ids=["int64", "uint8", "int32"])
    def test_numpy_integer_caps_are_caps(self, cap):
        with pytest.warns(DegenerateQuantileWarning):
            assert quantile(GEOMETRIC, 0.99, cap=cap) == int(cap)
        with pytest.warns(DegenerateQuantileWarning):
            assert quantile(GEOMETRIC, np.array([0.99, 0.99]), cap=cap).tolist() == [int(cap)] * 2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.floats(min_value=0.5, max_value=200.0),
        mean=st.floats(min_value=1.0, max_value=400.0),
    )
    @example(n=20.0, mean=180.0)  # p = 0.1: the table settles at 0.9999999999999973
    def test_nb_adjunction_just_above_the_settled_table(self, n, mean):
        """Either cdf(quantile(q)) >= q, or the quantile is the cap and says so."""
        dist = FittedDist.negbin(n, n / (n + mean))
        q = math.nextafter(cdf(dist, 10**9), 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = quantile(dist, q, cap=2000)
        warned = any(issubclass(w.category, DegenerateQuantileWarning) for w in caught)
        assert cdf(dist, x) >= q or (x == 2000 and warned), (x, q)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.floats(min_value=0.5, max_value=50.0),
        p=st.floats(min_value=0.02, max_value=0.9),
        q=st.floats(min_value=1e-3, max_value=0.999),
    )
    def test_galois_property(self, n, p, q):
        dist = FittedDist.negbin(n, p)
        x = quantile(dist, q, cap=10_000_000)
        assert cdf(dist, x) >= q
        if x > 0:
            assert cdf(dist, x - 1) < q

    @settings(max_examples=20, deadline=None)
    @given(
        mu=st.floats(min_value=50.0, max_value=400.0),
        scale=st.floats(min_value=5.0, max_value=120.0),
        q=st.floats(min_value=1e-3, max_value=0.999),
    )
    def test_galois_property_continuous(self, mu, scale, q):
        for dist in (FittedDist.normal(mu, scale), FittedDist.logistic(mu, scale)):
            x = quantile(dist, q)
            assert cdf(dist, x) >= q - 1e-12
            if x > 0:
                assert cdf(dist, x - 1) < q + 1e-12


def _quantile_warned(dist: FittedDist, q, cap: int) -> tuple[object, bool]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x = quantile(dist, q, cap=cap)
    return x, any(issubclass(w.category, DegenerateQuantileWarning) for w in caught)


#: Probabilities at and next to both ends of [0, 1].
EDGE_QS = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, math.nextafter(1.0, 0.0), 1.0]


class TestArrayQuantile:
    """quantile on a probability array against one scalar call per element."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.floats(min_value=1e-2, max_value=1e3),
        p=st.floats(min_value=1e-2, max_value=0.999),
        mu=st.floats(min_value=-100.0, max_value=1000.0),
        scale=st.floats(min_value=0.5, max_value=300.0),
        qs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
        cap=st.sampled_from([50, 2000, 10_000_000]),
    )
    @example(n=8.0, p=0.04, mu=200.0, scale=30.0, qs=EDGE_QS, cap=2000)
    @example(n=20.0, p=0.1, mu=200.0, scale=30.0, qs=[0.9999999999999974], cap=2000)
    # a continuous inverse past int64 is clamped to the cap before it becomes an array
    @example(n=8.0, p=0.04, mu=0.0, scale=1e300, qs=[1e-12, 0.5, 0.9], cap=2**63 - 1)
    def test_array_matches_scalar(self, n, p, mu, scale, qs, cap):
        for family in Family:
            dist = {
                Family.NEGBIN: FittedDist.negbin(n, p),
                Family.NORMAL: FittedDist.normal(mu, scale),
                Family.LOGISTIC: FittedDist.logistic(mu, scale),
            }[family]
            scalar = [_quantile_warned(dist, q, cap) for q in qs]
            xs, warned = _quantile_warned(dist, np.array(qs), cap)
            assert xs.dtype == np.int64 and xs.shape == (len(qs),)
            assert xs.tolist() == [x for x, _ in scalar], family
            assert warned == any(w for _, w in scalar), family

    @pytest.mark.parametrize(
        "dist", [GEOMETRIC, FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)]
    )
    def test_shape_kept_and_range_checked(self, dist):
        qs = np.linspace(0.0, 0.99, 12).reshape(3, 4)
        assert quantile(dist, qs).tolist() == [[quantile(dist, float(q)) for q in row] for row in qs]
        assert quantile(dist, np.array([])).shape == (0,)
        for q in (0.0, 0.7, 1.0):  # a 0-d array is one probability
            x, warned = _quantile_warned(dist, np.array(q), 2000)
            assert type(x) is int and (x, warned) == _quantile_warned(dist, q, 2000)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(InvalidParams):
                quantile(dist, np.array([0.5, bad]))

    def test_one_warning_for_every_capped_element(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            xs = quantile(FittedDist.normal(200.0, 30.0), np.array([0.5, 1.0, 1.0 - 1e-12]), cap=250)
        assert xs.tolist() == [200, 250, 250]
        assert [str(w.message) for w in caught] == ["2 quantiles exceed the hard cap 250"]
        assert caught[0].filename == __file__


class TestNormalization:
    @pytest.mark.parametrize(
        "dist",
        [
            GEOMETRIC,
            FittedDist.negbin(8.0, 0.04),
            FittedDist.negbin(20.0, 0.1),
            FittedDist.normal(200.0, 30.0),
            FittedDist.logistic(200.0, 18.0),
        ],
    )
    def test_pmf_mass_reaches_one(self, dist):
        total = pmf_mass(dist, quantile(dist, 1.0 - 1e-10, cap=100_000))
        assert abs(total - 1.0) <= 1e-9


#: Negatives, 0, every score through 700, then a stride past the 512-entry
#: table and its doublings up to 5000.
ARRAY_SCORES = np.r_[-7, -3:700, 700:5000:37, 1023, 1024, 2047, 2048, 4095, 4096, 5000]


def _nb_logpmf_magnitude(x: int, params: NegBinParams) -> float:
    """Sum of the magnitudes nb_logpmf adds up; its rounding error is a few eps times this."""
    n, p = params.n, params.p
    return (
        abs(math.lgamma(x + n)) + abs(math.lgamma(n)) + abs(math.lgamma(x + 1))
        + abs(n * math.log(p)) + abs(x * math.log1p(-p))
    )


class TestArrayEvaluation:
    """pmf/cdf/survival on an integer array against one scalar call per score."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.floats(min_value=1e-3, max_value=1e6),
        p=st.floats(min_value=1e-4, max_value=0.999),
        mu=st.floats(min_value=-100.0, max_value=1000.0),
        sigma=st.floats(min_value=0.5, max_value=500.0),
        s=st.floats(min_value=0.5, max_value=300.0),
    )
    def test_array_matches_scalar(self, n, p, mu, sigma, s):
        xs = ARRAY_SCORES.tolist()
        nb = FittedDist.negbin(n, p)
        for dist in (nb, FittedDist.normal(mu, sigma), FittedDist.logistic(mu, s)):
            assert cdf(dist, ARRAY_SCORES).tolist() == [cdf(dist, x) for x in xs]
            assert survival(dist, ARRAY_SCORES).tolist() == [survival(dist, x) for x in xs]
            assert pmf(dist, ARRAY_SCORES).tolist() == [pmf(dist, x) for x in xs]

        # nb_pmf differences log-gamma values in the thousands (millions for
        # large n), so it alone is off by up to ~1e-11 relative at x = 5000
        # (measured against 40-digit mpmath); the bound allows for that.
        eps = sys.float_info.epsilon
        for x, got in zip(xs, pmf(nb, ARRAY_SCORES).tolist()):
            want = nb_pmf(x, nb.params)
            if x < 0:
                assert got == want == 0.0
            elif want > 1e-300:
                tol = 1e-12 + 8 * eps * _nb_logpmf_magnitude(x, nb.params)
                assert abs(got - want) <= tol * want, (x, got, want)

    @pytest.mark.parametrize(
        "dist", [GEOMETRIC, FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)]
    )
    def test_shape_and_empty(self, dist):
        grid = np.arange(-2, 10).reshape(3, 4)
        for fn in (cdf, survival, pmf):
            values = fn(dist, grid)
            assert values.shape == (3, 4) and values.dtype == np.float64
            assert values.tolist() == [[fn(dist, int(x)) for x in row] for row in grid]
            assert fn(dist, np.array([], dtype=np.int64)).shape == (0,)

    def test_non_integer_array_rejected(self):
        for dist in (GEOMETRIC, FittedDist.normal(200.0, 30.0)):
            for fn in (cdf, survival, pmf):
                with pytest.raises(InvalidParams):
                    fn(dist, np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "dist", [GEOMETRIC, FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)]
    )
    def test_non_integer_score_rejected(self, dist):
        for fn in (cdf, survival, pmf):
            with pytest.raises(InvalidParams):
                fn(dist, 5.0)

    @pytest.mark.parametrize(
        "dist",
        [FittedDist.negbin(8.0, 0.04), FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)],
    )
    def test_scores_past_the_int64_range(self, dist):
        """Scores beyond int64 read the far-tail values; the results are floats."""
        top = cdf(dist, 10**9)
        for fn, far, below in ((cdf, top, 0.0), (survival, 1.0 - top, 1.0), (pmf, 0.0, 0.0)):
            assert type(fn(dist, 10**20)) is float
            assert fn(dist, 10**20) == far
            assert fn(dist, -(10**20)) == below
            assert fn(dist, np.array([-(2**63)])).tolist() == [below]  # x - 1 must not wrap
            unsigned = np.array([2**63, 2**64 - 1], dtype=np.uint64)
            assert fn(dist, unsigned).tolist() == [far, far]
            assert fn(dist, np.uint64(2**63)) == far
        assert top == 1.0

    @pytest.mark.parametrize("dist", [FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)])
    def test_continuous_pmf_is_the_two_call_difference(self, dist):
        """Bit for bit cdf(x) - cdf(x - 1), on any shape, negative scores and
        scores at the int64 limit included."""
        rng = np.random.default_rng(7)
        top = np.iinfo(np.int64).max
        near_top = rng.integers(top - 5, top, 10, endpoint=True)
        xs = np.concatenate(
            [rng.integers(-50, 600, 500), near_top, -near_top, rng.integers(-top, top, 60)]
        )
        rng.shuffle(xs)
        for scores in (xs, xs.reshape(20, -1), xs[:1].reshape(())):
            two_calls = cdf(dist, scores) - cdf(dist, scores - 1)
            assert np.asarray(pmf(dist, scores)).tobytes() == np.asarray(two_calls).tobytes()

    @pytest.mark.parametrize(
        "dist",
        [FittedDist.normal(200.0, 30.0), FittedDist.logistic(200.0, 18.0)],
        ids=["_normal_cdf", "_logistic_cdf"],
    )
    def test_continuous_pmf_evaluates_each_cdf_point_once(self, dist, monkeypatch):
        calls = []
        real = type(dist.params)._cdf
        monkeypatch.setattr(type(dist.params), "_cdf", lambda p, x: calls.append(x) or real(p, x))
        pmf(dist, np.arange(1, 101))
        assert sorted(calls) == list(range(0, 101))

    def test_nb_pmf_stops_growing_once_terms_underflow(self, monkeypatch):
        """Past the mode a term that has underflowed to 0.0 ends the growth:
        every later score is 0.0, as nb_pmf returns there."""
        lengths = []
        real_terms = distributions._nb_log_terms

        def recorded(params, length):
            lengths.append(length)
            return real_terms(params, length)

        monkeypatch.setattr(distributions, "_nb_log_terms", recorded)
        dist = FittedDist.negbin(8.0, 0.04)
        assert pmf(dist, np.array([2**20])).tolist() == [0.0] == [nb_pmf(2**20, dist.params)]
        # the first term to underflow is at score 19104, inside the 32768-entry array
        assert 0 < max(lengths) <= 32768

    def test_nb_scalar_pmf_reads_the_cached_terms(self, monkeypatch):
        """One score at a time builds each power-of-two array once, shared with cdf."""
        lengths = []
        real_terms = distributions._nb_log_terms

        def recorded(params, length):
            lengths.append(length)
            return real_terms(params, length)

        monkeypatch.setattr(distributions, "_nb_log_terms", recorded)
        dist = FittedDist.negbin(8.0, 0.04)
        values = [pmf(dist, x) for x in range(1500)]
        assert [cdf(dist, x) for x in range(1500)] == cdf(dist, np.arange(1500)).tolist()
        assert lengths == [512, 1024, 2048]
        assert values == pmf(dist, np.arange(1500)).tolist()

    def test_nb_table_grows_once_to_the_largest_score(self):
        dist = FittedDist.negbin(8.0, 0.004)  # mean 1992
        cdf(dist, np.array([0, 3000]))
        assert len(dist.params._nb_cache[1]) == 4096


def seeded_nb_sample(n: float, p: float, size: int, seed: int = 11) -> list[int]:
    return sample_scores(FittedDist.negbin(n, p), size, seed)


class TestFitNb:
    def test_recovers_seeded_parameters(self):
        scores = seeded_nb_sample(8.0, 0.04, 5000)
        fitted = fit_nb(scores)
        assert isinstance(fitted.params, NegBinParams)
        assert fitted.params.mean == pytest.approx(192.0, rel=0.01)
        assert fitted.params.n == pytest.approx(8.0, rel=0.10)
        assert fitted.sample_size == 5000
        assert not fitted.degenerate

    def test_profile_mean_identity(self):
        scores = seeded_nb_sample(12.0, 0.05, 800, seed=3)
        fitted = fit_nb(scores)
        sample_mean = sum(scores) / len(scores)
        assert fitted.params.mean == pytest.approx(sample_mean, rel=1e-6)

    def test_beats_method_of_moments(self):
        scores = np.asarray(seeded_nb_sample(6.0, 0.03, 600, seed=5), dtype=float)
        mean = scores.mean()
        var = scores.var(ddof=1)
        mom = NegBinParams(n=mean * mean / (var - mean), p=mean / var)
        fitted = fit_nb([int(s) for s in scores])
        mom_ll = sum(nb_logpmf(int(s), mom) for s in scores)
        assert fitted.log_likelihood >= mom_ll - 1e-9

    def test_refined_dispersion_maximizes_likelihood(self):
        scores = seeded_nb_sample(6.0, 0.03, 600, seed=5)
        fitted = fit_nb(scores)
        direct = math.fsum(nb_logpmf(x, fitted.params) for x in scores)
        assert fitted.log_likelihood == pytest.approx(direct, rel=1e-10)
        mean = fitted.params.mean
        for factor in (1.0 - 1e-4, 1.0 + 1e-4):
            n = fitted.params.n * factor
            nearby = NegBinParams(n, n / (n + mean))
            assert fitted.log_likelihood >= math.fsum(nb_logpmf(x, nearby) for x in scores)

    def test_refine_without_a_root_returns_the_end_the_score_points_to(self):
        scores = seeded_nb_sample(8.0, 0.04, 500)
        xs = np.asarray(scores)
        search = (distributions._NbProfile(distributions._tail_counts(xs), int(xs.size), float(xs.mean())), 1e-8)
        root = fit_nb(scores).params.n
        # the score is positive below its root and negative above it
        assert distributions._nb_refine(root / 100, root / 10, *search) == pytest.approx(root / 10, rel=1e-12)
        assert distributions._nb_refine(root * 10, root * 100, *search) == pytest.approx(root * 10, rel=1e-12)

    def test_flat_likelihood_keeps_the_smallest_flat_grid_n(self):
        """Near-Poisson counts: the likelihood is flat to tolerance over the top
        of the n grid, the refined n scores below the grid's best, and the fit
        keeps the smallest flat grid point; a run flat up to the bound is
        flagged degenerate."""
        scores = [0, 1, 3, 0, 1, 1, 0, 0, 0, 1, 1, 1, 3, 1, 1, 0, 0, 0, 2, 4, 1, 0, 1, 0]
        scores += [1, 3, 3, 1, 1, 3, 1, 2, 2, 2, 2, 2, 3, 3, 3, 0, 0, 2, 2, 4, 3, 2, 3, 0]
        grid = np.exp(np.linspace(math.log(distributions._N_LOWER), math.log(distributions._N_UPPER), 64))
        fitted = fit_nb(scores)
        assert fitted.params.n == grid[60]
        assert fitted.degenerate

    def test_non_integer_scores_rejected(self):
        scores = seeded_nb_sample(8.0, 0.04, 100)
        with pytest.raises(InvalidParams):
            fit_nb([s + 0.5 for s in scores])

    def test_scores_beyond_count_range_rejected(self):
        with pytest.raises(InvalidParams):
            fit_nb([200] * 20 + [10**8])

    def test_constant_sample_underdispersed(self):
        with pytest.raises(UnderdispersedSample):
            fit_nb([200] * 50)

    def test_underdispersed_raises_by_default(self):
        # variance of an alternating sample is far below its mean
        scores = [200, 201] * 25
        with pytest.raises(UnderdispersedSample):
            fit_nb(scores)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            fit_nb([180, 210, 240])

    def test_negative_scores_rejected(self):
        with pytest.raises(InvalidParams):
            fit_nb([-1] + [200] * 20)

    def test_all_zero_sample_rejected(self):
        with pytest.raises(UnderdispersedSample):
            fit_nb([0] * 20)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.floats(min_value=1.0, max_value=30.0),
        mean=st.floats(min_value=30.0, max_value=320.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_profile_identity_property(self, n, mean, seed):
        p = n / (n + mean)
        scores = sample_scores(FittedDist.negbin(n, p), 300, seed)
        sample_mean = sum(scores) / len(scores)
        sample_var = float(np.var(scores, ddof=1))
        if sample_var <= sample_mean or sample_mean == 0:
            return
        fitted = fit_nb(scores)
        if fitted.degenerate:
            return
        assert fitted.params.mean == pytest.approx(sample_mean, rel=1e-6)


def _reference_loglik(n, tails, size, xbar):
    """The profile log-likelihood as fit_nb computed it in 0.17.0, one array expression per call."""
    n = np.asarray(n, dtype=float)
    j = np.arange(tails.size, dtype=float)
    spread = np.log1p((j - xbar) / (n[..., None] + xbar)) @ tails
    return spread - tails @ np.log1p(j) - size * n * np.log1p(xbar / n) + size * xbar * math.log(xbar)


def _reference_score(n, tails, size, xbar):
    j = np.arange(tails.size, dtype=float)
    return float(tails @ (1.0 / (n + j))) - size * math.log1p(xbar / n)


def _reference_slope(n, tails, size, xbar):
    row = 1.0 / (n + np.arange(tails.size, dtype=float))
    return size * xbar / (n * (n + xbar)) - float(tails @ (row * row))


def _false_position_refine(lo, hi, tails, size, xbar, tol):
    """False position on log(n) with a bisection safeguard, as in 0.17.0."""

    def score(t):
        return _reference_score(math.exp(t), tails, size, xbar)

    lo, hi = math.log(lo), math.log(hi)
    f_lo, f_hi = score(lo), score(hi)
    if f_lo <= 0.0:
        return math.exp(lo)
    if f_hi >= 0.0:
        return math.exp(hi)
    halve = False
    while hi - lo > tol:
        width = hi - lo
        t = hi - f_hi * width / (f_hi - f_lo)
        if halve or not lo < t < hi:
            t = 0.5 * (lo + hi)
        f = score(t)
        if f > 0.0:
            lo, f_lo = t, f
        elif f < 0.0:
            hi, f_hi = t, f
        else:
            return math.exp(t)
        halve = hi - lo > 0.5 * width
    return math.exp(0.5 * (lo + hi))


def _reference_refine(lo, hi, tails, size, xbar, tol):
    """Newton on log(n) from a false position start, with bisection steps, as in 0.24.0."""
    f_lo, f_hi = _reference_score(lo, tails, size, xbar), _reference_score(hi, tails, size, xbar)
    if f_lo <= 0.0:
        return lo
    if f_hi >= 0.0:
        return hi
    lo, hi = math.log(lo), math.log(hi)
    t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
    step = hi - lo
    while True:
        n = math.exp(t)
        f, slope = _reference_score(n, tails, size, xbar), _reference_slope(n, tails, size, xbar)
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


def _reference_fit_nb(scores, refine=_reference_refine):
    """(n, p, log_likelihood, degenerate) from 0.17.0's fit_nb with 0.24.0's
    refine (or the one given), or None for a sample whose variance does not
    exceed its mean. Tail counts, mean and variance are computed here as
    0.17.0 computed them, not by the library."""
    xs = np.asarray(scores, dtype=float)
    tails = (xs.size - np.cumsum(np.bincount(xs.astype(np.int64)))[:-1]).astype(float)
    size, xbar, var = int(xs.size), float(xs.mean()), float(xs.var(ddof=1))
    if var <= xbar:
        return None
    grid = np.exp(np.linspace(math.log(distributions._N_LOWER), math.log(distributions._N_UPPER), 64))
    step = max(1, (1 << 20) // tails.size)
    values = np.concatenate(
        [_reference_loglik(grid[k : k + step], tails, size, xbar) for k in range(0, grid.size, step)]
    )
    best = float(values.max())
    flat = values >= best - 1e-9 * max(1.0, abs(best))
    i = int(np.nonzero(flat)[0][0])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    n_hat = refine(lo, hi, tails, size, xbar, distributions._N_REL_TOL)
    ll = float(_reference_loglik(n_hat, tails, size, xbar))
    if ll < best:
        n_hat = float(grid[i])
        ll = float(_reference_loglik(n_hat, tails, size, xbar))
    return n_hat, n_hat / (n_hat + xbar), ll, bool(flat[-1]) or n_hat >= 0.999 * distributions._N_UPPER


def _golden_cases() -> list:
    dataset = categorize(parse_matches(GOLDEN_MATCHES))
    return [
        pytest.param(scores, id=f"{venue}-{label.value}")
        for venue, cases in dataset.items()
        for label, scores in cases.items()
    ]


#: Every container the library takes a sample in, each holding the same scores.
SAMPLE_CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "int64": lambda scores: np.array(scores, dtype=np.int64),
    "int32": lambda scores: np.array(scores, dtype=np.int32),
    "integral floats": lambda scores: [float(x) for x in scores],
    "float64": lambda scores: np.array(scores, dtype=np.float64),
}


def _assert_fit_bits(scores):
    expected = _reference_fit_nb(scores)
    for name, container in SAMPLE_CONTAINERS.items():
        if expected is None:
            with pytest.raises(UnderdispersedSample):
                fit_nb(container(scores), SMALL)
            continue
        fitted = fit_nb(container(scores), SMALL)
        got = (fitted.params.n, fitted.params.p, fitted.log_likelihood, fitted.degenerate)
        assert got == expected, name


class TestFitNbBits:
    """fit_nb's n, p, log-likelihood and degenerate flag are held, bit for bit,
    to a copy of the 0.17.0 computation from its tail counts, mean and
    variance on, with 0.24.0's Newton refine in place of false position, for
    a sample in every container the library accepts: a change to how the fit
    reads its sample or evaluates its likelihood and score may save time but
    may not move a bit."""

    @pytest.mark.parametrize("scores", _golden_cases())
    def test_every_golden_case(self, scores):
        if len(scores) < 2:
            with pytest.raises(InsufficientSample):
                fit_nb(scores, SMALL)
        else:
            _assert_fit_bits(scores)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=450), min_size=2, max_size=120))
    @example([0, 1, 3, 0, 1, 1, 0, 0, 0, 1, 1, 1, 3, 1, 1, 0, 0, 0, 2, 4, 1, 0, 1, 0, 5, 2])
    @example([0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2000])
    # the moment estimate n0 = mean**2 / (var - mean) below the grid (6.7e-4), and the root below it too
    @example([0] * 1500 + [400])
    # n0 above the grid (2.2e6), and the root past its top
    @example([53, 54, 56, 57, 58, 58, 58, 59, 60, 60, 62, 64, 65, 65, 65, 66, 67, 67, 69, 69, 69, 70, 73, 74]
             + [75, 76, 76, 77, 78, 79, 80, 80])
    # the root past the top with the likelihood flat from grid point 60 up, 26 points above n0's
    @example([0, 1, 3, 0, 1, 1, 0, 0, 0, 1, 1, 1, 3, 1, 1, 0, 0, 0, 2, 4, 1, 0, 1, 0]
             + [1, 3, 3, 1, 1, 3, 1, 2, 2, 2, 2, 2, 3, 3, 3, 0, 0, 2, 2, 4, 3, 2, 3, 0])
    # the fitted grid point three above n0's, then three below it
    @example([6, 6, 6, 3, 10, 8, 7, 13, 5])
    @example([13, 1, 20, 17, 18, 14, 0, 23, 14, 14, 9, 13])
    def test_overdispersed_samples(self, scores):
        xs = np.asarray(scores, dtype=float)
        assume(xs.var(ddof=1) > xs.mean())
        _assert_fit_bits(scores)

    @pytest.mark.parametrize(
        "scores",
        [
            seeded_nb_sample(8.0, 0.04, 60, seed=3),
            [0] * 1500 + [400],
            [0, 1, 3, 0, 1, 1, 0, 0, 0, 1, 1, 1, 3, 1, 1, 0, 0, 0, 2, 4, 1, 0, 1, 0]
            + [1, 3, 3, 1, 1, 3, 1, 2, 2, 2, 2, 2, 3, 3, 3, 0, 0, 2, 2, 4, 3, 2, 3, 0],
            [6, 6, 6, 3, 10, 8, 7, 13, 5],
            [13, 1, 20, 17, 18, 14, 0, 23, 14, 14, 9, 13],
        ],
        ids=["typical", "below-the-grid", "flat-to-the-top", "three-above-n0", "three-below-n0"],
    )
    def test_each_grid_point_is_evaluated_once(self, scores, monkeypatch):
        """The walk, the walk down a flat likelihood, the fallback to a grid
        point and the degenerate check share one evaluation per grid point."""
        calls: dict[float, int] = {}
        loglik = distributions._NbProfile.loglik

        def counted(profile, n):
            calls[n] = calls.get(n, 0) + 1
            return loglik(profile, n)

        monkeypatch.setattr(distributions._NbProfile, "loglik", counted)
        fit_nb(scores, SMALL)
        on_grid = {n: count for n, count in calls.items() if n in set(distributions._N_GRID.tolist())}
        assert on_grid and max(on_grid.values()) == 1, on_grid

    def test_concurrent_fits_share_no_scratch(self):
        """Each fit evaluates its score in a row of its own, so threads fitting
        samples of one length at once get the bits of a fit run alone."""
        samples = [seeded_nb_sample(8.0, 0.04, 40, seed)[:-1] + [3000] for seed in range(12)]
        assert {max(s) for s in samples} == {3000}  # one length of tail counts, so one row size
        alone = [fit_nb(s) for s in samples]
        orders = {i: [(i + step) % len(samples) for step in range(3 * len(samples))] for i in range(8)}
        results: dict[int, list[FittedDist]] = {}

        def worker(index: int) -> None:
            results[index] = [fit_nb(samples[k]) for k in orders[index]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(results[i] == [alone[k] for k in order] for i, order in orders.items())


def _benchmark_fit_samples() -> list[list[int]]:
    """Every case of the golden data and of the benchmark's paper_dataset(5)
    and thin_venues_dataset seeds 101, 102 and 701 (50 venues each)."""
    spec = importlib.util.spec_from_file_location("_bench_inputs", BENCH_INPUTS)
    inputs = sys.modules["_bench_inputs"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(inputs)
        datasets = [inputs.paper_dataset(5)] + [inputs.thin_venues_dataset(seed, 50) for seed in (101, 102, 701)]
    finally:
        del sys.modules["_bench_inputs"]
    golden = categorize(parse_matches(GOLDEN_MATCHES))
    samples = [list(scores) for cases in golden.values() for scores in cases.values()]
    for dataset in datasets:
        samples += [xs.tolist() for cases in dataset.samples.values() for xs in cases.values()]
    return samples


class TestNewtonRefine:
    """The dispersion's Newton refine finds the root false position found
    (0.17.0 to 0.23.0), to the fit's tolerance, in fewer score evaluations."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=450), min_size=2, max_size=120))
    @example([0, 1, 3, 0, 1, 1, 0, 0, 0, 1, 1, 1, 3, 1, 1, 0, 0, 0, 2, 4, 1, 0, 1, 0, 5, 2])
    @example([0] * 1500 + [400])
    @example([6, 6, 6, 3, 10, 8, 7, 13, 5])
    def test_root_agrees_with_false_position(self, scores):
        xs = np.asarray(scores)
        assume(xs.var(ddof=1) > xs.mean())
        n, _, _, degenerate = _reference_fit_nb(scores, _false_position_refine)
        fitted = fit_nb(scores, SMALL)
        profile = distributions._NbProfile(distributions._tail_counts(xs), int(xs.size), float(xs.mean()))
        slope = fitted.params.n * profile.score_and_slope(fitted.params.n)[1]
        # Where the score's roundoff over its slope in log(n) passes about 1e-9 (near-Poisson samples, n past
        # about 2e4), float arithmetic does not fix the root to the tolerance: both refines land within that
        # roundoff of a 50-digit root, not within the tolerance of each other.
        assume(EPS * xs.size * math.log1p(profile.xbar / fitted.params.n) < 1e-10 * -slope)
        assert abs(math.log(fitted.params.n) - math.log(n)) <= distributions._N_REL_TOL
        assert fitted.degenerate == degenerate

    def test_benchmark_fits_agree_with_false_position(self, monkeypatch):
        """On 596 fits: n within tolerance of the false-position root, the
        same degenerate flag (set on one of them), and at most 9 score
        evaluations per fit, where false position took about 21."""
        evaluations = []
        score = distributions._NbProfile._score
        monkeypatch.setattr(distributions._NbProfile, "_score", lambda *args: evaluations.append(1) or score(*args))
        fits, flagged = 0, 0
        for scores in _benchmark_fit_samples():
            expected = _reference_fit_nb(scores, _false_position_refine) if len(scores) >= 10 else None
            if expected is None:
                with pytest.raises((InsufficientSample, UnderdispersedSample)):
                    fit_nb(scores)
                continue
            fitted = fit_nb(scores)
            assert abs(math.log(fitted.params.n) - math.log(expected[0])) <= distributions._N_REL_TOL
            assert fitted.degenerate == expected[3]
            fits, flagged = fits + 1, flagged + fitted.degenerate
        assert (fits, flagged) == (596, 1)
        assert len(evaluations) <= 9 * fits

    @pytest.mark.parametrize("n", [0.05, 0.5, 2.0, 8.0, 30.0, 120.0])
    @pytest.mark.parametrize("scores", [seeded_nb_sample(8.0, 0.04, 200, seed=2), seeded_nb_sample(1.5, 0.1, 60, seed=4)])
    def test_slope_is_the_central_difference_of_the_score(self, scores, n):
        xs = np.asarray(scores)
        profile = distributions._NbProfile(distributions._tail_counts(xs), int(xs.size), float(xs.mean()))
        score, slope = profile.score_and_slope(n)
        h = 1e-5 * n
        assert score == profile.score(n)
        assert slope == pytest.approx((profile.score(n + h) - profile.score(n - h)) / (2 * h), rel=1e-6)


class TestMomentFits:
    def test_normal_two_point_sample(self):
        fitted = fit_normal([190, 210], SMALL)
        assert isinstance(fitted.params, NormalParams)
        assert fitted.params.mu == pytest.approx(200.0)
        assert fitted.params.sigma == pytest.approx(math.sqrt(200.0))

    def test_logistic_two_point_sample(self):
        fitted = fit_logistic([190, 210], SMALL)
        assert isinstance(fitted.params, LogisticParams)
        assert fitted.params.mu == pytest.approx(200.0)
        assert fitted.params.s == pytest.approx(math.sqrt(3.0 * 200.0) / math.pi)

    def test_normal_cdf_at_mean_is_half(self):
        fitted = fit_normal([180, 190, 200, 210, 220], SMALL)
        assert cdf(fitted, int(fitted.params.mu)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            fit_normal([200] * 30)
        with pytest.raises(ZeroVariance):
            fit_logistic([200] * 30)

    def test_logistic_variance_matches_sample(self):
        scores = seeded_nb_sample(8.0, 0.04, 2000, seed=9)
        fitted = fit_logistic(scores)
        sample_var = float(np.var(scores, ddof=1))
        implied = fitted.params.s**2 * math.pi**2 / 3.0
        assert implied == pytest.approx(sample_var, rel=1e-9)

    def test_dispatcher_routes_families(self):
        scores = seeded_nb_sample(8.0, 0.04, 200, seed=1)
        assert fit(scores, Family.NEGBIN).family is Family.NEGBIN
        assert fit(scores, Family.NORMAL).family is Family.NORMAL
        assert fit(scores, Family.LOGISTIC).family is Family.LOGISTIC


#: Ten valid scores, overdispersed, that a rejected score is put in front of.
VALID_SCORES = [180, 210, 240, 150, 300, 95, 260, 205, 330, 120]


def _rejection(fitter, scores) -> tuple[type, str]:
    """The type and message of the error fitter raises on scores."""
    with pytest.raises(FairchaseError) as caught:
        fitter(scores)
    return caught.type, str(caught.value)


class TestFitRejections:
    """The exception type and message of every finite sample a fit rejects."""

    @pytest.mark.parametrize("fitter", [fit_nb, fit_normal, fit_logistic])
    def test_too_few_scores(self, fitter):
        assert _rejection(fitter, [180, 210, 240]) == (InsufficientSample, "need at least 10 scores, got 3")

    @pytest.mark.parametrize("fitter", [fit_nb, fit_normal, fit_logistic])
    def test_negative_score(self, fitter):
        assert _rejection(fitter, [-1] + VALID_SCORES) == (InvalidParams, "scores must be non-negative")

    @pytest.mark.parametrize("fitter, name", [(fit_normal, "normal"), (fit_logistic, "logistic")])
    def test_identical_scores(self, fitter, name):
        assert _rejection(fitter, [200] * 30) == (ZeroVariance, f"all scores identical; {name} fit undefined")

    def test_fractional_count_model_score(self):
        assert _rejection(fit_nb, [200.5] + VALID_SCORES) == (InvalidParams, "count-model scores must be integers")

    @pytest.mark.parametrize(
        "scores",
        [[10_000_001] + VALID_SCORES, [2**70] + VALID_SCORES, np.array([2**64 - 1] + VALID_SCORES, dtype=np.uint64)],
        ids=["past-the-count-range", "past-int64", "uint64-max"],
    )
    def test_count_model_score_too_large(self, scores):
        message = "count-model scores above 10000000 are not supported"
        assert _rejection(fit_nb, scores) == (InvalidParams, message)

    def test_underdispersed_sample(self):
        message = "sample variance 0.255 <= mean 200.500; the count model cannot represent this sample"
        assert _rejection(fit_nb, [200, 201] * 25) == (UnderdispersedSample, message)


class TestNonFiniteScores:
    """A NaN, a None or an infinity among the scores is rejected as such by
    every fit, with no numpy warning on the way."""

    @pytest.mark.parametrize("fitter", [fit_nb, fit_normal, fit_logistic])
    @pytest.mark.parametrize(
        "sample",
        [
            [math.nan] + VALID_SCORES,
            [None] + VALID_SCORES,
            VALID_SCORES + [math.inf],
            np.array([math.nan] + VALID_SCORES),
            [-1, math.nan] + VALID_SCORES,
        ],
        ids=["nan", "none", "inf", "nan-array", "negative-and-nan"],
    )
    def test_rejected_as_not_finite(self, fitter, sample):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _rejection(fitter, sample) == (InvalidParams, "scores must be finite")

    @pytest.mark.parametrize("fitter", [fit_nb, fit_normal, fit_logistic])
    def test_negative_infinity_is_a_negative_score(self, fitter):
        assert _rejection(fitter, [-math.inf] + VALID_SCORES) == (InvalidParams, "scores must be non-negative")


#: Inputs that are not a sample, each built afresh per test, with at least ten values where it holds any.
NOT_A_SAMPLE = {
    "nested-list": lambda: [[1, 2, 30], [4, 5, 60], [7, 8, 90], [1, 50, 3]],
    "ragged-list": lambda: [[180, 210], [240]] + VALID_SCORES,
    "2-d-integer-array": lambda: np.array(VALID_SCORES * 2).reshape(4, 5),
    "digit-strings": lambda: ["200", "1", "30", "5", "7", "90", "3", "15", "200", "0"],
    "letters": lambda: ["a"] * 12,
    "one-string": lambda: "1803002104150",
    "string-beside-none": lambda: [None, "200"] + VALID_SCORES,
    "bools": lambda: [True, False, False] * 4,
    "bool-array": lambda: np.array([True, False, False] * 4),
    "bool-beside-a-huge-int": lambda: [True, 2**70] + VALID_SCORES,
    "complex": lambda: [1j] + VALID_SCORES,
    "dict": lambda: dict(enumerate(VALID_SCORES)),
    "set": lambda: set(VALID_SCORES),
    "generator": lambda: (score for score in VALID_SCORES),
    "int-past-the-float-range": lambda: [10**400] + VALID_SCORES,
}


class TestFitInputs:
    """A sample is one dimension of numbers; anything else is rejected by
    every fit as InvalidParams, never as a numpy or Python error, and never
    read as scores."""

    @pytest.mark.parametrize("fitter", [fit_nb, fit_normal, fit_logistic])
    @pytest.mark.parametrize("make", NOT_A_SAMPLE.values(), ids=NOT_A_SAMPLE.keys())
    def test_rejected_as_not_a_sample(self, fitter, make):
        message = "scores must be a one-dimensional sequence of numbers"
        assert _rejection(fitter, make()) == (InvalidParams, message)

    @pytest.mark.parametrize("fitter", [fit_nb, fit_normal, fit_logistic])
    @pytest.mark.parametrize(
        "sample",
        [range(0, 400, 40), [np.int64(x) for x in VALID_SCORES], np.array(VALID_SCORES, dtype=np.uint16)[::-1]],
        ids=["range", "numpy-ints", "reversed-uint16"],
    )
    def test_number_sequences_fit_as_a_list(self, fitter, sample):
        assert fitter(sample) == fitter([int(x) for x in sample])


#: Inputs that pmf, cdf and survival refuse: bools, lists and anything else
#: that is neither an integer nor an integer numpy array.
NOT_A_SCORE = {
    "true": True,
    "numpy-bool": np.bool_(True),
    "float": 5.0,
    "numpy-float": np.float64(5.0),
    "digit-string": "5",
    "none": None,
    "list": [1, 2],
    "nested-list": [[1, 2], [3, 4]],
    "tuple": (1, 2),
    "bool-array": np.array([True, False]),
}

#: Inputs that quantile refuses: bools, lists and anything else that is
#: neither a number nor a numeric numpy array.
NOT_A_PROBABILITY = {
    "true": True,
    "false": False,
    "numpy-bool": np.bool_(True),
    "digit-string": "0.5",
    "none": None,
    "complex": 0.5j,
    "list": [0.5, 0.9],
    "bool-array": np.array([True, False]),
    "0-d-bool-array": np.array(True),
    "string-array": np.array(["0.5"]),
}


def _refusal(x, noun: str) -> str:
    """The InvalidParams message an evaluator gives for x, by its type or an array's dtype."""
    return f"^{noun}, got dtype {x.dtype}$" if isinstance(x, np.ndarray) else f"^{noun}, got {type(x).__name__}$"


class TestEvaluatorInputs:
    """pmf, cdf and survival take an integer or an integer numpy array, and
    quantile a number or a numeric numpy array; anything else raises
    InvalidParams, never a numpy or Python error, and is never answered."""

    @pytest.mark.parametrize("fn", [pmf, cdf, survival])
    @pytest.mark.parametrize("x", NOT_A_SCORE.values(), ids=NOT_A_SCORE.keys())
    def test_not_a_score(self, fn, x):
        with pytest.raises(InvalidParams, match=_refusal(x, "scores must be integers")):
            fn(GEOMETRIC, x)

    @pytest.mark.parametrize("q", NOT_A_PROBABILITY.values(), ids=NOT_A_PROBABILITY.keys())
    def test_not_a_probability(self, q):
        array = isinstance(q, np.ndarray)
        noun = "quantile probabilities must be numbers" if array else "quantile probability must be a number"
        with pytest.raises(InvalidParams, match=_refusal(q, noun)):
            quantile(GEOMETRIC, q)

    @pytest.mark.parametrize("x", [np.int64(3), np.uint8(3), np.int32(-1)], ids=["int64", "uint8", "int32"])
    def test_numpy_integer_scalars_are_scores(self, x):
        for fn in (pmf, cdf, survival):
            got = fn(GEOMETRIC, x)
            assert type(got) is float and got == fn(GEOMETRIC, int(x))

    @pytest.mark.parametrize(
        "q", [0, np.int64(0), np.float32(0.75), np.float64(0.76)], ids=["int", "numpy-int", "float32", "float64"]
    )
    def test_numbers_are_probabilities(self, q):
        assert quantile(GEOMETRIC, q) == quantile(GEOMETRIC, float(q))


class TestSerialization:
    def entries(self):
        scores = seeded_nb_sample(8.0, 0.04, 100, seed=4)
        return [
            ("Sydney", "BatFirstWin", fit_nb(scores)),
            ("Sydney", "BatSecondWin", fit_normal(scores)),
            ("overall", "BatFirstWin", fit_logistic(scores)),
        ]

    def test_round_trip(self):
        entries = self.entries()
        assert fitted_from_json(fitted_to_json(entries)) == entries

    def test_dict_fields(self):
        doc = fitted_to_dict(FittedDist.negbin(8.0, 0.04), "Sydney", "BatFirstWin")
        assert doc["venue"] == "Sydney"
        assert doc["case"] == "BatFirstWin"
        assert doc["family"] == "negbin"
        assert doc["params"] == {"n": 8.0, "p": 0.04}
        assert doc["degenerate_flag"] is False

    def test_grown_table_leaves_no_trace(self):
        """A negbin fit whose cumulative-mass table has grown serializes,
        compares, hashes and prints as a fresh one, and pickles to the same CDF."""
        grown, fresh = FittedDist.negbin(8.0, 0.04), FittedDist.negbin(8.0, 0.04)
        cdf(grown, 3000)
        doc = fitted_to_dict(grown, "Sydney", "BatFirstWin")
        assert json.dumps(doc) == json.dumps(fitted_to_dict(fresh, "Sydney", "BatFirstWin"))
        assert grown == fresh and hash(grown) == hash(fresh) and repr(grown) == repr(fresh)
        assert fitted_from_dict(doc) == ("Sydney", "BatFirstWin", fresh)
        scores = np.arange(-1, 3001)
        assert cdf(pickle.loads(pickle.dumps(grown)), scores).tolist() == cdf(fresh, scores).tolist()

    def test_deserialization_validates(self):
        doc = fitted_to_dict(FittedDist.negbin(8.0, 0.04), "Sydney", "BatFirstWin")
        doc["params"]["p"] = 1.5
        with pytest.raises(InvalidParams):
            fitted_from_dict(doc)

    def test_unknown_family_rejected(self):
        doc = fitted_to_dict(FittedDist.negbin(8.0, 0.04), "Sydney", "BatFirstWin")
        doc["family"] = "poisson"
        with pytest.raises(InvalidParams):
            fitted_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("degenerate_flag", "false"),
            ("degenerate_flag", 0),
            ("sample_size", 12.9),
            ("sample_size", 12.0),
            ("sample_size", True),
            ("sample_size", "12"),
            ("log_likelihood", True),
            ("log_likelihood", "-3.5"),
            ("log_likelihood", None),
            ("params", {"n": True, "p": 0.04}),
            ("params", {"n": 10**400, "p": 0.04}),
            ("venue", None),
            ("case", 7),
        ],
    )
    def test_field_types_checked_not_coerced(self, key, value):
        doc = fitted_to_dict(FittedDist.negbin(8.0, 0.04), "Sydney", "BatFirstWin")
        doc[key] = value
        with pytest.raises(InvalidParams, match="malformed fitted-distribution document"):
            fitted_from_dict(doc)

    @pytest.mark.parametrize("dist", [FittedDist.normal(250.0, 40.0), FittedDist.logistic(250.0, 20.0)])
    def test_continuous_params_checked_not_coerced(self, dist):
        doc = fitted_to_dict(dist, "Sydney", "BatFirstWin")
        doc["params"] = dict.fromkeys(doc["params"], True)
        with pytest.raises(InvalidParams, match="malformed fitted-distribution document"):
            fitted_from_dict(doc)

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("not json", "Expecting value"),
            ("5", "expected an array, got int"),
            ("null", "expected an array, got NoneType"),
            ('{"a": 1}', "expected an array, got dict"),
            ("[" * 100_000, "recursion"),
        ],
        ids=["not-json", "number", "null", "object", "nested-too-deep"],
    )
    def test_text_not_a_json_array_rejected(self, text, detail):
        with pytest.raises(InvalidParams, match=f"^malformed fitted-distribution JSON: .*{detail}"):
            fitted_from_json(text)

    def test_well_typed_fields_load(self):
        doc = fitted_to_dict(FittedDist.negbin(8.0, 0.04), "Sydney", "BatFirstWin")
        doc.update(sample_size=12, log_likelihood=-3, degenerate_flag=True)
        _, _, dist = fitted_from_dict(doc)
        assert (dist.sample_size, dist.log_likelihood, dist.degenerate) == (12, -3.0, True)
        del doc["degenerate_flag"]
        assert fitted_from_dict(doc)[2].degenerate is False


class TestQuantileNoWarningOnNormalUse:
    def test_ordinary_quantiles_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quantile(FittedDist.negbin(8.0, 0.04), 0.999)
            quantile(FittedDist.normal(200.0, 30.0), 0.999)
