import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import window_states
from erlangdiff.ctmc import stationary_pmf
from erlangdiff.model import (
    Check,
    ModelParams,
    ValidationError,
    departure_rate,
    derive,
    drift,
)


def _grid_point(dist, k):
    """Scaled coordinate x_k of state k from the pmf window."""
    return float(dist.x[k - dist.k_min])


class TestValidation:
    def test_erlang_c_requires_stability(self):
        with pytest.raises(ValidationError):
            ModelParams(lam=6.0, mu=1.0, n=5, alpha=0.0)
        with pytest.raises(ValidationError):
            ModelParams(lam=5.0, mu=1.0, n=5, alpha=0.0)  # R == n unstable

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, mu=1.0, n=5),
            dict(lam=-1.0, mu=1.0, n=5),
            dict(lam=1.0, mu=0.0, n=5),
            dict(lam=1.0, mu=1.0, n=0),
            dict(lam=1.0, mu=1.0, n=5, alpha=-0.5),
            # lam/mu or alpha/mu past the double range: the layers read only these
            dict(lam=1e-320, mu=1e10, n=1),
            dict(lam=1e300, mu=1e-300, n=1, alpha=1.0),
            dict(lam=0.5, mu=1e300, n=1, alpha=1e-30),
            dict(lam=1.0, mu=1e-300, n=1, alpha=1e300),
        ],
    )
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ValidationError):
            ModelParams(**kwargs)

    def test_rejects_fractional_servers(self):
        with pytest.raises(ValidationError):
            ModelParams(lam=1.0, mu=1.0, n=2.5)


class TestDerive:
    def test_erlang_c_example(self):
        der = derive(ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0))
        assert der.R == 3.0
        assert der.x_inf == 3.0
        assert der.zeta == pytest.approx((3.0 - 5.0) / math.sqrt(3.0), rel=1e-15)

    def test_critical_load(self):
        der = derive(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        assert der.x_inf == 5.0
        assert der.zeta == 0.0

    def test_table3_zeta(self):
        der = derive(ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0))
        assert abs(der.zeta) == pytest.approx(4.48e-2, abs=5e-4)

    def test_overloaded_equilibrium(self):
        der = derive(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        assert der.x_inf == pytest.approx(5.0 + 7.0 / 2.0, rel=1e-15)
        assert der.zeta > 0.0

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=3.4, mu=0.7, n=5, alpha=0.0),
            ModelParams(lam=8.0, mu=1.0, n=5, alpha=0.5),
            ModelParams(lam=2.0, mu=3.0, n=4, alpha=2.0),
        ],
    )
    def test_flow_balance_identity(self, params):
        der = derive(params)
        lhs = params.lam
        rhs = min(der.x_inf, params.n) * params.mu + max(
            der.x_inf - params.n, 0.0
        ) * params.alpha
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # eq form: lam - n mu = (x-n)+ alpha - (x-n)- mu
        diff = params.lam - params.n * params.mu
        alt = (
            max(der.x_inf - params.n, 0.0) * params.alpha
            - max(params.n - der.x_inf, 0.0) * params.mu
        )
        assert diff == pytest.approx(alt, rel=1e-12, abs=1e-12)

    def test_zeta_formulas_coincide(self):
        for lam, n in [(3.0, 5), (4.9, 5), (499.0, 500), (0.3, 1)]:
            der = derive(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0))
            closed = (der.R - n) / math.sqrt(der.R)
            assert der.zeta == pytest.approx(closed, rel=1e-14)


class TestDepartureRate:
    def test_empty_system(self):
        assert departure_rate(derive(ModelParams(lam=1, mu=1, n=5, alpha=0.0)), 0) == 0.0

    def test_capped_at_servers(self):
        assert departure_rate(derive(ModelParams(lam=1, mu=1, n=5, alpha=0.0)), 7) == 5.0

    def test_abandonment_term(self):
        assert departure_rate(derive(ModelParams(lam=1, mu=1, n=5, alpha=2.0)), 7) == 9.0

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            departure_rate(derive(ModelParams(lam=1, mu=1, n=5)), -1)

    @given(k=st.integers(min_value=0, max_value=10_000))
    def test_nondecreasing(self, k):
        der = derive(ModelParams(lam=2.0, mu=1.3, n=7, alpha=0.4))
        assert departure_rate(der, k + 1) >= departure_rate(der, k)


class TestDrift:
    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=8.0, mu=2.0, n=5, alpha=3.0),
        ],
    )
    def test_zero_at_origin(self, params):
        assert drift(derive(params), 0.0) == 0.0

    def test_erlang_c_piecewise_form(self):
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        z = der.zeta
        for x in [-z + 0.3, -z + 2.0]:
            assert drift(der, x) == pytest.approx(z, rel=1e-15)
        for x in [-z - 0.3, -3.0, 0.0]:
            assert drift(der, x) == pytest.approx(-x, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0),
            ModelParams(lam=9.0, mu=1.0, n=5, alpha=1.5),
        ],
    )
    def test_grid_identity(self, params):
        # b(x_k) = delta * (R - d(k)) on every state of the pmf window, per unit mu
        dist = stationary_pmf(params)
        der = dist.derived
        assert dist.k_top >= 10 * params.n
        lhs = drift(der, dist.x)
        rhs = der.delta * (der.R - departure_rate(der, window_states(dist)))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200)
    @given(
        x=st.floats(-50, 50, allow_nan=False),
        y=st.floats(-50, 50, allow_nan=False),
    )
    def test_lipschitz(self, x, y):
        der = derive(ModelParams(lam=6.0, mu=1.7, n=4, alpha=0.9))
        cap = max(1.0, der.a)
        assert abs(drift(der, x) - drift(der, y)) <= cap * abs(x - y) * (1 + 1e-12) + 1e-12

    def test_matched_rates_give_global_linear_drift(self):
        # alpha = mu collapses both branches onto b(x) = -x per unit mu
        der = derive(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        xs = np.linspace(-4.0, 4.0, 33)
        assert np.allclose(drift(der, xs), -xs, rtol=0, atol=1e-15)

    def test_continuous_at_kink(self):
        der = derive(ModelParams(lam=6.0, mu=1.0, n=5, alpha=2.0))
        z = der.zeta
        eps = 1e-10
        assert drift(der, -z - eps) == pytest.approx(drift(der, -z + eps), abs=1e-9)


class TestScaledState:
    """x_k = delta*(k - x_inf) as ``DiscreteStationary.x`` holds it."""

    def test_centering(self):
        dist = stationary_pmf(ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0))
        assert _grid_point(dist, 3) == 0.0

    def test_derived_point(self):
        dist = stationary_pmf(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        assert _grid_point(dist, 5) == pytest.approx(0.5, rel=1e-15)
        assert _grid_point(dist, 5) == -dist.derived.zeta  # exact, bit for bit

    def test_spacing(self):
        dist = stationary_pmf(ModelParams(lam=7.3, mu=1.1, n=9, alpha=0.2))
        x = dist.x
        assert x.size >= 40
        assert np.allclose(np.diff(x), dist.derived.delta, rtol=1e-12)

    def test_kink_on_grid_everywhere(self):
        for lam, n, alpha in [(4.9, 5, 0.0), (499.0, 500, 0.0), (12.0, 5, 2.0)]:
            dist = stationary_pmf(ModelParams(lam=lam, mu=1.0, n=n, alpha=alpha))
            assert _grid_point(dist, n) == -dist.derived.zeta


class TestCheckAtMost:
    def test_equal_to_bound_passes(self):
        row = Check.at_most("r", 2.0, 2.0)
        assert row == Check("r", 2.0, 2.0, True, "strict")

    def test_nan_fails(self):
        assert Check.at_most("r", math.nan, 1.0).satisfied is False
        assert Check.at_most("r", math.nan, 1.0, rtol=1.0, atol=1.0).satisfied is False

    def test_rtol_and_atol_widen_the_bound(self):
        assert Check.at_most("r", 1.1, 1.0).satisfied is False
        assert Check.at_most("r", 1.1, 1.0, rtol=0.2).satisfied is True
        assert Check.at_most("r", 1.1, 1.0, atol=0.2).satisfied is True
        assert Check.at_most("r", 1.1, 1.0, rtol=0.06, atol=0.05).satisfied is True
        assert Check.at_most("r", 1.1, 1.0, rtol=0.04, atol=0.05).satisfied is False

    def test_empirical_has_no_verdict(self):
        row = Check.at_most("r", 5.0, 1.0, mode="empirical")
        assert row == Check("r", 5.0, 1.0, None, "empirical")

    def test_values_are_python_floats(self):
        row = Check.at_most("r", np.float64(0.5), np.float32(1.0))
        assert type(row.observed) is float and type(row.bound) is float
