"""Source-term catalog, Lipschitz measurement and smallness thresholds.

Frozen values below were computed independently with mpmath:
  pi/sqrt(2)               = 2.2214414690791831235
  pi/(4*sqrt(e-1))         = 0.59915982151306025954
  pi/(4*pi*sqrt(e-1))      = 0.19071849459172254468
"""

import math

import numpy as np
import pytest

from epigraph_lab import (
    UNBOUNDED,
    ValidationError,
    make_nonlinearity,
    eval_f,
    eval_f_prime,
    lipschitz_on,
    epsilon_bounded,
    epsilon_growth,
    gamma_max,
    growth_lower_bound,
)

EPS_AT_1 = 2.2214414690791831235
GAMMA_AT_1 = 0.59915982151306025954
GAMMA_AT_PI = 0.19071849459172254468


@pytest.mark.parametrize("L,expected", [
    (1.0, EPS_AT_1),
    (math.pi ** 2 / 2.0, 1.0),
])
def test_epsilon_bounded_values(L, expected):
    got = epsilon_bounded(L)
    assert abs(got - expected) <= 1e-9 * abs(expected)


def test_epsilon_bounded_zero_slope_needs_no_smallness():
    assert epsilon_bounded(0.0) is UNBOUNDED
    assert epsilon_growth(0.0, 0.0) == UNBOUNDED


def test_epsilon_growth_reduces_to_bounded_case():
    assert epsilon_growth(1.0, 0.0) == epsilon_bounded(1.0)


def test_epsilon_growth_pure_slope():
    got = epsilon_growth(0.0, 1.0)
    assert abs(got - GAMMA_AT_1) <= 1e-9 * GAMMA_AT_1


@pytest.mark.parametrize("S,expected", [
    (1.0, GAMMA_AT_1),
    (math.pi, GAMMA_AT_PI),
])
def test_gamma_max_values(S, expected):
    assert abs(gamma_max(S) - expected) <= 1e-9 * expected


def test_gamma_max_halves_when_width_doubles():
    S = 0.8
    assert gamma_max(2 * S) == pytest.approx(gamma_max(S) / 2, rel=1e-14)


def test_epsilon_monotone_in_slope():
    vals = [epsilon_growth(1.0, g) for g in (0.0, 0.1, 0.3)]
    assert vals[0] > vals[1] > vals[2]


def test_growth_lower_bound_first_steps():
    h = math.sqrt(math.e - 1.0)
    # exponent (R-A)/h - 1 vanishes one step up, reaches 1 two steps up
    assert growth_lower_bound(1.0, 1.0, 1.0, 1.0 + h) == pytest.approx(
        1.0, rel=1e-12)
    assert growth_lower_bound(1.0, 1.0, 1.0, 1.0 + 2 * h) == pytest.approx(
        math.e, rel=1e-12)


def test_growth_lower_bound_quadrupled_rate_halves_step():
    a = growth_lower_bound(1.0, 1.0, 2.0, 5.0)
    b = growth_lower_bound(4.0, 1.0, 2.0, 5.0)
    assert math.log(b / 2.0) == pytest.approx(2 * math.log(a / 2.0) + 1,
                                              rel=1e-12)


def test_growth_lower_bound_below_first_step():
    with pytest.raises(ValidationError):
        growth_lower_bound(1.0, 1.0, 1.0, 1.5)


def test_threshold_argument_validation():
    with pytest.raises(ValidationError):
        epsilon_bounded(-2.0)
    with pytest.raises(ValidationError):
        gamma_max(0.0)
    with pytest.raises(ValidationError):
        epsilon_growth(1.0, -0.5)
    with pytest.raises(ValidationError):
        growth_lower_bound(1.0, 0.0, 1.0, 5.0)


@pytest.mark.parametrize("kind,params,t,expected", [
    ("linear", {"slope": 1.0}, 0.3, 0.3),
    ("constant", {"value": 2.0}, 9.9, 2.0),
    ("double_front_source", {}, 0.0, 0.0),
    ("double_front_source", {}, 1.0, 0.0),
    ("sqrt_saturation", {}, 0.0, 12.0),
    ("sqrt_saturation", {}, 1.0, 0.0),
    ("sqrt_saturation", {}, 0.25, 12.0 * math.sqrt(0.75)),
    ("sqrt_saturation", {}, 2.0, 0.0),
    ("allen_cahn", {}, 0.0, 0.0),
    ("allen_cahn", {}, 1.0, 0.0),
    ("allen_cahn", {}, 0.5, 0.375),
])
def test_eval_f_catalog_values(kind, params, t, expected):
    f = make_nonlinearity(kind, **params)
    assert eval_f(f, t) == pytest.approx(expected, abs=1e-14)


def test_sqrt_saturation_extends_constant_below_zero():
    f = make_nonlinearity("sqrt_saturation")
    assert eval_f(f, -1.0) == 12.0
    assert f.f0 == 12.0


def test_power_clamps_below_zero():
    f = make_nonlinearity("power", exponent=0.5)
    assert eval_f(f, -1.0) == 0.0
    assert eval_f(f, 4.0) == pytest.approx(2.0)


def test_eval_f_vectorized():
    f = make_nonlinearity("allen_cahn")
    ts = np.array([0.0, 0.5, 1.0])
    out = eval_f(f, ts)
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[2] == 0.0


@pytest.mark.parametrize("kind,params,interval,expected", [
    ("linear", {"slope": -1.5}, (0.0, 5.0), 1.5),
    ("constant", {"value": 3.0}, (0.0, 1.0), 0.0),
    ("allen_cahn", {}, (0.0, 1.0), 2.0),
    ("sqrt_saturation", {}, (0.0, 0.75), 12.0),
    ("power", {"exponent": 2.0}, (0.0, 3.0), 6.0),
])
def test_lipschitz_on_formulas(kind, params, interval, expected):
    f = make_nonlinearity(kind, **params)
    assert lipschitz_on(f, interval) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind,params,interval", [
    ("power", {"exponent": 0.5}, (0.0, 1.0)),
    ("sqrt_saturation", {}, (0.0, 1.0)),
    ("double_front_source", {}, (0.0, 1.0)),
    # a finite sup past the float range: m ** (q - 1) raised OverflowError
    ("power", {"exponent": 0.01}, (1e-320, 1.0)),
])
def test_lipschitz_unbounded_where_slope_blows_up(kind, params, interval):
    f = make_nonlinearity(kind, **params)
    assert lipschitz_on(f, interval) is UNBOUNDED


@pytest.mark.parametrize("exponent,interval", [
    (3.0, (-1e200, 1e200)),    # M ** (q - 1) raises OverflowError
    (2.0, (0.0, 1.7e308)),     # q * M ** (q - 1) rounds to inf
])
def test_power_lipschitz_overflow_is_validation_error(exponent, interval):
    f = make_nonlinearity("power", exponent=exponent)
    with pytest.raises(ValidationError, match="overflows"):
        lipschitz_on(f, interval)


@pytest.mark.parametrize("interval", [
    (-1e200, 1e200),           # 3 M^2 rounds to inf at both ends
    (0.0, 1.7e308),
])
def test_allen_cahn_lipschitz_overflow_is_validation_error(interval):
    with pytest.raises(ValidationError, match="overflows"):
        lipschitz_on(make_nonlinearity("allen_cahn"), interval)


def test_double_front_source_flat_outside_unit_range():
    f = make_nonlinearity("double_front_source")
    assert lipschitz_on(f, (1.5, 2.0)) == 0.0
    assert lipschitz_on(f, (-3.0, 0.0)) == 0.0


def test_double_front_source_interior_lipschitz_is_finite():
    f = make_nonlinearity("double_front_source")
    L = lipschitz_on(f, (0.1, 0.9))
    assert L != UNBOUNDED
    ts = np.linspace(0.1, 0.9, 5001)
    assert np.abs(eval_f_prime(f, ts)).max() <= L + 1e-9


def test_unbounded_sentinel_dominates_floats():
    assert UNBOUNDED > 1e300
    assert not (UNBOUNDED <= 42.0)
    assert UNBOUNDED == UNBOUNDED
    assert max(3.0, UNBOUNDED) is UNBOUNDED


def test_unbounded_is_plus_infinity():
    assert UNBOUNDED == math.inf
    # pi / sqrt(inf): a non-Lipschitz f leaves no admissible width
    assert epsilon_bounded(UNBOUNDED) == 0.0
    assert epsilon_growth(UNBOUNDED, 1.0) == 0.0


def test_finite_lipschitz_matches_fd_sup_slope():
    f = make_nonlinearity("allen_cahn")
    ts = np.linspace(0.0, 1.0, 20001)
    slopes = np.abs(np.diff(eval_f(f, ts)) / np.diff(ts))
    L = lipschitz_on(f, (0.0, 1.0))
    assert slopes.max() <= L + 1e-6
    assert L <= slopes.max() + 1e-3


def test_fd_slope_diverges_where_unbounded():
    f = make_nonlinearity("power", exponent=0.5)
    eps = 1e-12
    slope = (eval_f(f, eps) - eval_f(f, 0.0)) / eps
    assert slope > 1e5


def test_eval_f_prime_values():
    lin = make_nonlinearity("linear", slope=2.5)
    assert eval_f_prime(lin, 0.7) == 2.5
    ac = make_nonlinearity("allen_cahn")
    assert eval_f_prime(ac, 0.5) == pytest.approx(0.25, rel=1e-13)
    sat = make_nonlinearity("sqrt_saturation")
    assert eval_f_prime(sat, 0.75) == pytest.approx(-12.0, rel=1e-13)


class TestCustomTable:
    def setup_method(self):
        self.f = make_nonlinearity("custom_table",
                                   ts=[0.0, 1.0, 2.0],
                                   fs=[0.0, 2.0, 2.0])

    def test_interpolates(self):
        assert eval_f(self.f, 0.5) == pytest.approx(1.0)
        assert eval_f(self.f, 1.5) == pytest.approx(2.0)

    def test_lipschitz_is_max_segment_slope(self):
        assert lipschitz_on(self.f, (0.0, 2.0)) == pytest.approx(2.0)
        assert lipschitz_on(self.f, (1.0, 2.0)) == pytest.approx(0.0)

    def test_prime_uses_segment_slopes(self):
        assert eval_f_prime(self.f, 0.5) == pytest.approx(2.0)
        assert eval_f_prime(self.f, 1.5) == pytest.approx(0.0)

    def test_rejects_evaluation_past_table(self):
        with pytest.raises(ValidationError):
            eval_f(self.f, 3.0)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValidationError):
            make_nonlinearity("custom_table", ts=[1.0, 0.0], fs=[0.0, 1.0])


def test_monotone_flag_reflects_catalog():
    assert make_nonlinearity("sqrt_saturation").monotone_nonincreasing
    assert make_nonlinearity("constant", value=1.0).monotone_nonincreasing
    assert not make_nonlinearity("allen_cahn").monotone_nonincreasing


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        make_nonlinearity("logistic")
