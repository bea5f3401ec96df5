"""Reflection machinery, cap sweeps and boundary-slope identities.

The two decimal anchors were frozen from 20-digit evaluations:
  tanh(1.5/sqrt(2))        = 0.7859163970696592  (nearest double)
  sech(1/sqrt(2))^2/sqrt(2) = 0.4449754198219432
"""

import math

import numpy as np
import pytest

from epigraph_lab import (
    NumericalError,
    SolutionField,
    ValidationError,
    build_grid,
    cap_sweep,
    double_front_profile,
    hopf_slope_check,
    interval_torsion,
    make_epigraph,
    reflect_field,
    saturating_front,
    strip_set,
    tanh_front,
    vertical_derivative,
)

TANH_REFLECTED = 0.7859163970696592
TANH_SLOPE_AT_1 = 0.4449754198219432


def field_1d(profile, ymax, h):
    g = build_grid(strip_set(0.0, ymax, dimension=1), [[0.0, ymax]], h)
    vals = profile(g.points[:, 0])
    return SolutionField(grid=g, values=vals,
                         trace=lambda pts: profile(pts[:, -1]),
                         method="closed_form")


def field_2d(profile, xmax, ymax, h, domain=None):
    dom = domain or make_epigraph("half_space", dimension=2)
    g = build_grid(dom, [[0.0, xmax], [0.0, ymax]], h)
    vals = profile(g.points[:, 1])
    return SolutionField(grid=g, values=vals,
                         trace=lambda pts: profile(pts[:, -1]),
                         method="closed_form")


def test_affine_reflection_is_exact():
    u = field_1d(lambda y: y, 2.0, 1.0 / 32)
    r = reflect_field(u, 1.0)
    assert np.array_equal(r.values, 2.0 - u.grid.points[:, 0])
    assert r.meta["interp_bound"] == 0.0
    assert r.meta["reflected_about"] == 1.0


def test_symmetric_profile_is_a_fixed_point():
    u = field_1d(lambda y: interval_torsion(y, 0.0, 2.0), 2.0, 1.0 / 32)
    r = reflect_field(u, 1.0)
    assert np.array_equal(r.values, u.values)


def test_double_reflection_restores_field():
    u = field_1d(tanh_front, 2.0, 1.0 / 32)
    back = reflect_field(reflect_field(u, 1.0), 1.0)
    assert np.array_equal(back.values, u.values)


def test_reflected_tanh_hits_frozen_value():
    u = field_1d(tanh_front, 2.0, 1.0 / 32)
    r = reflect_field(u, 1.0)
    i = int(np.flatnonzero(np.isclose(u.grid.points[:, 0], 0.5))[0])
    assert abs(r.values[i] - TANH_REFLECTED) <= 1e-14


def test_off_lattice_cap_interpolation_is_bounded():
    # a plane off the lattice forces cubic interpolation of the reflected
    # values; the reported bound must cover the worst cap defect
    u = field_1d(tanh_front, 4.0, 1.0 / 32)
    lam = 1.0 + 1.0 / 96
    rep = cap_sweep(u, None, lambda_grid=[lam])
    bound = rep.meta["interp_bounds"][0]
    assert 0.0 < bound <= 1e-5
    assert rep.cap_min_diff[0] >= -bound - 1e-15


def test_reflection_leaving_window_raises():
    u = field_1d(tanh_front, 2.0, 1.0 / 32)
    with pytest.raises(NumericalError):
        reflect_field(u, 1.8)


def test_vertical_derivative_of_affine_field():
    u = field_2d(lambda y: 3.0 * y, 2.0, 2.0, 0.25)
    dn, mask = vertical_derivative(u)
    good = np.isfinite(dn)
    assert good.all()
    assert np.max(np.abs(dn - 3.0)) <= 1e-12
    assert mask.any()


class TestCapSweep:
    def test_tanh_front_is_monotone(self):
        u = field_1d(tanh_front, 12.0, 1.0 / 32)
        rep = cap_sweep(u, None)
        assert rep.lambda_grid[-1] == pytest.approx(6.0)
        assert rep.monotone_up_to == pytest.approx(6.0)
        assert rep.cap_min_diff.min() >= -1e-10
        assert rep.dn_u_min > 0.0
        assert rep.sign_change_cells == []

    def test_saturating_front_flat_region(self):
        h = 1.0 / 32
        u = field_1d(saturating_front, 3.0, h)
        rep = cap_sweep(u, None)
        assert rep.cap_min_diff.min() >= -1e-10
        past_junction = rep.lambda_grid >= 1.0 + 2 * h
        assert past_junction.any()
        # caps meeting the plateau have identically zero worst gap
        assert np.all(rep.cap_min_diff[past_junction] == 0.0)
        assert rep.dn_u_min == 0.0
        dn, mask = vertical_derivative(u)
        flat = mask & (u.grid.points[:, 0] >= 1.0 + 1.5 * h)
        assert flat.any()
        assert np.all(dn[flat] == 0.0)
        assert rep.sign_change_cells == []

    def test_double_front_changes_sign(self):
        u = field_1d(double_front_profile, 6.0, 1.0 / 32)
        rep = cap_sweep(u, None)
        assert rep.monotone_up_to < 3.0 - 1e-9
        assert len(rep.sign_change_cells) >= 2
        heights = [c[-1] for c in rep.sign_change_cells]
        assert all(1.5 < y < 3.5 for y in heights)

    def test_describe_lands_in_meta(self):
        dom = make_epigraph("half_space", dimension=2)
        u = field_2d(tanh_front, 0.5, 4.0, 1.0 / 16, domain=dom)
        rep = cap_sweep(u, dom)
        assert rep.meta["domain"]["kind"] == "half_space"

    def test_lambda_grid_validation(self):
        u = field_1d(tanh_front, 2.0, 1.0 / 32)
        with pytest.raises(ValidationError):
            cap_sweep(u, None, lambda_grid=[])
        with pytest.raises(ValidationError):
            cap_sweep(u, None, lambda_grid=[0.5, 0.25])
        with pytest.raises(ValidationError):
            cap_sweep(u, None, tol=0.0)
        with pytest.raises(ValidationError):
            cap_sweep(u, None, lambda_grid=[1.0 / 32])   # empty cap


def brute_force_sign_changes(u, tol=1e-8, buffer=3):
    """Column-by-column reference for cap_sweep's sign-change cells."""
    grid = u.grid
    dn, mask = vertical_derivative(u, buffer)
    lattice = np.full(grid.shape, np.nan)
    lattice[grid.interior] = np.where(mask & np.isfinite(dn), dn, np.nan)
    cells = []
    for lateral in np.ndindex(*grid.shape[:-1]):
        prev_sign, prev_j = 0, -1
        for j, val in enumerate(lattice[lateral]):
            if not np.isfinite(val) or abs(val) <= tol:
                continue
            sign = 1 if val > 0 else -1
            if prev_sign and sign != prev_sign:
                cells.append(tuple(float(grid.axes[k][lateral[k]])
                                   for k in range(grid.dimension - 1))
                             + (float(grid.axes[-1][prev_j]),))
            prev_sign, prev_j = sign, j
    return cells


class TestSignChangeReference:
    def test_double_front_profile(self):
        for u in (field_1d(double_front_profile, 6.0, 1.0 / 32),
                  field_2d(double_front_profile, 0.5, 6.0, 1.0 / 32)):
            cells = cap_sweep(u, None).sign_change_cells
            assert len(cells) >= 2
            assert cells == brute_force_sign_changes(u)

    def test_random_field_on_3d_epigraph_with_holes(self):
        dom = make_epigraph("coercive_quadratic", dimension=3)
        g = build_grid(dom, [[-1.5, 1.5], [-1.5, 1.5], [0.0, 4.0]], 0.125)
        assert not g.interior.all()        # columns start above the graph
        u = SolutionField(grid=g, values=np.random.default_rng(5).standard_normal(g.n_interior),
                          trace=0.0, method="constructed")
        cells = cap_sweep(u, dom, buffer=1).sign_change_cells
        assert len(cells) > 1000
        assert cells == brute_force_sign_changes(u, buffer=1)


class TestHopfSlope:
    def test_affine_field_has_zero_defect(self):
        u = field_2d(lambda y: y, 1.0, 2.0, 0.25)
        rep = hopf_slope_check(u, 1.0, buffer=1)
        assert rep.defect <= 1e-13
        assert rep.dn_min == 1.0
        assert rep.dn_max == 1.0
        assert rep.n_columns == 3

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_tanh_defect_scales_with_h_squared(self, lam):
        h = 1.0 / 32
        u = field_2d(tanh_front, 0.25, 12.0, h)
        rep = hopf_slope_check(u, lam)
        assert rep.defect <= 5.0 * h * h
        assert rep.dn_min > 0.0

    def test_tanh_slope_at_unit_height(self):
        u = field_2d(tanh_front, 0.25, 12.0, 1.0 / 32)
        rep = hopf_slope_check(u, 1.0)
        assert abs(rep.dn_min - TANH_SLOPE_AT_1) <= 1e-3
        assert rep.dn_min == rep.dn_max   # laterally constant profile

    def test_plane_validation(self):
        u = field_2d(tanh_front, 0.25, 2.0, 1.0 / 32)
        with pytest.raises(ValidationError):
            hopf_slope_check(u, 1.0 + 1.0 / 96)
        with pytest.raises(ValidationError):
            hopf_slope_check(u, 1.0 / 32)
