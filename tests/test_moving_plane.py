"""Reflection machinery, cap sweeps and boundary-slope identities.

The two decimal anchors were frozen from 20-digit evaluations:
  tanh(1.5/sqrt(2))        = 0.7859163970696592  (nearest double)
  sech(1/sqrt(2))^2/sqrt(2) = 0.4449754198219432
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_lattice import SETTINGS, grids

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


@pytest.mark.parametrize("lam, dim", [
    (0.2, 1), (1.75, 1), (0.25, 1),
    (1.8, 2), (0.2, 2), (1.75, 2), (0.25, 2)])
def test_reflection_leaving_window_raises_above_and_below(lam, dim):
    # high planes send the lowest nodes past the top, low ones the highest
    # nodes below the bottom, by cubic rows or (h = 1/32) by lattice flips;
    # in 2-D the strip covers the whole window, faces included, so an index
    # past a column's end would read a known value of the next column
    u = (field_1d(tanh_front, 2.0, 1.0 / 32) if dim == 1
         else field_2d(tanh_front, 0.25, 2.0, 1.0 / 32, domain=strip_set(-1.0, 3.0)))
    with pytest.raises(NumericalError):
        reflect_field(u, lam)


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
        # a NaN plane used to be skipped, and an infinite one to raise
        # OverflowError from the reflection index
        for bad in ([math.nan], [0.5, math.inf], [-math.inf, 0.5]):
            with pytest.raises(ValidationError, match="finite"):
                cap_sweep(u, None, lambda_grid=bad)


def per_plane_caps(u, lambda_grid, buffer):
    """cap_sweep's cap table by the per-plane loop it replaced: each cap a
    fresh mask of the buffered nodes below the plane, its reflected values
    a 2-D gather (or the cubic rows), the interpolation bound recomputed per
    off-lattice plane. Returns (kept lambdas, mins, bounds, skipped), or
    raises NumericalError where the reflection leaves the window."""
    grid = u.grid
    h, lo, nj = grid.h, grid.box[-1, 0], grid.shape[-1]
    full = grid.lattice_values(u.values, u.trace)
    columns = full.reshape(-1, nj)
    col, j = np.divmod(np.flatnonzero(grid.interior), nj)
    y = grid.points[:, -1]
    buf = grid.buffer_mask(buffer)
    kept, mins, bounds, skipped = [], [], [], []
    for lam in np.asarray(lambda_grid, dtype=float):
        cap = buf & (y < lam - 1e-12)
        if not cap.any():
            skipped.append(float(lam))
            continue
        c, jj = col[cap], j[cap]
        k2 = 2.0 * (lam - lo) / h
        if abs(k2 - round(k2)) <= 1e-9:
            jr = round(k2) - jj
            if (jr < 0).any() or (jr > nj - 1).any():
                raise NumericalError("reflection leaves window")
            vals, bound = columns[c, jr], 0.0
        else:
            yr = 2.0 * lam - (lo + jj * h)
            s = (yr - lo) / h
            j0 = np.floor(s).astype(int)
            t = s - j0
            if (j0 - 1 < 0).any() or (j0 + 2 > nj - 1).any():
                raise NumericalError("reflection leaves window")
            weights = [-t * (t - 1.0) * (t - 2.0) / 6.0,
                       (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                       -(t + 1.0) * t * (t - 2.0) / 2.0,
                       (t + 1.0) * t * (t - 1.0) / 6.0]
            vals = np.zeros(len(jj))
            for off in range(4):
                vals += weights[off] * columns[c, j0 + off - 1]
            d4 = full[..., 4:] - 4 * full[..., 3:-1] + 6 * full[..., 2:-2] \
                - 4 * full[..., 1:-3] + full[..., :-4]
            d4 = np.abs(d4[np.isfinite(d4)])
            bound = float(d4.max()) / 16.0 if d4.size else 0.0
        if not np.isfinite(vals).all():
            raise NumericalError("reflection leaves window")
        kept.append(float(lam))
        mins.append(float((vals - u.values[cap]).min()))
        bounds.append(bound)
    return kept, mins, bounds, skipped


def assert_sweep_matches_per_plane_caps(u, lambda_grid, buffer):
    """cap_sweep's table equals per_plane_caps' bit for bit, or both raise
    the same error."""
    try:
        kept, mins, bounds, skipped = per_plane_caps(u, lambda_grid, buffer)
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=str(exc)):
            cap_sweep(u, None, lambda_grid=lambda_grid, buffer=buffer)
        return "raised"
    if not kept:
        with pytest.raises(ValidationError, match="nonempty cap"):
            cap_sweep(u, None, lambda_grid=lambda_grid, buffer=buffer)
        return "empty"
    rep = cap_sweep(u, None, lambda_grid=lambda_grid, buffer=buffer)
    assert rep.lambda_grid.tolist() == kept
    assert rep.cap_min_diff.tobytes() == np.array(mins).tobytes()
    assert rep.meta["interp_bounds"] == bounds
    assert rep.meta["skipped_lambdas"] == skipped
    return "swept"


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.dimension)
    return SolutionField(grid=grid, values=rng.standard_normal(grid.n_interior),
                         trace=lambda p: np.sin(p @ a) + 0.7,
                         method="constructed")


ON_LATTICE = [0.5, 0.75, 1.0, 1.03125, 1.5]
OFF_LATTICE = [0.5 + 1 / 96, 0.9, 1.0 + 1 / 96, 1.3]


@pytest.mark.parametrize("lambdas", [ON_LATTICE, OFF_LATTICE,
                                     sorted(ON_LATTICE + OFF_LATTICE)],
                         ids=["on", "off", "mixed"])
@pytest.mark.parametrize("case", ["1d", "2d_neumann", "3d_holes"])
def test_sweep_matches_per_plane_caps(case, lambdas):
    if case == "1d":
        g = build_grid(strip_set(0.0, 4.0, dimension=1), [[0.0, 4.0]], 1.0 / 32)
        buffer = 3
    elif case == "2d_neumann":
        # lateral faces Neumann (the default), bottom and top Dirichlet
        g = build_grid(make_epigraph("half_space"), [[-1.0, 1.0], [0.0, 3.0]],
                       1.0 / 16)
        buffer = 2
    else:
        # columns start above the graph: lattice nodes below it are holes;
        # the planes clear the graph by more than a cell, so the cubic rows
        # of every cap node read known values
        g = build_grid(make_epigraph("coercive_quadratic", dimension=3),
                       [[-0.5, 0.5], [-0.25, 0.25], [0.0, 6.0]], 1.0 / 16)
        assert not g.inside.all()
        buffer = 1
        lambdas = [1.5 + lam for lam in lambdas]
    assert assert_sweep_matches_per_plane_caps(random_field(g, 3), lambdas,
                                               buffer) == "swept"


def test_sweep_and_per_plane_caps_raise_alike():
    u = field_1d(tanh_front, 2.0, 1.0 / 32)
    for lambdas in ([0.5, 1.8], [0.5, 1.0 + 1 / 96, 1.5 + 1 / 96]):
        assert assert_sweep_matches_per_plane_caps(u, lambdas, 3) == "raised"


@SETTINGS
@given(grids(), st.data())
def test_sweep_matches_per_plane_caps_on_random_grids(grid, data):
    lo, h, nj = grid.box[-1, 0], grid.h, grid.shape[-1]
    halves = st.integers(-2, 2 * nj + 2)
    on = data.draw(st.lists(halves, min_size=1, max_size=6))
    off = data.draw(st.lists(st.tuples(halves, st.floats(0.05, 0.95)), max_size=4))
    lambdas = sorted({lo + 0.5 * k * h for k in on}
                     | {lo + 0.5 * (k + f) * h for k, f in off})
    u = random_field(grid, data.draw(st.integers(0, 2 ** 32 - 1)))
    buffer = data.draw(st.integers(0, 1))
    # plane by plane, then the whole list, whose first failing plane raises
    for lam in lambdas:
        assert_sweep_matches_per_plane_caps(u, [lam], buffer)
    assert_sweep_matches_per_plane_caps(u, lambdas, buffer)


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
