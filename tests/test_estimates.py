"""Gradient-bound probes and boundary oscillation-decay fits."""

import math

import numpy as np
import pytest

from epigraph_lab import (
    BRANDT_SCHEME_CONSTANT,
    SolutionField,
    SolvePolicy,
    ValidationError,
    brandt_check,
    build_grid,
    make_epigraph,
    make_nonlinearity,
    orthant_set,
    oscillation_fit,
    solve_semilinear,
    strip_set,
)


def unit_disk(pts):
    return (pts**2).sum(axis=1) < 1.0


def field_from(grid, profile):
    return SolutionField(grid=grid, values=profile(grid.points),
                         trace=lambda pts: profile(pts), method="closed_form")


def test_scheme_constant_value():
    assert BRANDT_SCHEME_CONSTANT == 2.0


class TestBrandtCheck:
    def test_sine_mode_on_wide_strip(self):
        h = math.pi / 16
        g = build_grid(strip_set(0.0, 2.0 * math.pi), [[0.0, 24 * h],
                                                       [0.0, 2.0 * math.pi]], h)
        u = field_from(g, lambda p: np.sin(p[:, -1]))
        rep = brandt_check(u, u.values, (12 * h, 16 * h), 2.0)
        assert rep.holds
        # node 8h on the axis carries sin == 1.0, so both ball maxima are 1
        assert rep.rhs == 2.5
        assert rep.lhs[0] == 0.0
        assert abs(rep.lhs[1] - 1.0) <= h * h / 6 + 1e-12
        assert rep.slack > 1.5

    def test_affine_field_is_exact(self):
        g = build_grid(strip_set(0.0, 4.0), [[0.0, 4.0], [0.0, 4.0]], 0.25)
        u = field_from(g, lambda p: p[:, -1])
        rep = brandt_check(u, np.zeros(g.n_interior), (2.0, 2.0), 1.0)
        assert rep.lhs == [0.0, 1.0]
        assert rep.rhs == 12.0
        assert rep.slack == 11.125
        assert rep.holds
        assert rep.meta["ball_nodes"] == 49

    def test_seeded_probes_on_solved_front(self):
        h = 1.0 / 32
        g = build_grid(make_epigraph("half_space", dimension=2),
                       [[0.0, 0.25], [0.0, 6.0]], h)
        f = make_nonlinearity("allen_cahn")
        u = solve_semilinear(g, f, trace=lambda p: np.tanh(p[:, -1] / math.sqrt(2.0)),
                             policy=SolvePolicy(init="front_lift", tol=1e-11))
        f_vals = f(u.values)
        rng = np.random.default_rng(7)
        delta = 0.125          # reach 4: only the middle column fits laterally
        for j in rng.integers(5, 187, size=25):
            center = (g.axes[0][4], g.axes[1][j])
            rep = brandt_check(u, f_vals, center, delta)
            assert rep.holds
            assert rep.slack > 0.0

    def test_ball_must_stay_inside(self):
        h = 1.0 / 32
        g = build_grid(make_epigraph("half_space", dimension=2),
                       [[0.0, 0.25], [0.0, 6.0]], h)
        u = field_from(g, lambda p: p[:, -1])
        zeros = np.zeros(g.n_interior)
        with pytest.raises(ValidationError):
            brandt_check(u, zeros, (g.axes[0][4], g.axes[1][3]), 0.125)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (2.0, 0.0)])
    def test_ball_smaller_than_a_cell_needs_both_neighbours(self, center):
        # delta < h: the ball holds only its centre, but the centered
        # difference still reads the +-1 neighbours, which leave the lattice
        g = build_grid(strip_set(-1.0, 1.0), [[0.0, 2.0], [-1.0, 1.0]], 0.5)
        u = field_from(g, lambda p: p[:, 0])
        with pytest.raises(ValidationError, match="ball exits domain"):
            brandt_check(u, np.zeros(g.n_interior), center, 0.25)
        inner = brandt_check(u, np.zeros(g.n_interior), (1.0, 0.0), 0.25)
        assert inner.lhs == [1.0, 0.0]
        assert inner.meta["ball_nodes"] == 1

    def test_curved_boundary_detected_inside_bounding_cube(self):
        g = build_grid(unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 0.25,
                       face_policy=(("dirichlet", "dirichlet"),
                                    ("dirichlet", "dirichlet")))
        u = field_from(g, lambda p: np.zeros(len(p)))
        with pytest.raises(ValidationError):
            brandt_check(u, np.zeros(g.n_interior), (0.5, 0.0), 0.5)

    def test_validation(self):
        g = build_grid(strip_set(0.0, 4.0), [[0.0, 4.0], [0.0, 4.0]], 0.25)
        u = field_from(g, lambda p: p[:, -1])
        zeros = np.zeros(g.n_interior)
        with pytest.raises(ValidationError):
            brandt_check(u, zeros, (2.0, 2.0), 0.0)
        with pytest.raises(ValidationError):
            brandt_check(u, np.zeros(3), (2.0, 2.0), 1.0)
        with pytest.raises(ValidationError):
            brandt_check(u, zeros, (2.0, 2.0, 2.0), 1.0)
        with pytest.raises(ValidationError):
            brandt_check(u, zeros, (2.01, 2.0), 1.0)   # off-node center


def brandt_reference(u, f_values, lattice, center, delta):
    """The Brandt ball by a distance scan over the whole lattice (its node
    coordinates in C order): (node, ball nodes, rhs), or None when the ball
    or the +-1 stencil leaves the interior."""
    g = u.grid
    d2 = ((g.points - center) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    ci = np.argwhere(g.interior)[i]
    span = max(math.floor(delta / g.h + 1e-9), 1)
    if (ci - span < 0).any() or (ci + span > np.array(g.shape) - 1).any():
        return None
    in_ball = ((lattice - center) ** 2).sum(axis=1) \
        <= delta * delta * (1.0 + 1e-12)
    stencil = [tuple(ci + s * e) for e in np.eye(g.dimension, dtype=int)
               for s in (-1, 1)]
    if not g.interior.ravel()[in_ball].all() or \
            not all(g.interior[idx] for idx in stencil):
        return None
    ball = g.node_index.ravel()[in_ball]
    n = g.dimension
    rhs = (2.0 * n / delta) * float(np.abs(u.values[ball]).max()) \
        + (delta / 4.0) * float(np.abs(f_values[ball]).max())
    return i, ball.size, rhs


@pytest.mark.parametrize("domain,box,h", [
    (unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 1.0 / 8),
    (make_epigraph("arc_bump"), [[-5.0, 3.0], [0.0, 3.0]], 1.0 / 4),
    (make_epigraph("coercive_quadratic", dimension=3),
     [[-1.0, 1.0], [-1.0, 1.0], [0.0, 2.0]], 1.0 / 4),
])
def test_brandt_ball_matches_a_lattice_scan(domain, box, h):
    g = build_grid(domain, box, h)
    u = field_from(g, lambda p: np.sin(p.sum(axis=1)))
    f_vals = np.cos(g.points[:, 0])
    lattice = np.stack([m.ravel() for m in np.meshgrid(*g.axes, indexing="ij")],
                       axis=1)
    held = 0
    for center in g.points[::5]:
        for delta in (0.5 * h, 1.5 * h, 2.0 * h, 3.2 * h):
            ref = brandt_reference(u, f_vals, lattice, center, delta)
            if ref is None:
                with pytest.raises(ValidationError, match="ball exits domain"):
                    brandt_check(u, f_vals, center, delta)
                continue
            rep = brandt_check(u, f_vals, center, delta)
            assert (rep.meta["node"], rep.meta["ball_nodes"], rep.rhs) == ref
            held += 1
    assert held >= 10
    for off in (g.box[:, 0] - h, g.points[0] + 0.3 * h, [np.nan] * g.dimension):
        with pytest.raises(ValidationError, match="not an interior node"):
            brandt_check(u, f_vals, off, h)


def test_brandt_huge_ball_exits_domain():
    g = build_grid(strip_set(0.0, 4.0), [[0.0, 4.0], [0.0, 4.0]], 0.25)
    u = field_from(g, lambda p: p[:, -1])
    for delta in (1e300, 1.7e308):
        with pytest.raises(ValidationError, match="ball exits domain"):
            brandt_check(u, np.zeros(g.n_interior), (2.0, 2.0), delta)


class TestOscillationFit:
    def make_flat(self, h=1.0 / 8):
        g = build_grid(make_epigraph("half_space", dimension=2),
                       [[-2.0, 4.0], [0.0, 2.0]], h)
        return field_from(g, lambda p: p[:, -1])

    def test_flat_boundary_has_unit_exponent(self):
        u = self.make_flat()
        rep = oscillation_fit(u, (1.0, 0.0), [0.25, 0.5, 1.0])
        assert rep.radii == [1.0, 0.5, 0.25]
        assert rep.osc_values == [1.0, 0.5, 0.25]
        assert abs(rep.alpha_fit - 1.0) <= 1e-10
        assert abs(rep.C_fit - 1.0) <= 1e-10
        assert rep.meta["trace_val"] == 0.0

    def test_oscillations_shrink_with_radius(self):
        u = self.make_flat()
        rep = oscillation_fit(u, (1.0, 0.0), [0.25, 0.5, 1.0])
        assert all(b <= a for a, b in zip(rep.osc_values, rep.osc_values[1:]))

    def test_largest_radius_dropped_near_window_top(self):
        u = self.make_flat()
        rep = oscillation_fit(u, (1.0, 0.0), [0.5, 0.25, 1.9])
        assert rep.radii == [0.5, 0.25]

    # window [-2, 4] x [0, 2] at h = 1/16: the lateral faces and the top are
    # artificial, and the buffer 3h is 0.1875; a radius of 1 stays clear of
    # the top from x0 on the boundary y = 0
    @pytest.mark.parametrize("x0,radii,kept", [
        # -1 - 1 < -2 + 3h: the low face of axis 0
        ((-1.0, 0.0), [1.0, 0.5, 1.0, 0.25], [0.5, 0.25]),
        # 3 + 1 > 4 - 3h: the high face of axis 0
        ((3.0, 0.0), [0.25, 1.0, 1.0, 0.5], [0.5, 0.25]),
        # from x0 = 1 the ball of radius 1 reaches no face
        ((1.0, 0.0), [0.5, 1.0, 1.0], [1.0, 1.0, 0.5]),
    ])
    def test_every_copy_of_a_face_touching_largest_radius_is_dropped(
            self, x0, radii, kept):
        rep = oscillation_fit(self.make_flat(h=1.0 / 16), x0, radii)
        assert rep.radii == kept

    def test_orthant_corner_exponent_is_refinement_stable(self):
        f = make_nonlinearity("constant", value=1.0)
        alphas = []
        for h in (1.0 / 16, 1.0 / 32):
            g = build_grid(orthant_set(2), [[0.0, 2.0], [0.0, 2.0]], h)
            u = solve_semilinear(g, f, trace=0.0)
            rep = oscillation_fit(u, (0.0, 0.0), [0.25, 0.5, 1.0])
            assert rep.alpha_fit > 0.0
            alphas.append(rep.alpha_fit)
        assert abs(alphas[1] - alphas[0]) <= 0.15 * abs(alphas[0])

    def test_ramp_kink_exponent_is_refinement_stable(self):
        dom = make_epigraph("arc_bump_ramp", dimension=2)
        f = make_nonlinearity("constant", value=1.0)
        alphas = []
        for h in (1.0 / 16, 1.0 / 32):
            g = build_grid(dom, [[4.0, 8.0], [2.0, 6.0]], h)
            u = solve_semilinear(g, f, trace=0.0)
            rep = oscillation_fit(u, (6.0, 2.0), [0.25, 0.5, 1.0])
            assert rep.alpha_fit > 0.0
            alphas.append(rep.alpha_fit)
        assert abs(alphas[1] - alphas[0]) <= 0.15 * abs(alphas[0])

    def test_validation(self):
        u = self.make_flat()
        with pytest.raises(ValidationError):
            oscillation_fit(u, (1.0, 0.0), [0.5])
        with pytest.raises(ValidationError):
            oscillation_fit(u, (1.0, 0.0, 0.0), [0.25, 0.5])
        with pytest.raises(ValidationError):
            oscillation_fit(u, (1.0, 0.0), [0.25, 0.125])  # 1 node in ball
        with pytest.raises(ValidationError):
            oscillation_fit(u, (1.0, 0.0), [1.9, 1.8])     # both touch top
