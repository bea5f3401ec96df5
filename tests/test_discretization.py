"""Grid masking, arm classification and cut-cell stencil exactness."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given
from hypothesis import strategies as st
from test_lattice import SETTINGS, grids

from epigraph_lab import (
    ARM_CUT,
    ARM_INTERNAL,
    ARM_LATTICE,
    ARM_MIRROR,
    ValidationError,
    as_trace,
    assemble_laplacian,
    boundary_rhs,
    build_grid,
    make_epigraph,
    revolution_set,
    stencil_residual,
    strip_set,
)
from epigraph_lab import discretization
from epigraph_lab.discretization import _THETA_FLOOR, _THETA_SNAP
from epigraph_lab.geometry import _bisect


def unit_disk(points):
    pts = np.atleast_2d(points)
    return (pts ** 2).sum(axis=1) < 1.0


@pytest.fixture
def half_space_grid():
    dom = make_epigraph("half_space", dimension=2)
    return build_grid(dom, [[0.0, 1.0], [0.0, 1.0]], 0.25)


@pytest.mark.parametrize("box, h, message", [
    ([0.0, 1.0], 0.25, "box must be an"),
    ([[0.0, 1.0, 2.0]], 0.25, "box must be an"),
    ([[0.0, math.inf]], 0.25, "box must be finite"),
    ([[math.nan, 1.0]], 0.25, "box must be finite"),
    ([[0.0, 1.0]], 0.0, "h must be positive"),
    ([[0.0, 1.0]], -0.25, "h must be positive"),
    ([[0.0, 1.0], [1.0, 1.0]], 0.25, "hi > lo"),
    ([[1.0, 0.0]], 0.25, "hi > lo"),
], ids=["flat", "three_columns", "infinite", "nan", "h_zero", "h_negative",
        "empty_axis", "reversed_axis"])
def test_build_grid_rejects_bad_box_or_step(box, h, message):
    with pytest.raises(ValidationError, match=message):
        build_grid(lambda p: np.ones(len(p), dtype=bool), box, h)


def test_stencil_residual_rejects_wrong_length(half_space_grid):
    n = half_space_grid.n_interior
    for length in (n - 1, n + 1):
        with pytest.raises(ValidationError, match="field length"):
            stencil_residual(half_space_grid, np.zeros(length))


@pytest.fixture
def disk_grid():
    policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
    return build_grid(unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 0.5,
                      face_policy=policy)


class TestMasking:
    def test_half_space_interior_count(self, half_space_grid):
        # 5 lateral columns x 3 interior rows; y = 0 excluded by membership,
        # y = 1 excluded by the Dirichlet truncation face
        g = half_space_grid
        assert g.n_interior == 15
        ys = np.unique(g.points[:, 1])
        assert np.allclose(ys, [0.25, 0.5, 0.75])
        xs = np.unique(g.points[:, 0])
        assert np.allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_all_dirichlet_policy_shrinks_interior(self):
        dom = make_epigraph("half_space", dimension=2)
        policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
        g = build_grid(dom, [[0.0, 1.0], [0.0, 1.0]], 0.25, face_policy=policy)
        assert g.n_interior == 9

    def test_arm_classification(self, half_space_grid):
        g = half_space_grid
        i_edge = int(g.node_index[0, 1])        # (x, y) = (0, 0.25)
        assert g.arm_kind[i_edge, 0, 0] == ARM_MIRROR
        assert g.arm_kind[i_edge, 0, 1] == ARM_INTERNAL
        assert g.arm_kind[i_edge, 1, 0] == ARM_CUT
        i_top = int(g.node_index[2, 3])         # (0.5, 0.75)
        assert g.arm_kind[i_top, 1, 1] == ARM_LATTICE
        op = assemble_laplacian(g)
        assert op.bc_points[op.bc_rows == i_top].tolist() == [[0.5, 1.0]]

    def test_natural_face_is_not_artificial(self, half_space_grid):
        g = half_space_grid
        assert not g.face_artificial[1, 0]   # true boundary below
        assert g.face_artificial[1, 1]
        assert g.face_artificial[0, 0] and g.face_artificial[0, 1]

    def test_buffer_mask_skips_natural_faces(self, half_space_grid):
        g = half_space_grid
        kept = g.points[g.buffer_mask(2)]
        # depth 2 survives only at x = 0.5, y <= 0.5; the natural bottom
        # boundary costs no buffer
        assert kept.shape == (2, 2)
        assert np.allclose(sorted(kept[:, 1]), [0.25, 0.5])

    def test_empty_interior_rejected(self):
        with pytest.raises(ValidationError):
            build_grid(strip_set(10.0, 11.0), [[0.0, 1.0], [0.0, 1.0]], 0.25)

    def test_incommensurate_box_rejected(self):
        with pytest.raises(ValidationError):
            build_grid(strip_set(0.0, 1.0), [[0.0, 1.0], [0.0, 1.0]], 0.3)

    def test_bad_policy_rejected(self):
        dom = strip_set(0.0, 1.0)
        with pytest.raises(ValidationError):
            build_grid(dom, [[0.0, 1.0], [0.0, 1.0]], 0.25,
                       face_policy=[["dirichlet", "bogus"],
                                    ["dirichlet", "dirichlet"]])
        with pytest.raises(ValidationError):
            build_grid(dom, [[0.0, 1.0], [0.0, 1.0]], 0.25,
                       face_policy=[["dirichlet", "dirichlet"]])


def test_disk_cut_fraction_matches_circle(disk_grid):
    g = disk_grid
    assert g.n_interior == 9
    i = int(g.node_index[3, 3])              # node (0.5, 0.5)
    # crossing at sqrt(3)/2 along either axis
    expected = math.sqrt(3.0) - 1.0
    assert abs(g.theta[i, 0, 1] - expected) <= 1e-11
    assert abs(g.theta[i, 1, 1] - expected) <= 1e-11
    assert g.arm_kind[i, 0, 1] == ARM_CUT
    assert (g.theta > 0).all() and (g.theta <= 1).all()


def arm_fraction_reference(contains, base, axis, step, h):
    """Inside fraction of one cut arm: 40 bisection steps from [0, 1], then
    snapped to 1 above 1 - 1e-9 and floored at 1e-8."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        probe = base.copy()
        probe[axis] = base[axis] + step * h * mid
        if contains(probe[None, :])[0]:
            lo = mid
        else:
            hi = mid
    frac = 0.5 * (lo + hi)
    return max(1.0 if frac > 1.0 - 1e-9 else frac, 1e-8)


def arm_endpoints(grid):
    """(n_interior, N, 2, N) endpoint of every Dirichlet arm, mirror arms
    folded onto the opposite side, as assembly reads them; NaN elsewhere."""
    out = np.full(grid.theta.shape + (grid.dimension,), np.nan)
    for k, (_, _, sides) in enumerate(discretization._axis_arms(grid)):
        for side, (_, _, rows, end) in enumerate(sides):
            out[rows, k, side] = end
    return out


@pytest.mark.parametrize("domain,box,h", [
    (make_epigraph("arc_bump"), [[-5.0, 3.0], [0.0, 3.0]], 1.0 / 16),
    (make_epigraph("weierstrass"), [[-0.25, 0.25], [0.0, 2.0]], 1.0 / 32),
    (make_epigraph("coercive_quadratic", dimension=3),
     [[-1.0, 1.0], [-1.0, 1.0], [0.0, 2.0]], 1.0 / 8),
    (unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 1.0 / 8),
    # a bare predicate may answer with a list
    (lambda p: unit_disk(p).tolist(), [[-1.0, 1.0], [-1.0, 1.0]], 1.0 / 8),
])
def test_cut_fractions_match_one_arm_at_a_time(domain, box, h):
    g = build_grid(domain, box, h)
    contains = getattr(domain, "contains", domain)
    node, axis, side = np.nonzero(g.arm_kind == ARM_CUT)
    assert node.size > 20
    endpoints = arm_endpoints(g)
    for i, k, sd in list(zip(node, axis, side))[::5]:
        step = 2 * sd - 1
        frac = arm_fraction_reference(contains, g.points[i], k, step, h)
        assert g.theta[i, k, sd] == frac
        end = g.points[i].copy()
        end[k] += step * h * frac
        assert (endpoints[i, k, sd] == end).all()


def unit_ball_3d(points):
    return (points ** 2).sum(axis=1) < 1.0


def weierstrass_slab(points, _spec=make_epigraph("weierstrass")):
    # the Weierstrass epigraph cut off above, so that arms are cut on the
    # upper side of the last axis too
    return _spec.contains(points) & (points[:, 1] < 1.5)


def per_side_arms_reference(grid, contains):
    """theta and endpoint of every cut arm, one 40-step batched bisection
    per (axis, side), snapped and floored as build_grid does."""
    theta = np.ones_like(grid.theta)
    ends = np.zeros(grid.theta.shape + (grid.dimension,))
    for k in range(grid.dimension):
        for side, step in ((0, -1), (1, +1)):
            m = grid.arm_kind[:, k, side] == ARM_CUT
            assert m.any()
            nu = np.zeros(grid.dimension)
            nu[k] = step * grid.h
            base = grid.points[m]
            frac = _bisect(contains, base, nu, np.zeros(len(base)),
                           np.ones(len(base)), True, iters=40)
            frac = np.maximum(np.where(frac > _THETA_SNAP, 1.0, frac), _THETA_FLOOR)
            theta[m, k, side] = frac
            pts = base.copy()
            pts[:, k] += step * grid.h * frac
            ends[m, k, side] = pts
    return theta, ends


@pytest.mark.parametrize("domain,box,h", [
    (unit_disk, [[-1.5, 1.5], [-1.5, 1.5]], 1.0 / 16),
    (revolution_set("cosine"), [[-2.0, 2.0], [-1.5, 1.5]], 1.0 / 16),
    (weierstrass_slab, [[-0.5, 0.5], [-0.5, 2.0]], 1.0 / 32),
    (unit_ball_3d, [[-1.5, 1.5]] * 3, 1.0 / 8),
    (revolution_set("cosine", dimension=3, amp=0.5, freq=4.0),
     [[-2.0, 2.0], [-1.75, 1.75], [-1.75, 1.75]], 1.0 / 8),
])
def test_one_bisection_batch_matches_per_side_batches(domain, box, h):
    # every cut arm of every axis and side is bisected in one batch; each
    # arm must get the bits of a batch holding only its own axis and side
    calls = []

    def contains(points):
        calls.append(len(points))
        return getattr(domain, "contains", domain)(points)

    policy = [["dirichlet", "dirichlet"]] * len(box)
    g = build_grid(contains, box, h, face_policy=policy)
    # one lattice mask, then one call per bisection step
    assert len(calls) == 41
    assert calls[1] == int((g.arm_kind == ARM_CUT).sum())
    theta, ends = per_side_arms_reference(g, getattr(domain, "contains", domain))
    cut = g.arm_kind == ARM_CUT
    assert np.array_equal(g.theta.view(np.uint64), theta.view(np.uint64))
    assert np.array_equal(arm_endpoints(g)[cut].view(np.uint64),
                          ends[cut].view(np.uint64))


# (domain, box, h, predicate calls): every cut arm of the first four ends on
# a lattice node (theta = 1) or within 1e-8 h of its own node (theta at the
# floor), so the bisection stops after 30 steps; the disk's does not
@pytest.mark.parametrize("domain,box,h,calls", [
    (strip_set(0.0, 2.5, dimension=1), [[0.0, 2.5]], 2.5 / 64, 31),
    (strip_set(0.0, 1.0), [[0.0, 2.0], [0.0, 1.0]], 1.0 / 8, 31),
    (make_epigraph("half_space"), [[-1.0, 1.0], [0.0, 2.0]], 1.0 / 16, 31),
    (strip_set(0.125 - 1e-12, 1.0, dimension=1), [[0.0, 1.0]], 1.0 / 8, 31),
    (unit_disk, [[-1.5, 1.5], [-1.5, 1.5]], 1.0 / 16, 41),
], ids=["interval", "strip", "half_space", "floor", "disk"])
def test_settled_bisection_matches_forty_steps(monkeypatch, domain, box, h,
                                               calls):
    def build(bisect):
        counts = []

        def contains(points):
            counts.append(len(points))
            return getattr(domain, "contains", domain)(points)

        monkeypatch.setattr(discretization, "_bisect", bisect)
        return build_grid(contains, box, h), len(counts)

    g, n_calls = build(_bisect)
    assert n_calls == calls
    # the reference runs all 40 steps whatever the brackets
    ref, ref_calls = build(lambda *args, settled=None, **kwargs:
                           _bisect(*args, **kwargs))
    assert ref_calls == 41
    assert np.array_equal(g.theta.view(np.uint64), ref.theta.view(np.uint64))
    assert np.array_equal(arm_endpoints(g).view(np.uint64),
                          arm_endpoints(ref).view(np.uint64))
    snapped = set(np.unique(g.theta).tolist()) <= {1.0, _THETA_FLOOR}
    assert snapped == (calls == 31)


@pytest.mark.parametrize("answer", [lambda p: np.ones(3, bool),
                                    lambda p: True],
                         ids=["three_flags", "scalar"])
@pytest.mark.parametrize("phase", ["mask", "bisection"])
def test_build_grid_rejects_a_predicate_without_one_flag_per_point(answer,
                                                                   phase):
    # the lattice mask's reshape raised a bare ValueError
    calls = []

    def predicate(points):
        calls.append(len(points))
        if phase == "mask" or len(calls) > 1:
            return answer(points)
        return unit_disk(points)

    with pytest.raises(ValidationError, match="one flag per point"):
        build_grid(predicate, [[-1.0, 1.0], [-1.0, 1.0]], 0.25)
    assert len(calls) == (1 if phase == "mask" else 2)


def quad(pts):
    return (pts ** 2).sum(axis=1)


class TestStencilExactness:
    def test_quadratic_on_lattice_grid(self):
        policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
        g = build_grid(strip_set(-0.5, 1.5), [[0.0, 1.0], [0.0, 1.0]], 0.25,
                       face_policy=policy)
        res = stencil_residual(g, quad(g.points), trace=quad)
        assert np.max(np.abs(res - (-4.0))) <= 1e-11

    def test_quadratic_on_cut_grid(self, disk_grid):
        res = stencil_residual(disk_grid, quad(disk_grid.points), trace=quad)
        assert np.max(np.abs(res - (-4.0))) <= 1e-11

    def test_affine_in_kernel(self, disk_grid):
        def aff(pts):
            return 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0

        res = stencil_residual(disk_grid, aff(disk_grid.points), trace=aff)
        assert np.max(np.abs(res)) <= 1e-11

    @SETTINGS
    @given(grids(), st.integers(0, 2 ** 32 - 1))
    def test_matrix_and_gather_paths_agree(self, grid, seed):
        # internal, cut, lattice and mirror arms, each against its term in
        # the CSR matrix or the boundary tables
        try:
            op = assemble_laplacian(grid)
        except ValidationError:  # ungrounded
            assume(False)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=grid.n_interior)
        a = rng.normal(size=grid.dimension)

        def trace(p):
            return np.sin(p @ a) + 0.7

        direct = op.matrix @ u - boundary_rhs(op, trace=trace)
        gathered = stencil_residual(grid, u, trace=trace)
        # each row against the sum of its terms' magnitudes
        scale = abs(op.matrix) @ np.abs(u) + boundary_rhs(
            op, trace=lambda p: np.abs(trace(p)))
        assert (np.abs(direct - gathered) <= 1e-10 * scale).all()


def arm_by_arm_residual(grid, u, trace):
    """A u - boundary terms by one scatter-subtraction per internal and per
    Dirichlet side of each axis: the walker ``stencil_residual`` replaced,
    kept as its bit-level reference."""
    h2 = grid.h * grid.h
    trace_fn = as_trace(trace)
    out = np.zeros(grid.n_interior)
    for tm, tp, sides in discretization._axis_arms(grid):
        out += 2.0 / (h2 * tm * tp) * u
        for ts, (rows, nbrs, bc, end) in zip((tm, tp), sides):
            coeff = 2.0 / (h2 * ts * (tm + tp))
            out[rows] -= coeff[rows] * u[nbrs]
            if bc.size:
                out[bc] -= coeff[bc] * trace_fn(end)
    return out


@SETTINGS
@given(grids(), st.integers(0, 2 ** 32 - 1))
def test_stencil_residual_matches_the_arm_by_arm_walker(grid, seed):
    # every arm kind, Neumann mirrors folded, a scalar and a callable trace:
    # equal bit for bit
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.n_interior)
    a = rng.normal(size=grid.dimension)
    for trace in (rng.normal(), lambda p: np.sin(p @ a) + 0.7):
        got = stencil_residual(grid, u, trace=trace)
        assert got.tobytes() == arm_by_arm_residual(grid, u, trace).tobytes()


def test_single_interior_node_operator():
    g = build_grid(strip_set(-1.0, 2.0, dimension=1), [[0.0, 1.0]], 0.5)
    assert g.n_interior == 1
    op = assemble_laplacian(g)
    assert op.matrix @ np.array([3.0]) == pytest.approx([3.0 * 2.0 / 0.25])
    # constant trace 1 makes u = 1 the exact solution of -u'' = 0
    b = boundary_rhs(op, trace=1.0)
    assert (op.matrix @ np.array([1.0]) - b) == pytest.approx([0.0], abs=1e-13)


@pytest.mark.parametrize("dimension,box,n", [
    (1, [[0.0, 1.0]], 9),
    (2, [[0.0, 2.0], [0.25, 0.75]], 85),
], ids=["1d", "2d"])
def test_window_without_dirichlet_arm_rejected(dimension, box, n):
    # the strip covers the box and every face is Neumann: no cut arm and no
    # Dirichlet face, so every row sums to zero and A is singular
    g = build_grid(strip_set(-1.0, 2.0, dimension=dimension), box, 0.125,
                   face_policy=[["neumann", "neumann"]] * dimension)
    assert g.n_interior == n
    with pytest.raises(ValidationError,
                       match=f"a component of {n} interior nodes has no"
                             " Dirichlet arm"):
        assemble_laplacian(g)


def test_operator_linearity(disk_grid):
    op = assemble_laplacian(disk_grid)
    rng = np.random.default_rng(11)
    u = rng.normal(size=op.n)
    v = rng.normal(size=op.n)
    lhs = op.matrix @ (2.5 * u - 0.5 * v)
    rhs = 2.5 * (op.matrix @ u) - 0.5 * (op.matrix @ v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_pure_lattice_operator_is_symmetric():
    policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
    g = build_grid(strip_set(-0.5, 1.5), [[0.0, 1.0], [0.0, 1.0]], 0.25,
                   face_policy=policy)
    op = assemble_laplacian(g)
    gap = op.matrix - op.matrix.T
    assert abs(gap).max() == 0.0


def test_inverse_positivity(disk_grid):
    # M-matrix structure: nonnegative loads produce nonnegative solutions
    op = assemble_laplacian(disk_grid)
    lu = spla.splu(op.matrix.tocsc())
    rng = np.random.default_rng(7)
    for _ in range(50):
        rhs = rng.uniform(0.0, 1.0, size=op.n)
        assert lu.solve(rhs).min() >= -1e-13


def test_second_order_convergence_on_sine():
    errs = []
    for h in (1.0 / 16, 1.0 / 32, 1.0 / 64):
        g = build_grid(strip_set(0.0, 1.0, dimension=1), [[0.0, 1.0]], h)
        op = assemble_laplacian(g)
        y = g.points[:, 0]
        rhs = math.pi ** 2 * np.sin(math.pi * y) + boundary_rhs(op, trace=0.0)
        u = spla.spsolve(op.matrix.tocsc(), rhs)
        errs.append(np.max(np.abs(u - np.sin(math.pi * y))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8
    assert errs[-1] <= 1e-3


def test_lattice_values_embedding(half_space_grid):
    g = half_space_grid
    full = g.lattice_values(np.ones(g.n_interior), trace=7.0)
    assert full.shape == (5, 5)
    assert np.isnan(full[:, 0]).all()        # below the boundary
    assert np.all(full[:, 4] == 7.0)         # Dirichlet truncation row
    assert np.all(full[:, 1:4] == 1.0)

