"""Grid masking, arm classification and cut-cell stencil exactness."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from epigraph_lab import (
    ARM_CUT,
    ARM_INTERNAL,
    ARM_LATTICE,
    ARM_MIRROR,
    ValidationError,
    assemble_laplacian,
    boundary_rhs,
    build_grid,
    make_epigraph,
    stencil_residual,
    strip_set,
)


def unit_disk(points):
    pts = np.atleast_2d(points)
    return (pts ** 2).sum(axis=1) < 1.0


@pytest.fixture
def half_space_grid():
    dom = make_epigraph("half_space", dimension=2)
    return build_grid(dom, [[0.0, 1.0], [0.0, 1.0]], 0.25)


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
        assert np.allclose(g.arm_point[i_top, 1, 1], [0.5, 1.0])

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
    for i, k, sd in list(zip(node, axis, side))[::5]:
        step = 2 * sd - 1
        frac = arm_fraction_reference(contains, g.points[i], k, step, h)
        assert g.theta[i, k, sd] == frac
        end = g.points[i].copy()
        end[k] += step * h * frac
        assert (g.arm_point[i, k, sd] == end).all()


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

    def test_matrix_and_gather_paths_agree(self, disk_grid):
        op = assemble_laplacian(disk_grid)
        rng = np.random.default_rng(3)
        u = rng.normal(size=disk_grid.n_interior)
        direct = op.apply(u) - boundary_rhs(op, trace=0.7)
        gathered = stencil_residual(disk_grid, u, trace=0.7)
        assert np.max(np.abs(direct - gathered)) <= 1e-10


def test_single_interior_node_operator():
    g = build_grid(strip_set(-1.0, 2.0, dimension=1), [[0.0, 1.0]], 0.5)
    assert g.n_interior == 1
    op = assemble_laplacian(g)
    assert op.apply(np.array([3.0])) == pytest.approx([3.0 * 2.0 / 0.25])
    # constant trace 1 makes u = 1 the exact solution of -u'' = 0
    b = boundary_rhs(op, trace=1.0)
    assert (op.apply(np.array([1.0])) - b) == pytest.approx([0.0], abs=1e-13)


def test_operator_linearity(disk_grid):
    op = assemble_laplacian(disk_grid)
    rng = np.random.default_rng(11)
    u = rng.normal(size=op.n)
    v = rng.normal(size=op.n)
    lhs = op.apply(2.5 * u - 0.5 * v)
    rhs = 2.5 * op.apply(u) - 0.5 * op.apply(v)
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


def test_dump_rows_covers_lattice(half_space_grid):
    header, rows = half_space_grid.dump_rows()
    assert header == ["x1", "x2", "inside", "interior", "min_theta"]
    assert len(rows) == 25
    on = [r for r in rows if r[2] == 1]
    assert len(on) == 20
