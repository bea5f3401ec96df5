"""Property tests for the lattice lookups of ``DomainGrid``: ``snap``,
``node``, ``buffer_lattice`` and ``buffer_mask``, for the arm and sign
invariants assembly relies on, for the operator's exactness on quadratics
and inverse positivity, and for the moving-plane reflection's index flip,
on random 1-, 2- and 3-D grids (boxes one cell wide included), ball domains
and face policies."""

import itertools

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from epigraph_lab import (ARM_CUT, ARM_INTERNAL, ARM_LATTICE, ARM_MIRROR,
                          ConvergenceError, NumericalError, SolutionField,
                          ValidationError, assemble_laplacian, build_grid,
                          cap_sweep, solve_linear, stencil_residual)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def grids(draw, dimensions=(1, 3)):
    n = draw(st.integers(*dimensions))
    h = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    lo = np.array([draw(st.integers(-4, 4)) * h for _ in range(n)])
    cells = np.array([draw(st.integers(1, 7)) for _ in range(n)])
    box = np.stack([lo, lo + cells * h], axis=1)
    center = lo + np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)]) * cells * h
    radius = draw(st.floats(0.3, 2.0)) * cells.max() * h
    policy = [tuple(draw(st.sampled_from(["dirichlet", "neumann"])) for _ in range(2))
              for _ in range(n)]
    try:
        return build_grid(lambda p: ((p - center) ** 2).sum(axis=1) < radius ** 2,
                          box, h, face_policy=policy)
    except ValidationError:  # empty interior
        assume(False)


def lattice_nodes(grid):
    return np.array(list(itertools.product(*[range(s) for s in grid.shape])))


def plane_buffer_reference(grid, depth):
    """Buffer mask over the lateral (all-but-last-axis) lattice shape."""
    shape = grid.shape[:-1]
    keep = np.ones(shape, dtype=bool)
    for k in range(grid.dimension - 1):
        idx = np.arange(grid.shape[k])
        sl = [None] * len(shape)
        sl[k] = slice(None)
        line = np.ones(grid.shape[k], dtype=bool)
        if grid.face_artificial[k, 0]:
            line &= idx >= depth
        if grid.face_artificial[k, 1]:
            line &= idx <= grid.shape[k] - 1 - depth
        keep &= line[tuple(sl)]
    return keep


@SETTINGS
@given(grids())
def test_lattice_points_snap_to_their_node(grid):
    idx = lattice_nodes(grid)
    pts = np.stack([grid.axes[k][idx[:, k]] for k in range(grid.dimension)], axis=1)
    got, offset = grid.snap(pts)
    assert (got == idx).all()
    assert (offset <= 1e-9).all()
    expect = [grid.node_index[tuple(i)] for i in idx]
    assert grid.node(got).tolist() == expect


@SETTINGS
@given(grids(), st.floats(0.01, 0.49), st.integers(1, 3), st.data())
def test_shifted_off_box_and_nan_points_are_rejected(grid, frac, beyond, data):
    n = grid.dimension
    idx = lattice_nodes(grid)
    pts = grid.box[:, 0] + grid.h * idx
    k = data.draw(st.integers(0, n - 1))
    shifted = pts.copy()
    shifted[:, k] += frac * grid.h
    assert (grid.snap(shifted)[1] > 1e-6).all()

    outside = pts.copy()
    outside[:, k] = grid.box[k, 0] - beyond * grid.h
    far = pts.copy()
    far[:, k] = grid.box[k, 1] + beyond * grid.h
    huge = pts.copy()
    huge[:, k] = 1e300
    for off_box in (outside, far, huge):
        assert (grid.node(grid.snap(off_box)[0]) == -1).all()

    bad = pts.copy()
    bad[:, k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    got, offset = grid.snap(bad)
    assert np.isinf(offset).all()
    assert (grid.node(got) == -1).all()


@SETTINGS
@given(grids(), st.integers(0, 4))
def test_buffer_lattice_matches_a_per_node_loop(grid, depth):
    expect = []
    for i in np.argwhere(grid.interior):
        keep = True
        for k in range(grid.dimension):
            if grid.face_artificial[k, 0] and i[k] < depth:
                keep = False
            if grid.face_artificial[k, 1] and i[k] > grid.shape[k] - 1 - depth:
                keep = False
        expect.append(keep)
    assert grid.buffer_lattice(depth)[grid.interior].tolist() == expect
    assert grid.buffer_mask(depth).tolist() == expect


@SETTINGS
@given(grids(), st.integers(0, 4))
def test_plane_buffer_is_the_lateral_buffer_lattice(grid, depth):
    got = grid.buffer_lattice(depth, grid.dimension - 1)
    ref = plane_buffer_reference(grid, depth)
    assert got.shape == ref.shape
    assert (got == ref).all()


def ungrounded(grid):
    """Whether some set of interior nodes joined by internal arms has no cut
    arm and no arm to a Dirichlet lattice node: min-label propagation over
    the grid's arm kinds, each internal arm's neighbour looked up by
    ``node`` one lattice step away."""
    kind = grid.arm_kind
    idx = np.argwhere(grid.interior)
    rows, cols = [], []
    for k in range(grid.dimension):
        for side, step in ((0, -1), (1, 1)):
            internal = np.flatnonzero(kind[:, k, side] == ARM_INTERNAL)
            nb = idx[internal]
            nb[:, k] += step
            rows.append(internal)
            cols.append(grid.node(nb))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    assert (cols >= 0).all()
    label = np.arange(grid.n_interior)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        if (new == label).all():
            break
        label = new
    dirichlet = ((kind == ARM_CUT) | (kind == ARM_LATTICE)).any(axis=(1, 2))
    return not np.isin(label, label[dirichlet]).all()


@SETTINGS
@given(grids())
def test_assembly_rejects_exactly_the_ungrounded_grids(grid):
    try:
        assemble_laplacian(grid)
    except ValidationError as exc:
        assert "no Dirichlet arm" in str(exc)
        assert ungrounded(grid)
    else:
        assert not ungrounded(grid)


@SETTINGS
@given(grids())
def test_no_double_mirror_and_m_matrix_sign_pattern(grid):
    mirror = grid.arm_kind == ARM_MIRROR
    assert not (mirror[:, :, 0] & mirror[:, :, 1]).any()
    assume(not ungrounded(grid))
    a = assemble_laplacian(grid).matrix.tocoo()
    on_diag = a.row == a.col
    assert on_diag.sum() == grid.n_interior
    assert (a.data[on_diag] > 0).all()
    assert (a.data[~on_diag] <= 0).all()


@SETTINGS
@given(grids(), st.data())
def test_stencil_is_exact_on_quadratics(grid, data):
    # -Laplacian of (x - c)^T D (x - c) + 1/2 is -2 tr D; the fractional
    # arms are exact on it whatever theta, a mirror arm (an even reflection)
    # is not
    n = grid.dimension
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    c = grid.box[:, 0] + np.array(data.draw(unit)) * (grid.box[:, 1] - grid.box[:, 0])
    d = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                                    max_size=n * n))).reshape(n, n)
    d = d + d.T

    def quadratic(p):
        x = p - c
        return np.einsum("ij,jk,ik->i", x, d, x) + 0.5

    u = quadratic(grid.points)
    res = stencil_residual(grid, u, trace=quadratic)
    no_mirror = ~(grid.arm_kind == ARM_MIRROR).any(axis=(1, 2))
    # rounding in a difference over an arm of fraction theta grows as
    # 1 / (theta h^2)
    err = np.abs(res + 2.0 * np.trace(d)) * grid.h ** 2 * grid.theta.min(axis=(1, 2))
    assert (err[no_mirror] <= 1e-13 * (1.0 + np.abs(u).max())).all()


@SETTINGS
@given(grids())
def test_inverse_positivity(grid):
    # every irreducible block of the M-matrix holds a Dirichlet row, so its
    # inverse is entrywise positive: A u = 1 has u > 0 at every node
    assume(not ungrounded(grid))
    op = assemble_laplacian(grid)
    assert (solve_linear(op, np.ones(op.n)).values > 0.0).all()


@settings(SETTINGS, max_examples=300)
@given(grids(dimensions=(3, 3)))
def test_three_dimensional_solve_is_right_or_raises(grid):
    # BiCGSTAB's recursively updated residual can report convergence while
    # the true one misses the target; solve_linear then restarts once, and
    # raises rather than return a field off the solution. About 2 % of such
    # grids drift, hence the longer run
    assume(not ungrounded(grid))
    op = assemble_laplacian(grid)
    dense = np.linalg.solve(op.matrix.toarray(), np.ones(op.n))
    try:
        u = solve_linear(op, np.ones(op.n)).values
    except ConvergenceError:
        return
    assert np.abs(u - dense).max() <= 1e-8 * np.abs(dense).max()


@SETTINGS
@given(grids(), st.integers(0, 2 ** 32 - 1))
def test_even_field_has_zero_cap_difference_at_its_plane(grid, seed):
    # a field that is a function of the column and of the index distance
    # |2 j - k2| to the plane k2 half-cells above the box bottom is exactly
    # even about it: each reflected value is the compared value, bit for bit
    nj = grid.shape[-1]
    table = np.random.default_rng(seed).standard_normal((grid.inside.size // nj,
                                                         2 * nj))
    col, j = np.divmod(np.flatnonzero(grid.interior), nj)
    swept = 0
    for k2 in range(1, 2 * nj - 2):
        def even(col, j, k2=k2):
            return table[col, np.abs(2 * j - k2)]

        def trace(p, even=even):  # read at Dirichlet-face lattice nodes
            return even(*np.divmod(np.ravel_multi_index(grid.snap(p)[0].T,
                                                        grid.shape), nj))

        u = SolutionField(grid=grid, values=even(col, j), trace=trace,
                          method="constructed")
        lam = grid.box[-1, 0] + 0.5 * k2 * grid.h
        try:
            rep = cap_sweep(u, None, lambda_grid=[lam], buffer=0)
        except NumericalError:   # the reflection leaves the known values
            continue
        except ValidationError:  # no node below the plane
            continue
        assert rep.cap_min_diff.tolist() == [0.0]
        swept += 1
    assume(swept)
