"""Masked uniform grids and cut-cell assembly of the Dirichlet Laplacian.

A ``DomainGrid`` lays a closed uniform lattice over a bounding box, masks it
by the domain membership predicate, and classifies every stencil arm of every
interior node:

* ``ARM_INTERNAL``  neighbor node is interior,
* ``ARM_CUT``       the domain boundary crosses the arm; the fraction theta of
  the arm inside the domain is found by ``geometry``'s batched bisection
  of the membership predicate,
* ``ARM_LATTICE``   neighbor is a lattice node held at Dirichlet data (an
  artificial truncation face),
* ``ARM_MIRROR``    the arm leaves the box through a Neumann truncation face;
  assembly folds it onto the opposite arm (even reflection).

The grid stores each arm once, as its kind and its fraction theta (1 on
every arm but a cut one). An internal arm's neighbour is read off
``node_index`` one lattice stride away, and a Dirichlet arm's endpoint is
the node moved by (step * h) * theta along the arm's axis; assembly, the
residual and ``comparison`` derive both from the same helper.

By default the two faces of the last axis are Dirichlet and all other faces
are Neumann, which suits domains unbounded in the lateral directions.

Assembly uses the standard 2N+1-point stencil inside, switching to the
one-sided fractional-arm (Shortley-Weller) form on cut arms; the stencil is
exact on per-axis quadratics for any arm fractions. Dirichlet arm
coefficients are kept out of the matrix and consumed by ``boundary_rhs``.
``stencil_residual`` recomputes the operator action with an independent
gather-based loop for post-hoc residual checks, one vector subtraction per
axis and side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError
from .geometry import _bisect, _membership

__all__ = [
    "ARM_INTERNAL",
    "ARM_CUT",
    "ARM_LATTICE",
    "ARM_MIRROR",
    "DomainGrid",
    "SparseOperator",
    "build_grid",
    "assemble_laplacian",
    "boundary_rhs",
    "stencil_residual",
    "as_trace",
]

ARM_INTERNAL = 0
ARM_CUT = 1
ARM_LATTICE = 2
ARM_MIRROR = 3

_THETA_FLOOR = 1e-8
_THETA_SNAP = 1.0 - 1e-9


def _flat_index(idx, shape):
    """Flat lattice offset of each row of an (m, N) array of multi-indices,
    clipped onto the lattice, and the mask of rows that lie off it."""
    idx = np.asarray(idx, dtype=np.int64)
    off_lattice = np.zeros(len(idx), dtype=bool)
    for k, n in enumerate(shape):
        # one axis at a time: any(axis=1) over a C-ordered (m, N) array is slow
        off_lattice |= (idx[:, k] < 0) | (idx[:, k] >= n)
    return np.ravel_multi_index(idx.T, shape, mode="clip"), off_lattice


@dataclass
class DomainGrid:
    """Uniform lattice restricted to a domain, with stencil arm metadata.

    Each arm (node, axis k, side) is stored once, as ``arm_kind`` and
    ``theta``; neighbours and Dirichlet endpoints are derived from them,
    ``points`` and ``node_index`` (see the module docstring)."""

    box: np.ndarray               # (N, 2) lo/hi per axis
    h: float
    shape: tuple                  # lattice nodes per axis (endpoints included)
    axes: list                    # per-axis coordinate arrays
    inside: np.ndarray            # lattice bool: membership predicate
    interior: np.ndarray          # lattice bool: inside and not Dirichlet-face
    node_index: np.ndarray        # lattice int: interior numbering, -1 elsewhere
    points: np.ndarray            # (n_interior, N) coordinates
    theta: np.ndarray             # (n_interior, N, 2) arm fractions in (0,1]
    arm_kind: np.ndarray          # (n_interior, N, 2) int8 ARM_* codes
    face_policy: tuple            # per axis ("dirichlet"|"neumann") x (lo, hi)
    face_artificial: np.ndarray   # (N, 2) bool: domain reaches this box face

    @property
    def dimension(self) -> int:
        return self.box.shape[0]

    @property
    def n_interior(self) -> int:
        return self.points.shape[0]

    def lattice_values(self, values, trace=0.0) -> np.ndarray:
        """Embed interior values in the full lattice; Dirichlet-face lattice
        nodes get trace values, everything else NaN."""
        full = np.full(self.shape, np.nan)
        full[self.interior] = values
        dir_face = self.inside & ~self.interior
        if dir_face.any():
            idx = np.argwhere(dir_face)
            pts = np.stack([self.axes[k][idx[:, k]] for k in range(self.dimension)], axis=1)
            full[dir_face] = as_trace(trace)(pts)
        return full

    def snap(self, points):
        """Nearest lattice multi-index of each point and its distance to that
        node in cells. A non-finite coordinate snaps off the lattice at
        distance inf; indices beyond the lattice are clipped to one past it."""
        s = (np.atleast_2d(np.asarray(points, dtype=float)) - self.box[:, 0]) / self.h
        near = np.rint(s)
        with np.errstate(invalid="ignore"):  # inf - inf
            offset = np.sqrt(((s - near) ** 2).sum(axis=1))
        offset[np.isnan(offset)] = np.inf
        # fmax sends NaN to -1
        return np.fmin(np.fmax(near, -1), self.shape).astype(np.int64), offset

    def node(self, idx) -> np.ndarray:
        """Interior index of each row of an (m, N) array of lattice
        multi-indices; -1 off the lattice or off the interior."""
        flat, off_lattice = _flat_index(idx, self.shape)
        out = self.node_index.ravel()[flat]
        out[off_lattice] = -1
        return out

    def buffer_lattice(self, depth: int, axes: int = None) -> np.ndarray:
        """Mask over the lattice of the first ``axes`` axes (all by default)
        keeping nodes >= depth cells from every artificial face on them."""
        n = self.dimension if axes is None else axes
        keep = np.ones(self.shape[:n], dtype=bool)
        for k in range(n):
            i = np.arange(self.shape[k]).reshape((-1,) + (1,) * (n - 1 - k))
            if self.face_artificial[k, 0]:
                keep &= i >= depth
            if self.face_artificial[k, 1]:
                keep &= i <= self.shape[k] - 1 - depth
        return keep

    def buffer_mask(self, depth: int) -> np.ndarray:
        """``buffer_lattice(depth)`` over the interior nodes."""
        return self.buffer_lattice(depth)[self.interior]


def _normalize_policy(face_policy, n: int) -> tuple:
    if face_policy is None:
        policy = [["neumann", "neumann"] for _ in range(n)]
        policy[-1] = ["dirichlet", "dirichlet"]
    else:
        policy = [list(p) for p in face_policy]
        if len(policy) != n:
            raise ValidationError("face_policy must list one (lo, hi) pair per axis")
    for pair in policy:
        if len(pair) != 2 or any(p not in ("dirichlet", "neumann") for p in pair):
            raise ValidationError("face_policy entries must be 'dirichlet' or 'neumann'")
    return tuple(tuple(p) for p in policy)


def build_grid(domain, box, h: float, face_policy=None) -> DomainGrid:
    """Mask a uniform lattice by the domain and classify boundary arms.

    The box must be commensurate with h (within 1e-8 of an integer cell
    count per axis). Cut-arm fractions are bisected to h * 1e-10, the arms
    of every axis and side in one batch, so the membership predicate is
    called once for the lattice mask and once per bisection step (at most
    41 times whenever some arm is cut). The bisection stops early once
    every bracket lies above the snap to 1 or below the 1e-8 floor, where
    no further step can change a fraction: 31 calls when every cut arm ends
    on a lattice node. A predicate whose answer does not hold one flag per
    point raises ValidationError.
    """
    contains = _membership(domain)
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValidationError("box must be an (N, 2) array of lo/hi pairs")
    if not np.isfinite(box).all():
        raise ValidationError("box must be finite")
    if h <= 0:
        raise ValidationError("h must be positive")
    n_axes = box.shape[0]
    shape = []
    axes = []
    for k in range(n_axes):
        lo, hi = box[k].tolist()
        if hi <= lo:
            raise ValidationError("box must have hi > lo on every axis")
        cells = (hi - lo) / h
        if not cells < np.iinfo(np.intp).max:
            raise ValidationError("box holds too many nodes per axis for h")
        ncell = round(cells)
        if ncell < 1 or abs(cells - ncell) > 1e-8 * max(1.0, cells):
            raise ValidationError("box is not commensurate with h")
        shape.append(ncell + 1)
        axes.append(lo + h * np.arange(ncell + 1))
    shape = tuple(shape)
    policy = _normalize_policy(face_policy, n_axes)

    mesh = np.meshgrid(*axes, indexing="ij")
    # (N, m) stacked, then transposed: a column-contiguous (m, N) batch
    lattice_pts = np.stack([m.ravel() for m in mesh]).T
    inside = contains(lattice_pts).reshape(shape)

    interior = inside.copy()
    face_artificial = np.zeros((n_axes, 2), dtype=bool)
    for k in range(n_axes):
        for side in (0, 1):
            face = (slice(None),) * k + (side * (shape[k] - 1),)
            face_artificial[k, side] = inside[face].any()
            if policy[k][side] == "dirichlet":
                interior[face] = False
    if not interior.any():
        raise ValidationError("empty interior")

    node_index = np.full(shape, -1, dtype=np.int64)
    n_int = int(interior.sum())
    node_index[interior] = np.arange(n_int)
    lattice_idx = np.argwhere(interior)
    points = np.stack([axes[k][lattice_idx[:, k]] for k in range(n_axes)], axis=1)

    theta = np.ones((n_int, n_axes, 2))
    # zero is ARM_INTERNAL: only the other kinds are written
    arm_kind = np.zeros((n_int, n_axes, 2), dtype=np.int8)

    cuts = []
    for k in range(n_axes):
        for side, step in ((0, -1), (1, +1)):
            nb_idx = lattice_idx.copy()
            nb_idx[:, k] += step
            flat, off_lattice = _flat_index(nb_idx, shape)
            nb_interior = interior.ravel()[flat] & ~off_lattice
            nb_inside = inside.ravel()[flat] & ~off_lattice

            # an interior node on a Neumann truncation face
            arm_kind[off_lattice, k, side] = ARM_MIRROR
            arm_kind[~off_lattice & nb_inside & ~nb_interior, k, side] = ARM_LATTICE

            m = ~off_lattice & ~nb_inside
            if m.any():
                nu = np.zeros(n_axes)
                nu[k] = step * h
                cuts.append((k, side, m, nu))

    if cuts:
        # every cut arm of every axis and side in one bisection, each arm
        # along its own direction nu = step * h * e_k
        counts = [int(m.sum()) for _, _, m, _ in cuts]
        bases = np.concatenate([points[m] for _, _, m, _ in cuts])
        nus = np.repeat([nu for _, _, _, nu in cuts], counts, axis=0)
        # a bracket above the snap ends at theta = 1, one below the floor
        # at theta = 1e-8, whatever the later steps: 0.5 (lo + hi) stays in it
        frac = _bisect(contains, bases, nus, np.zeros(len(bases)),
                       np.ones(len(bases)), True, iters=40,
                       settled=lambda lo, hi: bool(
                           ((lo > _THETA_SNAP) | (hi < _THETA_FLOOR)).all()))
        frac = np.maximum(np.where(frac > _THETA_SNAP, 1.0, frac), _THETA_FLOOR)
        for (k, side, m, _), f in zip(cuts, np.split(frac, np.cumsum(counts)[:-1])):
            theta[m, k, side] = f
            arm_kind[m, k, side] = ARM_CUT

    return DomainGrid(box=box, h=float(h), shape=shape, axes=axes, inside=inside,
                      interior=interior, node_index=node_index, points=points,
                      theta=theta, arm_kind=arm_kind, face_policy=policy,
                      face_artificial=face_artificial)


@dataclass
class SparseOperator:
    """CSR-backed discrete -Laplacian with Dirichlet boundary bookkeeping.

    Immutable once ``assemble_laplacian`` returns it: nothing writes to
    ``matrix`` afterwards, so ``solver`` keeps the matrix's LU factors on the
    operator (``_lu``) and every solve with this operator reuses them. Next
    to them sits the latest Jacobian LU kept on this operator (``_jac_lu``):
    the last one a Newton solve factorized, or one kept before any solve, as
    ``solver._lambda1`` keeps that of J(0) = A - diag(f'(0)). The next Newton
    solve on the operator starts from that LU as its BiCGSTAB
    preconditioner. ``_lu`` and a kept J(0) are double precision; a Jacobian
    LU that a Newton step factorized is single precision (float32 SuperLU
    factors behind a float64 ``solve``), as it only preconditions. A solve's
    last bits therefore depend on what ran on the operator before it;
    rerunning the same sequence of calls gives bit-identical results.

    ``components`` is the number of connected components of the matrix's
    pattern, which assembly labels once; ``solver`` reads it before every
    eigensolve. The n-long labels are not kept.

    ``_diag_pos`` holds the positions of A's diagonal entries in
    ``matrix.data``, which ``solver._jacobian`` finds on first use: each
    Newton Jacobian A - diag(f') is a copy of A's values with f' subtracted
    there, on ``matrix``'s own ``indices`` and ``indptr``. Those are shared,
    not copied, and nothing sorts or writes them: ``matrix`` is still never
    written."""

    matrix: sp.csr_matrix
    bc_rows: np.ndarray
    bc_coeffs: np.ndarray
    bc_points: np.ndarray
    grid: DomainGrid = field(repr=False)
    components: int
    _lu: object = field(default=None, init=False, repr=False, compare=False)
    _jac_lu: object = field(default=None, init=False, repr=False, compare=False)
    _diag_pos: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _axis_arms(grid: DomainGrid):
    """The stencil arms of each axis k, mirror arms folded onto the opposite
    side (even reflection).

    Yields per axis the folded fractions (tm, tp) of its two sides and, per
    side, (rows, neighbours, bc_rows, endpoints): the nodes whose arm is
    internal with the neighbour's interior index, read off ``node_index``
    one lattice stride along axis k, then the nodes whose arm is a Dirichlet
    arm (cut, or to a Dirichlet-face lattice node) with the arm's endpoint,
    the node moved by (step * h) * theta along axis k.
    """
    offset = np.flatnonzero(grid.interior)  # each node's flat lattice offset
    nodes = grid.node_index.ravel()
    for k in range(grid.dimension):
        stride = math.prod(grid.shape[k + 1:])
        # build_grid rejects an axis of fewer than one cell: no node mirrors both sides
        mirror = grid.arm_kind[:, k] == ARM_MIRROR
        theta = [np.where(mirror[:, s], grid.theta[:, k, 1 - s], grid.theta[:, k, s])
                 for s in (0, 1)]
        sides = []
        for s in (0, 1):
            kind = np.where(mirror[:, s], grid.arm_kind[:, k, 1 - s],
                            grid.arm_kind[:, k, s])
            step = np.where(mirror[:, s], 1 - 2 * s, 2 * s - 1)
            rows = np.flatnonzero(kind == ARM_INTERNAL)
            bc = np.flatnonzero((kind == ARM_CUT) | (kind == ARM_LATTICE))
            end = grid.points[bc]
            end[:, k] += step[bc] * grid.h * theta[s][bc]
            sides.append((rows, nodes[offset[rows] + step[rows] * stride], bc, end))
        yield theta[0], theta[1], sides


def _components(matrix: sp.csr_matrix):
    """The connected components of the matrix's pattern: their count and
    each row's label. The cut-cell pattern is symmetric (an arm is internal
    exactly when the arm back is), so they are its strongly connected
    components, the irreducible blocks of A, which SciPy labels without the
    transposed copy its undirected labelling makes (12 MB at n = 174,616)."""
    return connected_components(matrix, directed=True, connection="strong")


def assemble_laplacian(grid: DomainGrid) -> SparseOperator:
    """Assemble -Laplacian in CSR form; Dirichlet arms go to the rhs tables.

    Every connected component of the operator must hold a row with a
    Dirichlet arm (a cut arm or a lattice node on a Dirichlet face): the
    rows of a component without one sum to zero, so A would be singular.
    Such a window (every face Neumann and no cut arm in some component)
    raises ValidationError naming the component's size and one node."""
    n = grid.n_interior
    h2 = grid.h * grid.h
    all_rows = np.arange(n, dtype=np.int64)
    diag = np.zeros(n)
    rows_list, cols_list, vals_list = [], [], []
    bc_rows, bc_coeffs, bc_points = [], [], []
    for tm, tp, sides in _axis_arms(grid):
        diag += 2.0 / (h2 * tm * tp)
        for ts, (rows, nbrs, bc, end) in zip((tm, tp), sides):
            coeff = 2.0 / (h2 * ts * (tm + tp))
            rows_list.append(rows)
            cols_list.append(nbrs)
            vals_list.append(-coeff[rows])
            bc_rows.append(bc)
            bc_coeffs.append(coeff[bc])
            bc_points.append(end)

    rows_list.append(all_rows)
    cols_list.append(all_rows)
    vals_list.append(diag)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = np.concatenate(vals_list)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()

    bc_rows = np.concatenate(bc_rows)
    bc_coeffs = np.concatenate(bc_coeffs)
    bc_points = np.concatenate(bc_points)
    count, labels = _components(matrix)
    grounded = np.zeros(count, dtype=bool)
    grounded[labels[bc_rows]] = True
    if not grounded.all():
        members = np.flatnonzero(labels == np.flatnonzero(~grounded)[0])
        node = members[0]
        raise ValidationError(
            f"operator is singular: a component of {members.size} interior"
            f" nodes has no Dirichlet arm (node {node} at"
            f" {grid.points[node].tolist()}); make a face Dirichlet")
    return SparseOperator(matrix=matrix, bc_rows=bc_rows, bc_coeffs=bc_coeffs,
                          bc_points=bc_points, grid=grid, components=count)


def as_trace(trace):
    """Normalize a boundary trace (scalar or callable on points) to a callable."""
    if callable(trace):
        def fn(pts):
            return np.asarray(trace(pts), dtype=float).reshape(len(pts))
        return fn
    val = float(trace)

    def fn(pts):
        return np.full(len(pts), val)
    return fn


def boundary_rhs(op: SparseOperator, trace=0.0) -> np.ndarray:
    """Right-hand-side vector carrying Dirichlet data through boundary arms."""
    b = np.zeros(op.n)
    if op.bc_rows.size:
        vals = as_trace(trace)(op.bc_points)
        np.add.at(b, op.bc_rows, op.bc_coeffs * vals)
    return b


def stencil_residual(grid: DomainGrid, u: np.ndarray, trace=0.0) -> np.ndarray:
    """Recompute (A u - boundary terms) by per-arm gathers.

    Independent of the CSR path: accumulates arm by arm instead of building a
    matrix, for post-hoc residual verification. Per axis and side, one
    vector v gathers each node's far value, u at its internal neighbour or
    the trace at its Dirichlet endpoint (one trace call per side, as the
    boundary tables batch them), and out -= coeff * v subtracts the whole
    side at once: every node is in exactly one of the two sets, so each gets
    the multiply and subtraction that a scatter per arm kind gave, bit for
    bit.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValidationError("field length does not match grid")
    h2 = grid.h * grid.h
    trace_fn = as_trace(trace)
    out = np.zeros(grid.n_interior)
    # each node's arm on a side is internal or Dirichlet (a mirror arm is
    # folded onto the opposite one): rows and bc fill every entry of v
    v = np.empty(grid.n_interior)
    for tm, tp, sides in _axis_arms(grid):
        out += 2.0 / (h2 * tm * tp) * u
        for ts, (rows, nbrs, bc, end) in zip((tm, tp), sides):
            v[rows] = u[nbrs]
            if bc.size:
                v[bc] = trace_fn(end)
            out -= 2.0 / (h2 * ts * (tm + tp)) * v
    return out
