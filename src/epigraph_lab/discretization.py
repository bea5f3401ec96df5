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

By default the two faces of the last axis are Dirichlet and all other faces
are Neumann, which suits domains unbounded in the lateral directions.

Assembly uses the standard 2N+1-point stencil inside, switching to the
one-sided fractional-arm (Shortley-Weller) form on cut arms; the stencil is
exact on per-axis quadratics for any arm fractions. Dirichlet arm
coefficients are kept out of the matrix and consumed by ``boundary_rhs``.
``stencil_residual`` recomputes the operator action with an independent
gather-based loop for post-hoc residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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


@dataclass
class DomainGrid:
    """Uniform lattice restricted to a domain, with stencil arm metadata."""

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
    arm_target: np.ndarray        # (n_interior, N, 2) interior index or -1
    arm_point: np.ndarray         # (n_interior, N, 2, N) Dirichlet arm endpoint
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

    def buffer_mask(self, depth: int) -> np.ndarray:
        """Interior-node mask keeping nodes >= depth cells from every
        artificial box face."""
        keep = np.ones(self.n_interior, dtype=bool)
        lattice_idx = np.argwhere(self.interior)
        for k in range(self.dimension):
            if self.face_artificial[k, 0]:
                keep &= lattice_idx[:, k] >= depth
            if self.face_artificial[k, 1]:
                keep &= lattice_idx[:, k] <= self.shape[k] - 1 - depth
        return keep

    def dump_rows(self):
        """Debug table: one row per lattice node with mask and cut fractions."""
        header = [f"x{k + 1}" for k in range(self.dimension)]
        header += ["inside", "interior", "min_theta"]
        rows = []
        min_theta = np.ones(self.shape)
        cut = self.theta.min(axis=(1, 2))
        min_theta[self.interior] = cut
        it = np.ndindex(*self.shape)
        for idx in it:
            coords = [self.axes[k][idx[k]] for k in range(self.dimension)]
            rows.append(coords + [int(self.inside[idx]), int(self.interior[idx]),
                                  float(min_theta[idx]) if self.interior[idx] else 1.0])
        return header, rows


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
    count per axis). Cut-arm fractions are bisected to h * 1e-10.
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
    lattice_pts = np.stack([m.ravel() for m in mesh], axis=1)
    inside = np.asarray(contains(lattice_pts), dtype=bool).reshape(shape)

    interior = inside.copy()
    for k in range(n_axes):
        sl = [slice(None)] * n_axes
        if policy[k][0] == "dirichlet":
            sl[k] = 0
            interior[tuple(sl)] = False
        if policy[k][1] == "dirichlet":
            sl[k] = shape[k] - 1
            interior[tuple(sl)] = False
    if not interior.any():
        raise ValidationError("empty interior")

    face_artificial = np.zeros((n_axes, 2), dtype=bool)
    for k in range(n_axes):
        sl = [slice(None)] * n_axes
        sl[k] = 0
        face_artificial[k, 0] = inside[tuple(sl)].any()
        sl[k] = shape[k] - 1
        face_artificial[k, 1] = inside[tuple(sl)].any()

    node_index = np.full(shape, -1, dtype=np.int64)
    n_int = int(interior.sum())
    node_index[interior] = np.arange(n_int)
    lattice_idx = np.argwhere(interior)
    points = np.stack([axes[k][lattice_idx[:, k]] for k in range(n_axes)], axis=1)

    theta = np.ones((n_int, n_axes, 2))
    arm_kind = np.zeros((n_int, n_axes, 2), dtype=np.int8)
    arm_target = np.full((n_int, n_axes, 2), -1, dtype=np.int64)
    arm_point = np.zeros((n_int, n_axes, 2, n_axes))

    for k in range(n_axes):
        for side, step in ((0, -1), (1, +1)):
            nb_idx = lattice_idx.copy()
            nb_idx[:, k] += step
            off_lattice = (nb_idx[:, k] < 0) | (nb_idx[:, k] > shape[k] - 1)
            nb_clamped = nb_idx.copy()
            nb_clamped[:, k] = np.clip(nb_clamped[:, k], 0, shape[k] - 1)
            flat = np.ravel_multi_index(nb_clamped.T, shape)
            nb_interior = interior.ravel()[flat] & ~off_lattice
            nb_inside = inside.ravel()[flat] & ~off_lattice

            m = nb_interior
            arm_kind[m, k, side] = ARM_INTERNAL
            arm_target[m, k, side] = node_index.ravel()[flat[m]]

            m = off_lattice
            if m.any():
                # interior node sits on a Neumann truncation face
                arm_kind[m, k, side] = ARM_MIRROR

            m = ~off_lattice & nb_inside & ~nb_interior
            if m.any():
                arm_kind[m, k, side] = ARM_LATTICE
                pts = points[m].copy()
                pts[:, k] += step * h
                arm_point[m, k, side, :] = pts

            m = ~off_lattice & ~nb_inside
            if m.any():
                nu = np.zeros(n_axes)
                nu[k] = step * h
                base = points[m]
                frac = _bisect(contains, base, nu, np.zeros(len(base)),
                               np.ones(len(base)), True, iters=40)
                frac = np.maximum(np.where(frac > _THETA_SNAP, 1.0, frac),
                                  _THETA_FLOOR)
                theta[m, k, side] = frac
                arm_kind[m, k, side] = ARM_CUT
                pts = points[m].copy()
                pts[:, k] += step * h * frac
                arm_point[m, k, side, :] = pts

    return DomainGrid(box=box, h=float(h), shape=shape, axes=axes, inside=inside,
                      interior=interior, node_index=node_index, points=points,
                      theta=theta, arm_kind=arm_kind, arm_target=arm_target,
                      arm_point=arm_point, face_policy=policy,
                      face_artificial=face_artificial)


@dataclass
class SparseOperator:
    """CSR-backed discrete -Laplacian with Dirichlet boundary bookkeeping."""

    matrix: sp.csr_matrix
    bc_rows: np.ndarray
    bc_coeffs: np.ndarray
    bc_points: np.ndarray
    grid: DomainGrid = field(repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValidationError("field length does not match operator dimension")
        return self.matrix @ u


def _folded_arms(grid: DomainGrid):
    """Resolve mirror arms onto their opposite side.

    Returns effective (theta_minus, theta_plus, kinds, targets, points) where
    a mirror arm copies the opposite arm's data, plus a per-(node, axis) flag
    array: 0 none, 1 minus folded, 2 plus folded, 3 both (axis dropped).
    """
    th = grid.theta.copy()
    kind = grid.arm_kind.copy()
    target = grid.arm_target.copy()
    point = grid.arm_point.copy()
    both = (kind[:, :, 0] == ARM_MIRROR) & (kind[:, :, 1] == ARM_MIRROR)
    fold = np.zeros(kind.shape[:2], dtype=np.int8)
    for side, opp in ((0, 1), (1, 0)):
        m = (kind[:, :, side] == ARM_MIRROR) & ~both
        fold[m] += 1 + side
        th[:, :, side][m] = th[:, :, opp][m]
        kind[:, :, side][m] = kind[:, :, opp][m]
        target[:, :, side][m] = target[:, :, opp][m]
        point[m, side, :] = point[m, opp, :]
    fold[both] = 3
    return th, kind, target, point, fold


def assemble_laplacian(grid: DomainGrid) -> SparseOperator:
    """Assemble -Laplacian in CSR form; Dirichlet arms go to the rhs tables."""
    n = grid.n_interior
    ndim = grid.dimension
    h2 = grid.h * grid.h
    th, kind, target, point, fold = _folded_arms(grid)

    rows_list = []
    cols_list = []
    vals_list = []
    bc_rows = []
    bc_coeffs = []
    bc_points = []

    all_rows = np.arange(n, dtype=np.int64)
    diag = np.zeros(n)
    for k in range(ndim):
        live = fold[:, k] != 3
        tm = th[:, k, 0]
        tp = th[:, k, 1]
        diag[live] += 2.0 / (h2 * tm[live] * tp[live])
        for side in (0, 1):
            ts = th[:, k, side]
            coeff = 2.0 / (h2 * ts * (tm + tp))
            ks = kind[:, k, side]
            m = live & (ks == ARM_INTERNAL)
            if m.any():
                rows_list.append(all_rows[m])
                cols_list.append(target[:, k, side][m])
                vals_list.append(-coeff[m])
            m = live & ((ks == ARM_CUT) | (ks == ARM_LATTICE))
            if m.any():
                bc_rows.append(all_rows[m])
                bc_coeffs.append(coeff[m])
                bc_points.append(point[m, k, side, :])

    rows_list.append(all_rows)
    cols_list.append(all_rows)
    vals_list.append(diag)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = np.concatenate(vals_list)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()

    if bc_rows:
        bc_rows = np.concatenate(bc_rows)
        bc_coeffs = np.concatenate(bc_coeffs)
        bc_points = np.concatenate(bc_points)
    else:
        bc_rows = np.zeros(0, dtype=np.int64)
        bc_coeffs = np.zeros(0)
        bc_points = np.zeros((0, ndim))
    return SparseOperator(matrix=matrix, bc_rows=bc_rows, bc_coeffs=bc_coeffs,
                          bc_points=bc_points, grid=grid)


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
    matrix, for post-hoc residual verification.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValidationError("field length does not match grid")
    h2 = grid.h * grid.h
    th, kind, target, point, fold = _folded_arms(grid)
    trace_fn = as_trace(trace)
    out = np.zeros(grid.n_interior)
    for k in range(grid.dimension):
        live = fold[:, k] != 3
        tm = th[:, k, 0]
        tp = th[:, k, 1]
        out[live] += 2.0 / (h2 * tm[live] * tp[live]) * u[live]
        for side in (0, 1):
            coeff = 2.0 / (h2 * th[:, k, side] * (tm + tp))
            ks = kind[:, k, side]
            m = live & (ks == ARM_INTERNAL)
            if m.any():
                out[m] -= coeff[m] * u[target[:, k, side][m]]
            m = live & ((ks == ARM_CUT) | (ks == ARM_LATTICE))
            if m.any():
                out[m] -= coeff[m] * trace_fn(point[m, k, side, :])
    return out
