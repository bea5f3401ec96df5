"""Reflection sweeps: cap inequalities, monotone height, and Hopf slopes.

Fields are reflected across horizontal planes x_N = lambda. When 2(lambda -
lo) is an integer number of cells the reflection is an exact lattice index
flip; otherwise values are cubic-interpolated along x_N and the interpolation
error bound (a fourth-difference estimate / 16) is added to the comparison
tolerance. Caps are intersected with the window minus a buffer near
artificial truncation faces, where the comparison would be polluted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .solver import SolutionField

__all__ = [
    "MovingPlaneReport",
    "HopfReport",
    "reflect_field",
    "cap_sweep",
    "hopf_slope_check",
    "vertical_derivative",
]

_EXACT_TOL = 1e-9


@dataclass
class MovingPlaneReport:
    lambda_grid: np.ndarray
    cap_min_diff: np.ndarray
    monotone_up_to: float
    dn_u_min: float
    sign_change_cells: list
    meta: dict = field(default_factory=dict)


@dataclass
class HopfReport:
    lam: float
    defect: float
    dn_min: float
    dn_max: float
    n_columns: int


def _lattice(u: SolutionField) -> np.ndarray:
    return u.grid.lattice_values(u.values, u.trace)


def _reflection_index(grid, lam: float):
    """Number of half-cells between lambda and the axis origin, if integral."""
    lo = grid.box[-1, 0]
    k2 = 2.0 * (lam - lo) / grid.h
    k2r = round(k2)
    if abs(k2 - k2r) <= _EXACT_TOL:
        return int(k2r)
    return None


def _fourth_difference_bound(full: np.ndarray) -> float:
    """max |fourth difference| along the last axis, NaN windows skipped."""
    if full.shape[-1] < 5:
        return math.nan
    d4 = full[..., 4:] - 4 * full[..., 3:-1] + 6 * full[..., 2:-2] \
        - 4 * full[..., 1:-3] + full[..., :-4]
    good = np.isfinite(d4)
    if not good.any():
        return math.nan
    return float(np.abs(d4[good]).max())


def _reflected_values(full: np.ndarray, grid, lam: float, lattice_idx: np.ndarray):
    """u(x', 2 lam - x_N) for the given lattice multi-indices.

    Returns (values, interp_bound). NaN lookups mean the reflection left the
    window of known values.
    """
    h = grid.h
    lo = grid.box[-1, 0]
    k2 = _reflection_index(grid, lam)
    nj = grid.shape[-1]
    j = lattice_idx[:, -1]
    if k2 is not None:
        jr = k2 - j
        if (jr < 0).any() or (jr > nj - 1).any():
            raise NumericalError("reflection leaves window")
        idx = lattice_idx.copy()
        idx[:, -1] = jr
        vals = full[tuple(idx.T)]
        return vals, 0.0
    yr = 2.0 * lam - (lo + j * h)
    s = (yr - lo) / h
    j0 = np.floor(s).astype(int)
    t = s - j0
    if (j0 - 1 < 0).any() or (j0 + 2 > nj - 1).any():
        raise NumericalError("reflection leaves window")
    weights = _cubic_weights_vec(t)
    vals = np.zeros(len(j))
    for off in range(4):
        idx = lattice_idx.copy()
        idx[:, -1] = j0 + off - 1
        vals += weights[:, off] * full[tuple(idx.T)]
    bound = _fourth_difference_bound(full)
    bound = 0.0 if math.isnan(bound) else bound / 16.0
    return vals, bound


def _cubic_weights_vec(t: np.ndarray) -> np.ndarray:
    return np.stack([
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    ], axis=1)


def reflect_field(u: SolutionField, lam: float) -> SolutionField:
    """Field of reflected values u_lambda at every interior node."""
    grid = u.grid
    full = _lattice(u)
    lattice_idx = np.argwhere(grid.interior)
    vals, bound = _reflected_values(full, grid, lam, lattice_idx)
    if not np.isfinite(vals).all():
        raise NumericalError("reflection leaves window")
    meta = dict(u.meta)
    meta.update(reflected_about=lam, interp_bound=bound)
    return SolutionField(grid=grid, values=vals, trace=u.trace,
                         residual_norm=math.nan, iterations=u.iterations,
                         method=u.method, meta=meta)


def vertical_derivative(u: SolutionField, buffer: int = 3):
    """d u / d x_N per interior node: centered where both vertical neighbors
    are known, one-sided otherwise, NaN when neither is.

    Returns (dn array over interior nodes, mask of buffer-interior nodes)."""
    grid = u.grid
    full = _lattice(u)
    h = grid.h
    nj = grid.shape[-1]
    lattice_idx = np.argwhere(grid.interior)
    j = lattice_idx[:, -1]
    here = u.values

    def peek(offset):
        jj = j + offset
        ok = (jj >= 0) & (jj <= nj - 1)
        out = np.full(len(j), np.nan)
        idx = lattice_idx[ok].copy()
        idx[:, -1] = jj[ok]
        out[ok] = full[tuple(idx.T)]
        return out

    up = peek(+1)
    down = peek(-1)
    dn = np.full(len(j), np.nan)
    both = np.isfinite(up) & np.isfinite(down)
    dn[both] = (up[both] - down[both]) / (2.0 * h)
    only_up = np.isfinite(up) & ~np.isfinite(down)
    dn[only_up] = (up[only_up] - here[only_up]) / h
    only_down = ~np.isfinite(up) & np.isfinite(down)
    dn[only_down] = (here[only_down] - down[only_down]) / h
    return dn, grid.buffer_mask(buffer)


def cap_sweep(u: SolutionField, spec, lambda_grid=None, tol: float = 1e-8,
              buffer: int = 3) -> MovingPlaneReport:
    """Minimum of (u_lambda - u) over each cap, plus vertical-slope data."""
    grid = u.grid
    if tol <= 0:
        raise ValidationError("tol must be positive")
    lo = grid.box[-1, 0]
    hi = grid.box[-1, 1]
    h = grid.h
    if lambda_grid is None:
        top = lo + 0.5 * (hi - lo)
        ks = np.arange(2, int(round((top - lo) / h)) + 1)
        lambda_grid = lo + ks * h
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0 or (np.diff(lambda_grid) <= 0).any():
        raise ValidationError("lambda_grid must be nonempty and increasing")

    full = _lattice(u)
    lattice_idx = np.argwhere(grid.interior)
    y = grid.points[:, -1]
    buf = grid.buffer_mask(buffer)

    kept_lams = []
    mins = []
    bounds = []
    skipped = []
    # interior nodes already satisfy x_N > g(x'), so each cap is just the
    # buffered window below the plane; spec is kept for report labeling
    for lam in lambda_grid:
        cap = buf & (y < lam - 1e-12)
        if not cap.any():
            skipped.append(float(lam))
            continue
        vals, bound = _reflected_values(full, grid, lam, lattice_idx[cap])
        if not np.isfinite(vals).all():
            raise NumericalError("reflection leaves window")
        kept_lams.append(float(lam))
        mins.append(float((vals - u.values[cap]).min()))
        bounds.append(bound)

    if not kept_lams:
        raise ValidationError("no lambda produced a nonempty cap")
    kept_lams = np.asarray(kept_lams)
    mins = np.asarray(mins)
    bounds = np.asarray(bounds)

    monotone_up_to = kept_lams[-1]
    for lam, diff, bnd in zip(kept_lams, mins, bounds):
        if diff < -(tol + bnd):
            prev = kept_lams[kept_lams < lam]
            monotone_up_to = float(prev[-1]) if prev.size else float(lo)
            break

    dn, dn_mask = vertical_derivative(u, buffer)
    valid = dn_mask & np.isfinite(dn)
    dn_u_min = float(dn[valid].min()) if valid.any() else math.nan

    sign_change_cells = _sign_changes(grid, dn, valid, tol)

    meta = {"tol": tol, "buffer": buffer, "interp_bounds": bounds.tolist(),
            "skipped_lambdas": skipped}
    if spec is not None and hasattr(spec, "describe"):
        meta["domain"] = spec.describe()
    return MovingPlaneReport(lambda_grid=kept_lams, cap_min_diff=mins,
                             monotone_up_to=float(monotone_up_to),
                             dn_u_min=dn_u_min,
                             sign_change_cells=sign_change_cells, meta=meta)


def _sign_changes(grid, dn: np.ndarray, valid: np.ndarray, tol: float) -> list:
    """Nodes where the vertical slope flips strict sign along a column.

    Entries with |dn| <= tol are skipped, so a flip straddling an exact zero
    (a smooth peak on the lattice) is still caught; the reported node is the
    last strictly-signed node before the flip."""
    dn_lat = np.full(grid.shape, np.nan)
    dn_lat[grid.interior] = np.where(valid, dn, np.nan)
    # strictly-signed entries in C order: consecutive ones in the same
    # column are neighbours along x_N once the skipped entries are dropped
    flat = np.flatnonzero(np.isfinite(dn_lat) & (np.abs(dn_lat) > tol))
    positive = dn_lat.ravel()[flat] > 0
    column = flat // grid.shape[-1]
    flip = (column[1:] == column[:-1]) & (positive[1:] != positive[:-1])
    nodes = np.unravel_index(flat[:-1][flip], grid.shape)
    coords = np.stack([grid.axes[k][nodes[k]] for k in range(grid.dimension)], axis=1)
    return [tuple(c) for c in coords.tolist()]


def hopf_slope_check(u: SolutionField, lam: float, buffer: int = 3) -> HopfReport:
    """Compare the one-sided cap-difference slope at the plane against
    -2 du/dx_N, both by independent finite differences.

    The cap difference w = u_lambda - u vanishes on the plane, so its
    one-sided derivative from below is (-4 w(lam-h) + w(lam-2h)) / (2h)."""
    grid = u.grid
    h = grid.h
    lo = grid.box[-1, 0]
    jf = (lam - lo) / h
    j = round(jf)
    if abs(jf - j) > _EXACT_TOL:
        raise ValidationError("lambda not on a grid plane")
    nj = grid.shape[-1]
    if j - 2 < 0 or j + 2 > nj - 1:
        raise ValidationError("plane too close to the window edge")
    full = _lattice(u)
    sl = [slice(None)] * grid.dimension
    planes = {}
    for off in (-2, -1, 1, 2):
        sl[-1] = j + off
        planes[off] = full[tuple(sl)]
    sl[-1] = j
    on_plane = full[tuple(sl)]

    good = np.isfinite(on_plane)
    for off in planes:
        good &= np.isfinite(planes[off])
    buf = _plane_buffer(grid, buffer)
    good &= buf
    if not good.any():
        raise ValidationError("no usable columns on the plane")

    w1 = planes[1][good] - planes[-1][good]     # w(lam - h)
    w2 = planes[2][good] - planes[-2][good]     # w(lam - 2h)
    lhs = (-4.0 * w1 + w2) / (2.0 * h)
    dn = (planes[1][good] - planes[-1][good]) / (2.0 * h)
    rhs = -2.0 * dn
    defect = float(np.abs(lhs - rhs).max())
    return HopfReport(lam=float(lam), defect=defect, dn_min=float(dn.min()),
                      dn_max=float(dn.max()), n_columns=int(good.sum()))


def _plane_buffer(grid, depth: int) -> np.ndarray:
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
