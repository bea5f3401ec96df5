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


def _by_height(grid, mask: np.ndarray):
    """Interior index, column number and x_N index of the nodes of a lattice
    mask of interior nodes, ordered by height, then by column: the nonzeros
    of the mask's (x_N, column) transpose. Node (col, j) sits at
    ``full.reshape(-1, nj)[col, j]`` of a lattice array."""
    nj = grid.shape[-1]
    j, col = np.nonzero(mask.reshape(-1, nj).T)
    return grid.node_index.ravel()[col * nj + j], col, j


def _reflector(full: np.ndarray, grid, col: np.ndarray, j: np.ndarray):
    """The reflection u(x', 2 lam - x_N) at the nodes of columns col and
    heights j, j nondecreasing, as ``reflect(lam, m)``: the values at the
    first m of those nodes and the interpolation bound.

    On a lattice plane (2 (lam - lo) / h an integer k2) node (col, j)
    reflects onto the node at flat offset col nj - j + k2, whose col nj - j
    part is formed once, and the first and the m-th heights decide whether
    every reflection stays in the window. Off the lattice the value is
    cubic-interpolated along x_N from the four nodes around the reflected
    height, and the bound, which does not depend on lam, is the lattice's
    fourth-difference bound / 16, computed on first use. NaN values mean the
    reflection left the window of known values.
    """
    h = grid.h
    lo = grid.box[-1, 0]
    nj = grid.shape[-1]
    flat = full.ravel()
    mirror = col * nj - j
    bound = None

    def reflect(lam: float, m: int):
        nonlocal bound
        k2 = _reflection_index(grid, lam)
        if k2 is not None:
            if j[m - 1] > k2 or k2 - j[0] > nj - 1:
                raise NumericalError("reflection leaves window")
            return flat[mirror[:m] + k2], 0.0
        yr = 2.0 * lam - (lo + j[:m] * h)
        s = (yr - lo) / h
        j0 = np.floor(s).astype(int)
        t = s - j0
        if (j0 - 1 < 0).any() or (j0 + 2 > nj - 1).any():
            raise NumericalError("reflection leaves window")
        weights = _cubic_weights_vec(t)
        at = col[:m] * nj + j0
        vals = np.zeros(m)
        for off in range(4):
            vals += weights[:, off] * flat[at + (off - 1)]
        if bound is None:
            d4 = _fourth_difference_bound(full)
            bound = 0.0 if math.isnan(d4) else d4 / 16.0
        return vals, bound
    return reflect


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
    nodes, col, j = _by_height(grid, grid.interior)
    vals = np.empty(grid.n_interior)
    vals[nodes], bound = _reflector(_lattice(u), grid, col, j)(lam, nodes.size)
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
    h = grid.h
    full = _lattice(u)
    # the lattice shifted one node along x_N each way, NaN past the window
    up = np.full(grid.shape, np.nan)
    up[..., :-1] = full[..., 1:]
    down = np.full(grid.shape, np.nan)
    down[..., 1:] = full[..., :-1]
    up = up[grid.interior]
    down = down[grid.interior]
    here = u.values
    dn = np.full(grid.n_interior, np.nan)
    both = np.isfinite(up) & np.isfinite(down)
    dn[both] = (up[both] - down[both]) / (2.0 * h)
    only_up = np.isfinite(up) & ~np.isfinite(down)
    dn[only_up] = (up[only_up] - here[only_up]) / h
    only_down = ~np.isfinite(up) & np.isfinite(down)
    dn[only_down] = (here[only_down] - down[only_down]) / h
    return dn, grid.buffer_mask(buffer)


def cap_sweep(u: SolutionField, spec, lambda_grid=None, tol: float = 1e-8,
              buffer: int = 3) -> MovingPlaneReport:
    """Minimum of (u_lambda - u) over each cap, plus vertical-slope data.

    Interior nodes already satisfy x_N > g(x'), so the cap of plane lam is
    the set of buffered nodes with x_N < lam - 1e-12 (``spec`` only labels
    the report). The buffered nodes are put in order of height once per
    call (see ``_by_height``; no sort is needed), so every cap is a prefix
    of that order, its length found by ``searchsorted``, and each plane
    gathers the reflected values of that prefix alone (see ``_reflector``).
    ``lambda_grid`` must be finite and increasing."""
    grid = u.grid
    if not 0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    lo = grid.box[-1, 0]
    hi = grid.box[-1, 1]
    h = grid.h
    if lambda_grid is None:
        top = lo + 0.5 * (hi - lo)
        ks = np.arange(2, int(round((top - lo) / h)) + 1)
        lambda_grid = lo + ks * h
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0 or not np.isfinite(lambda_grid).all() \
            or (np.diff(lambda_grid) <= 0).any():
        raise ValidationError("lambda_grid must be nonempty, finite and increasing")

    kept_lams, mins, bounds, skipped = _cap_minima(u, lambda_grid, buffer)
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


def _cap_minima(u: SolutionField, lambda_grid: np.ndarray, buffer: int):
    """The planes of lambda_grid with a nonempty cap, each cap's minimum of
    (u_lambda - u) and interpolation bound, and the planes skipped for an
    empty cap; the sweep's index arrays are freed on return."""
    grid = u.grid
    nodes, col, j = _by_height(grid, grid.buffer_lattice(buffer) & grid.interior)
    here = u.values[nodes]
    reflect = _reflector(_lattice(u), grid, col, j)
    # a cap's nodes are those of the levels below the plane
    sizes = np.searchsorted(j, np.searchsorted(grid.axes[-1], lambda_grid - 1e-12))

    kept_lams, mins, bounds, skipped = [], [], [], []
    for lam, m in zip(lambda_grid, sizes.tolist()):
        if m == 0:
            skipped.append(float(lam))
            continue
        vals, bound = reflect(lam, m)
        if not np.isfinite(vals).all():
            raise NumericalError("reflection leaves window")
        kept_lams.append(float(lam))
        mins.append(float(np.subtract(vals, here[:m], out=vals).min()))
        bounds.append(bound)
    return kept_lams, mins, bounds, skipped


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
    if not math.isfinite(lam):
        raise ValidationError("lambda must be finite")
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
    planes = {off: full[..., j + off] for off in (-2, -1, 0, 1, 2)}
    good = grid.buffer_lattice(buffer, grid.dimension - 1)
    for plane in planes.values():
        good &= np.isfinite(plane)
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

