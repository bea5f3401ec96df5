"""Comparison-principle experiments: ordering checks, width thresholds,
uniqueness restarts, symmetry defects, and the harmonic growth witness.

"Comparison fails at width S" is operationalized as lambda_1(S) <= L: the
failure mechanism of the linear counterexample is exactly the principal
eigenvalue crossing the Lipschitz constant, so the scan reports the first
width whose discrete eigenvalue reaches L, next to the closed-form
sufficient threshold. The two numbers are always reported side by side and
never merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import closed_forms
from .discretization import (ARM_CUT, ARM_LATTICE, as_trace, assemble_laplacian,
                             build_grid, stencil_residual)
from .errors import LabError, ValidationError
from .nonlinearity import (Nonlinearity, epsilon_bounded, is_unbounded,
                           lipschitz_on)
from .solver import (SolutionField, SolvePolicy, factorize,
                     principal_eigenpair, solve_semilinear)

__all__ = [
    "ComparisonReport",
    "comparison_test",
    "ordered_pair",
    "threshold_scan",
    "uniqueness_test",
    "symmetry_test",
    "growth_counterexample",
]


@dataclass
class ComparisonReport:
    domain: object = None
    S: float = math.nan
    L: object = math.nan
    epsilon_sufficient: object = math.nan
    lambda1: float = math.nan
    comparison_holds: bool = True
    failure_width: object = None
    witness: object = None
    table: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _boundary_points(grid):
    sel = (grid.arm_kind == ARM_CUT) | (grid.arm_kind == ARM_LATTICE)
    return grid.arm_point[sel]


def comparison_test(u: SolutionField, v: SolutionField, tol: float = 1e-10,
                    domain=None) -> ComparisonReport:
    """Check the ordering conclusion u <= v + tol at interior nodes.

    The boundary ordering precondition is verified on every Dirichlet arm
    endpoint first; violating it is a usage error, not a comparison failure.
    """
    if u.grid is not v.grid and u.grid.shape != v.grid.shape:
        raise ValidationError("fields must share a grid")
    if tol < 0:
        raise ValidationError("tol must be nonnegative")
    pts = _boundary_points(u.grid)
    if pts.size:
        tu = as_trace(u.trace)(pts)
        tv = as_trace(v.trace)(pts)
        if (tu > tv + 1e-12).any():
            raise ValidationError("boundary ordering violated")
    gap = v.values - u.values
    i = int(np.argmin(gap))
    witness = None
    if gap[i] < -tol:
        witness = {"index": i, "point": u.grid.points[i].tolist(),
                   "gap": float(gap[i])}
    return ComparisonReport(domain=domain, comparison_holds=witness is None,
                            witness=witness,
                            meta={"min_gap": float(gap[i]), "tol": tol})


def ordered_pair(grid, op, L: float, rng) -> tuple:
    """Sub/supersolution pair with ordered boundary data, by construction.

    Solves (A - L I) w = s for a random nonnegative slack s, which keeps
    w >= 0 whenever lambda_1 > L (inverse positivity), and returns
    (v - w, v) with v = 0. The pair satisfies the differential ordering with
    slack exactly s."""
    s = rng.uniform(0.0, 1.0, op.n)
    w = factorize(op.matrix - L * sp.eye(op.n)).solve(s)
    u = SolutionField(grid=grid, values=-w, trace=0.0, method="constructed")
    v = SolutionField(grid=grid, values=np.zeros(op.n), trace=0.0,
                      method="constructed")
    return u, v


def _interval_eigen(S: float, cells: int, tol: float) -> float:
    grid = build_grid(lambda p: (p[:, 0] > 0) & (p[:, 0] < S),
                      [[0.0, S]], S / cells)
    op = assemble_laplacian(grid)
    return principal_eigenpair(op, tol=tol).lambda1


def threshold_scan(L: float, widths, cells: int = 128,
                   eig_tol: float = 1e-10) -> ComparisonReport:
    """Discrete lambda_1 per width; failure width = first crossing below L."""
    if L <= 0:
        raise ValidationError("L must be positive")
    widths = [float(w) for w in widths]
    if not widths or any(w <= 0 for w in widths) or \
            any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValidationError("widths must be positive and increasing")
    lams = [_interval_eigen(S, cells, eig_tol) for S in widths]
    table = [(S, lam) for S, lam in zip(widths, lams)]
    failure = next((S for S, lam in table if lam <= L), None)
    eps = epsilon_bounded(L)
    meta = {"cells": cells}
    if failure is not None and not is_unbounded(eps):
        meta["sufficiency_gap_ok"] = bool(eps < failure)
    return ComparisonReport(L=L, epsilon_sufficient=eps, failure_width=failure,
                            table=table, meta=meta)


def uniqueness_test(grid, f: Nonlinearity, n_restarts: int = 20,
                    tol: float = 1e-8, seed: int = 0,
                    amplitude: float = 1.0) -> ComparisonReport:
    """Random-restart probe that the zero solution is the only one.

    The operative hypothesis lambda_1 > L is checked first (L taken on the
    declared working range [-amplitude, amplitude]); when it fails the report
    carries a "hypothesis violated" status instead of asserting, and restart
    outcomes are recorded as-is."""
    if not math.isnan(f.f0) and f.f0 != 0.0:
        raise ValidationError("uniqueness probe needs f(0) = 0")
    if n_restarts < 1:
        raise ValidationError("n_restarts must be >= 1")
    op = assemble_laplacian(grid)
    lam1 = principal_eigenpair(op).lambda1
    L = lipschitz_on(f, (-amplitude, amplitude))
    hypothesis_ok = (not is_unbounded(L)) and lam1 > L
    rng = np.random.default_rng(seed)
    restarts = []
    worst = None
    for k in range(n_restarts):
        init = rng.uniform(-amplitude, amplitude, op.n)
        try:
            sol = solve_semilinear(grid, f, trace=0.0, op=op,
                                   policy=SolvePolicy(init=init, tol=min(tol * 1e-2, 1e-10)))
            norm = sol.max_norm
            restarts.append({"restart": k, "norm": norm,
                             "iterations": sol.iterations, "outcome": "converged"})
            if worst is None or norm > worst[0]:
                worst = (norm, sol.values)
        except LabError as exc:
            restarts.append({"restart": k, "norm": None,
                             "outcome": f"{type(exc).__name__}: {exc}"})
    meta = {"restarts": restarts, "seed": seed, "amplitude": amplitude}
    witness = None
    if hypothesis_ok:
        bad = [r for r in restarts
               if r["outcome"] != "converged" or r["norm"] > tol]
        if bad:
            witness = {"restarts": [r["restart"] for r in bad]}
            if worst is not None and worst[0] > tol:
                witness["values_max_norm"] = worst[0]
    else:
        meta["status"] = "hypothesis violated: S >= threshold"
    return ComparisonReport(L=L, lambda1=lam1,
                            epsilon_sufficient=epsilon_bounded(L),
                            comparison_holds=witness is None, witness=witness,
                            meta=meta)


def symmetry_test(grid, f: Nonlinearity, isometry, tol: float = 1e-10,
                  trace=0.0, policy: SolvePolicy = None, buffer: int = 3,
                  solution: SolutionField = None) -> ComparisonReport:
    """Solve, then measure max |u - u o rho| over grid-aligned image nodes.

    The isometry must map lattice nodes to lattice nodes; images that leave
    the window (period translations) are simply not compared, so the defect
    is measured on the overlap, restricted to the truncation buffer."""
    u = solution if solution is not None else \
        solve_semilinear(grid, f, trace=trace, policy=policy)
    pts = grid.points
    images = np.atleast_2d(np.asarray(isometry(pts), dtype=float))
    if images.shape != pts.shape:
        raise ValidationError("isometry must map points to points")
    idx = np.zeros(images.shape, dtype=np.int64)
    for k in range(grid.dimension):
        s = (images[:, k] - grid.box[k, 0]) / grid.h
        sr = np.round(s)
        if (np.abs(s - sr) > 1e-6).any():
            raise ValidationError("isometry not grid-aligned")
        idx[:, k] = sr
    in_lattice = np.ones(len(pts), dtype=bool)
    for k in range(grid.dimension):
        in_lattice &= (idx[:, k] >= 0) & (idx[:, k] <= grid.shape[k] - 1)
    mapped = np.full(len(pts), -1, dtype=np.int64)
    flat = np.ravel_multi_index(idx[in_lattice].T, grid.shape)
    mapped[in_lattice] = grid.node_index.ravel()[flat]
    ok = in_lattice & (mapped >= 0) & grid.buffer_mask(buffer)
    if not ok.any():
        raise ValidationError("isometry image misses the interior window")
    defect = float(np.abs(u.values[ok] - u.values[mapped[ok]]).max())
    return ComparisonReport(comparison_holds=defect <= tol,
                            witness=None if defect <= tol else {"defect": defect},
                            meta={"defect": defect, "n_matched": int(ok.sum()),
                                  "tol": tol, "solution_method": u.method})


def growth_counterexample(m: int, cells_y: int = 64,
                          x_max: float = 4.0) -> ComparisonReport:
    """Evaluate the harmonic mode cosh(m x) sin(m y) on the width-pi strip.

    Checks: exactly-zero trace on y in {0, pi}, nonzero interior values,
    discrete-harmonic residual <= (m^4 / 3) h^2 cosh(m x_eff), and a
    log-amplitude growth slope within 5 percent of m over the outer half of
    the window. A nonzero zero-data solution with exponential growth shows
    the comparison principle fails without a growth restriction."""
    if m < 1 or int(m) != m:
        raise ValidationError("m must be a positive integer")
    if cells_y < 8:
        raise ValidationError("cells_y too coarse")
    h = math.pi / cells_y
    nx = max(int(math.ceil(x_max / h)), 4)
    x_eff = nx * h
    box = [[-x_eff, x_eff], [0.0, math.pi]]
    policy = (("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"))
    grid = build_grid(lambda p: (p[:, 1] > 0) & (p[:, 1] < math.pi), box, h,
                      face_policy=policy)

    def mode(pts):
        return closed_forms.cosh_mode(m, pts)

    w = mode(grid.points)
    resid = stencil_residual(grid, w, trace=mode)
    resid_max = float(np.abs(resid).max())
    bound = (m**4 / 3.0) * h * h * math.cosh(m * x_eff)

    ys = grid.axes[1]
    wall = [np.stack([grid.axes[0], np.full(grid.shape[0], yv)], axis=1)
            for yv in (ys[0], ys[-1])]
    trace_max = max(float(np.abs(mode(pl)).max()) for pl in wall)

    # column amplitudes over the outer half window
    cols = {}
    for p, val in zip(grid.points, w):
        cols.setdefault(p[0], []).append(abs(val))
    xs = np.array(sorted(cols))
    amps = np.array([max(cols[x]) for x in xs])
    fit = (xs >= x_eff / 2.0) & (amps > 0)
    slope = float(np.polyfit(xs[fit], np.log(amps[fit]), 1)[0])

    holds = (resid_max <= bound) and (trace_max == 0.0) and \
        (float(np.abs(w).max()) > 0.0) and abs(slope - m) <= 0.05 * m
    return ComparisonReport(
        comparison_holds=holds,
        witness=None if holds else {"resid_max": resid_max, "bound": bound,
                                    "trace_max": trace_max, "slope": slope},
        table=[(float(x), float(a)) for x, a in zip(xs, amps)],
        meta={"m": m, "h": h, "x_max": x_eff, "resid_max": resid_max,
              "resid_bound": bound, "trace_max": trace_max,
              "max_abs": float(np.abs(w).max()), "growth_slope": slope})
