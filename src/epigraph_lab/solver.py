"""Linear, semilinear and eigenvalue solves on masked grids.

``solve_linear`` runs conjugate gradients on the diagonally rescaled system
when the operator has no cut arms (the rescaling makes folded Neumann mirrors
symmetric) and BiCGSTAB otherwise, with plain Jacobi preconditioning.

``solve_semilinear`` is a damped Newton iteration on F(u) = A u - b - f(u)
with the exact Jacobian A - diag(f'(u)); nonlinearities that are not locally
Lipschitz on the working range are routed to a (optionally relaxed) Picard
iteration automatically. Every returned field carries a residual that
was recomputed through the independent gather-based stencil walker, not the
solver's own matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (DomainGrid, SparseOperator, as_trace,
                             assemble_laplacian, boundary_rhs,
                             stencil_residual)
from .errors import (ConvergenceError, JacobianSingularError, NumericalError,
                     ValidationError)
from .nonlinearity import Nonlinearity, eval_f, eval_f_prime

__all__ = [
    "SolutionField",
    "EigenPair",
    "SolvePolicy",
    "solve_linear",
    "solve_semilinear",
    "principal_eigenpair",
]

_NONSMOOTH_KINDS = ("sqrt_saturation", "double_front_source")
_DAMPING_FLOOR = 2.0 ** -10


@dataclass
class SolutionField:
    """Values at interior nodes plus solve metadata."""

    grid: DomainGrid
    values: np.ndarray
    trace: object = 0.0
    residual_norm: float = math.nan
    iterations: int = 0
    method: str = "linear"
    meta: dict = field(default_factory=dict)

    @property
    def max_norm(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0


@dataclass
class EigenPair:
    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int


@dataclass
class SolvePolicy:
    method: str = "auto"            # auto | newton | picard
    tol: float = 1e-10
    max_iter: int = 80
    init: object = "torsion_lift"   # torsion_lift | front_lift | zero | array
    picard_relax: float = 1.0
    krylov_tol: float = 1e-13

    def validate(self):
        if self.method not in ("auto", "newton", "picard"):
            raise ValidationError("policy method must be auto, newton or picard")
        if self.tol <= 0 or self.krylov_tol <= 0:
            raise ValidationError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if not 0.0 < self.picard_relax <= 1.0:
            raise ValidationError("picard_relax must lie in (0, 1]")


def factorize(matrix: sp.spmatrix):
    """SuperLU factors of ``matrix`` with SciPy's default options.

    ``spla.splu`` is looked up at call time, so a wrapper installed on the
    module sees every factorization. A singular matrix raises
    JacobianSingularError, a NumericalError, with Newton's message."""
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise JacobianSingularError(f"jacobian singular: {exc}") from exc


def _jacobi(matrix: sp.csr_matrix):
    d = matrix.diagonal()
    if (d <= 0).any():
        return None
    return sp.diags(1.0 / d)


def solve_linear(op: SparseOperator, rhs: np.ndarray, tol: float = 1e-12,
                 maxiter: int = None) -> SolutionField:
    """Solve op u = rhs by CG (rescaled symmetric case) or BiCGSTAB."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValidationError("rhs length does not match operator dimension")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if maxiter is None:
        maxiter = min(40 * op.n + 100, 200000)
    if not rhs.any():
        u = np.zeros(op.n)
        return SolutionField(grid=op.grid, values=u, residual_norm=0.0,
                             iterations=0, method="linear",
                             meta={"krylov": "trivial"})

    count = {"it": 0}

    def cb(_):
        count["it"] += 1

    if op.dscale_symmetric:
        a = sp.diags(op.d_weights) @ op.matrix
        b = op.d_weights * rhs
        a = sp.csr_matrix(a)
        u, info = spla.cg(a, b, rtol=tol, atol=0.0, maxiter=maxiter,
                          M=_jacobi(a), callback=cb)
        scheme = "cg"
    else:
        u, info = spla.bicgstab(op.matrix, rhs, rtol=tol, atol=0.0,
                                maxiter=maxiter, M=_jacobi(op.matrix),
                                callback=cb)
        scheme = "bicgstab"
    resid = float(np.abs(op.matrix @ u - rhs).max())
    if info != 0:
        raise ConvergenceError(f"no convergence: {scheme} after {count['it']} iterations",
                               iterations=count["it"], residual=resid)
    indep = float(np.abs(stencil_residual(op.grid, u, trace=0.0) - rhs).max()) \
        if op.grid is not None else resid
    return SolutionField(grid=op.grid, values=u, residual_norm=indep,
                         iterations=count["it"], method="linear",
                         meta={"krylov": scheme, "residual_internal": resid})


def _initial_guess(op: SparseOperator, f: Nonlinearity, b: np.ndarray,
                   init, policy: SolvePolicy, trace_vals: np.ndarray) -> tuple:
    if isinstance(init, (np.ndarray, list, tuple)):
        u0 = np.asarray(init, dtype=float)
        if u0.shape != (op.n,):
            raise ValidationError("init array length does not match grid")
        return u0.copy(), "array"
    if init == "zero":
        return np.zeros(op.n), "zero"
    if init == "torsion_lift":
        rhs = b + f.f0 * np.ones(op.n) if not math.isnan(f.f0) else b.copy()
        return solve_linear(op, rhs, tol=policy.krylov_tol).values, "torsion_lift"
    if init == "front_lift":
        # 1-D front heuristic: ramp along the last axis with the energy slope
        # sqrt(2 * integral of f over the unit range), capped at the trace top
        grid = op.grid
        t = np.linspace(0.0, 1.0, 1001)
        energy = float(np.trapezoid(eval_f(f, t), t))
        slope = math.sqrt(2.0 * energy) if energy > 0 else 1.0
        top = float(np.abs(trace_vals).max()) if trace_vals.size else 1.0
        if top <= 0:
            top = 1.0
        d = grid.points[:, -1] - grid.box[-1, 0]
        return np.minimum(d * slope, 1.0) * top, "front_lift"
    raise ValidationError(f"unknown init policy {init!r}")


def solve_semilinear(grid: DomainGrid, f: Nonlinearity, trace=0.0,
                     policy: SolvePolicy = None,
                     op: SparseOperator = None) -> SolutionField:
    """Solve A u = b + f(u) on the grid with Dirichlet trace data."""
    policy = policy or SolvePolicy()
    policy.validate()
    if op is None:
        op = assemble_laplacian(grid)
    b = boundary_rhs(op, trace)
    trace_vals = as_trace(trace)(op.bc_points) if op.bc_rows.size else np.zeros(0)

    method = policy.method
    meta = {}
    if method in ("auto", "newton"):
        nonsmooth = f.kind in _NONSMOOTH_KINDS or (
            f.kind == "power" and f.params["exponent"] < 1.0)
        if nonsmooth:
            if method == "newton":
                meta["fallback"] = "picard"
                meta["fallback_reason"] = "f not differentiable on range"
            method = "picard"
        elif method == "auto":
            method = "newton"

    u0, init_tag = _initial_guess(op, f, b, policy.init, policy, trace_vals)
    meta["init"] = init_tag

    def residual_vec(u):
        return op.matrix @ u - b - eval_f(f, u)

    if method == "newton":
        u = u0
        r = residual_vec(u)
        res = float(np.abs(r).max())
        iters = 0
        while res > policy.tol and iters < policy.max_iter:
            lu = factorize(op.matrix - sp.diags(eval_f_prime(f, u)))
            delta = lu.solve(-r)
            if not np.isfinite(delta).all():
                raise JacobianSingularError("jacobian singular: non-finite step")
            alpha = 1.0
            while alpha >= _DAMPING_FLOOR:
                u_try = u + alpha * delta
                r_try = residual_vec(u_try)
                res_try = float(np.abs(r_try).max())
                if res_try < res:
                    break
                alpha *= 0.5
            else:
                raise ConvergenceError(
                    "no convergence: newton damping floor reached",
                    iterations=iters, residual=res)
            u, r, res = u_try, r_try, res_try
            iters += 1
        if res > policy.tol:
            raise ConvergenceError("no convergence: newton iteration cap",
                                   iterations=iters, residual=res)
    else:
        u = u0
        iters = 0
        res = float(np.abs(residual_vec(u)).max())
        lu = factorize(op.matrix)
        while res > policy.tol and iters < policy.max_iter:
            u_next = lu.solve(b + eval_f(f, u))
            u = (1.0 - policy.picard_relax) * u + policy.picard_relax * u_next
            res = float(np.abs(residual_vec(u)).max())
            iters += 1
        if res > policy.tol:
            raise ConvergenceError("no convergence: picard iteration cap",
                                   iterations=iters, residual=res)

    indep = float(np.abs(stencil_residual(grid, u, trace) - eval_f(f, u)).max())
    meta["residual_internal"] = res
    return SolutionField(grid=grid, values=u, trace=trace, residual_norm=indep,
                         iterations=iters, method=method, meta=meta)


def principal_eigenpair(op: SparseOperator, tol: float = 1e-10,
                        maxiter: int = 2000) -> EigenPair:
    """Smallest eigenpair by inverse power iteration; phi1 max-normalized."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    lu = factorize(op.matrix)
    # iterate in the max-normalized frame so the residual bound is checked on
    # the returned eigenfunction itself
    v = np.ones(op.n)
    lam_prev = math.inf
    lam = math.nan
    resid = math.inf
    for it in range(1, maxiter + 1):
        w = lu.solve(v)
        peak = w[np.argmax(np.abs(w))]
        if not np.isfinite(peak) or peak == 0.0:
            raise NumericalError("inverse iteration produced a degenerate vector")
        v = w / peak
        av = op.matrix @ v
        lam = float(v @ av) / float(v @ v)
        resid = float(np.abs(av - lam * v).max())
        if abs(lam - lam_prev) < tol * max(abs(lam), 1.0) and resid <= 1e-8 * abs(lam):
            break
        lam_prev = lam
    else:
        raise ConvergenceError("no convergence: inverse power iteration",
                               iterations=maxiter, residual=resid)
    if (v <= 0).any():
        raise NumericalError("principal eigenfunction is not positive")
    return EigenPair(lambda1=lam, phi1=v, residual=resid, iterations=it)
