"""Linear, semilinear and eigenvalue solves on masked grids.

Each operator is factorized at most once. ``factorize`` orders SuperLU's
columns on the pattern of A^T + A (the cut-cell pattern is symmetric, only
the values are not), and the LU of an operator's matrix is kept on the
``SparseOperator`` and shared by every solve with that matrix: the linear
solve in one and two dimensions, Picard, each Newton step whose Jacobian is
A itself (f' identically zero) and the shift-invert eigensolve. The
LU-or-Krylov rule is by dimension: one and two dimensions factorize, where
fill stays near-linear; from three dimensions on the fill explodes and
``solve_linear`` runs Jacobi-preconditioned BiCGSTAB to a relative residual
of 1e-13 instead (the cut-arm operator is not symmetric).

``solve_semilinear`` is a damped Newton iteration on F(u) = A u - b - f(u)
with the exact Jacobian J(u) = A - diag(f'(u)). The latest Jacobian LU of a
Newton solve is kept on the operator (``SparseOperator._jac_lu``) and
preconditions every later step with a nonzero f', in this solve and in later
Newton solves on that operator (a lagged preconditioner: Knoll & Keyes,
JCP 193, 2004): BiCGSTAB solves J(u_k) delta = -F(u_k) within 10 iterations
to the relative residual max(1e-10, min(0.1, res_k / res_0)), res_k and res_0
being the max-norm residuals at u_k and at the initial guess. That inexact
Newton forcing term is O(||F(u_k)||), so it keeps the local quadratic
convergence (Dembo, Eisenstat & Steihaug, SINUM 19, 1982) and spends few
Krylov iterations on the early steps, whose accuracy the next step discards.
A step refactorizes J(u_k), replaces the kept LU and is solved exactly when
there is none yet, when BiCGSTAB fails (nonzero info or a non-finite step) or
when its step reaches the damping floor. So a Newton solve's last bits depend
on the Newton solves before it on its operator; the same sequence of calls
reruns bit-identically.
A nonlinearity that declares a derivative blowing up somewhere
(``Nonlinearity.derivative_unbounded``: ``sqrt_saturation``,
``double_front_source``, ``power`` with exponent below 1) is routed to the
Picard iteration u <- A^{-1} (b + f(u)) whatever the working range. Both
run in one loop that stops once the max-norm residual is at most ``tol``, or
once every row meets the componentwise backward-error test
|r_i| <= max(tol, 4 eps s_i) with s = |A||u| + |b| + |f(u)| (Oettli &
Prager, Numer. Math. 6, 1964): near a cusp the cut-cell diagonal reaches
1e8 and the rounding of (A u)_i alone exceeds ``tol``, so a normwise test
never passes there. The loop raises ConvergenceError at ``max_iter``; each
method supplies only its step.
Newton raises on a non-finite residual, Picard runs on to its cap. Every
returned field carries a residual that was recomputed through the
independent gather-based stencil walker, not the solver's own matrix.

``principal_eigenpair`` runs ARPACK in shift-invert mode about 0 with the
shared factors and a fixed start vector, so reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
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

_DAMPING_FLOOR = 2.0 ** -10
_KRYLOV_TOL = 1e-13
# the forcing term of a Newton step's BiCGSTAB, O(res_k): its relative
# residual is max(_FORCING_MIN, min(_FORCING_MAX, res_k / res_0))
_FORCING_MAX = 0.1
_FORCING_MIN = 1e-10
_NEWTON_KRYLOV_MAXITER = 10
_LU_MAX_DIMENSION = 2
# k eps with k = 4: the componentwise backward-error floor of the stopping test
_BACKWARD_FLOOR = 4 * np.finfo(float).eps


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
    """lambda1 with its max-normalized eigenfunction; ``iterations`` counts
    the shift-invert solves ARPACK asked for (0 for the dense n <= 2 case)."""

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

    def validate(self):
        if self.method not in ("auto", "newton", "picard"):
            raise ValidationError("policy method must be auto, newton or picard")
        if not 0 < self.tol < math.inf:
            raise ValidationError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


def factorize(matrix: sp.spmatrix):
    """SuperLU factors of ``matrix``, columns ordered by minimum degree on
    the pattern of A^T + A (``permc_spec="MMD_AT_PLUS_A"``).

    ``spla.splu`` is looked up at call time, so a wrapper installed on the
    module sees every factorization. A singular matrix raises
    JacobianSingularError, a NumericalError, with Newton's message."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise JacobianSingularError(f"jacobian singular: {exc}") from exc


def _factors(op: SparseOperator):
    """The LU of ``op.matrix``, computed on first use and kept on ``op``."""
    if op._lu is None:
        op._lu = factorize(op.matrix)
    return op._lu


def _jacobi(matrix: sp.csr_matrix):
    # the diagonal sums 2 / (h^2 theta- theta+) with theta >= 1e-8: positive
    return sp.diags(1.0 / matrix.diagonal())


def _bicgstab(matrix, rhs: np.ndarray, M, rtol: float, maxiter: int):
    """BiCGSTAB for matrix x = rhs from x = 0 to the relative residual
    ``rtol``, preconditioned by ``M`` (an approximate inverse, or None).
    Returns the solution, SciPy's info code and the iteration count."""
    count = {"it": 0}

    def cb(_):
        count["it"] += 1

    x, info = spla.bicgstab(matrix, rhs, rtol=rtol, atol=0.0, maxiter=maxiter,
                            M=M, callback=cb)
    return x, info, count["it"]


def solve_linear(op: SparseOperator, rhs: np.ndarray) -> SolutionField:
    """Solve op u = rhs: by the operator's shared LU in one and two
    dimensions, by Jacobi-preconditioned BiCGSTAB in three or more.

    ``meta["path"]`` says which ran: "lu", "bicgstab", or "trivial" for a
    zero right-hand side."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValidationError("rhs length does not match operator dimension")
    if not rhs.any():
        u = np.zeros(op.n)
        return SolutionField(grid=op.grid, values=u, residual_norm=0.0,
                             iterations=0, method="linear",
                             meta={"path": "trivial"})

    if op.grid.dimension <= _LU_MAX_DIMENSION:
        path, iters, info = "lu", 0, 0
        u = _factors(op).solve(rhs)
    else:
        path = "bicgstab"
        u, info, iters = _bicgstab(op.matrix, rhs, _jacobi(op.matrix),
                                   _KRYLOV_TOL, min(40 * op.n + 100, 200000))
    resid = float(np.abs(op.matrix @ u - rhs).max())
    if info != 0:
        raise ConvergenceError(f"no convergence: bicgstab after {iters} iterations",
                               iterations=iters, residual=resid)
    indep = float(np.abs(stencil_residual(op.grid, u, trace=0.0) - rhs).max())
    return SolutionField(grid=op.grid, values=u, residual_norm=indep,
                         iterations=iters, method="linear",
                         meta={"path": path, "residual_internal": resid})


def _initial_guess(op: SparseOperator, f: Nonlinearity, b: np.ndarray,
                   init, trace_vals: np.ndarray, meta: dict) -> np.ndarray:
    """The starting field; records ``meta["init"]``, and ``meta["lift"]``
    (``solve_linear``'s path) for the torsion lift."""
    if isinstance(init, (np.ndarray, list, tuple)):
        u0 = np.asarray(init, dtype=float)
        if u0.shape != (op.n,):
            raise ValidationError("init array length does not match grid")
        meta["init"] = "array"
        return u0.copy()
    if init == "zero":
        meta["init"] = "zero"
        return np.zeros(op.n)
    if init == "torsion_lift":
        rhs = b + f.f0 * np.ones(op.n) if not math.isnan(f.f0) else b.copy()
        lift = solve_linear(op, rhs)
        meta["init"], meta["lift"] = "torsion_lift", lift.meta["path"]
        return lift.values
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
        meta["init"] = "front_lift"
        return np.minimum(d * slope, 1.0) * top
    raise ValidationError(f"unknown init policy {init!r}")


def solve_semilinear(grid: DomainGrid, f: Nonlinearity, trace=0.0,
                     policy: SolvePolicy = None,
                     op: SparseOperator = None) -> SolutionField:
    """Solve A u = b + f(u) on the grid with Dirichlet trace data.

    Newton keeps one Jacobian LU per operator, on ``op``: a step with f' not
    identically zero runs BiCGSTAB preconditioned by the latest LU of
    A - diag(f'(u)) that a Newton solve on ``op`` factorized, to the relative
    residual max(1e-10, min(0.1, res_k / res_0)) (the max-norm residuals at
    the iterate and at the initial guess), and refactorizes at u only when
    there is none yet, BiCGSTAB fails or its step fails the line search
    (then the exact step is retried once before ConvergenceError). The first
    Newton solve on an operator therefore factorizes its first Jacobian; a
    later one may factorize nothing, and its last bits depend on the Newton
    solves before it on ``op``. Steps with f' identically zero and Picard
    use the operator's shared LU of A."""
    policy = policy or SolvePolicy()
    policy.validate()
    if op is None:
        op = assemble_laplacian(grid)
    elif op.grid is not grid:
        raise ValidationError("op was assembled on another grid")
    b = boundary_rhs(op, trace)
    trace_vals = as_trace(trace)(op.bc_points) if op.bc_rows.size else np.zeros(0)

    method = policy.method
    meta = {}
    if method != "picard" and f.derivative_unbounded:
        if method == "newton":
            meta["fallback"] = "picard"
            meta["fallback_reason"] = "f not differentiable on range"
        method = "picard"
    elif method == "auto":
        method = "newton"

    u = _initial_guess(op, f, b, policy.init, trace_vals, meta)

    def residual(u):
        fu = eval_f(f, u)
        r = op.matrix @ u - b - fu
        return r, float(np.abs(r).max()), fu

    abs_matrix = None   # |A|, built the first time the normwise test fails

    def converged(u, r, res, fu):
        """res <= tol, or every row within max(tol, k eps s_i) with
        s = |A||u| + |b| + |f(u)|: the rounding of evaluating row i."""
        nonlocal abs_matrix
        if res <= policy.tol:
            return True
        if abs_matrix is None:
            abs_matrix = abs(op.matrix)
        s = abs_matrix @ np.abs(u) + np.abs(b) + np.abs(fu)
        return bool((np.abs(r) <= np.maximum(policy.tol, _BACKWARD_FLOOR * s)).all())

    def line_search(u, res, delta):
        """The first of u + delta, u + delta/2, ... down to the damping floor
        whose residual is below ``res``, or None."""
        alpha = 1.0
        while alpha >= _DAMPING_FLOOR:
            u_try = u + alpha * delta
            r_try, res_try, fu_try = residual(u_try)
            if res_try < res:
                return u_try, r_try, res_try, fu_try
            alpha *= 0.5
        return None

    def exact_step(u, res, delta, iters):
        if not np.isfinite(delta).all():
            raise JacobianSingularError("jacobian singular: non-finite step")
        step = line_search(u, res, delta)
        if step is None:
            raise ConvergenceError(
                "no convergence: newton damping floor reached",
                iterations=iters, residual=res)
        return step

    def newton_step(u, r, res, iters):
        if not math.isfinite(res):
            raise ConvergenceError("no convergence: non-finite residual",
                                   iterations=iters, residual=res)
        fp = eval_f_prime(f, u)
        if not fp.any():
            # with f' identically zero the Jacobian is A: reuse its factors
            return exact_step(u, res, _factors(op).solve(-r), iters)
        jac = op.matrix - sp.diags(fp)
        lu = op._jac_lu   # the latest Jacobian LU of a Newton solve on op
        if lu is not None:
            pre = spla.LinearOperator(jac.shape, matvec=lu.solve, dtype=float)
            rtol = max(_FORCING_MIN, min(_FORCING_MAX, res / res0))
            delta, info, _ = _bicgstab(jac, -r, pre, rtol,
                                       _NEWTON_KRYLOV_MAXITER)
            if info == 0 and np.isfinite(delta).all():
                step = line_search(u, res, delta)
                if step is not None:
                    return step
        # no LU yet, or the Krylov step failed: refactorize at u, exact step
        lu = op._jac_lu = factorize(jac)
        return exact_step(u, res, lu.solve(-r), iters)

    def picard_step(u, r, res, iters):
        u = _factors(op).solve(b + eval_f(f, u))
        return (u, *residual(u))

    step = newton_step if method == "newton" else picard_step
    r, res, fu = residual(u)
    res0 = res   # the initial guess's residual, which scales the forcing
    iters = 0
    while not converged(u, r, res, fu):
        if iters == policy.max_iter:
            raise ConvergenceError(f"no convergence: {method} iteration cap",
                                   iterations=iters, residual=res)
        u, r, res, fu = step(u, r, res, iters)
        iters += 1

    indep = float(np.abs(stencil_residual(grid, u, trace) - fu).max())
    meta["residual_internal"] = res
    return SolutionField(grid=grid, values=u, trace=trace, residual_norm=indep,
                         iterations=iters, method=method, meta=meta)


def principal_eigenpair(op: SparseOperator) -> EigenPair:
    """Eigenpair of op with the eigenvalue nearest 0; phi1 max-normalized.

    ARPACK in shift-invert mode about 0, applying the operator's shared LU,
    started from the ones vector and run to machine precision; operators
    with n <= 2 (ARPACK needs n > 2) take a dense eigendecomposition.
    lambda1 is the Rayleigh quotient of the max-normalized eigenfunction and
    ``residual`` its max-norm residual; one above 1e-8 lambda1 raises
    ConvergenceError, and an eigenfunction that is not positive raises
    NumericalError."""
    if op.n <= 2:
        w, vecs = la.eig(op.matrix.toarray())
        solves = 0
    else:
        lu = _factors(op)
        count = {"solves": 0}

        def opinv(x):
            count["solves"] += 1
            return lu.solve(x)

        inverse = spla.LinearOperator((op.n, op.n), matvec=opinv, dtype=float)
        try:
            w, vecs = spla.eigs(op.matrix, k=1, sigma=0.0, OPinv=inverse,
                                v0=np.ones(op.n), tol=0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError("no convergence: shift-invert arnoldi",
                                   iterations=count["solves"]) from exc
        except spla.ArpackError as exc:
            raise NumericalError(f"shift-invert arnoldi failed: {exc}") from exc
        solves = count["solves"]
    vec = vecs[:, np.argmin(np.abs(w))].real
    peak = vec[np.argmax(np.abs(vec))]
    if not np.isfinite(peak) or peak == 0.0:
        raise NumericalError("eigensolver produced a degenerate vector")
    v = vec / peak
    av = op.matrix @ v
    lam = float(v @ av) / float(v @ v)
    resid = float(np.abs(av - lam * v).max())
    if not resid <= 1e-8 * abs(lam):
        raise ConvergenceError("no convergence: eigen residual above 1e-8 lambda1",
                               iterations=solves, residual=resid)
    if (v <= 0).any():
        raise NumericalError("principal eigenfunction is not positive")
    return EigenPair(lambda1=lam, phi1=v, residual=resid, iterations=solves)
