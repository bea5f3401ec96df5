"""Linear, semilinear and eigenvalue solves on masked grids.

Each operator is factorized at most once. ``factorize`` is the package's
one SuperLU call: it orders the columns on the pattern of A^T + A (the
cut-cell pattern is symmetric, only the values are not) and factors one
column per panel with no relaxed supernodes, which on these small-supernode
stencils needs less memory and fill than SuperLU's dense panels and
zero-padded supernodes. The LU of an operator's matrix is kept on the
``SparseOperator`` and shared by every solve with that matrix: the linear
solve in one and two dimensions, Picard, each Newton step whose Jacobian is
A itself (f' identically zero) and the shift-invert eigensolve. The
LU-or-Krylov rule is by dimension: one and two dimensions factorize, where
fill stays near-linear; from three dimensions on the fill explodes and
``solve_linear`` runs Jacobi-preconditioned BiCGSTAB to a relative residual
of 1e-13 instead (the cut-arm operator is not symmetric). BiCGSTAB is
SciPy's algorithm in a loop of this module's own (``_bicgstab``), whose
inner products and norms ``np.einsum`` sums: BLAS ``ddot`` splits vectors
above about 10,000 entries over its threads, so a result summed by it would
change with the BLAS thread count. A one-dimensional operator's eigenpair
needs no LU at all (see below).

``solve_semilinear`` is a damped Newton iteration on F(u) = A u - b - f(u)
with the exact Jacobian J(u) = A - diag(f'(u)), which ``_jacobian`` builds
on A's own index arrays: a copy of A's values with f'(u) subtracted at A's
diagonal positions, which each operator finds once and keeps
(``SparseOperator._diag_pos``), so no step forms a sparse diagonal or a
sparse difference. The stopping test reads diag(A) once per solve. The
latest Jacobian LU of a
Newton solve is kept on the operator (``SparseOperator._jac_lu``) and
preconditions every later step with a nonzero f', in this solve and in later
Newton solves on that operator (a lagged preconditioner: Knoll & Keyes,
JCP 193, 2004): BiCGSTAB solves J(u_k) delta = -F(u_k) within 10 iterations
to the relative residual max(1e-10, min(0.1, res_k / res_0)), res_k and res_0
being the max-norm residuals at u_k and at the initial guess. That inexact
Newton forcing term is O(||F(u_k)||), so it keeps the local quadratic
convergence (Dembo, Eisenstat & Steihaug, SINUM 19, 1982) and spends few
Krylov iterations on the early steps, whose accuracy the next step discards.
A step refactorizes J(u_k), replaces the kept LU and is solved directly by
the fresh factors when there is none yet, when BiCGSTAB fails (nonzero info
or a non-finite step) or when its step reaches the damping floor. So a
Newton solve's last bits depend on the Newton solves and the LU kept before
it on its operator; the same sequence of calls reruns bit-identically.
One rule, ``_route``, picks the iteration: the Picard iteration
u <- A^{-1} (b + f(u)) when the policy asks for it or when the
nonlinearity declares that f' blows up somewhere (``sqrt_saturation``,
``double_front_source``, ``power`` with exponent below 1), Newton
otherwise. Both run in one loop that stops once the max-norm residual is
at most ``tol``, or every row meets the componentwise backward-error test
|r_i| <= max(tol, 4 eps s_i) with s = |A||u| + |b| + |f(u)| (Oettli &
Prager, Numer. Math. 6, 1964): near a cusp the cut-cell diagonal reaches
1e8 and the rounding of (A u)_i alone exceeds ``tol``, so a normwise test
never passes there. A has the M-matrix sign pattern, so the test reads
|A||u| as 2 diag(A)|u| - A|u| and never forms |A|. The loop raises
ConvergenceError at ``max_iter``; each method supplies only its step.
Newton raises on a non-finite residual, Picard runs on to its cap. Every
returned field carries a residual that was recomputed through the
independent gather-based stencil walker, not the solver's own matrix.

The precision of a factorization is fixed by its role. The Jacobian LU a
Newton step factorizes is single precision (float32 SuperLU: half the bytes
of its values, Buttari et al., ACM TOMS 34, 2008; Carson & Higham, SISC 40,
2018): it only preconditions the double-precision BiCGSTAB, so the converged
answer keeps double accuracy, and the one step solved directly by fresh
factors is an inexact Newton step with relative error of order
kappa(J) 2^-24. A's shared LU (the lift, Picard, f' identically zero steps
and the shift-invert eigensolve need an exact inverse), the J(0) LU that
``_lambda1`` keeps and every factorization outside Newton stay double
precision.

``principal_eigenpair`` rejects a reducible operator (more than one
connected component, a count assembly keeps on the operator; then no
positive eigenfunction is unique) with NumericalError, then solves a
tridiagonal operator (one-dimensional, or n <= 2) by a symmetric
tridiagonal eigensolve after a diagonal similarity
(``scipy.linalg.eigh_tridiagonal``), and any other by ARPACK in
shift-invert mode about 0 with the shared factors. The ARPACK step is one
helper, ``_shift_invert_eigenpair(op, lu, sigma)``, which takes the LU of
A - sigma I, keeps ARPACK's Krylov basis to 10 vectors and ends with one
inverse-iteration step through the same factors, which makes the
eigenfunction positive where it falls below ARPACK's rounding (next to a
cusp). ``_lambda1(op, f)`` is ``uniqueness_test``'s one solver call: it
keeps the double-precision LU of J(0) = A - diag(f'(0)) on the operator
(A's own when f'(0) = 0), which preconditions the probe's restarts, all of
which should end at u = 0, and runs that helper about sigma = f'(0)
through it. Every path starts from fixed data (ARPACK from the ones
vector), so reruns are bit-identical, and every result passes the same
checks: Rayleigh quotient, residual at most 1e-8 lambda1, positive
eigenfunction.
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
# solve_linear keeps a BiCGSTAB result whose true residual ||A u - b||_2 is
# within this factor of the target: on random 3-D grids, results within
# 1.5e-13 of a dense solve read up to 2.3 times the target, drifted ones
# from 1e7 times up
_KRYLOV_MARGIN = 10.0
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
    the shift-invert solves: those ARPACK asked for plus the one
    inverse-iteration step that polishes its vector (0 on the tridiagonal
    path: one-dimensional operators and any with n <= 2)."""

    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int


@dataclass
class SolvePolicy:
    method: str = "auto"            # auto | picard
    tol: float = 1e-10
    max_iter: int = 80
    init: object = "torsion_lift"   # torsion_lift | front_lift | zero | array

    def validate(self):
        if self.method not in ("auto", "picard"):
            raise ValidationError("policy method must be auto or picard")
        if not 0 < self.tol < math.inf:
            raise ValidationError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


class _SingleLU:
    """Float32 SuperLU factors whose ``solve`` takes and returns float64.

    The right-hand side is divided by its max norm before the cast to
    float32 and the solution multiplied back, so entries outside float32's
    range (below about 1e-38 or above 3.4e38) neither flush to zero nor
    overflow. Every other attribute (``L``, ``U``, ``nnz``, ...) is the
    wrapped factors'."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        scale = float(np.abs(rhs).max())
        if not 0.0 < scale < math.inf:
            scale = 1.0   # a zero or non-finite rhs passes through unscaled
        x = self._lu.solve((rhs / scale).astype(np.float32))
        return x.astype(float) * scale


def factorize(matrix: sp.spmatrix, single: bool = False):
    """SuperLU factors of ``matrix``, columns ordered by minimum degree on
    the pattern of A^T + A (``permc_spec="MMD_AT_PLUS_A"``), one column per
    panel and no relaxed supernodes (``panel_size=1, relax=1``).

    SuperLU (Demmel et al., SIMAX 20, 1999) by default factors columns in
    dense panels of 10 and merges small subtrees of the elimination tree
    into "relaxed" supernodes padded with explicit zeros. The supernodes of
    these 2N+1-point operators are small, so both cost more than they save.
    Measured on a 2-vCPU machine: the n = 174,616 arc_bump box needs 111 MB
    above its input while it factorizes instead of 165 MB (float32: 74
    instead of 114 MB), with fill 9.69M instead of 9.92M; the 3-D
    Weierstrass window [-1.5,1.5]^2 x [0,4] at h = 1/16 (n = 83,104) takes
    10 s, fill 28.9M and a 351 MB peak instead of 33 s, 66.9M and 837 MB.
    Ten-column panels with ``relax=1`` take 5 s there, but hold 31 MB of
    panel workspace on the 2-D box.

    With ``single`` the matrix is factorized in float32 and the factors'
    ``solve`` scales and casts a float64 right-hand side (``_SingleLU``):
    an approximate inverse, with relative error of order kappa 2^-24, for
    Newton's Jacobian LU, which preconditions BiCGSTAB. Every other caller
    factorizes in double precision.

    ``spla.splu`` is looked up at call time, so a wrapper installed on the
    module sees every factorization. A singular matrix raises
    JacobianSingularError, a NumericalError, with Newton's message."""
    csc = matrix.tocsc()
    try:
        lu = spla.splu(csc.astype(np.float32) if single else csc,
                       permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    except RuntimeError as exc:
        raise JacobianSingularError(f"jacobian singular: {exc}") from exc
    return _SingleLU(lu) if single else lu


def _factors(op: SparseOperator):
    """The LU of ``op.matrix``, computed on first use and kept on ``op``."""
    if op._lu is None:
        op._lu = factorize(op.matrix)
    return op._lu


def _jacobian(op: SparseOperator, fp: np.ndarray) -> sp.csr_matrix:
    """J = A - diag(fp) as a CSR matrix on ``op.matrix``'s own ``indices``
    and ``indptr`` (shared, never sorted or written) with a copy of its
    values, from which fp is subtracted at A's diagonal entries. Their
    positions are found once per operator and kept on it (``op._diag_pos``).

    J's values are those of ``op.matrix - sp.diags(fp)``, bit for bit and at
    the same positions, without the DIA matrix and the sparse subtraction,
    except that a J_ii that cancels to exactly zero stays stored where the
    subtraction drops it. Each call allocates only the values (8 bytes per
    nonzero, where the subtraction allocated 12)."""
    a = op.matrix
    if op._diag_pos is None:
        rows = np.repeat(np.arange(op.n, dtype=a.indices.dtype), np.diff(a.indptr))
        op._diag_pos = np.flatnonzero(a.indices == rows)
    jac = sp.csr_matrix((a.data.copy(), a.indices, a.indptr), shape=a.shape)
    jac.data[op._diag_pos] -= fp
    return jac


def _keep_jacobian_lu(op: SparseOperator, fp: np.ndarray, single: bool):
    """Factorize the Jacobian J = A - diag(fp) (``_jacobian``), keep its LU
    on ``op`` as the Jacobian LU that preconditions later Newton steps, and
    return it. With fp identically zero J is A, whose shared (double) LU is
    kept instead. A singular J raises JacobianSingularError and keeps
    nothing.

    ``single`` is fixed by the caller's role: a Newton step's refactorization
    passes True (float32 factors, see ``factorize``), ``_lambda1``'s J(0),
    the point every uniqueness restart must reach, passes False."""
    if fp.any():
        op._jac_lu = factorize(_jacobian(op, fp), single)
    else:
        op._jac_lu = _factors(op)
    return op._jac_lu


def _jacobi(matrix: sp.csr_matrix):
    # the diagonal sums 2 / (h^2 theta- theta+) with theta >= 1e-8: positive
    return sp.diags(1.0 / matrix.diagonal())


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y summed by ``np.einsum``'s own loop. BLAS ``ddot`` (numpy's
    ``dot`` and ``linalg.norm``) splits vectors above about 10,000 entries
    over its threads, so its rounding would follow the thread count."""
    return np.einsum("i,i", x, y)


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x through ``_dot``."""
    return math.sqrt(_dot(x, x))


def _bicgstab(matrix, rhs: np.ndarray, psolve, rtol: float, maxiter: int,
              x0: np.ndarray = None):
    """BiCGSTAB for matrix x = rhs from x0 (default 0) to the residual
    rtol ||rhs||, preconditioned by ``psolve`` (x -> an approximate inverse
    applied to x).

    SciPy's algorithm (``scipy.sparse.linalg.bicgstab``: the same updates,
    stopping tests and breakdown tolerances) in a loop of its own, so that
    every inner product and norm goes through ``_dot`` and a result does not
    depend on the BLAS thread count. Returns the solution, SciPy's info code
    (0 converged, ``maxiter`` when the iterations run out, -10 when
    (r~, r) vanishes, -11 when omega or (r~, v) does) and the iterations
    run: those that applied the preconditioner, a return at the half step
    included."""
    bnorm = _norm(rhs)
    if bnorm == 0.0:   # SciPy returns a zero right-hand side as its solution
        return rhs.copy(), 0, 0
    bound = rtol * bnorm
    x = np.zeros(len(rhs)) if x0 is None else np.array(x0, dtype=float)
    r = rhs - matrix @ x if x.any() else rhs.copy()
    rtilde = r.copy()
    breakdown = np.finfo(float).eps ** 2
    for it in range(maxiter):
        if _norm(r) < bound:
            return x, 0, it
        rho = _dot(rtilde, r)
        if abs(rho) < breakdown:
            return x, -10, it
        if it == 0:
            p = r.copy()
        elif abs(omega) < breakdown:
            return x, -11, it
        else:
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        phat = psolve(p)
        v = matrix @ phat
        rv = _dot(rtilde, v)
        if rv == 0:
            return x, -11, it + 1
        alpha = rho / rv
        r -= alpha * v
        if _norm(r) < bound:
            x += alpha * phat
            return x, 0, it + 1
        shat = psolve(r)
        t = matrix @ shat
        omega = _dot(t, r) / _dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, maxiter, maxiter


def _linear_core(op: SparseOperator, rhs: np.ndarray) -> tuple:
    """(u, path, iterations) with op u = rhs, no residual recomputed: see
    ``solve_linear``, which checks the answer; the torsion lift does not."""
    if not rhs.any():
        return np.zeros(op.n), "trivial", 0
    if op.grid.dimension <= _LU_MAX_DIMENSION:
        return _factors(op).solve(rhs), "lu", 0
    jacobi = _jacobi(op.matrix).dot
    maxiter = min(40 * op.n + 100, 200000)
    bound = _KRYLOV_MARGIN * _KRYLOV_TOL * _norm(rhs)

    def stands(u, info):
        return info == 0 and _norm(op.matrix @ u - rhs) <= bound

    u, info, iters = _bicgstab(op.matrix, rhs, jacobi, _KRYLOV_TOL, maxiter)
    converged = stands(u, info)
    if not converged and info <= 0 and np.isfinite(u).all():
        u, info, more = _bicgstab(op.matrix, rhs, jacobi, _KRYLOV_TOL,
                                  maxiter, x0=u)
        iters += more
        converged = stands(u, info)
    if not converged:
        raise ConvergenceError(
            f"no convergence: bicgstab after {iters} iterations",
            iterations=iters, residual=float(np.abs(op.matrix @ u - rhs).max()))
    return u, "bicgstab", iters


def solve_linear(op: SparseOperator, rhs: np.ndarray) -> SolutionField:
    """Solve op u = rhs: by the operator's shared LU in one and two
    dimensions, by Jacobi-preconditioned BiCGSTAB in three or more.

    A finite iterate restarts once from itself, to the same absolute target
    rtol ||rhs||, after a BiCGSTAB breakdown (info < 0) or when BiCGSTAB
    reports convergence (info 0) but the true residual ||A u - rhs||
    misses that target by more than a rounding margin of 10: the
    recursively updated residual can drift from the true one.
    ``ConvergenceError`` is raised if the restart fails or misses too.

    ``meta["path"]`` says which ran: "lu", "bicgstab", or "trivial" for a
    zero right-hand side."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValidationError("rhs length does not match operator dimension")
    u, path, iters = _linear_core(op, rhs)
    if path == "trivial":
        return SolutionField(grid=op.grid, values=u, residual_norm=0.0,
                             iterations=0, method="linear", meta={"path": path})
    resid = float(np.abs(op.matrix @ u - rhs).max())
    indep = float(np.abs(stencil_residual(op.grid, u, trace=0.0) - rhs).max())
    return SolutionField(grid=op.grid, values=u, residual_norm=indep,
                         iterations=iters, method="linear",
                         meta={"path": path, "residual_internal": resid})


def _initial_guess(op: SparseOperator, f: Nonlinearity, b: np.ndarray,
                   init, trace_vals: np.ndarray, meta: dict) -> np.ndarray:
    """The starting field; records ``meta["init"]``, and ``meta["lift"]``
    (``solve_linear``'s path) for the torsion lift, which runs the linear
    solve alone: the Newton or Picard loop checks the residual anyway."""
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
        meta["init"] = "torsion_lift"
        u0, meta["lift"], _ = _linear_core(op, rhs)
        return u0
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


def _route(f: Nonlinearity, method: str = "auto") -> str:
    """The iteration that runs: Picard when ``method`` asks for it or when f
    declares that f' blows up somewhere, Newton otherwise."""
    return "picard" if method == "picard" or f.derivative_unbounded else "newton"


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
    (then the step solved directly by the fresh float32 factors, an inexact
    Newton step, is tried once before ConvergenceError). The first
    Newton solve on an operator therefore factorizes its first Jacobian,
    unless a Jacobian LU was kept on ``op`` before it (``_lambda1`` keeps
    that of J(0) = A - diag(f'(0))); a later one may factorize
    nothing, and its last bits depend on the Newton solves and the LU kept
    before it on ``op``. Steps with f' identically zero and Picard use the
    operator's shared LU of A."""
    policy = policy or SolvePolicy()
    policy.validate()
    if op is None:
        op = assemble_laplacian(grid)
    elif op.grid is not grid:
        raise ValidationError("op was assembled on another grid")
    b = boundary_rhs(op, trace)
    trace_vals = as_trace(trace)(op.bc_points) if op.bc_rows.size else np.zeros(0)

    method = _route(f, policy.method)
    meta = {}
    u = _initial_guess(op, f, b, policy.init, trace_vals, meta)

    def residual(u):
        fu = eval_f(f, u)
        r = op.matrix @ u - b - fu
        return r, float(np.abs(r).max()), fu

    diag = op.matrix.diagonal()

    def converged(u, r, res, fu):
        """res <= tol, or every row within max(tol, k eps s_i) with
        s = |A||u| + |b| + |f(u)|: the rounding of evaluating row i. A has
        the M-matrix sign pattern (positive diagonal, off-diagonal <= 0), so
        |A||u| = 2 diag(A)|u| - A|u| and |A| is never formed."""
        if res <= policy.tol:
            return True
        a = np.abs(u)
        s = 2.0 * diag * a - op.matrix @ a + np.abs(b) + np.abs(fu)
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

    def direct_step(u, res, delta, iters):
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
            return direct_step(u, res, _factors(op).solve(-r), iters)
        lu = op._jac_lu   # the latest Jacobian LU kept on op
        if lu is not None:
            rtol = max(_FORCING_MIN, min(_FORCING_MAX, res / res0))
            delta, info, _ = _bicgstab(_jacobian(op, fp), -r, lu.solve,
                                       rtol, _NEWTON_KRYLOV_MAXITER)
            if info == 0 and np.isfinite(delta).all():
                step = line_search(u, res, delta)
                if step is not None:
                    return step
        # no LU yet, or the Krylov step failed: refactorize at u in float32
        # and take the direct step by the fresh factors
        return direct_step(u, res, _keep_jacobian_lu(op, fp, True).solve(-r),
                           iters)

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


def _checked_pair(op: SparseOperator, vec: np.ndarray, solves: int) -> EigenPair:
    """The eigenpair of op from an eigenvector estimate: max-normalized, with
    lambda1 its Rayleigh quotient (inner products by ``_dot``, so that it
    does not follow the BLAS thread count) and ``residual`` its max-norm
    residual.
    A residual above 1e-8 lambda1 raises ConvergenceError, an eigenfunction
    that is not positive NumericalError."""
    peak = vec[np.argmax(np.abs(vec))]
    if not np.isfinite(peak) or peak == 0.0:
        raise NumericalError("eigensolver produced a degenerate vector")
    v = vec / peak
    av = op.matrix @ v
    lam = float(_dot(v, av)) / float(_dot(v, v))
    resid = float(np.abs(av - lam * v).max())
    if not resid <= 1e-8 * abs(lam):
        raise ConvergenceError("no convergence: eigen residual above 1e-8 lambda1",
                               iterations=solves, residual=resid)
    if (v <= 0).any():
        raise NumericalError("principal eigenfunction is not positive")
    return EigenPair(lambda1=lam, phi1=v, residual=resid, iterations=solves)


def _tridiagonal_eigenpair(op: SparseOperator) -> EigenPair:
    """The eigenpair of a tridiagonal operator with the smallest eigenvalue,
    by a symmetric tridiagonal eigensolve.

    The off-diagonals a_{i,i+1}, a_{i+1,i} are both negative or both zero
    (no arm joins the two nodes). With D_0 = 1 and
    D_{i+1} = D_i sqrt(a_{i,i+1} / a_{i+1,i}), T = D A D^-1 is symmetric,
    with off-diagonal -sqrt(a_{i,i+1} a_{i+1,i}), so T y = lambda y gives
    A v = lambda v for v = y / D."""
    a = op.matrix
    upper, lower = a.diagonal(1), a.diagonal(-1)
    coupled = upper != 0.0
    ratio = np.sqrt(np.divide(upper, lower, out=np.ones(op.n - 1),
                              where=coupled))
    d = np.concatenate(([1.0], np.cumprod(ratio)))
    _, y = la.eigh_tridiagonal(a.diagonal(), -np.sqrt(upper * lower),
                               select="i", select_range=(0, 0))
    return _checked_pair(op, y[:, 0] / d, 0)


def _shift_invert_eigenpair(op: SparseOperator, lu, sigma: float) -> EigenPair:
    """The eigenpair of op with the eigenvalue nearest ``sigma``, by ARPACK
    in shift-invert mode through ``lu``, the LU of A - sigma I, started from
    the ones vector, with a Krylov basis of at most 10 vectors, and run to
    machine precision (n > 2); then one inverse-iteration step through the
    same factors: v <- lu.solve(max(v / peak, 0)).

    That step is what makes the eigenfunction's sign certain. Next to a
    cusp phi1 falls to about 1e-25 while ARPACK's vector carries rounding
    of about 1e-21, which can be negative. For sigma < lambda_1, A - sigma I
    is a nonsingular M-matrix, so its inverse is entrywise positive on an
    irreducible A (Berman & Plemmons, ch. 6): the solve maps the clipped,
    nonnegative and nonzero vector to a positive one, moving lambda_1 at
    the rounding level. ARPACK failures are lab errors."""
    count = {"solves": 0}

    def opinv(x):
        count["solves"] += 1
        return lu.solve(x)

    inverse = spla.LinearOperator((op.n, op.n), matvec=opinv, dtype=float)
    try:
        _, vecs = spla.eigs(op.matrix, k=1, sigma=sigma, OPinv=inverse,
                            v0=np.ones(op.n), ncv=min(op.n, 10), tol=0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError("no convergence: shift-invert arnoldi",
                               iterations=count["solves"]) from exc
    except spla.ArpackError as exc:
        raise NumericalError(f"shift-invert arnoldi failed: {exc}") from exc
    v = vecs[:, 0].real
    v = opinv(np.maximum(v / v[np.argmax(np.abs(v))], 0.0))
    return _checked_pair(op, v, count["solves"])


def _eigenpair(op: SparseOperator, jac=None, c: float = 0.0) -> EigenPair:
    """``principal_eigenpair(op)``, tried first by shift-invert about c
    through ``jac``, the LU of A - c I, when one is given (``_lambda1``).

    An operator with more than one connected component raises
    NumericalError: lambda_1 is then the least of the components' own, and
    no positive eigenfunction belongs to it uniquely (it vanishes on the
    other components, or, for equal ones, every positive mix is one)."""
    if op.components > 1:
        raise NumericalError(
            f"reducible operator: {op.components} connected components, so"
            " lambda1 has no unique positive eigenfunction")
    if op.grid.dimension == 1 or op.n <= 2:   # tridiagonal
        return _tridiagonal_eigenpair(op)
    if jac is not None:
        try:
            pair = _shift_invert_eigenpair(op, jac, c)
            if pair.lambda1 > c:
                return pair
        except (ConvergenceError, NumericalError):
            pass
    return _shift_invert_eigenpair(op, _factors(op), 0.0)


def principal_eigenpair(op: SparseOperator) -> EigenPair:
    """Eigenpair of op with the smallest eigenvalue (A is an M-matrix: the
    eigenvalue nearest 0); phi1 max-normalized.

    A reducible operator (its pattern has more than one connected
    component) raises NumericalError before any solve. A tridiagonal
    operator (one-dimensional, or n <= 2) takes a symmetrized tridiagonal
    eigensolve (``scipy.linalg.eigh_tridiagonal``) and factorizes nothing.
    Otherwise ARPACK runs in shift-invert mode about 0, applying the
    operator's shared LU, started from the ones vector and run to machine
    precision, and one inverse-iteration step through the same factors
    polishes its vector. lambda1 is the Rayleigh quotient of the
    max-normalized eigenfunction and ``residual`` its max-norm residual; one
    above 1e-8 lambda1 raises ConvergenceError, and an eigenfunction that is
    not positive raises NumericalError."""
    return _eigenpair(op)


def _lambda1(op: SparseOperator, f: Nonlinearity) -> float:
    """lambda_1 of op for the uniqueness probe of f, which has f(0) = 0.

    On the Newton route (``_route``) this keeps the double-precision LU of
    J(0) = A - c I, c = f'(0) (f is autonomous: one number), on ``op`` as
    its Jacobian LU for the probe's restarts (A's own LU when c = 0), and
    reads lambda_1 by shift-invert about c through it. A is an M-matrix, so
    by Perron-Frobenius lambda_1 is real, every other eigenvalue has a
    larger real part and only lambda_1's eigenvector is positive: when
    lambda_1 > c it is the eigenvalue nearest c. The pair is kept when its
    eigenvector is positive and its eigenvalue exceeds c. Otherwise, on the
    Picard route, for a singular J(0) (both keep nothing) and for a
    tridiagonal operator, ``principal_eigenpair(op)`` answers."""
    jac, c = None, 0.0
    if _route(f) == "newton":
        fp0 = eval_f_prime(f, np.zeros(op.n))
        c = float(fp0[0])
        try:
            jac = _keep_jacobian_lu(op, fp0, False)
        except JacobianSingularError:
            pass
    return _eigenpair(op, jac, c).lambda1
