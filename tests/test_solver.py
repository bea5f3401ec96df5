"""Linear, Newton/Picard and eigenvalue solves against closed-form targets."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given
from hypothesis import strategies as st
from test_lattice import SETTINGS, grids

from epigraph_lab import (
    ConvergenceError,
    JacobianSingularError,
    LabError,
    NumericalError,
    SolvePolicy,
    ValidationError,
    assemble_laplacian,
    boundary_rhs,
    build_grid,
    interval_torsion,
    make_epigraph,
    make_nonlinearity,
    principal_eigenpair,
    solve_linear,
    solve_semilinear,
    stencil_residual,
    strip_set,
    tanh_front,
    threshold_scan,
    uniqueness_test,
)
from epigraph_lab import comparison, discretization, solver
from epigraph_lab.solver import _bicgstab

# smallest eigenvalue of (1/h^2) tridiag(-1, 2, -1), 3 nodes, h = 1/4:
# 32 (1 - cos(pi/4)), frozen from a 20-digit evaluation
EIG_3NODE = 9.3725830020304792192
# j_0^2, square of the first Bessel zero
DISK_EIG = 5.7831859629467845212


def unit_disk(points):
    pts = np.atleast_2d(points)
    return (pts ** 2).sum(axis=1) < 1.0


def tanh_trace(pts):
    return tanh_front(pts[:, -1])


def interval_grid(a, b, h):
    return build_grid(strip_set(a, b, dimension=1), [[a, b]], h)


def test_zero_rhs_short_circuits():
    g = interval_grid(0.0, 1.0, 0.25)
    op = assemble_laplacian(g)
    sol = solve_linear(op, np.zeros(op.n))
    assert sol.residual_norm == 0.0
    assert sol.iterations == 0
    assert np.all(sol.values == 0.0)


def test_linear_solve_argument_validation():
    g = interval_grid(0.0, 1.0, 0.25)
    op = assemble_laplacian(g)
    with pytest.raises(ValidationError):
        solve_linear(op, np.ones(op.n + 1))


def test_interval_torsion_solution():
    g = interval_grid(0.0, 1.0, 1.0 / 16)
    f = make_nonlinearity("constant", value=1.0)
    sol = solve_semilinear(g, f)
    y = g.points[:, 0]
    # quadratic closed form is in the stencil's exactness class
    assert np.max(np.abs(sol.values - interval_torsion(y, 0.0, 1.0))) <= 1e-12
    assert abs(sol.max_norm - 0.125) <= 1e-12
    assert sol.residual_norm <= 1e-9


def test_reported_residual_is_independent():
    g = interval_grid(0.0, 1.0, 1.0 / 16)
    f = make_nonlinearity("constant", value=1.0)
    sol = solve_semilinear(g, f)
    op = assemble_laplacian(g)
    manual = op.matrix @ sol.values - boundary_rhs(op, 0.0) - 1.0
    gather = stencil_residual(g, sol.values, 0.0) - 1.0
    assert np.max(np.abs(manual)) <= sol.residual_norm + 1e-12
    assert abs(np.max(np.abs(gather)) - sol.residual_norm) <= 1e-15


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32])
def test_newton_matches_tanh_front(h):
    dom = make_epigraph("half_space", dimension=2)
    g = build_grid(dom, [[0.0, 1.0], [0.0, 12.0]], h)
    f = make_nonlinearity("allen_cahn")
    pol = SolvePolicy(init="front_lift", tol=1e-11)
    sol = solve_semilinear(g, f, trace=tanh_trace, policy=pol)
    assert sol.method == "newton"
    assert sol.meta["init"] == "front_lift"
    err = np.max(np.abs(sol.values - tanh_front(g.points[:, 1])))
    assert err <= 0.1 * h * h


def test_newton_convergence_order_on_tanh():
    dom = make_epigraph("half_space", dimension=2)
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        g = build_grid(dom, [[0.0, 0.25], [0.0, 12.0]], h)
        sol = solve_semilinear(g, make_nonlinearity("allen_cahn"),
                               trace=tanh_trace,
                               policy=SolvePolicy(init="front_lift", tol=1e-11))
        errs.append(np.max(np.abs(sol.values - tanh_front(g.points[:, 1]))))
    assert math.log2(errs[0] / errs[1]) >= 1.8


def test_nonsmooth_source_routes_to_picard():
    g = interval_grid(0.0, 0.5, 1.0 / 32)
    f = make_nonlinearity("sqrt_saturation")
    sol = solve_semilinear(g, f)
    assert sol.method == "picard"
    assert sol.iterations > 1
    assert sol.residual_norm <= 1e-9
    assert sol.values.min() > 0.0
    assert sol.max_norm < 1.0


def test_explicit_picard_on_linear_source():
    g = interval_grid(0.0, 2.0, 1.0 / 16)
    f = make_nonlinearity("linear", slope=1.0)
    sol = solve_semilinear(g, f, trace=1.0, policy=SolvePolicy(method="picard"))
    assert sol.method == "picard"
    assert sol.iterations > 1
    y = g.points[:, 0]
    exact = np.cos(y - 1.0) / math.cos(1.0)
    assert np.max(np.abs(sol.values - exact)) <= 5e-3


def test_init_variants():
    g = interval_grid(0.0, 1.0, 0.25)
    f = make_nonlinearity("constant", value=1.0)
    z = solve_semilinear(g, f, policy=SolvePolicy(init="zero"))
    assert z.meta["init"] == "zero"
    warm = solve_semilinear(g, f, policy=SolvePolicy(init=z.values))
    assert warm.meta["init"] == "array"
    assert np.max(np.abs(warm.values - z.values)) <= 1e-12
    with pytest.raises(ValidationError):
        solve_semilinear(g, f, policy=SolvePolicy(init=np.zeros(2)))
    with pytest.raises(ValidationError):
        solve_semilinear(g, f, policy=SolvePolicy(init="warm_start"))


def test_policy_validation():
    # auto already runs Newton wherever f' is bounded: newton is no method
    for method in ("gradient_flow", "newton"):
        with pytest.raises(ValidationError, match="auto or picard"):
            SolvePolicy(method=method).validate()
    with pytest.raises(ValidationError):
        SolvePolicy(tol=-1.0).validate()
    with pytest.raises(ValidationError):
        SolvePolicy(max_iter=0).validate()


@pytest.mark.parametrize("max_iter", [1.5, math.inf, math.nan, True, "3"],
                         ids=["1.5", "inf", "nan", "bool", "str"])
def test_max_iter_must_be_an_integer(max_iter):
    # the loop stops at iters == max_iter: 1.5 and inf once ran all 5 Newton
    # iterations of this solve, where max_iter=1 raises at the cap
    with pytest.raises(ValidationError, match="integer >= 1"):
        SolvePolicy(max_iter=max_iter).validate()
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 4.0]], 1 / 8)
    with pytest.raises(ValidationError, match="integer >= 1"):
        solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=0.5,
                         policy=SolvePolicy(max_iter=max_iter))


def test_max_iter_takes_numpy_integers():
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 4.0]], 1 / 8)
    f = make_nonlinearity("allen_cahn")
    sol = solve_semilinear(g, f, trace=0.5, policy=SolvePolicy(max_iter=np.int64(80)))
    assert sol.iterations == solve_semilinear(g, f, trace=0.5).iterations
    with pytest.raises(ConvergenceError, match="iteration cap"):
        solve_semilinear(g, f, trace=0.5, policy=SolvePolicy(max_iter=np.int64(1)))


@pytest.mark.parametrize("tol", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_tol_is_rejected(tol):
    # inf used to return the unconverged torsion lift as a solution, with
    # residual 0.375, and nan to raise ConvergenceError
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 4.0]], 1 / 8)
    with pytest.raises(ValidationError, match="positive and finite"):
        solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=0.5,
                         policy=SolvePolicy(tol=tol))


# ids name the route that runs: auto is Newton on allen_cahn
@pytest.mark.parametrize("method", ["auto", "picard"], ids=["newton", "picard"])
def test_nan_residual_is_not_converged(method):
    # NaN > tol is false, so a NaN residual must never read as converged
    g = interval_grid(0.0, 1.0, 1.0 / 8)
    init = np.zeros(g.n_interior)
    init[3] = np.nan
    with pytest.raises(ConvergenceError) as err:
        solve_semilinear(g, make_nonlinearity("allen_cahn"),
                         policy=SolvePolicy(method=method, init=init))
    assert math.isnan(err.value.residual)


def test_newton_on_power_source_uses_its_derivative():
    # nonzero data: the torsion lift is not the solution, so Newton steps
    g = interval_grid(0.0, 1.0, 1.0 / 32)
    f = make_nonlinearity("power", exponent=2)
    newton = solve_semilinear(g, f, trace=0.5)
    assert newton.method == "newton"
    assert newton.iterations == 3
    assert newton.residual_norm <= 1e-10
    picard = solve_semilinear(g, f, trace=0.5,
                              policy=SolvePolicy(method="picard"))
    assert np.max(np.abs(newton.values - picard.values)) <= 1e-10


def test_resonant_linear_source_fails_loudly():
    g = interval_grid(0.0, 1.0, 0.25)
    f = make_nonlinearity("linear", slope=EIG_3NODE)
    with pytest.raises(LabError):
        solve_semilinear(g, f, trace=1.0)


def test_operator_of_another_grid_is_rejected():
    # both lattices hold 7 interior nodes, so the matrices have equal size
    g = interval_grid(0.0, 2.0, 0.25)
    other = assemble_laplacian(interval_grid(0.0, 1.0, 1.0 / 8))
    f = make_nonlinearity("constant", value=1.0)
    with pytest.raises(ValidationError, match="another grid"):
        solve_semilinear(g, f, op=other)
    # an operator of an equal but distinct grid object is refused too
    with pytest.raises(ValidationError, match="another grid"):
        solve_semilinear(g, f, op=assemble_laplacian(
            interval_grid(0.0, 2.0, 0.25)))
    assert solve_semilinear(g, f, op=assemble_laplacian(g)).grid is g


def square_window(box, h):
    """The whole 2-D lattice window ``box`` with step h, every face
    Dirichlet."""
    return build_grid(lambda p: np.ones(len(p), dtype=bool), box, h,
                      face_policy=[["dirichlet", "dirichlet"]] * 2)


def cusp_window():
    """arc_bump on [-1,1]x[0,2] at h = 1/32, around the cusp at x = 0."""
    return build_grid(make_epigraph("arc_bump"), [[-1.0, 1.0], [0.0, 2.0]],
                      1.0 / 32)


class TestPrincipalEigenpair:
    def test_three_node_interval(self):
        op = assemble_laplacian(interval_grid(0.0, 1.0, 0.25))
        pair = principal_eigenpair(op)
        assert abs(pair.lambda1 - EIG_3NODE) <= 1e-9 * EIG_3NODE

    def test_width_pi_interval_matches_formulas(self):
        h = math.pi / 128
        op = assemble_laplacian(interval_grid(0.0, math.pi, h))
        pair = principal_eigenpair(op)
        exact_discrete = 2.0 / (h * h) * (1.0 - math.cos(math.pi / 128))
        assert abs(pair.lambda1 - exact_discrete) <= 1e-9 * exact_discrete
        # continuum value (pi/S)^2 = 1 to second order in h
        assert abs(pair.lambda1 - 1.0) <= 0.02

    def test_width_two_interval(self):
        op = assemble_laplacian(interval_grid(0.0, 2.0, 1.0 / 64))
        pair = principal_eigenpair(op)
        assert abs(pair.lambda1 - 2.4674011002723395) <= 0.02 * 2.4674

    def test_disk_reaches_bessel_zero(self):
        policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
        g = build_grid(unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 1.0 / 32,
                       face_policy=policy)
        pair = principal_eigenpair(assemble_laplacian(g))
        assert abs(pair.lambda1 - DISK_EIG) <= 0.02 * DISK_EIG

    def test_eigenfunction_contract(self):
        op = assemble_laplacian(interval_grid(0.0, 1.0, 1.0 / 32))
        pair = principal_eigenpair(op)
        assert pair.phi1.min() > 0.0
        assert np.abs(pair.phi1).max() == 1.0
        assert pair.residual <= 1e-8 * pair.lambda1

    def test_matches_dense_reference_on_cut_cell_grid(self):
        policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
        g = build_grid(unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 0.125,
                       face_policy=policy)
        op = assemble_laplacian(g)
        dense = op.matrix.toarray()
        assert np.abs(dense - dense.T).max() > 1.0      # cut arms: unsymmetric
        w, vecs = la.eig(dense)
        i = np.argmin(np.abs(w))
        ref = vecs[:, i].real / vecs[np.argmax(np.abs(vecs[:, i])), i].real
        pair = principal_eigenpair(op)
        assert abs(pair.lambda1 - w[i].real) <= 1e-10 * w[i].real
        assert np.abs(pair.phi1 - ref).max() <= 1e-10
        assert pair.iterations > 0

    @pytest.mark.parametrize("h,lam", [(0.5, 8.0), (1.0 / 3.0, 9.0)])
    def test_one_and_two_node_operators(self, h, lam):
        # (1/h^2) [2] and (1/h^2) tridiag(-1, 2, -1) on two nodes
        op = assemble_laplacian(interval_grid(0.0, 1.0, h))
        assert op.n == round(1.0 / h) - 1
        pair = principal_eigenpair(op)
        assert abs(pair.lambda1 - lam) <= 1e-12 * lam
        assert np.all(pair.phi1 == 1.0)
        assert pair.iterations == 0

    @pytest.mark.parametrize("box,n,lam", [
        ([[0.0, 1.0], [0.0, 1.0]], 1, 16.0),
        ([[0.0, 1.0], [0.0, 1.5]], 2, 12.0),
    ], ids=["n1", "n2"])
    def test_one_and_two_node_operators_in_two_dimensions(
            self, call_counts, box, n, lam):
        # h = 1/2: [16] on one node and [[16, -4], [-4, 16]] on two; any
        # matrix of size 1 or 2 is tridiagonal, so no LU and no ARPACK
        op = assemble_laplacian(square_window(box, 0.5))
        assert op.n == n
        pair = principal_eigenpair(op)
        assert abs(pair.lambda1 - lam) <= 1e-12 * lam
        # phi1 is the ones vector up to one ulp of the normalized pair
        assert np.abs(pair.phi1 - 1.0).max() <= 1e-15
        assert pair.iterations == 0
        assert call_counts == {"splu": 0, "bicgstab": 0}

    def test_reruns_are_bit_identical(self):
        g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 3.0]],
                       1.0 / 8)
        first = principal_eigenpair(assemble_laplacian(g))
        second = principal_eigenpair(assemble_laplacian(g))
        assert first.lambda1 == second.lambda1
        assert first.phi1.tobytes() == second.phi1.tobytes()

    def test_cusp_window_eigenfunction_is_positive(self):
        # phi1 falls to about 1e-25 next to the cusp at x = 0, below the
        # rounding of ARPACK's vector: the inverse-iteration step through
        # the same factors makes it positive
        op = assemble_laplacian(cusp_window())
        assert op.n == 1561
        pair = principal_eigenpair(op)
        assert pair.phi1.min() > 0.0
        assert pair.phi1.min() < 1e-20
        assert pair.residual <= 1e-8 * pair.lambda1

    def test_polish_step_makes_rounding_negatives_positive(self,
                                                            monkeypatch):
        ref = principal_eigenpair(assemble_laplacian(cusp_window()))
        tiny = ref.phi1 < 1e-20
        assert tiny.sum() > 0
        flipped = np.where(tiny, -ref.phi1, ref.phi1)
        monkeypatch.setattr(spla, "eigs", lambda *args, **kwargs: (
            np.array([ref.lambda1]), flipped[:, None].astype(complex)))
        pair = principal_eigenpair(assemble_laplacian(cusp_window()))
        assert pair.phi1.min() > 0.0
        assert np.abs(pair.phi1 - ref.phi1).max() <= 1e-12
        assert pair.iterations == 1

    def test_reducible_operator_is_rejected_in_two_dimensions(self):
        # two congruent unit squares: lambda1 is double, and ARPACK would
        # return a positive mix of the two squares' eigenfunctions
        def squares(p):
            x = p[:, 0]
            return (((x > 0.0) & (x < 1.0)) | ((x > 1.5) & (x < 2.5))) \
                & (p[:, 1] > 0.0) & (p[:, 1] < 1.0)

        g = build_grid(squares, [[0.0, 2.5], [0.0, 1.0]], 1.0 / 16,
                       face_policy=[["dirichlet", "dirichlet"]] * 2)
        with pytest.raises(NumericalError, match="2 connected components"):
            principal_eigenpair(assemble_laplacian(g))

    def test_arpack_failures_are_lab_errors(self, monkeypatch):
        # a 2-D operator: 1-D ones take the tridiagonal path, not ARPACK
        op = assemble_laplacian(restart_grid())

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))
        monkeypatch.setattr(spla, "eigs", no_convergence)
        with pytest.raises(ConvergenceError):
            principal_eigenpair(op)


def interval_window(a, b, box, h, lo_face="dirichlet"):
    """The interval (a, b) on the lattice window ``box`` with step h; its lo
    face Neumann or Dirichlet, its hi face Dirichlet."""
    return build_grid(lambda p: (p[:, 0] > a) & (p[:, 0] < b), [box], h,
                      face_policy=[[lo_face, "dirichlet"]])


class TestTridiagonalEigenpair:
    """One-dimensional operators take a symmetrized tridiagonal eigensolve:
    no LU, no ARPACK."""

    # cut ends off the lattice (theta < 1) and a Neumann face folded onto
    # its neighbor make the tridiagonal matrix unsymmetric
    @pytest.mark.parametrize("grid,n", [
        (interval_window(0.1, 1.0, [0.0, 1.0], 0.5), 1),
        (interval_window(0.1, 1.0, [0.0, 1.0], 1.0 / 3.0), 2),
        (interval_window(0.1, 1.0, [0.0, 1.0], 0.25), 3),
        (interval_window(0.03, 1.0, [0.0, 1.0], 0.125), 7),
        (interval_window(-2.0, 0.7, [-1.0, 1.0], 0.125, "neumann"), 14),
        (interval_window(-1.0, 7.99, [0.0, 8.0], 1.0 / 32, "neumann"), 256),
    ], ids=["n1", "n2", "n3", "cut_end", "mirror_face", "n256"])
    def test_matches_dense_reference(self, call_counts, grid, n):
        op = assemble_laplacian(grid)
        assert op.n == n
        dense = op.matrix.toarray()
        assert n == 1 or np.abs(dense - dense.T).max() > 1.0
        # the dense eigenvalue carries an absolute error of order eps |A|
        # (5e-12 relative at n = 256); the two-sided Rayleigh quotient of its
        # left and right eigenvectors is accurate to second order
        w, left, right = la.eig(dense, left=True, right=True)
        i = np.argmin(np.abs(w))
        u, v = left[:, i].real, right[:, i].real
        lam = (u @ dense @ v) / (u @ v)
        pair = principal_eigenpair(op)
        assert abs(pair.lambda1 - lam) <= 1e-12 * lam
        assert pair.phi1.min() > 0.0
        assert np.abs(pair.phi1 - v / v[np.argmax(np.abs(v))]).max() <= 1e-8
        assert pair.residual <= 1e-8 * pair.lambda1
        assert pair.iterations == 0
        assert call_counts == {"splu": 0, "bicgstab": 0}

    # two intervals of different widths: the eigenfunction of the wider
    # one's lambda1 vanishes on the other; of equal widths: lambda1 is
    # double, and every positive mix of the two eigenfunctions is one
    @pytest.mark.parametrize("b,c", [(1.5, 3.3), (2.0, 3.0)],
                             ids=["unequal", "equal"])
    def test_reducible_operator_has_no_positive_eigenfunction(self, b, c):
        g = build_grid(lambda p: ((p[:, 0] > 0.0) & (p[:, 0] < 1.0))
                       | ((p[:, 0] > b) & (p[:, 0] < c)),
                       [[0.0, 4.0]], 1.0 / 16)
        with pytest.raises(NumericalError, match="2 connected components"):
            principal_eigenpair(assemble_laplacian(g))


def test_sparse_matches_dense_on_small_instance():
    policy = [["dirichlet", "dirichlet"], ["dirichlet", "dirichlet"]]
    g = build_grid(unit_disk, [[-1.0, 1.0], [-1.0, 1.0]], 0.25,
                   face_policy=policy)
    op = assemble_laplacian(g)
    assert op.n <= 200
    f = make_nonlinearity("constant", value=1.0)
    sol = solve_semilinear(g, f)
    dense = np.linalg.solve(op.matrix.toarray(),
                            boundary_rhs(op, 0.0) + np.ones(op.n))
    assert np.max(np.abs(sol.values - dense)) <= 1e-10


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of SciPy's splu and of the solver's BiCGSTAB, both looked
    up at call time."""
    counts = {"splu": 0, "bicgstab": 0}
    for owner, name, key in ((spla, "splu", "splu"),
                             (solver, "_bicgstab", "bicgstab")):
        def counted(*args, _key=key, _fn=getattr(owner, name), **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture
def jacobian_lus(monkeypatch):
    """Every Jacobian LU (``fp`` not identically zero) that ``solver._lu``
    returns, in order: the factors a solve makes and drops on return."""
    lus, lu = [], solver._lu

    def recorded(op, fp=None, single=False):
        factors = lu(op, fp, single)
        if fp is not None and fp.any():
            lus.append(factors)
        return factors
    monkeypatch.setattr(solver, "_lu", recorded)
    return lus


@pytest.fixture
def restart_lus(monkeypatch):
    """The Jacobian LU ``uniqueness_test`` passes each restart (``_jac_lu``),
    in order."""
    passed, solve = [], comparison.solve_semilinear

    def recorded(*args, _jac_lu=None, **kwargs):
        passed.append(_jac_lu)
        return solve(*args, _jac_lu=_jac_lu, **kwargs)
    monkeypatch.setattr(comparison, "solve_semilinear", recorded)
    return passed


@pytest.fixture
def krylov_log(monkeypatch):
    """Record each BiCGSTAB call: its ``rtol``, the max norm of its
    right-hand side (the Newton residual at the iterate) and its
    preconditioner applications (one per half step, so a call that returns
    at the first half step counts 1)."""
    log, bicgstab = [], solver._bicgstab

    def logged(matrix, rhs, psolve, rtol, maxiter, x0=None):
        entry = {"rtol": rtol, "rhs": float(np.abs(rhs).max()),
                 "applications": 0}
        log.append(entry)

        def counted(x):
            entry["applications"] += 1
            return psolve(x)
        return bicgstab(matrix, rhs, counted, rtol, maxiter, x0)
    monkeypatch.setattr(solver, "_bicgstab", logged)
    return log


def arc_bump_operator():
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 3.0]], 1.0 / 8)
    return g, assemble_laplacian(g)


def restart_grid():
    """The strip (0, 1) on [0, 2] x [0, 1], h = 1/8: uniqueness restarts."""
    return build_grid(strip_set(0.0, 1.0), [[0.0, 2.0], [0.0, 1.0]], 0.125)


def allen_cahn_front(op=None, jac_lu=None):
    """The Allen-Cahn front on ``op`` (by default a fresh arc_bump operator),
    whose Newton solve starts from the Jacobian LU ``jac_lu`` if given."""
    op = arc_bump_operator()[1] if op is None else op
    return solve_semilinear(op.grid, make_nonlinearity("allen_cahn"),
                            trace=tanh_trace, op=op, _jac_lu=jac_lu,
                            policy=SolvePolicy(init="front_lift"))


class TestSharedFactors:
    torsion = make_nonlinearity("constant", value=1.0)

    def test_torsion_then_eigenpair_factorize_once(self, call_counts):
        g, op = arc_bump_operator()
        sol = solve_semilinear(g, self.torsion, op=op)
        assert sol.meta["lift"] == "lu"
        assert sol.iterations == 0        # the LU lift solves A u = b + 1
        principal_eigenpair(op)
        assert call_counts == {"splu": 1, "bicgstab": 0}

    def test_picard_factorizes_once(self, call_counts):
        g, op = arc_bump_operator()
        sol = solve_semilinear(g, make_nonlinearity("power", exponent=0.5),
                               trace=0.5, op=op)
        assert sol.method == "picard"
        assert sol.iterations > 1
        assert call_counts == {"splu": 1, "bicgstab": 0}

    def test_newton_with_zero_derivative_reuses_factors(self, call_counts):
        g, op = arc_bump_operator()
        sol = solve_semilinear(g, self.torsion, op=op,
                               policy=SolvePolicy(init="zero"))
        assert sol.iterations >= 1
        principal_eigenpair(op)
        assert call_counts["splu"] == 1

    def test_newton_factorizes_first_jacobian_then_runs_bicgstab(
            self, call_counts, monkeypatch, zero_krylov):
        sol = allen_cahn_front()
        assert sol.iterations > 1
        assert call_counts == {"splu": 1, "bicgstab": sol.iterations - 1}
        # reference: every BiCGSTAB call reports non-convergence, so each
        # step factorizes its own Jacobian and is solved directly by it
        monkeypatch.setattr(solver, "_bicgstab", zero_krylov(info=1))
        ref = allen_cahn_front()
        assert ref.iterations == sol.iterations
        assert np.abs(sol.values - ref.values).max() <= 1e-12

    def test_krylov_step_failing_line_search_refactors(
            self, call_counts, monkeypatch, zero_krylov):
        # a zero Krylov step never lowers the residual: each step after the
        # first refactors and retries with the exact step, which succeeds
        monkeypatch.setattr(solver, "_bicgstab", zero_krylov(info=0))
        sol = allen_cahn_front()
        assert call_counts["splu"] == sol.iterations > 1
        monkeypatch.setattr(solver, "_bicgstab", zero_krylov(info=1))
        assert np.array_equal(sol.values, allen_cahn_front().values)

    def test_krylov_step_refactors_before_raising(self, monkeypatch,
                                                  zero_krylov):
        # the second factorization yields a zero step too: the solve raises
        # only after the Krylov step and the refactored step both fail
        calls = []
        splu, krylov = spla.splu, zero_krylov(info=0)

        class ZeroStep:
            def solve(self, rhs):
                return np.zeros_like(rhs)

        def logged_splu(*args, **kwargs):
            calls.append("splu")
            return splu(*args, **kwargs) if calls == ["splu"] else ZeroStep()

        def logged_bicgstab(*args, **kwargs):
            calls.append("bicgstab")
            return krylov(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", logged_splu)
        monkeypatch.setattr(solver, "_bicgstab", logged_bicgstab)
        with pytest.raises(ConvergenceError, match="damping floor") as exc:
            allen_cahn_front()
        assert calls == ["splu", "bicgstab", "splu"]
        assert exc.value.iterations == 1

    # a Jacobian LU passed in, here the float32 one a Newton solve of linear
    # f would factorize, preconditions the solve from its first step: that
    # of A + 5 I (slope -5) preconditions the front's Jacobians well enough;
    # that of A - 20 I (slope 20) does not, so BiCGSTAB fails at a step,
    # which refactorizes and replaces the LU for the rest of the solve
    @pytest.mark.parametrize("slope,splu", [(-5.0, 0), (20.0, 1)])
    def test_newton_solve_inherits_another_nonlinearitys_lu(
            self, call_counts, slope, splu):
        op = arc_bump_operator()[1]
        passed = solver._lu(op, np.full(op.n, slope), single=True)
        call_counts["splu"] = 0
        sol = allen_cahn_front(op, jac_lu=passed)
        assert call_counts["splu"] == splu
        assert call_counts["bicgstab"] >= 1
        assert sol.meta["residual_internal"] <= SolvePolicy().tol
        assert np.abs(sol.values - allen_cahn_front().values).max() <= 1e-12

    def test_failing_krylov_replaces_the_inherited_lu(self, call_counts,
                                                      monkeypatch, zero_krylov):
        op = arc_bump_operator()[1]
        passed = solver._lu(op, np.ones(op.n))
        monkeypatch.setattr(solver, "_bicgstab", zero_krylov(info=1))
        call_counts["splu"] = 0
        sol = allen_cahn_front(op, jac_lu=passed)
        assert call_counts["splu"] == sol.iterations
        assert sol.meta["residual_internal"] <= SolvePolicy().tol

    # every Newton step of every restart runs BiCGSTAB, which the LU of
    # J(0) = A - f'(0) I preconditions so well that each call stops at its
    # first half step (one application); linear's Jacobian is J(0) itself
    @pytest.mark.parametrize("f", [make_nonlinearity("allen_cahn"),
                                   make_nonlinearity("linear", slope=1.0)],
                             ids=["allen_cahn", "linear"])
    def test_uniqueness_restarts_share_one_jacobian_lu(
            self, call_counts, krylov_log, f):
        # one LU of J(0) for the eigenpair and all restarts; A's is never
        # factorized
        rep = uniqueness_test(restart_grid(), f, n_restarts=4,
                              amplitude=0.5)
        restarts = rep.meta["restarts"]
        assert [r["outcome"] for r in restarts] == ["converged"] * 4
        assert call_counts["splu"] == 1
        newton = sum(r["iterations"] for r in restarts)
        assert len(krylov_log) == newton >= 4
        assert sum(c["applications"] for c in krylov_log) == newton

    def test_uniqueness_with_zero_slope_at_zero_shares_the_lu_of_a(
            self, call_counts):
        # power 2: f'(0) = 0, so J(0) = A and the eigenpair's LU preconditions
        # every restart
        rep = uniqueness_test(restart_grid(),
                              make_nonlinearity("power", exponent=2.0),
                              n_restarts=4, amplitude=0.5)
        restarts = rep.meta["restarts"]
        assert [r["outcome"] for r in restarts] == ["converged"] * 4
        assert rep.comparison_holds
        assert call_counts["splu"] == 1
        assert call_counts["bicgstab"] == sum(r["iterations"] for r in restarts)

    def test_picard_uniqueness_keeps_no_jacobian(self, call_counts,
                                                 restart_lus):
        # power 0.5: f' blows up at 0, so the restarts run Picard on A's LU
        # and the probe passes them no Jacobian LU
        rep = uniqueness_test(restart_grid(),
                              make_nonlinearity("power", exponent=0.5),
                              n_restarts=4, amplitude=0.5)
        assert len(rep.meta["restarts"]) == 4
        assert call_counts == {"splu": 1, "bicgstab": 0}
        assert restart_lus == [None] * 4

    def test_singular_jacobian_at_zero_keeps_nothing(self, monkeypatch,
                                                    restart_lus):
        # the first factorization, J(0)'s, fails: the eigenpair factorizes A,
        # and each restart factorizes the Jacobian at its start
        splu, calls = spla.splu, []

        def singular_first(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", singular_first)
        rep = uniqueness_test(restart_grid(),
                              make_nonlinearity("allen_cahn"), n_restarts=4,
                              amplitude=0.5)
        assert [r["outcome"] for r in rep.meta["restarts"]] == ["converged"] * 4
        assert rep.comparison_holds
        assert restart_lus == [None] * 4
        assert len(calls) == 6

    @pytest.mark.parametrize("error", [ConvergenceError, NumericalError])
    def test_lambda1_falls_back_when_the_read_through_j0_fails(
            self, monkeypatch, error):
        # an Arnoldi failure about f'(0) = 1 is not final: the eigensolve
        # about 0 through A's LU answers, bit for bit, and J(0)'s LU is still
        # returned for the restarts
        original, shifts = solver._shift_invert_eigenpair, []

        def failing(op, lu, sigma):
            shifts.append(sigma)
            if sigma != 0.0:
                raise error("stub")
            return original(op, lu, sigma)

        monkeypatch.setattr(solver, "_shift_invert_eigenpair", failing)
        op = assemble_laplacian(restart_grid())
        lam, jac = solver._lambda1(op, make_nonlinearity("allen_cahn"))
        assert shifts == [1.0, 0.0]
        assert jac is not solver._kept(op).lu
        assert jac.L.dtype == np.float64
        ref = principal_eigenpair(assemble_laplacian(restart_grid()))
        assert lam == ref.lambda1

    def test_half_step_return_counts_one_iteration(self):
        # preconditioned by A's own LU, BiCGSTAB stops at its first half step
        op = arc_bump_operator()[1]
        lu = spla.splu(op.matrix.tocsc())
        _, info, iterations = _bicgstab(op.matrix, np.ones(op.n), lu.solve,
                                        1e-10, 10)
        assert (info, iterations) == (0, 1)

    def test_three_dimensional_lift_runs_bicgstab(self, call_counts):
        dom = make_epigraph("half_space", dimension=3)
        g = build_grid(dom, [[0.0, 1.0], [0.0, 1.0], [0.5, 1.5]], 1.0 / 8)
        sol = solve_semilinear(g, self.torsion)
        assert sol.meta["lift"] == "bicgstab"
        assert sol.iterations == 0
        assert call_counts == {"splu": 0, "bicgstab": 1}


class TestHistoryIndependence:
    """A solve gives the same field bit for bit whatever ran on its operator
    before: the solver keeps only A's LU and diagonal positions per operator,
    and a Newton solve's Jacobian LU lives for that solve alone."""

    # Newton with f' varying (the front, power 2, whose f'(0) = 0) and
    # constant (linear: a Jacobian LU of A - c I that a later solve would
    # find good enough at slope -5 and not at slope 20)
    solves = {
        "front": (make_nonlinearity("allen_cahn"), tanh_trace, "front_lift"),
        "linear-5": (make_nonlinearity("linear", slope=-5.0), 0.5,
                     "torsion_lift"),
        "linear1": (make_nonlinearity("linear", slope=1.0), 0.5,
                    "torsion_lift"),
        "linear20": (make_nonlinearity("linear", slope=20.0), 0.5,
                     "torsion_lift"),
        "power": (make_nonlinearity("power", exponent=2.0), 0.5, "zero"),
    }

    def solve(self, op, name):
        f, trace, init = self.solves[name]
        return solve_semilinear(op.grid, f, trace=trace, op=op,
                                policy=SolvePolicy(init=init))

    def assert_same_as_fresh(self, op, name, assemble):
        sol, ref = self.solve(op, name), self.solve(assemble(), name)
        assert sol.iterations == ref.iterations
        assert np.array_equal(sol.values, ref.values)

    @SETTINGS
    @given(history=st.lists(st.sampled_from(sorted(solves)), min_size=1,
                            max_size=3))
    def test_last_solve_matches_a_fresh_operator(self, history):
        op = arc_bump_operator()[1]
        for name in history[:-1]:
            self.solve(op, name)
        self.assert_same_as_fresh(op, history[-1],
                                  lambda: arc_bump_operator()[1])

    # the arc_bump box [-4,4] x [0,6] at h = 1/16 (n = 8,857); a front after
    # an earlier solve once differed from a fresh one by 2.3e-13
    @pytest.mark.parametrize("history", [["linear-5"], ["linear-5", "front"],
                                         ["failed"]],
                             ids=["linear", "linear_front", "failed"])
    def test_front_matches_a_fresh_operator(self, history):
        def assemble():
            return assemble_laplacian(build_grid(
                make_epigraph("arc_bump"), [[-4.0, 4.0], [0.0, 6.0]], 1.0 / 16))

        op = assemble()
        for name in history:
            if name != "failed":
                self.solve(op, name)
                continue
            # a capped solve from far away: its last Jacobian LU is far from
            # the front's
            init = np.random.default_rng(0).uniform(-5.0, 5.0, op.n)
            with pytest.raises(ConvergenceError, match="iteration cap"):
                solve_semilinear(op.grid, make_nonlinearity("allen_cahn"),
                                 trace=tanh_trace, op=op,
                                 policy=SolvePolicy(init=init, max_iter=2))
        self.assert_same_as_fresh(op, "front", assemble)


def test_components_are_labelled_once_per_operator(monkeypatch):
    # assembly labels the components and keeps their count; eigensolves,
    # the uniqueness probe and the threshold scan only read it
    calls = []
    label = discretization.connected_components

    def counted(matrix, **kwargs):
        calls.append(matrix.shape[0])
        return label(matrix, **kwargs)

    monkeypatch.setattr(discretization, "connected_components", counted)
    op = assemble_laplacian(restart_grid())
    principal_eigenpair(op)
    principal_eigenpair(op)
    assert calls == [op.n] and op.components == 1
    # one operator per probe, whether lambda_1 > L holds (width 1) or not
    for width, holds in ((1.0, True), (4.0, False)):
        calls.clear()
        g = build_grid(strip_set(0.0, width), [[0.0, 2.0], [0.0, width]], 0.25)
        rep = uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=2,
                              amplitude=0.5)
        assert ("status" not in rep.meta) == holds
        assert calls == [g.n_interior]
    calls.clear()
    threshold_scan(1.0, [2.0, 3.0, 4.0], cells=16)
    assert calls == [15] * 3


class TestKrylovBreakdown:
    """A BiCGSTAB breakdown with a finite iterate restarts once from it."""

    @staticmethod
    def breakdown_operator():
        # a grounded 6-node operator on which BiCGSTAB breaks down (info -10:
        # (r~, r) vanishes) after 2 iterations at a relative residual of
        # 1.0e-2, far above the 1e-13 target
        c = np.array([0.67139, 0.70987, 1.61103])
        g = build_grid(lambda p: ((p - c) ** 2).sum(axis=1) < 1.29219 ** 2,
                       [[0.5, 1.0], [0.5, 0.75], [1.0, 1.75]], 0.25,
                       face_policy=[("neumann", "dirichlet")] * 3)
        return assemble_laplacian(g)

    def test_restart_from_the_breakdown_iterate(self, call_counts):
        op = self.breakdown_operator()
        assert op.n == 6
        sol = solve_linear(op, np.ones(op.n))
        assert sol.meta["path"] == "bicgstab"
        assert call_counts["bicgstab"] == 2
        dense = la.solve(op.matrix.toarray(), np.ones(op.n))
        # equal to rounding: the restart lands within 1.4e-16 relative
        assert np.abs(sol.values - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("iterate", [0.5, math.nan], ids=["finite", "nan"])
    def test_failed_restart_or_non_finite_iterate_raises(self, monkeypatch,
                                                         iterate):
        calls = []

        def broken(matrix, rhs, psolve, rtol, maxiter, x0=None):
            calls.append(x0)
            return np.full_like(rhs, iterate), -10, 0
        monkeypatch.setattr(solver, "_bicgstab", broken)
        with pytest.raises(ConvergenceError, match="bicgstab"):
            solve_linear(self.breakdown_operator(), np.ones(6))
        # a finite iterate is the restart's start; a NaN one is not restarted
        assert calls[0] is None
        if math.isnan(iterate):
            assert len(calls) == 1
        else:
            assert len(calls) == 2 and (calls[1] == iterate).all()


class TestKrylovMissedTarget:
    """BiCGSTAB can return info 0 with a true residual far above its target
    (its recursively updated residual drifts from the true one);
    solve_linear restarts once from that iterate."""

    @staticmethod
    def drifting_operator():
        # info 0 after 20 iterations with max|A u - 1| = 0.367, 3.4 % off
        c = np.array([0.11885, -1.62981, 6.92481])
        g = build_grid(lambda p: ((p - c) ** 2).sum(axis=1) < 7.38693 ** 2,
                       [[0.0, 1.0], [-2.0, -1.0], [4.0, 9.0]], 1.0,
                       face_policy=[("neumann", "neumann"),
                                    ("neumann", "neumann"),
                                    ("dirichlet", "neumann")])
        return assemble_laplacian(g)

    def test_restart_reaches_the_dense_solve(self, call_counts):
        op = self.drifting_operator()
        assert op.n == 20
        sol = solve_linear(op, np.ones(op.n))
        assert call_counts["bicgstab"] == 2
        dense = la.solve(op.matrix.toarray(), np.ones(op.n))
        assert np.abs(sol.values - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_missed_restart_raises(self, monkeypatch):
        calls = []

        def drifting(matrix, rhs, psolve, rtol, maxiter, x0=None):
            calls.append(x0)
            return np.zeros_like(rhs), 0, 0
        monkeypatch.setattr(solver, "_bicgstab", drifting)
        with pytest.raises(ConvergenceError, match="bicgstab"):
            solve_linear(self.drifting_operator(), np.ones(20))
        assert len(calls) == 2 and (calls[1] == 0.0).all()


def _krylov_system(name):
    """(matrix, rhs, psolve, rtol, maxiter) of one BiCGSTAB call the solver
    makes: a Newton step on a float32 LU, the 3-D torsion lift, and the
    lift on grids where SciPy's BiCGSTAB breaks down or drifts."""
    if name == "newton":
        op = arc_bump_operator()[1]
        jac = solver._jacobian(op, np.ones(op.n))
        rhs = np.random.default_rng(0).normal(size=op.n)
        return jac, rhs, solver.factorize(op.matrix, True).solve, 1e-10, 10
    if name == "lift_3d":
        g = build_grid(make_epigraph("half_space", dimension=3),
                       [[0.0, 1.0], [0.0, 1.0], [0.5, 1.5]], 1.0 / 8)
        op = assemble_laplacian(g)
    elif name == "breakdown":
        # SciPy breaks down (info -10) here at a relative residual of 2.4e-12
        c = np.array([-0.01303, 0.67410, 1.11120])
        g = build_grid(lambda p: ((p - c) ** 2).sum(axis=1) < 2.20072 ** 2,
                       [[-0.25, 1.0], [0.5, 1.0], [1.0, 1.5]], 0.25,
                       face_policy=[("dirichlet", "dirichlet"),
                                    ("dirichlet", "dirichlet"),
                                    ("neumann", "dirichlet")])
        op = assemble_laplacian(g)
    else:
        op = TestKrylovMissedTarget.drifting_operator()
    return (op.matrix, np.ones(op.n), solver._jacobi(op.matrix).dot,
            solver._KRYLOV_TOL, 40 * op.n + 100)


@pytest.mark.parametrize("name", ["newton", "lift_3d", "breakdown", "drifting"])
def test_bicgstab_is_scipys_algorithm(monkeypatch, name):
    # with numpy's BLAS dot in place of the einsum reduction, the loop
    # reproduces SciPy's bicgstab bit for bit, from zero and from its own
    # iterate: the solution, the info code, and one iteration per two
    # preconditioner applications, a half step counting one
    matrix, rhs, psolve, rtol, maxiter = _krylov_system(name)
    monkeypatch.setattr(solver, "_dot", np.dot)
    x0, infos = None, []
    for _ in range(2):
        applications = 0

        def counted(x):
            nonlocal applications
            applications += 1
            return psolve(x)

        pre = spla.LinearOperator(matrix.shape, matvec=counted, dtype=float)
        want, info = spla.bicgstab(matrix, rhs, x0=x0, rtol=rtol, atol=0.0,
                                   maxiter=maxiter, M=pre)
        got = _bicgstab(matrix, rhs, psolve, rtol, maxiter, x0)
        assert got[0].tobytes() == want.tobytes()
        assert got[1:] == (info, -(-applications // 2))
        x0 = want
        infos.append(info)
    if name == "breakdown":
        assert infos == [-10, 0]


class TestForcing:
    """Each Newton step's BiCGSTAB runs to the relative residual
    max(1e-10, min(0.1, res_k / res_0)) (Dembo, Eisenstat & Steihaug,
    SINUM 19, 1982)."""

    def test_rtol_follows_the_newton_residual(self, krylov_log, jacobian_lus):
        # a second front passed the first one's last LU preconditions every
        # step by BiCGSTAB, so the first call's right-hand side is -F(u_0)
        op = arc_bump_operator()[1]
        allen_cahn_front(op)
        krylov_log.clear()
        sol = allen_cahn_front(op, jac_lu=jacobian_lus[-1])
        assert len(krylov_log) == sol.iterations > 2
        res0 = krylov_log[0]["rhs"]
        for call in krylov_log:
            assert call["rtol"] == max(1e-10, min(0.1, call["rhs"] / res0))
        assert krylov_log[0]["rtol"] == 0.1
        assert krylov_log[-1]["rtol"] == 1e-10

    def test_front_iterations_match_exact_newton(self, monkeypatch,
                                                 zero_krylov):
        # loose early steps cost no Newton step, from no LU or from a passed
        # one that preconditions every step
        op = arc_bump_operator()[1]
        lu = solver._lu(op, np.ones(op.n), single=True)
        inexact = [allen_cahn_front(op, jac_lu=jac).iterations
                   for jac in (None, lu)]
        monkeypatch.setattr(solver, "_bicgstab", zero_krylov(info=1))
        assert inexact == [allen_cahn_front().iterations] * 2


class TestFactorPrecision:
    """Newton's refactorized Jacobian LU is float32; A's LU, the J(0) LU that
    ``uniqueness_test`` passes to its restarts and the factorizations outside
    Newton are float64."""

    def test_newton_keeps_float32_jacobian_and_float64_a(self, jacobian_lus):
        op = arc_bump_operator()[1]
        allen_cahn_front(op)
        assert [lu._lu.L.dtype for lu in jacobian_lus] == [np.float32]
        principal_eigenpair(op)
        assert solver._kept(op).lu.L.dtype == np.float64

    def test_uniqueness_keeps_float64_jacobian_at_zero(self, call_counts,
                                                       restart_lus):
        uniqueness_test(restart_grid(), make_nonlinearity("allen_cahn"),
                        n_restarts=4, amplitude=0.5)
        # J(0)'s LU only, which the eigenpair read and every restart started
        # from; no restart refactorized
        assert call_counts["splu"] == 1
        assert len(restart_lus) == 4 and len(set(map(id, restart_lus))) == 1
        assert restart_lus[0].L.dtype == np.float64

    @pytest.mark.parametrize("c", [2.0 ** -140, 2.0 ** 140],
                             ids=["2^-140", "2^140"])
    def test_single_factors_scale_the_rhs_before_the_cast(self, c):
        # a plain float32 cast flushes c r to zero or overflows it to inf
        op = arc_bump_operator()[1]
        lu = solver._lu(op, np.ones(op.n), single=True)
        r = np.random.default_rng(1).uniform(-1e-3, 1e-3, op.n)
        x = lu.solve(r)
        assert x.dtype == np.float64 and np.isfinite(x).all() and x.any()
        assert np.array_equal(lu.solve(c * r), c * x)

    def test_front_matches_double_factors(self, monkeypatch):
        sol = allen_cahn_front()
        lu, made = solver._lu, []

        def double(op, fp=None, single=False):
            made.append(lu(op, fp))
            return made[-1]

        monkeypatch.setattr(solver, "_lu", double)
        ref = allen_cahn_front()
        assert [factors.L.dtype for factors in made] == [np.float64]
        assert sol.iterations == ref.iterations
        assert np.abs(sol.values - ref.values).max() <= 1e-12


def test_operators_hold_no_solver_state():
    # the solver keeps its factors in its own record per operator, which
    # leaves with the operator: at large_solve's size a leaked LU is 19.4M
    # factor entries
    fields = [f.name for f in dataclasses.fields(discretization.SparseOperator)]
    assert fields == ["matrix", "bc_rows", "bc_coeffs", "bc_points", "grid",
                      "components"]
    g, op = arc_bump_operator()
    keys = set(vars(op))
    solve_semilinear(g, TestSharedFactors.torsion, op=op)   # the torsion lift
    allen_cahn_front(op)
    principal_eigenpair(op)
    solver._lambda1(op, make_nonlinearity("allen_cahn"))
    assert set(vars(op)) == keys
    kept = solver._kept(op)
    assert kept.lu is not None and kept.diag_pos is not None
    # the solver's dictionary held the record; it leaves with the operator
    op_ref, kept_ref = weakref.ref(op), weakref.ref(kept)
    del op, kept
    gc.collect()
    assert op_ref() is None and kept_ref() is None


def test_three_dimensional_factors_pad_no_supernode():
    # one-column panels and no relaxed supernodes: SuperLU's defaults give
    # 1,443,352 factor entries on this operator
    g = build_grid(make_epigraph("weierstrass", dimension=3),
                   [[-1.5, 1.5], [-1.5, 1.5], [0.0, 4.0]], 1.0 / 8)
    op = assemble_laplacian(g)
    assert op.n == 9425
    assert solver.factorize(op.matrix).nnz <= 1.0e6


def test_cusp_front_converges_at_fine_h():
    # the absolute max-norm residual stalls at 4.4e-10 next to the cusp, whose
    # diagonal grows like 32/h^4: only the componentwise backward-error test
    # can stop there
    g = build_grid(make_epigraph("arc_bump"), [[-1.0, 1.0], [0.0, 4.0]], 1.0 / 64)
    assert g.n_interior == 22799
    sol = solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=tanh_trace,
                           policy=SolvePolicy(init="front_lift", tol=1e-10))
    assert sol.residual_norm <= 1e-9


class TestJacobianMatrix:
    """Newton's J = A - diag(f'(u)) is A's values with f' subtracted at A's
    diagonal positions, which each operator keeps (``solver._jacobian``),
    instead of a sparse diagonal and a sparse subtraction."""

    @SETTINGS
    @given(grids(), st.integers(0, 2 ** 32 - 1))
    def test_jacobian_matches_the_sparse_subtraction(self, grid, seed):
        # J x and J's LU solves, double and float32, bit for bit, for two
        # Jacobians on one operator; A's own arrays never change
        try:
            op = assemble_laplacian(grid)
        except ValidationError:  # ungrounded
            assume(False)
        a = op.matrix
        frozen = a.data.copy(), a.indices.copy(), a.indptr.copy()
        rng = np.random.default_rng(seed)
        x = rng.normal(size=op.n)
        for _ in range(2):
            fp = rng.uniform(-0.5, 0.5, op.n) * a.diagonal()
            ref = a - sp.diags(fp)
            jac = solver._jacobian(op, fp)
            assert (jac @ x).tobytes() == (ref @ x).tobytes()
            for single in (False, True):
                try:
                    want = solver.factorize(ref, single).solve(x)
                except JacobianSingularError:
                    with pytest.raises(JacobianSingularError):
                        solver.factorize(jac, single)
                    continue
                got = solver.factorize(jac, single).solve(x)
                assert got.tobytes() == want.tobytes()
        assert np.shares_memory(jac.indices, a.indices)
        assert np.shares_memory(jac.indptr, a.indptr)
        for kept, now in zip(frozen, (a.data, a.indices, a.indptr)):
            assert kept.tobytes() == now.tobytes()

    def test_a_diagonal_that_cancels_stays_stored(self):
        # linear f with slope 2 on a 1-D h = 1 grid: A_ii = 2, so every J_ii
        # is exactly 0, which _jacobian keeps stored and the sparse
        # subtraction drops; the Newton solve still converges to the dense
        # solution of (A - 2 I) u = b
        g = build_grid(lambda p: np.ones(len(p), dtype=bool), [[0.0, 5.0]], 1.0)
        op = assemble_laplacian(g)
        fp = np.full(op.n, 2.0)
        assert (op.matrix - sp.diags(fp)).nnz == op.matrix.nnz - op.n
        jac = solver._jacobian(op, fp)
        assert jac.nnz == op.matrix.nnz and not jac.diagonal().any()
        sol = solve_semilinear(g, make_nonlinearity("linear", slope=2.0),
                               trace=1.0, op=op)
        assert sol.meta["residual_internal"] <= SolvePolicy().tol
        dense = la.solve(op.matrix.toarray() - 2.0 * np.eye(op.n),
                         boundary_rhs(op, 1.0))
        assert np.abs(sol.values - dense).max() <= 1e-12

    def test_uniqueness_restarts_build_no_jacobian_matrix(self, monkeypatch):
        # no DIA matrix and no sparse subtraction, in the probe's J(0) or in
        # any Newton step of its restarts
        calls = {"diags": 0, "subtract": 0}
        diags, subtract = sp.diags, sp.csr_matrix.__sub__

        def counted_diags(*args, **kwargs):
            calls["diags"] += 1
            return diags(*args, **kwargs)

        def counted_subtract(self, other):
            calls["subtract"] += 1
            return subtract(self, other)

        monkeypatch.setattr(sp, "diags", counted_diags)
        monkeypatch.setattr(sp.csr_matrix, "__sub__", counted_subtract)
        rep = uniqueness_test(restart_grid(), make_nonlinearity("allen_cahn"),
                              n_restarts=4, amplitude=0.5)
        restarts = rep.meta["restarts"]
        assert [r["outcome"] for r in restarts] == ["converged"] * 4
        assert sum(r["iterations"] for r in restarts) >= 4
        assert calls == {"diags": 0, "subtract": 0}


def test_lambda1_does_not_depend_on_the_blas_thread_count():
    # lambda1 is a Rayleigh quotient over n = 18,335 nodes; BLAS splits dot
    # products of vectors above about 10,000 entries over its threads
    code = ("from epigraph_lab import assemble_laplacian, build_grid,"
            " principal_eigenpair, strip_set;"
            " g = build_grid(strip_set(0.0, 2.0),"
            " [[0.0, 4.0], [0.0, 2.0]], 1.0 / 48);"
            " print(principal_eigenpair(assemble_laplacian(g)).lambda1.hex())")
    src = os.path.dirname(os.path.dirname(solver.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
