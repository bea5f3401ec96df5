"""Linear, Newton/Picard and eigenvalue solves against closed-form targets."""

import math

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from epigraph_lab import (
    ConvergenceError,
    LabError,
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
    uniqueness_test,
)

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


def test_newton_request_on_nonsmooth_falls_back():
    g = interval_grid(0.0, 0.5, 1.0 / 32)
    f = make_nonlinearity("sqrt_saturation")
    sol = solve_semilinear(g, f, policy=SolvePolicy(method="newton"))
    assert sol.method == "picard"
    assert sol.meta["fallback"] == "picard"


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
    with pytest.raises(ValidationError):
        SolvePolicy(method="gradient_flow").validate()
    with pytest.raises(ValidationError):
        SolvePolicy(tol=-1.0).validate()
    with pytest.raises(ValidationError):
        SolvePolicy(max_iter=0).validate()


@pytest.mark.parametrize("tol", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_tol_is_rejected(tol):
    # inf used to return the unconverged torsion lift as a solution, with
    # residual 0.375, and nan to raise ConvergenceError
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 4.0]], 1 / 8)
    with pytest.raises(ValidationError, match="positive and finite"):
        solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=0.5,
                         policy=SolvePolicy(tol=tol))


@pytest.mark.parametrize("method", ["newton", "picard"])
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

    def test_reruns_are_bit_identical(self):
        g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 3.0]],
                       1.0 / 8)
        first = principal_eigenpair(assemble_laplacian(g))
        second = principal_eigenpair(assemble_laplacian(g))
        assert first.lambda1 == second.lambda1
        assert first.phi1.tobytes() == second.phi1.tobytes()

    def test_arpack_failures_are_lab_errors(self, monkeypatch):
        op = assemble_laplacian(interval_grid(0.0, 1.0, 1.0 / 8))

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))
        monkeypatch.setattr(spla, "eigs", no_convergence)
        with pytest.raises(ConvergenceError):
            principal_eigenpair(op)


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
    """Count calls of SciPy's splu and bicgstab, which the solver looks up
    at call time."""
    counts = {"splu": 0, "bicgstab": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(spla, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spla, name, counted)
    return counts


@pytest.fixture
def krylov_log(monkeypatch):
    """Record each call of SciPy's bicgstab: its ``rtol``, the max norm of its
    right-hand side (the Newton residual at the iterate) and its iteration
    count (callback calls)."""
    log, bicgstab = [], spla.bicgstab

    def logged(matrix, rhs, callback, **kwargs):
        entry = {"rtol": kwargs["rtol"], "rhs": float(np.abs(rhs).max()),
                 "iterations": 0}
        log.append(entry)

        def counted(x):
            entry["iterations"] += 1
            callback(x)
        return bicgstab(matrix, rhs, callback=counted, **kwargs)
    monkeypatch.setattr(spla, "bicgstab", logged)
    return log


def arc_bump_operator():
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 3.0]], 1.0 / 8)
    return g, assemble_laplacian(g)


def allen_cahn_front(op=None):
    """The Allen-Cahn front on ``op`` (by default a fresh arc_bump operator)."""
    op = arc_bump_operator()[1] if op is None else op
    return solve_semilinear(op.grid, make_nonlinearity("allen_cahn"),
                            trace=tanh_trace, op=op,
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
        # step factorizes its own Jacobian and is an exact Newton step
        monkeypatch.setattr(spla, "bicgstab", zero_krylov(info=1))
        ref = allen_cahn_front()
        assert ref.iterations == sol.iterations
        assert np.abs(sol.values - ref.values).max() <= 1e-12

    def test_krylov_step_failing_line_search_refactors(
            self, call_counts, monkeypatch, zero_krylov):
        # a zero Krylov step never lowers the residual: each step after the
        # first refactors and retries with the exact step, which succeeds
        monkeypatch.setattr(spla, "bicgstab", zero_krylov(info=0))
        sol = allen_cahn_front()
        assert call_counts["splu"] == sol.iterations > 1
        monkeypatch.setattr(spla, "bicgstab", zero_krylov(info=1))
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
        monkeypatch.setattr(spla, "bicgstab", logged_bicgstab)
        with pytest.raises(ConvergenceError, match="damping floor") as exc:
            allen_cahn_front()
        assert calls == ["splu", "bicgstab", "splu"]
        assert exc.value.iterations == 1

    def test_second_newton_solve_on_op_factorizes_nothing(self, call_counts):
        # the Jacobian LU stays on op and preconditions the next solve
        op = arc_bump_operator()[1]
        allen_cahn_front(op)
        assert call_counts["splu"] == 1
        sol = allen_cahn_front(op)
        assert call_counts["splu"] == 1
        assert sol.meta["residual_internal"] <= SolvePolicy().tol
        ref = allen_cahn_front()
        assert np.abs(sol.values - ref.values).max() <= 1e-12

    # the LU of A + 5 I (slope -5) preconditions the front's Jacobians well
    # enough; that of A - 20 I (slope 20) does not, so BiCGSTAB fails at a
    # step, which refactorizes and replaces the LU
    @pytest.mark.parametrize("slope,splu", [(-5.0, 0), (20.0, 1)])
    def test_newton_solve_inherits_another_nonlinearitys_lu(
            self, call_counts, slope, splu):
        op = arc_bump_operator()[1]
        solve_semilinear(op.grid, make_nonlinearity("linear", slope=slope),
                         trace=0.5, op=op)
        inherited = op._jac_lu
        assert inherited is not None
        call_counts["splu"] = 0
        sol = allen_cahn_front(op)
        assert call_counts["splu"] == splu
        assert (op._jac_lu is inherited) == (splu == 0)
        assert sol.meta["residual_internal"] <= SolvePolicy().tol
        assert np.abs(sol.values - allen_cahn_front().values).max() <= 1e-12

    def test_failing_krylov_replaces_the_inherited_lu(self, call_counts,
                                                      monkeypatch, zero_krylov):
        op = arc_bump_operator()[1]
        allen_cahn_front(op)
        inherited = op._jac_lu
        monkeypatch.setattr(spla, "bicgstab", zero_krylov(info=1))
        call_counts["splu"] = 0
        sol = allen_cahn_front(op)
        assert call_counts["splu"] == sol.iterations
        assert op._jac_lu is not inherited
        assert sol.meta["residual_internal"] <= SolvePolicy().tol

    def test_newton_solve_after_a_failed_one_converges(self, call_counts):
        # the failed solve leaves the LU of a Jacobian far from the front's
        op = arc_bump_operator()[1]
        init = np.random.default_rng(0).uniform(-5.0, 5.0, op.n)
        with pytest.raises(ConvergenceError, match="iteration cap"):
            solve_semilinear(op.grid, make_nonlinearity("allen_cahn"),
                             trace=tanh_trace, op=op,
                             policy=SolvePolicy(init=init, max_iter=2))
        assert op._jac_lu is not None
        sol = allen_cahn_front(op)
        assert sol.meta["residual_internal"] <= SolvePolicy().tol
        assert np.abs(sol.values - allen_cahn_front().values).max() <= 1e-12

    # BiCGSTAB iterations over all restarts: allen_cahn's 11 calls took 27
    # with every step solved to 1e-10 and take 12 with the forcing; linear's
    # Jacobian is the matrix of the kept LU
    @pytest.mark.parametrize("f,krylov_iterations",
                             [(make_nonlinearity("allen_cahn"), 26),
                              (make_nonlinearity("linear", slope=1.0), 0)],
                             ids=["allen_cahn", "linear"])
    def test_uniqueness_restarts_share_one_jacobian_lu(
            self, call_counts, krylov_log, f, krylov_iterations):
        # one LU of A for the eigenpair and one Jacobian LU for all restarts
        g = build_grid(strip_set(0.0, 1.0), [[0.0, 2.0], [0.0, 1.0]], 0.125)
        rep = uniqueness_test(g, f, n_restarts=4, amplitude=0.5)
        assert [r["outcome"] for r in rep.meta["restarts"]] == ["converged"] * 4
        assert call_counts["splu"] == 2
        assert sum(c["iterations"] for c in krylov_log) <= krylov_iterations

    def test_three_dimensional_lift_runs_bicgstab(self, call_counts):
        dom = make_epigraph("half_space", dimension=3)
        g = build_grid(dom, [[0.0, 1.0], [0.0, 1.0], [0.5, 1.5]], 1.0 / 8)
        sol = solve_semilinear(g, self.torsion)
        assert sol.meta["lift"] == "bicgstab"
        assert sol.iterations == 0
        assert call_counts == {"splu": 0, "bicgstab": 1}


class TestForcing:
    """Each Newton step's BiCGSTAB runs to the relative residual
    max(1e-10, min(0.1, res_k / res_0)) (Dembo, Eisenstat & Steihaug,
    SINUM 19, 1982)."""

    def test_rtol_follows_the_newton_residual(self, krylov_log):
        # the second front on op inherits the first one's LU, so every step
        # runs BiCGSTAB and the first call's right-hand side is -F(u_0)
        op = arc_bump_operator()[1]
        allen_cahn_front(op)
        krylov_log.clear()
        sol = allen_cahn_front(op)
        assert len(krylov_log) == sol.iterations > 2
        res0 = krylov_log[0]["rhs"]
        for call in krylov_log:
            assert call["rtol"] == max(1e-10, min(0.1, call["rhs"] / res0))
        assert krylov_log[0]["rtol"] == 0.1
        assert krylov_log[-1]["rtol"] == 1e-10

    def test_front_iterations_match_exact_newton(self, monkeypatch,
                                                 zero_krylov):
        # loose early steps cost no Newton step, on a fresh operator or one
        # whose inherited LU preconditions every step
        op = arc_bump_operator()[1]
        inexact = [allen_cahn_front(op).iterations for _ in range(2)]
        monkeypatch.setattr(spla, "bicgstab", zero_krylov(info=1))
        assert inexact == [allen_cahn_front().iterations] * 2


def test_cusp_front_converges_at_fine_h():
    # the absolute max-norm residual stalls at 4.4e-10 next to the cusp, whose
    # diagonal grows like 32/h^4: only the componentwise backward-error test
    # can stop there
    g = build_grid(make_epigraph("arc_bump"), [[-1.0, 1.0], [0.0, 4.0]], 1.0 / 64)
    assert g.n_interior == 22799
    sol = solve_semilinear(g, make_nonlinearity("allen_cahn"), trace=tanh_trace,
                           policy=SolvePolicy(init="front_lift", tol=1e-10))
    assert sol.residual_norm <= 1e-9
