"""Linear, Newton/Picard and eigenvalue solves against closed-form targets."""

import math

import numpy as np
import pytest

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
    manual = op.apply(sol.values) - boundary_rhs(op, 0.0) - 1.0
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

    def test_rejects_bad_tolerance(self):
        op = assemble_laplacian(interval_grid(0.0, 1.0, 0.25))
        with pytest.raises(ValidationError):
            principal_eigenpair(op, tol=0.0)


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
