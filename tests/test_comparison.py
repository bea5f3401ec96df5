"""Ordering checks, width thresholds, uniqueness probes and symmetry defects."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from epigraph_lab import (
    ConvergenceError,
    NumericalError,
    SolutionField,
    SolvePolicy,
    ValidationError,
    assemble_laplacian,
    brandt_check,
    build_grid,
    cap_sweep,
    comparison_test,
    cosh_mode,
    epsilon_bounded,
    growth_counterexample,
    hopf_slope_check,
    make_epigraph,
    make_nonlinearity,
    ordered_pair,
    principal_eigenpair,
    revolution_set,
    solve_semilinear,
    strip_set,
    symmetry_test,
    threshold_scan,
    uniqueness_test,
)
from epigraph_lab import comparison, solver


def interval_grid(a, b, h):
    return build_grid(strip_set(a, b, dimension=1), [[a, b]], h)


def test_field_compares_to_itself():
    g = interval_grid(0.0, 2.0, 1.0 / 32)
    u = solve_semilinear(g, make_nonlinearity("constant", value=1.0), trace=0.0)
    rep = comparison_test(u, u)
    assert rep.comparison_holds
    assert rep.witness is None
    assert rep.meta["min_gap"] == 0.0


def test_sine_above_zero_produces_witness():
    h = math.pi / 32
    g = interval_grid(0.0, math.pi, h)
    u = SolutionField(grid=g, values=np.sin(g.points[:, 0]), trace=0.0,
                      method="closed_form")
    v = SolutionField(grid=g, values=np.zeros(len(g.points)), trace=0.0,
                      method="closed_form")
    rep = comparison_test(u, v)
    assert not rep.comparison_holds
    # node 16 sits at half pi where the sine peaks at exactly 1.0
    assert rep.witness["gap"] == -1.0
    assert abs(rep.witness["point"][0] - math.pi / 2) <= 1e-15
    assert rep.meta["min_gap"] == -1.0


def test_boundary_ordering_is_a_precondition():
    g = interval_grid(0.0, 1.0, 0.25)
    n = len(g.points)
    hi = SolutionField(grid=g, values=np.ones(n), trace=1.0, method="x")
    lo = SolutionField(grid=g, values=np.zeros(n), trace=0.0, method="x")
    with pytest.raises(ValidationError):
        comparison_test(hi, lo)


@pytest.mark.parametrize("kind", ["cut", "lattice"])
def test_boundary_ordering_is_checked_at_every_dirichlet_endpoint(kind):
    # u's trace lies below v's at every Dirichlet arm endpoint but one: a
    # cut arm's endpoint between lattice nodes, or a lattice node on the
    # Dirichlet top face; each such endpoint in turn must be caught
    g = build_grid(make_epigraph("arc_bump"), [[-2.0, 2.0], [0.0, 2.0]], 0.25)
    ends = assemble_laplacian(g).bc_points
    pick = ends[:, 1] == 2.0 if kind == "lattice" else g.snap(ends)[1] > 1e-6
    assert pick.sum() >= 5
    n = g.n_interior
    v = SolutionField(grid=g, values=np.zeros(n), trace=0.0, method="x")

    def below_but(point):
        def trace(pts):
            t = np.full(len(pts), -1.0)
            if point is not None:
                t[(pts == point).all(axis=1)] = 1.0
            return t
        return SolutionField(grid=g, values=-np.ones(n), trace=trace, method="x")

    assert comparison_test(below_but(None), v).comparison_holds
    for point in ends[pick]:
        with pytest.raises(ValidationError, match="boundary ordering"):
            comparison_test(below_but(point), v)


def test_mismatched_grids_rejected():
    u = SolutionField(grid=interval_grid(0.0, 1.0, 0.25),
                      values=np.zeros(3), trace=0.0, method="x")
    v = SolutionField(grid=interval_grid(0.0, 1.0, 0.125),
                      values=np.zeros(7), trace=0.0, method="x")
    with pytest.raises(ValidationError):
        comparison_test(u, v)


def test_ordered_pairs_hold_across_seeds():
    g = interval_grid(0.0, 2.0, 1.0 / 32)
    op = assemble_laplacian(g)
    for seed in range(20):
        u, v = ordered_pair(g, op, 1.0, np.random.default_rng(seed))
        assert u.values.max() <= 1e-11   # inverse positivity of A - L I
        rep = comparison_test(u, v)
        assert rep.comparison_holds


def test_ordered_pair_rejects_an_operator_of_another_grid():
    g = interval_grid(0.0, 2.0, 0.25)
    other = assemble_laplacian(interval_grid(0.0, 1.0, 1.0 / 8))
    assert other.n == g.n_interior
    with pytest.raises(ValidationError, match="another grid"):
        ordered_pair(g, other, 1.0, np.random.default_rng(0))


def test_ordered_pair_on_singular_shift_is_a_numerical_error():
    # one node with diagonal 2 / h^2 = 8: A - 8 I is exactly singular
    g = interval_grid(0.0, 1.0, 0.5)
    op = assemble_laplacian(g)
    with pytest.raises(NumericalError, match="singular"):
        ordered_pair(g, op, 8.0, np.random.default_rng(0))


class TestThresholdScan:
    def test_slope_one_fails_near_pi(self):
        rep = threshold_scan(1.0, np.arange(2.0, 3.6001, 0.1))
        assert rep.failure_width == pytest.approx(3.2, rel=1e-9)
        assert abs(rep.failure_width - math.pi) <= 0.02 * math.pi
        assert rep.epsilon_sufficient == epsilon_bounded(1.0)
        ratio = rep.failure_width / rep.epsilon_sufficient
        assert abs(ratio - math.sqrt(2.0)) <= 0.03 * math.sqrt(2.0)
        assert rep.meta["sufficiency_gap_ok"] is True
        lams = [lam for _, lam in rep.table]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_slope_four_fails_near_half_pi(self):
        rep = threshold_scan(4.0, np.arange(1.0, 2.0001, 0.05))
        assert rep.failure_width == pytest.approx(1.6, rel=1e-9)
        assert abs(rep.failure_width - math.pi / 2) <= 0.02 * math.pi / 2

    def test_eigenvalue_width_invariant(self):
        rep = threshold_scan(1.0, [1.0, 2.0, math.pi])
        for S, lam in rep.table:
            assert abs(lam * S * S - math.pi**2) <= 1e-3 * math.pi**2

    @pytest.mark.parametrize("widths, cells", [
        (np.linspace(0.5, 4.0, 36), 256),          # the benchmark's scans
        (np.linspace(2.0, 3.6, 17), 64),           # the CLI's scan configs
        ([1.0, 1.5, 2.0, 2.5], 32),
        (np.arange(2.0, 3.6001, 0.1), 128),        # acceptance criterion 5
    ], ids=["benchmark", "cli", "cli_rerun", "criterion"])
    def test_closed_window_matches_the_open_interval(self, widths, cells):
        # the closed box's Dirichlet-face ends give the operator and the
        # lambda_1 the open interval's cut arms snap to, bit for bit
        def open_interval(S):
            g = build_grid(lambda p: (p[:, 0] > 0) & (p[:, 0] < S),
                           [[0.0, S]], S / cells)
            return principal_eigenpair(assemble_laplacian(g)).lambda1
        rep = threshold_scan(1.0, widths, cells=cells)
        assert [lam for _, lam in rep.table] == [open_interval(S) for S in widths]

    def test_scan_validation(self):
        with pytest.raises(ValidationError):
            threshold_scan(0.0, [1.0, 2.0])
        with pytest.raises(ValidationError):
            threshold_scan(1.0, [2.0, 1.5])
        with pytest.raises(ValidationError):
            threshold_scan(1.0, [])
        with pytest.raises(ValidationError):
            threshold_scan(1.0, [-1.0, 2.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("probe", [
    lambda L: threshold_scan(L, [1.0, 2.0]),
    lambda lam: hopf_slope_check(
        SolutionField(grid=interval_grid(0.0, 2.0, 0.25), values=np.zeros(7)),
        lam),
], ids=["threshold_scan", "hopf_slope_check"])
def test_probes_reject_non_finite_inputs(probe, value):
    with pytest.raises(ValidationError, match="finite"):
        probe(value)


class TestUniqueness:
    def test_narrow_strip_only_zero(self):
        g = interval_grid(0.0, 2.0, 1.0 / 32)
        rep = uniqueness_test(g, make_nonlinearity("linear", slope=1.0),
                              n_restarts=20, tol=1e-8)
        assert rep.comparison_holds
        assert rep.witness is None
        assert "status" not in rep.meta
        assert len(rep.meta["restarts"]) == 20
        for r in rep.meta["restarts"]:
            assert r["outcome"] == "converged"
            assert r["norm"] <= 1e-8
        h = 1.0 / 32
        expected = 2.0 / h**2 * (1.0 - math.cos(math.pi / 64))
        assert rep.lambda1 == pytest.approx(expected, rel=1e-8)
        assert rep.L == 1.0

    def test_witness_lists_failed_and_nonzero_restarts(self, monkeypatch):
        # restart 0 raises, restart 1 converges to u = 0.5 while lambda_1 > L
        outcomes = iter([ConvergenceError("no convergence: stub"), 0.5])

        def stub(grid, f, trace=0.0, policy=None, op=None):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return SolutionField(grid=grid, values=np.full(op.n, outcome),
                                 iterations=1, method="newton")

        monkeypatch.setattr("epigraph_lab.comparison.solve_semilinear", stub)
        g = interval_grid(0.0, 2.0, 1.0 / 32)
        rep = uniqueness_test(g, make_nonlinearity("linear", slope=1.0),
                              n_restarts=2)
        assert "status" not in rep.meta
        assert not rep.comparison_holds
        assert rep.witness == {"restarts": [0, 1], "values_max_norm": 0.5}
        failed, nonzero = rep.meta["restarts"]
        assert failed["outcome"] == "ConvergenceError: no convergence: stub"
        assert failed["norm"] is None
        assert nonzero["outcome"] == "converged"
        assert nonzero["norm"] == 0.5

    def test_wide_strip_flags_hypothesis(self):
        g = interval_grid(0.0, 3.3, 3.3 / 64)
        rep = uniqueness_test(g, make_nonlinearity("linear", slope=1.0),
                              n_restarts=3)
        assert rep.meta["status"] == "hypothesis violated: S >= threshold"
        assert rep.lambda1 < 1.0

    def test_hypothesis_violated_restarts_are_recorded(self):
        # lambda_1 of the width-4 strip is below f'(0) = 1, so J(0) = A - I
        # is indefinite; it still preconditions the restarts, and their
        # outcomes are recorded as they come
        g = build_grid(strip_set(0.0, 4.0), [[0.0, 2.0], [0.0, 4.0]], 0.25)
        rep = uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=6,
                              amplitude=0.5)
        assert rep.meta["status"] == "hypothesis violated: S >= threshold"
        assert rep.lambda1 < 1.0
        assert rep.witness is None
        assert [r["restart"] for r in rep.meta["restarts"]] == list(range(6))

    @staticmethod
    def allen_cahn_restarts():
        """(norm, iterations) of each restart, on a fresh grid and operator."""
        g = build_grid(strip_set(0.0, 1.0), [[0.0, 2.0], [0.0, 1.0]], 0.125)
        rep = uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=6,
                              seed=7, amplitude=0.5)
        return [(r["norm"], r["iterations"]) for r in rep.meta["restarts"]]

    def test_restarts_rerun_bit_identically(self):
        # a restart whose Krylov step fails replaces J(0)'s LU on the shared
        # operator for the later ones: the same sequence of solves gives the
        # same bits
        assert self.allen_cahn_restarts() == self.allen_cahn_restarts()

    def test_restart_iterations_match_exact_newton(self, monkeypatch,
                                                   zero_krylov):
        restarts = self.allen_cahn_restarts()
        monkeypatch.setattr(spla, "bicgstab", zero_krylov(info=1))
        exact = self.allen_cahn_restarts()
        assert [it for _, it in restarts] == [it for _, it in exact]

    def test_lambda1_through_jacobian_at_zero_matches_principal_eigenpair(
            self):
        # shift-invert about f'(0) = 1 through the kept LU of J(0) = A - I
        g = build_grid(strip_set(0.0, 1.0), [[0.0, 2.0], [0.0, 1.0]], 0.125)
        rep = uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=2,
                              amplitude=0.5)
        ref = principal_eigenpair(assemble_laplacian(g)).lambda1
        assert rep.lambda1 > 1.0
        assert abs(rep.lambda1 - ref) <= 1e-12 * ref

    def test_violated_hypothesis_reports_the_lambda1_of_a(self, monkeypatch):
        # lambda_1 ~ 0.61 < f'(0) = 1: the pair through J(0) is not trusted
        # and the eigensolve about 0 through A's LU answers, bit for bit
        g = build_grid(strip_set(0.0, 4.0), [[0.0, 2.0], [0.0, 4.0]], 0.25)
        shifts = []
        original = solver._shift_invert_eigenpair

        def shift_invert(op, lu, sigma):
            shifts.append(sigma)
            return original(op, lu, sigma)

        monkeypatch.setattr(solver, "_shift_invert_eigenpair", shift_invert)
        rep = uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=2,
                              amplitude=0.5)
        assert shifts == [1.0, 0.0]
        assert rep.lambda1 == principal_eigenpair(assemble_laplacian(g)).lambda1
        assert rep.lambda1 < 1.0

    def test_restarts_do_not_depend_on_how_lambda1_is_read(self, monkeypatch):
        # criterion 5's config; the reference keeps J(0)'s LU as _lambda1
        # does but reads lambda_1 by ARPACK through A's LU, which it leaves
        # on op next to J(0)'s
        g = build_grid(strip_set(0.0, 2.0, dimension=1), [[0.0, 2.0]],
                       1.0 / 32)
        f = make_nonlinearity("linear", slope=1.0)

        def run():
            rep = uniqueness_test(g, f, n_restarts=20, tol=1e-8, seed=7)
            return rep.lambda1, [(r["norm"], r["iterations"])
                                 for r in rep.meta["restarts"]]

        lam, restarts = run()
        monkeypatch.setattr(solver, "_eigenpair", lambda op, jac, c:
                            solver._shift_invert_eigenpair(
                                op, solver._factors(op), 0.0))
        ref_lam, ref_restarts = run()
        assert [it for _, it in restarts] == [1] * 20
        assert restarts == ref_restarts
        assert abs(lam - ref_lam) <= 1e-12 * ref_lam

    def test_requires_zero_at_origin(self):
        g = interval_grid(0.0, 1.0, 0.25)
        with pytest.raises(ValidationError):
            uniqueness_test(g, make_nonlinearity("constant", value=1.0))
        # a table that does not reach 0 has no f(0) at all: every restart
        # would leave its range
        table = make_nonlinearity("custom_table", ts=[0.5, 1.0, 2.0],
                                  fs=[0.5, 1.0, 2.0])
        with pytest.raises(ValidationError, match="f\\(0\\) = 0"):
            uniqueness_test(g, table)
        with pytest.raises(ValidationError):
            uniqueness_test(g, make_nonlinearity("linear", slope=1.0),
                            n_restarts=0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -0.5])
def test_uniqueness_amplitude_must_be_finite_and_nonnegative(amplitude):
    g = interval_grid(0.0, 1.0, 0.25)
    with pytest.raises(ValidationError, match="amplitude"):
        uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=1,
                        amplitude=amplitude)


def test_uniqueness_table_must_cover_the_working_range():
    # a table on [-0.5, 0.5] under amplitude 1 is rejected before any solve,
    # not reported as every restart leaving its range; one on exactly
    # [-1, 1] runs
    g = interval_grid(0.0, 1.0, 0.25)
    short = make_nonlinearity("custom_table", ts=[-0.5, 0.0, 0.5],
                              fs=[-0.5, 0.0, 0.5])
    with pytest.raises(ValidationError, match="working range \\[-1, 1\\]"):
        uniqueness_test(g, short, n_restarts=2, amplitude=1.0)
    full = make_nonlinearity("custom_table", ts=[-1.0, 0.0, 1.0],
                             fs=[-1.0, 0.0, 1.0])
    rep = uniqueness_test(g, full, n_restarts=2, amplitude=1.0)
    assert rep.comparison_holds
    assert [r["outcome"] for r in rep.meta["restarts"]] == ["converged"] * 2


def test_uniqueness_at_zero_amplitude_restarts_from_zero():
    g = interval_grid(0.0, 1.0, 0.25)
    rep = uniqueness_test(g, make_nonlinearity("allen_cahn"), n_restarts=2,
                          amplitude=0.0)
    assert rep.comparison_holds
    assert [r["norm"] for r in rep.meta["restarts"]] == [0.0, 0.0]


def test_shifted_supersolutions_hold():
    f = make_nonlinearity("constant", value=1.0)
    for S in (1.0, 2.0, 5.0, 10.0):
        g = interval_grid(0.0, S, S / 64)
        u = solve_semilinear(g, f, trace=0.0)
        v = solve_semilinear(g, f, trace=0.5)
        rep = comparison_test(u, v)
        assert rep.comparison_holds
        assert abs(rep.meta["min_gap"] - 0.5) <= 1e-6


class TestSymmetry:
    def test_torsion_strip_mirror(self):
        g = build_grid(strip_set(-1.0, 1.0), [[0.0, 2.0], [-1.0, 1.0]],
                       1.0 / 16)
        f = make_nonlinearity("constant", value=1.0)
        rep = symmetry_test(g, f, lambda p: np.column_stack([p[:, 0], -p[:, 1]]),
                            tol=1e-12)
        assert rep.comparison_holds
        assert rep.meta["defect"] <= 1e-12
        assert rep.meta["n_matched"] > 0

    def test_torsion_matches_closed_form(self):
        g = build_grid(strip_set(-1.0, 1.0), [[0.0, 2.0], [-1.0, 1.0]],
                       1.0 / 16)
        u = solve_semilinear(g, make_nonlinearity("constant", value=1.0),
                             trace=0.0)
        y = g.points[:, 1]
        assert np.max(np.abs(u.values - 0.5 * (1.0 - y * y))) <= 1e-10

    def test_revolution_mirror_and_period(self):
        h = 2.0 * math.pi / 48
        dom = revolution_set("cosine", dimension=2, base=1.0, amp=0.2,
                             freq=1.0)
        g = build_grid(dom, [[-2.0 * math.pi, 2.0 * math.pi],
                             [-11 * h, 11 * h]], h)
        f = make_nonlinearity("constant", value=1.0)
        u = solve_semilinear(g, f, trace=0.0)
        mirror = symmetry_test(g, f, lambda p: np.column_stack([-p[:, 0], p[:, 1]]),
                               tol=1e-8, solution=u)
        assert mirror.comparison_holds
        shift = symmetry_test(
            g, f,
            lambda p: np.column_stack([p[:, 0] + 2.0 * math.pi, p[:, 1]]),
            tol=1e-6, solution=u)
        assert shift.comparison_holds
        assert shift.meta["n_matched"] < len(g.points)   # overlap only

    def test_non_aligned_isometry_rejected(self):
        g = build_grid(strip_set(-1.0, 1.0), [[0.0, 2.0], [-1.0, 1.0]],
                       1.0 / 16)
        f = make_nonlinearity("constant", value=1.0)
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rot = lambda p: p @ np.array([[c, -s], [s, c]]).T
        with pytest.raises(ValidationError):
            symmetry_test(g, f, rot)
        with pytest.raises(ValidationError):
            symmetry_test(g, f, lambda p: p[:, :1])
        with pytest.raises(ValidationError):
            symmetry_test(g, f, lambda p: p + np.array([200.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_is_not_grid_aligned(self, bad):
        # a mirror with one non-finite image must be rejected, not matched
        g = build_grid(strip_set(-1.0, 1.0), [[0.0, 2.0], [-1.0, 1.0]], 0.25)
        f = make_nonlinearity("constant", value=1.0)

        def mirror(p):
            q = np.column_stack([p[:, 0], -p[:, 1]])
            q[0, 0] = bad
            return q
        with pytest.raises(ValidationError, match="isometry not grid-aligned"):
            symmetry_test(g, f, mirror)


# each probe used to let a NaN or infinite tolerance through its "<= 0"
# guard: cap_sweep called u = 4 - x2 monotone up to the window's middle,
# symmetry_test and uniqueness_test passed any defect or restart norm, and
# brandt_check raised a bare ValueError
PROBES = {
    "cap_sweep": lambda u, t: cap_sweep(u, None, tol=t),
    "symmetry_test": lambda u, t: symmetry_test(
        u.grid, make_nonlinearity("constant"), lambda p: p, tol=t, solution=u),
    "uniqueness_test": lambda u, t: uniqueness_test(
        u.grid, make_nonlinearity("allen_cahn"), tol=t),
    "brandt_check": lambda u, t: brandt_check(
        u, np.zeros(u.grid.n_interior), u.grid.points[0], t),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES)
def test_probe_tolerance_must_be_positive_and_finite(probe, value):
    g = build_grid(make_epigraph("half_space"), [[-2.0, 2.0], [0.0, 4.0]], 0.25)
    u = SolutionField(grid=g, values=4.0 - g.points[:, 1],
                      trace=lambda p: 4.0 - p[:, -1], method="closed_form")
    with pytest.raises(ValidationError, match="must be positive and finite"):
        probe(u, value)


class TestGrowthCounterexample:
    @pytest.mark.parametrize("m", [1, 2])
    def test_mode_defeats_unrestricted_comparison(self, m):
        rep = growth_counterexample(m)
        assert rep.comparison_holds
        assert rep.witness is None
        assert rep.meta["trace_max"] == 0.0
        assert rep.meta["max_abs"] > 0.0
        assert rep.meta["resid_max"] <= rep.meta["resid_bound"]
        assert abs(rep.meta["growth_slope"] - m) <= 0.05 * m
        xs = [x for x, _ in rep.table]
        assert xs == sorted(xs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_is_the_column_max_of_the_interior_nodes(self, m):
        # per-point reference: max |w| over the interior nodes of each x
        rep = growth_counterexample(m)
        grid = build_grid(lambda p: (p[:, 1] > 0) & (p[:, 1] < math.pi),
                          [[-rep.meta["x_max"], rep.meta["x_max"]],
                           [0.0, math.pi]], rep.meta["h"],
                          face_policy=[["dirichlet", "dirichlet"]] * 2)
        cols = {}
        for p, w in zip(grid.points, cosh_mode(m, grid.points)):
            cols.setdefault(float(p[0]), []).append(abs(float(w)))
        assert rep.table == [(x, max(cols[x])) for x in sorted(cols)]

    def test_validation(self):
        with pytest.raises(ValidationError):
            growth_counterexample(0)
