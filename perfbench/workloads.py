"""The benchmark's three workloads: inputs from a seed, the operations of
one pass, and the reference gate of each operation.

An operation calls into epigraph_lab under a span named after the layer
(``<layer>.<call>``), records its counters, stores what later operations
need in ``ctx``, and returns ``(gate, outputs)``. ``gate(ref, tr)`` checks
the output against the reference values and runs after the timed part of
the pass; ``outputs`` go into the pass digest. Values that a faster,
equivalent algorithm may change in the last bits are checked with a
tolerance; counts must match exactly.

Importing this module imports numpy, scipy and epigraph_lab, so it is part
of the set-up time the benchmark reports.
"""

import contextlib
import functools
import io
import json
import math
import os

import numpy as np

import epigraph_lab as el
from epigraph_lab import cli
from epigraph_lab.closed_forms import strip_torsion, tanh_front

# ---------------------------------------------------------------------------
# calls into the layers, each under its span
# ---------------------------------------------------------------------------


def _tanh_trace(p):
    return tanh_front(p[:, -1])


def _cut_arms(grid):
    return int((grid.arm_kind == el.ARM_CUT).sum())


def _build_grid(tr, domain, box, h):
    with tr.span("discretization.build_grid"):
        grid = el.build_grid(tr.domain(domain), box, h)
    if tr.enabled:
        tr.count("discretization.n_interior", grid.n_interior)
        tr.count("discretization.cut_arms", _cut_arms(grid))
    return grid


def _assemble(tr, grid):
    with tr.span("discretization.assemble_laplacian"):
        op = el.assemble_laplacian(grid)
    tr.count("discretization.matrix_nnz", op.matrix.nnz)
    return op


def _residual(tr, sol, f):
    """Max-norm residual through the independent gather-based stencil."""
    with tr.span("discretization.stencil_residual"):
        r = el.stencil_residual(sol.grid, sol.values, sol.trace)
    return float(np.abs(r - el.eval_f(f, sol.values)).max())


def _write_csv(tr, path, header, rows, n_rows):
    with tr.span("reporting.write_csv"):
        el.write_csv(path, header, rows)
    if tr.enabled:
        tr.count("reporting.csv_rows", n_rows)
        tr.count("reporting.csv_bytes", os.path.getsize(path))


def _close(a, b, tol):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# large_solve: the n ~ 175k arc_bump reference problem, where factorization,
# Krylov, the eigen-solver and one large CSV take nearly all the time
# ---------------------------------------------------------------------------

LARGE_SIZES = {"full": {"h": 1.0 / 32}, "small": {"h": 1.0 / 4}}


def large_inputs(seed, size, workdir):
    # one fixed reference problem: the seed changes no input here
    return {
        "domain": el.make_epigraph("arc_bump"),
        "box": [[-8.0, 8.0], [0.0, 12.0]],
        "h": LARGE_SIZES[size]["h"],
        "torsion_f": el.make_nonlinearity("constant", value=1.0),
        "front_f": el.make_nonlinearity("allen_cahn"),
        "front_policy": el.SolvePolicy(init="front_lift"),
    }


def large_grid(inp, ctx, tr):
    grid = ctx["grid"] = _build_grid(tr, inp["domain"], inp["box"], inp["h"])

    def gate(ref, tr):
        return {"n_interior": grid.n_interior == ref["n_interior"],
                "cut_arms": _cut_arms(grid) == ref["cut_arms"]}
    return gate, [grid.theta, grid.arm_kind]


def large_assemble(inp, ctx, tr):
    op = ctx["op"] = _assemble(tr, ctx["grid"])

    def gate(ref, tr):
        return {"matrix_nnz": op.matrix.nnz == ref["matrix_nnz"]}
    return gate, [op.matrix.data, op.matrix.indices]


def large_torsion(inp, ctx, tr):
    f = inp["torsion_f"]
    with tr.span("solver.torsion_solve"):
        sol = el.solve_semilinear(ctx["grid"], f, op=ctx["op"])
    tr.count("solver.newton_iterations", sol.iterations)

    def gate(ref, tr):
        return {"residual": _residual(tr, sol, f) <= ref["residual_max"],
                "positive": bool((sol.values > 0.0).all())}
    return gate, [sol.values]


def large_front(inp, ctx, tr):
    f = inp["front_f"]
    with tr.span("solver.front_solve"):
        sol = el.solve_semilinear(ctx["grid"], f, trace=_tanh_trace,
                                  policy=inp["front_policy"], op=ctx["op"])
    tr.count("solver.newton_iterations", sol.iterations)
    ctx["front"] = sol

    def gate(ref, tr):
        return {"residual": _residual(tr, sol, f) <= ref["residual_max"],
                "between_0_and_1": bool(((sol.values > 0.0)
                                         & (sol.values < 1.0)).all())}
    return gate, [sol.values]


def large_eigen(inp, ctx, tr):
    with tr.span("solver.principal_eigenpair"):
        pair = el.principal_eigenpair(ctx["op"])
    tr.count("solver.eigen_iterations", pair.iterations)

    def gate(ref, tr):
        lam = pair.lambda1
        return {"lambda1": _close(lam, ref["lambda1"], 1e-8 * ref["lambda1"]),
                "lambda1_bracket": (math.pi / 12) ** 2 <= lam <= (math.pi / 10) ** 2}
    return gate, [pair.lambda1, pair.phi1]


def large_caps(inp, ctx, tr):
    with tr.span("moving_plane.cap_sweep"):
        rep = el.cap_sweep(ctx["front"], inp["domain"])
    tr.count("moving_plane.lambdas", rep.lambda_grid.size)

    def gate(ref, tr):
        return {"monotone_up_to": rep.monotone_up_to == ref["monotone_up_to"],
                "no_sign_changes": len(rep.sign_change_cells) == 0}
    return gate, [rep.cap_min_diff, rep.monotone_up_to, rep.dn_u_min]


def large_csv(inp, ctx, tr):
    sol = ctx["front"]
    path = os.path.join(inp["out"], "front.csv")
    rows = ([*p, v] for p, v in zip(sol.grid.points, sol.values))
    _write_csv(tr, path, ["x1", "x2", "u"], rows, sol.grid.n_interior)

    def gate(ref, tr):
        with open(path, "rb") as fh:
            lines = fh.read().count(b"\n")
        return {"rows": lines == sol.grid.n_interior + 1}
    return gate, []


# ---------------------------------------------------------------------------
# probe_scan: geometry, moving-plane and estimate probes with no sparse
# factorization, so a solver change should read "no change" here
# ---------------------------------------------------------------------------

PROBE_SIZES = {
    "full": {"lines": 201, "resolution": 1e-3, "window": 100.0,
             "weierstrass_h": 1.0 / 64, "front_h": 1.0 / 32,
             "torsion_h": 1.0 / 64, "probes": 300, "candidates": 3000},
    "small": {"lines": 21, "resolution": 1e-2, "window": 20.0,
              "weierstrass_h": 1.0 / 16, "front_h": 1.0 / 8,
              "torsion_h": 1.0 / 16, "probes": 30, "candidates": 300},
}
WINGED_PER_LINE_AT_1 = 2.7200992892182074  # 2 + 2 asinh(1/e)
HOPF_LAMBDAS = (0.5, 1.0, 2.0)
BRANDT_DELTA = 0.25


def probe_inputs(seed, size, workdir):
    p = PROBE_SIZES[size]
    th = p["torsion_h"]
    rng = np.random.default_rng(seed)
    # Brandt centres: lattice nodes of the torsion window [0,4]x[-1,1],
    # strictly inside the strip; balls that leave it are not placed
    i = rng.integers(0, round(4.0 / th) + 1, p["candidates"])
    j = rng.integers(1, round(2.0 / th), p["candidates"])
    return {
        **p,
        "probe_lines": np.linspace(-10.0, 10.0, p["lines"]),
        "winged": el.winged_strip_set(),
        "parabola": el.under_parabola_set(),
        "tilted": el.strip_set(0.0, 1.5),
        "weierstrass": el.make_epigraph("weierstrass"),
        "half_space": el.make_epigraph("half_space"),
        "torsion_strip": el.strip_set(-1.0, 1.0),
        "centres": np.stack([0.0 + th * i, -1.0 + th * j], axis=1),
    }


def _section(inp, tr, domain, nu):
    with tr.span("geometry.section_measure"):
        rep = el.section_measure(tr.domain(domain), nu, inp["probe_lines"],
                                 inp["resolution"], window=inp["window"])
    tr.count("geometry.section_lines", len(rep.per_line))
    return rep


def _measures(rep):
    return np.array([m for _, m in rep.per_line])


def probe_winged(inp, ctx, tr):
    rep = _section(inp, tr, inp["winged"], [0.0, 1.0])
    lines = inp["probe_lines"]

    def gate(ref, tr):
        at = {x: int(np.argmin(np.abs(lines - x))) for x in (0.0, 1.0)}
        m = _measures(rep)
        return {"lines_on_grid": all(_close(lines[i], x, 1e-12) for x, i in at.items()),
                "centre_line": _close(m[at[0.0]], 2.0, 1e-6),
                "line_at_1": _close(m[at[1.0]], WINGED_PER_LINE_AT_1, 1e-6)}
    return gate, [_measures(rep), rep.unbounded_suspected]


def probe_parabola(inp, ctx, tr):
    rep = _section(inp, tr, inp["parabola"], [0.0, 1.0])

    def gate(ref, tr):
        return {"flagged_unbounded": bool(rep.unbounded_suspected)}
    return gate, [_measures(rep), rep.unbounded_suspected]


def probe_tilted(inp, ctx, tr):
    rep = _section(inp, tr, inp["tilted"], [1.0, 1.0])

    def gate(ref, tr):
        return {"section": _close(rep.value, 1.5 * math.sqrt(2.0), 1e-3),
                "bounded": not rep.unbounded_suspected}
    return gate, [_measures(rep), rep.unbounded_suspected]


def probe_weierstrass_grid(inp, ctx, tr):
    grid = ctx["wgrid"] = _build_grid(tr, inp["weierstrass"],
                                      [[-2.0, 2.0], [0.0, 4.0]],
                                      inp["weierstrass_h"])

    def gate(ref, tr):
        return {"n_interior": grid.n_interior == ref["weierstrass_n"],
                "cut_arms": _cut_arms(grid) == ref["weierstrass_cut_arms"]}
    return gate, [grid.theta, grid.arm_kind]


def probe_weierstrass_assemble(inp, ctx, tr):
    op = _assemble(tr, ctx["wgrid"])

    def gate(ref, tr):
        return {"matrix_nnz": op.matrix.nnz == ref["weierstrass_nnz"]}
    return gate, [op.matrix.data, op.matrix.indices]


def probe_front_field(inp, ctx, tr):
    grid = _build_grid(tr, inp["half_space"], [[0.0, 8.0], [0.0, 12.0]],
                       inp["front_h"])
    ctx["front"] = el.SolutionField(grid=grid, values=tanh_front(grid.points[:, -1]),
                                    trace=_tanh_trace, method="closed_form")

    def gate(ref, tr):
        return {"n_interior": grid.n_interior == ref["front_n"]}
    return gate, []


def probe_caps(inp, ctx, tr):
    with tr.span("moving_plane.cap_sweep"):
        rep = el.cap_sweep(ctx["front"], inp["half_space"])
    tr.count("moving_plane.lambdas", rep.lambda_grid.size)

    def gate(ref, tr):
        return {"monotone_up_to": rep.monotone_up_to == ref["monotone_up_to"],
                "no_sign_changes": len(rep.sign_change_cells) == 0}
    return gate, [rep.cap_min_diff, rep.monotone_up_to, rep.dn_u_min]


def probe_hopf(inp, ctx, tr):
    reps = []
    for lam in HOPF_LAMBDAS:
        with tr.span("moving_plane.hopf_slope_check"):
            reps.append(el.hopf_slope_check(ctx["front"], lam))
        tr.count("moving_plane.columns", reps[-1].n_columns)
    h = inp["front_h"]

    def gate(ref, tr):
        return {"defect": all(r.defect <= 5.0 * h * h for r in reps),
                "slope_positive": all(r.dn_min > 0.0 for r in reps)}
    return gate, [[r.defect, r.dn_min, r.dn_max, r.n_columns] for r in reps]


def probe_torsion_field(inp, ctx, tr):
    grid = _build_grid(tr, inp["torsion_strip"], [[0.0, 4.0], [-1.0, 1.0]],
                       inp["torsion_h"])
    ctx["torsion"] = el.SolutionField(grid=grid,
                                      values=strip_torsion(grid.points[:, 1], 1.0),
                                      method="closed_form")

    def gate(ref, tr):
        return {"n_interior": grid.n_interior == ref["torsion_n"]}
    return gate, []


def probe_brandt(inp, ctx, tr):
    field = ctx["torsion"]
    f_values = np.ones(field.grid.n_interior)
    reports = []
    tried = 0
    for centre in inp["centres"]:
        if len(reports) == inp["probes"]:
            break
        tried += 1
        try:
            with tr.span("estimates.brandt_check"):
                reports.append(el.brandt_check(field, f_values, centre, BRANDT_DELTA))
        except el.ValidationError as exc:
            if "ball exits domain" not in str(exc):
                raise
    tr.count("estimates.brandt_placed", len(reports))
    tr.count("estimates.brandt_attempted", tried)

    def gate(ref, tr):
        return {"all_placed": len(reports) == inp["probes"],
                "all_hold": all(r.holds for r in reports)}
    return gate, [np.array([r.slack for r in reports])]


# ---------------------------------------------------------------------------
# restart_batch: many moderate factorizations of near-identical matrices and
# the CLI end to end, where per-call overhead and small files matter; a
# change that helps large_solve but costs small solves shows here
# ---------------------------------------------------------------------------

RESTART_SIZES = {
    "full": {"h": 1.0 / 48, "restarts": 20, "cells": 256},
    "small": {"h": 1.0 / 8, "restarts": 3, "cells": 64},
}
THRESHOLD_LS = (1.0, 2.0, 4.0)
GROWTH_MODES = (1, 2, 3)


def _cli_configs(out, inputs_dir, cli_seed):
    """Every CLI experiment but uniqueness; each run writes its own directory."""
    def torsion(name):
        return {"experiment": "solve", "output_dir": os.path.join(out, name),
                "domain": {"kind": "strip", "a": 0.0, "b": 1.0, "dimension": 1},
                "nonlinearity": {"kind": "constant", "value": 1.0},
                "grid": {"box": [[0.0, 1.0]], "h": 0.125}}

    table = torsion("custom_table")
    table["nonlinearity"] = {"kind": "custom_table",
                             "csv": os.path.join(inputs_dir, "table.csv")}
    return {
        "torsion": torsion("torsion"),
        "moving_plane": {"experiment": "moving_plane",
                         "output_dir": os.path.join(out, "moving_plane"),
                         "params": {"profile": "tanh_front",
                                    "hopf_lambdas": [0.5, 1.0]}},
        "threshold_scan": {"experiment": "threshold_scan",
                           "output_dir": os.path.join(out, "threshold_scan"),
                           "svg": True,
                           "params": {"L": 1.0, "cells": 64,
                                      "widths": {"start": 2.0, "stop": 3.6,
                                                 "count": 17}}},
        "custom_table": table,
        "custom_sampled": {"experiment": "solve",
                           "output_dir": os.path.join(out, "custom_sampled"),
                           "domain": {"kind": "epigraph", "profile": "custom_sampled",
                                      "csv": os.path.join(inputs_dir, "profile.csv")},
                           "nonlinearity": {"kind": "constant", "value": 1.0},
                           "grid": {"box": [[0.0, 0.5], [0.0, 1.0]], "h": 0.125}},
        "verify_examples": {"experiment": "verify_examples",
                            "output_dir": os.path.join(out, "verify_examples")},
        "symmetry": {"experiment": "symmetry",
                     "output_dir": os.path.join(out, "symmetry"),
                     "params": {"case": "revolution"}},
        "estimates": {"experiment": "estimates",
                      "output_dir": os.path.join(out, "estimates"),
                      "seed": cli_seed,
                      "domain": {"kind": "strip", "a": -1.0, "b": 1.0},
                      "nonlinearity": {"kind": "constant", "value": 1.0},
                      "grid": {"box": [[0.0, 2.0], [-1.0, 1.0]], "h": 0.0625},
                      "params": {"brandt": {"n_probes": 20, "delta": 0.25}}},
        "section": {"experiment": "section",
                    "output_dir": os.path.join(out, "section"),
                    "domain": {"kind": "winged_strip"},
                    "params": {"direction": [0.0, 1.0], "window": 20.0,
                               "probes": {"lo": -10.0, "hi": 10.0, "count": 41},
                               "expect_unbounded": False}},
    }


def restart_inputs(seed, size, workdir):
    rng = np.random.default_rng(seed)
    uniqueness_seed, pair_seed, cli_seed = (int(s) for s in rng.integers(0, 2**31, 3))
    inputs_dir = os.path.join(workdir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    el.write_csv(os.path.join(inputs_dir, "table.csv"), ["t", "f"],
                 [[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    el.write_csv(os.path.join(inputs_dir, "profile.csv"), ["x", "g"],
                 [[x, 0.0] for x in (-10.0, 0.0, 10.0)])
    configs = {}
    for name, cfg in _cli_configs(os.path.join(workdir, "out", "cli"),
                                  inputs_dir, cli_seed).items():
        path = configs[name] = os.path.join(inputs_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
    return {
        **RESTART_SIZES[size],
        "strip": el.strip_set(0.0, 2.0),
        "box": [[0.0, 4.0], [0.0, 2.0]],
        "f": el.make_nonlinearity("allen_cahn"),
        "uniqueness_seed": uniqueness_seed,
        "pair_seed": pair_seed,
        "widths": np.linspace(0.5, 4.0, 36),
        "cli_configs": configs,
        "cli_out": os.path.join(workdir, "out", "cli"),
    }


def restart_grid(inp, ctx, tr):
    grid = ctx["grid"] = _build_grid(tr, inp["strip"], inp["box"], inp["h"])

    def gate(ref, tr):
        return {"n_interior": grid.n_interior == ref["n_interior"]}
    return gate, []


def restart_uniqueness(inp, ctx, tr):
    n = inp["restarts"]
    with tr.span("comparison.uniqueness_test"):
        rep = el.uniqueness_test(ctx["grid"], inp["f"], n_restarts=n,
                                 seed=inp["uniqueness_seed"])
    restarts = rep.meta["restarts"]
    tr.count("comparison.restarts", len(restarts))
    tr.count("comparison.restarts_converged",
             sum(r["outcome"] == "converged" for r in restarts))
    tr.count("solver.newton_iterations", sum(r.get("iterations", 0) for r in restarts))
    rows = [[r["restart"], math.nan if r["norm"] is None else r["norm"],
             r.get("iterations", -1), r["outcome"]] for r in restarts]
    _write_csv(tr, os.path.join(inp["out"], "restarts.csv"),
               ["restart", "norm", "iterations", "outcome"], rows, len(rows))

    def gate(ref, tr):
        return {"holds": rep.comparison_holds,
                "hypothesis_satisfied": "status" not in rep.meta,
                "restarts": len(restarts) == n}
    return gate, [rep.lambda1, [r["norm"] for r in restarts]]


def restart_ordered_pair(inp, ctx, tr):
    grid = ctx["grid"]
    op = _assemble(tr, grid)
    with tr.span("comparison.ordered_pair"):
        u, v = el.ordered_pair(grid, op, 1.0, np.random.default_rng(inp["pair_seed"]))
    with tr.span("comparison.comparison_test"):
        rep = el.comparison_test(u, v)

    def gate(ref, tr):
        return {"holds": rep.comparison_holds,
                "ordered": float(u.values.max()) <= 1e-11}
    return gate, [u.values]


def restart_threshold(L, inp, ctx, tr):
    with tr.span("comparison.threshold_scan"):
        rep = el.threshold_scan(L, inp["widths"], cells=inp["cells"])
    tr.count("comparison.eigenproblems", len(rep.table))
    _write_csv(tr, os.path.join(inp["out"], f"threshold_L{L:g}.csv"),
               ["width", "lambda1"], rep.table, len(rep.table))

    def gate(ref, tr):
        width = rep.failure_width
        return {"failure_width": width is not None
                and _close(width, ref["failure_widths"][L], 1e-9)}
    return gate, [rep.table]


def restart_growth(m, inp, ctx, tr):
    with tr.span("comparison.growth_counterexample"):
        rep = el.growth_counterexample(m)
    _write_csv(tr, os.path.join(inp["out"], f"growth_m{m}.csv"),
               ["x", "amplitude"], rep.table, len(rep.table))

    def gate(ref, tr):
        return {"holds": rep.comparison_holds and rep.witness is None}
    return gate, [rep.table, rep.meta["growth_slope"]]


def restart_cli(name, inp, ctx, tr):
    with tr.span("cli.run"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", inp["cli_configs"][name]])
    tr.count("cli.runs")

    def gate(ref, tr):
        summary = os.path.join(inp["cli_out"], name, "summary.json")
        outcome = el.read_json(summary)["outcome"] if os.path.isfile(summary) else None
        return {"exit_code": code == 0, "outcome": outcome == "success"}
    return gate, [code]


# ---------------------------------------------------------------------------
# the catalogue
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, make_inputs, ops, reference):
        self.name = name
        self.make_inputs = make_inputs
        self.ops = ops                  # [(name, fn(inp, ctx, tr))]
        self.reference = reference      # {size: {key: value}}


# reference values measured at the commit that added this benchmark
WORKLOADS = {w.name: w for w in [
    Workload(
        "large_solve",
        large_inputs,
        [("build_grid", large_grid), ("assemble_laplacian", large_assemble),
         ("torsion_solve", large_torsion), ("front_solve", large_front),
         ("principal_eigenpair", large_eigen), ("cap_sweep", large_caps),
         ("write_csv", large_csv)],
        {"full": {"n_interior": 174616, "cut_arms": 705, "matrix_nnz": 871160,
                  "residual_max": 1e-7, "lambda1": 0.08843465275545281,
                  "monotone_up_to": 6.0},
         "small": {"n_interior": 2724, "cut_arms": 89, "matrix_nnz": 13380,
                   "residual_max": 1e-7, "lambda1": 0.08839404762070656,
                   "monotone_up_to": 6.0}},
    ),
    Workload(
        "probe_scan",
        probe_inputs,
        [("section_winged", probe_winged), ("section_parabola", probe_parabola),
         ("section_tilted", probe_tilted),
         ("weierstrass_grid", probe_weierstrass_grid),
         ("weierstrass_assemble", probe_weierstrass_assemble),
         ("front_field", probe_front_field), ("cap_sweep", probe_caps),
         ("hopf_slope_check", probe_hopf), ("torsion_field", probe_torsion_field),
         ("brandt_probes", probe_brandt)],
        {"full": {"weierstrass_n": 40892, "weierstrass_cut_arms": 5337,
                  "weierstrass_nnz": 198818, "front_n": 98431,
                  "monotone_up_to": 6.0, "torsion_n": 32639},
         "small": {"weierstrass_n": 2230, "weierstrass_cut_arms": 689,
                   "weierstrass_nnz": 10384, "front_n": 6175,
                   "monotone_up_to": 6.0, "torsion_n": 2015}},
    ),
    Workload(
        "restart_batch",
        restart_inputs,
        [("build_grid", restart_grid), ("uniqueness_test", restart_uniqueness),
         ("ordered_pair", restart_ordered_pair)]
        + [(f"threshold_scan_L{L:g}", functools.partial(restart_threshold, L))
           for L in THRESHOLD_LS]
        + [(f"growth_m{m}", functools.partial(restart_growth, m))
           for m in GROWTH_MODES]
        + [(f"cli_{name}", functools.partial(restart_cli, name))
           for name in _cli_configs("", "", 0)],
        {"full": {"n_interior": 18335,
                  "failure_widths": {1.0: 3.2, 2.0: 2.3, 4.0: 1.6}},
         "small": {"n_interior": 495,
                   "failure_widths": {1.0: 3.2, 2.0: 2.3, 4.0: 1.6}}},
    ),
]}
