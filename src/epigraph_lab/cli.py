"""Config-driven experiment runner.

``epigraph-lab run config.json`` checks the config against one declarative
schema (``_SECTIONS``, ``_COMMON`` and the ``_EXPERIMENTS`` table) before
anything runs, executes one experiment on the typed, defaulted config, and
writes deterministic artifacts (CSV tables without timestamps, a summary, a
run record with a config hash and file manifest, optionally an SVG plot).
Exit status is 0 only when every asserted check passed; a malformed or
misapplied config (unknown key, key the chosen kind or experiment does not
use, missing key, value of the wrong JSON type) exits 2, numerical failures
exit 3.
"""

import argparse
import csv as _csv
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import closed_forms
from .comparison import threshold_scan, uniqueness_test, symmetry_test
from .discretization import build_grid, stencil_residual
from .errors import LabError, ValidationError, NumericalError
from .estimates import brandt_check, oscillation_fit
from .geometry import EPIGRAPH_KINDS, OPEN_SET_KINDS, make_epigraph, \
    strip_set, winged_strip_set, under_parabola_set, orthant_set, \
    revolution_set, section_measure
from .nonlinearity import NONLINEARITY_KINDS, make_nonlinearity, eval_f, \
    is_unbounded
from .reporting import write_csv, write_json, read_json, config_hash, \
    svg_line_plot, format_float
from .solver import SolvePolicy, SolutionField, solve_semilinear
from .moving_plane import cap_sweep, hopf_slope_check

# closed-form profile -> default window height; the windows reach past the
# fronts so half-window sweeps see the flat region
_PROFILE_YMAX = {"saturating_front": 3.0, "double_front": 6.0,
                 "tanh_front": 12.0}
_PROFILE_H = 1.0 / 32.0
CLOSED_FORM_PROFILES = tuple(_PROFILE_YMAX)

# frozen h^2 residual/error constants for the closed-form suite
_ORDER_C = {"saturating_front": 2.5, "double_front": 600.0, "tanh_front": 0.1}


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

REQUIRED = object()   # default of a key that must be given


class Kinds:
    """A JSON object whose ``tag`` key (``default`` when not given; the case
    None is the tag left out) picks the schema of its other keys."""

    def __init__(self, tag, cases, default=None):
        self.tag, self.cases, self.default = tag, cases, default


class Either:
    """A list in one form, any other JSON value in another (None: null)."""

    def __init__(self, as_list, other):
        self.as_list, self.other = as_list, other


def _is_number(v) -> bool:
    # finite JSON numbers only: booleans, NaN and Infinity are rejected
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_LEAVES = {   # leaf name -> test; the name is the type in error messages
    "number": _is_number,
    "number > 0": lambda v: _is_number(v) and v > 0,
    "number >= 0": lambda v: _is_number(v) and v >= 0,
    "integer >= 0": lambda v: type(v) is int and v >= 0,
    "integer >= 1": lambda v: type(v) is int and v >= 1,
    "integer >= 2": lambda v: type(v) is int and v >= 2,
    "boolean": lambda v: type(v) is bool,
    "string": lambda v: type(v) is str,
}


def _parse(spec, value, where: str):
    """Check ``value`` at the dotted path ``where`` against ``spec``; return
    it typed (scalar numbers as float) with defaults filled in.

    A spec is a leaf name of _LEAVES, a choice "a|b|c", a Kinds, an Either,
    a list ([item] for any length, [item, item] for exactly two; returned as
    given), or a dict mapping each allowed key to a spec or (spec, default),
    where a bare spec is optional and stays absent when not given."""
    if isinstance(spec, Either):
        spec = spec.as_list if isinstance(value, list) else spec.other
    if spec is None:                  # the null form of an Either
        if value is not None:
            raise ValidationError(f"{where} must be a list or null")
        return value
    if isinstance(spec, str):
        if "|" in spec:
            if value not in spec.split("|"):
                raise ValidationError(f"{where} must be one of {spec}")
        elif not _LEAVES[spec](value):
            article = "an" if spec[0] in "aeiou" else "a"
            raise ValidationError(f"{where} must be {article} {spec}")
        return float(value) if spec.startswith("number") else value
    if isinstance(spec, list):
        if not isinstance(value, list) or \
                len(spec) > 1 and len(value) != len(spec):
            raise ValidationError(f"{where} must be a list" + (
                f" of {len(spec)} entries" if len(spec) > 1 else ""))
        for i, v in enumerate(value):
            _parse(spec[0], v, f"{where}[{i}]")
        return value
    if not isinstance(value, dict):
        raise ValidationError(f"{where or 'config'} must be a JSON object")
    if isinstance(spec, Kinds):
        tag = value.get(spec.tag, spec.default)
        if tag not in tuple(spec.cases) or tag is None and spec.tag in value:
            raise ValidationError(f"{_child(where, spec.tag)} must be one of "
                                  + "|".join(filter(None, spec.cases)))
        rest = {k: v for k, v in value.items() if k != spec.tag}
        out = _parse(spec.cases[tag], rest, where)
        return out if tag is None else {spec.tag: tag, **out}
    unknown = sorted(set(value) - set(spec))
    if unknown:
        raise ValidationError(
            f"unknown key {unknown[0]!r} in {where or 'config'}")
    out = {}
    for key, entry in spec.items():
        node, default = entry if isinstance(entry, tuple) else (entry, None)
        if key in value:
            out[key] = _parse(node, value[key], _child(where, key))
        elif default is REQUIRED:
            raise ValidationError(f"{where or 'config'} needs {key!r}")
        elif default is not None:
            out[key] = _parse(node, default, _child(where, key))
    return out


def _child(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


_NUMBERS = ["number"]
_DIM = {"dimension": ("integer >= 1", 2)}
_EPIGRAPH_KEYS = {**_DIM, "normalize": ("boolean", True)}
_EPIGRAPH = Kinds("kind", {"epigraph": Kinds("profile", {
    **{name: {**_EPIGRAPH_KEYS, "params": ({}, {})}
       for name in EPIGRAPH_KINDS},
    "weierstrass": {**_EPIGRAPH_KEYS, "params": (
        {"b": "integer >= 2", "alpha": "number", "tol": "number > 0"}, {})},
    "custom_sampled": {**_EPIGRAPH_KEYS, "csv": ("string", REQUIRED)},
}, default="half_space")})
_SECTIONS = {
    "domain": Kinds("kind", {
        **_EPIGRAPH.cases, "winged_strip": {}, "under_parabola": {},
        "orthant": _DIM,
        "strip": {"a": ("number", 0.0), "b": ("number", 1.0), **_DIM},
        "revolution": Kinds("profile", {
            "constant": {**_DIM, "params": ({"value": "number"}, {})},
            "cosine": {**_DIM, "params": (dict.fromkeys(
                ("base", "amp", "freq"), "number"), {})},
            "samples": {**_DIM, "csv": ("string", REQUIRED)},
        }, default="constant")}),
    "nonlinearity": Kinds("kind", {
        "constant": {"value": "number"}, "linear": {"slope": "number"},
        "power": {"exponent": "number"}, "allen_cahn": {},
        "sqrt_saturation": {}, "double_front_source": {},
        "custom_table": {"csv": ("string", REQUIRED)}}),
    "grid": {"box": ([["number", "number"]], REQUIRED),
             "h": ("number > 0", REQUIRED),
             "face_policy": Either([["dirichlet|neumann"] * 2], None)},
}
# every section, each required
_ALL_SECTIONS = {name: (spec, REQUIRED) for name, spec in _SECTIONS.items()}
_COMMON = {
    "output_dir": ("string", REQUIRED), "seed": ("integer >= 0", 0),
    "svg": ("boolean", False),
    "tolerances": ({"solve": ("number > 0", 1e-10),
                    "check": ("number > 0", 1e-8),
                    "eig": ("number > 0", 1e-10)}, {}),
}
_SOLVE_KEYS = {
    "trace": ("number", 0.0), "method": ("auto|newton|picard", "auto"),
    "init": (Either(_NUMBERS, "torsion_lift|front_lift|zero"),
             "torsion_lift"),
    "max_iter": ("integer >= 1", 80),
}
_SWEEP_KEYS = {
    "lambda_max": "number", "tol": "number > 0",  # tol: tolerances.check
    "hopf_lambdas": (_NUMBERS, []), "buffer": ("integer >= 0", 3),
    "expect": ("monotone|sign_change", "monotone"),
}


# ---------------------------------------------------------------------------
# building the configured objects
# ---------------------------------------------------------------------------

def _load_two_columns(path: str, where: str):
    """Read a two-column CSV (header row skipped) into float arrays."""
    try:
        with open(path, newline="") as fh:
            rows = list(_csv.reader(fh))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{where}: cannot read {path}: {exc}")
    if len(rows) < 3:
        raise ValidationError(f"{where}: {path} needs a header and >= 2 rows")
    try:
        data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: {path} must hold two numeric columns")
    return data[:, 0], data[:, 1]


def _build_domain(d: dict):
    kind, params = d["kind"], d.get("params", {})
    rest = {k: v for k, v in d.items()
            if k not in ("kind", "profile", "params", "csv")}
    if "csv" in d:
        xs, ys = _load_two_columns(d["csv"], "domain.csv")
        params = {"axes": (xs,), "values": ys} if kind == "epigraph" \
            else {"xs": xs, "phis": ys}
    if kind == "epigraph":
        return make_epigraph(d["profile"], **rest, **params)
    if kind == "revolution":
        return revolution_set(profile=d["profile"], **rest, **params)
    builders = {"strip": strip_set, "winged_strip": winged_strip_set,
                "under_parabola": under_parabola_set, "orthant": orthant_set}
    return builders[kind](**rest)


def _build_nonlinearity(d: dict):
    params = {k: v for k, v in d.items() if k != "kind"}
    if d["kind"] == "custom_table":
        ts, fs = _load_two_columns(d["csv"], "nonlinearity.csv")
        params = {"ts": ts, "fs": fs}
    return make_nonlinearity(d["kind"], **params)


def _problem(cfg: dict):
    """The configured domain, nonlinearity and grid."""
    domain = _build_domain(cfg["domain"])
    f, g = _build_nonlinearity(cfg["nonlinearity"]), cfg["grid"]
    return domain, f, build_grid(domain, g["box"], g["h"],
                                 face_policy=g.get("face_policy"))


def _solve(cfg: dict):
    """Build the configured problem and solve it under the params policy."""
    domain, f, grid = _problem(cfg)
    p = cfg["params"]
    policy = SolvePolicy(method=p["method"], init=p["init"],
                         tol=cfg["tolerances"]["solve"],
                         max_iter=p["max_iter"])
    return domain, f, solve_semilinear(grid, f, trace=p["trace"],
                                       policy=policy)


def _finite_or_unbounded(x):
    return "UNBOUNDED" if is_unbounded(x) else float(x)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class _Result:
    """What an experiment hands back for the artifacts of one run."""

    summary: dict
    checks: dict
    csvs: dict = field(default_factory=dict)   # name -> (header, rows)
    svg: dict = None                           # svg_line_plot keyword args


def _solution_rows(sol: SolutionField):
    header = [f"x{i + 1}" for i in range(sol.grid.points.shape[1])] + ["u"]
    rows = [list(p) + [v] for p, v in zip(sol.grid.points, sol.values)]
    return header, rows


def _midline_series(sol: SolutionField):
    """Profile of u along the last axis at the lateral lattice midline."""
    pts = sol.grid.points
    mask = np.ones(len(pts), dtype=bool)
    for ax in range(pts.shape[1] - 1):
        axis = sol.grid.axes[ax]
        mid = axis[len(axis) // 2]
        mask &= pts[:, ax] == mid
    if not mask.any():
        return None
    order = np.argsort(pts[mask, -1])
    return pts[mask, -1][order], sol.values[mask][order]


def _run_solve(cfg):
    _, _, sol = _solve(cfg)
    grid = sol.grid
    header, rows = _solution_rows(sol)
    summary = {
        "observations": {
            "max_norm": sol.max_norm,
            "residual_norm": sol.residual_norm,
            "iterations": sol.iterations,
            "method": sol.method,
            "n_interior": int(grid.n_interior),
            "h": float(grid.h),
        },
        "solver_meta": {k: v for k, v in sol.meta.items()
                        if isinstance(v, (str, int, float, bool))},
    }
    checks = {
        "converged": True,
        "residual_small": sol.residual_norm <=
        max(cfg["tolerances"]["solve"] * 1e3, 1e-7),
    }
    svg = None
    series = _midline_series(sol)
    if series is not None:
        svg = {"series": [("u midline", series[0], series[1])],
               "title": "solution profile", "xlabel": "last axis",
               "ylabel": "u"}
    return _Result(summary, checks, {"solution.csv": (header, rows)}, svg)


def _profile_field(profile: str, ymax: float, h: float):
    """Closed-form front on a narrow vertical window, constant laterally."""
    fn = {"saturating_front": closed_forms.saturating_front,
          "double_front": closed_forms.double_front_profile,
          "tanh_front": closed_forms.tanh_front}[profile]
    spec = make_epigraph("half_space", dimension=2)
    grid = build_grid(spec, [[0.0, 8 * h], [0.0, ymax]], h)
    values = fn(grid.points[:, 1])

    def trace(pts):
        return fn(np.atleast_2d(pts)[:, 1])

    sol = SolutionField(grid=grid, values=values, trace=trace,
                        residual_norm=0.0, method="closed_form",
                        meta={"profile": profile})
    return sol, spec


def _run_moving_plane(cfg):
    p = cfg["params"]
    if "profile" in p:
        sol, spec = _profile_field(p["profile"], p["ymax"], p["h"])
    else:
        spec, _, sol = _solve(cfg)
    lambda_grid = None
    if "lambda_max" in p:
        lo = sol.grid.box[-1][0]
        h = sol.grid.h
        if not (p["lambda_max"] + h / 2 - lo - 2 * h) / h < np.iinfo(np.intp).max:
            raise ValidationError("params.lambda_max asks for too many planes"
                                  " at this grid step")
        lambda_grid = np.arange(lo + 2 * h, p["lambda_max"] + h / 2, h)
    tol = p.get("tol", cfg["tolerances"]["check"])
    rep = cap_sweep(sol, spec, lambda_grid=lambda_grid, tol=tol,
                    buffer=p["buffer"])
    hopf = []
    for lam in p["hopf_lambdas"]:
        hrep = hopf_slope_check(sol, float(lam), buffer=p["buffer"])
        hopf.append({"lambda": hrep.lam, "defect": hrep.defect,
                     "dn_min": hrep.dn_min, "dn_max": hrep.dn_max})
    bounds = rep.meta.get("interp_bounds", np.zeros_like(rep.lambda_grid))
    rows = [[lam, diff, b] for lam, diff, b in
            zip(rep.lambda_grid, rep.cap_min_diff, bounds)]
    summary = {
        "observations": {
            "monotone_up_to": rep.monotone_up_to,
            "dn_u_min": rep.dn_u_min,
            "n_sign_change_cells": len(rep.sign_change_cells),
            "lambda_count": int(len(rep.lambda_grid)),
            "worst_cap_min": float(np.nanmin(rep.cap_min_diff))
            if len(rep.cap_min_diff) else math.nan,
        },
        "hopf": hopf,
    }
    if p["expect"] == "monotone":
        finite = rep.cap_min_diff[~np.isnan(rep.cap_min_diff)]
        checks = {
            "cap_ordering": bool((finite >= -1e-10).all()),
            "derivative_nonnegative": rep.dn_u_min >= -tol,
            "no_sign_changes": len(rep.sign_change_cells) == 0,
        }
    else:
        checks = {"sign_changes_found": len(rep.sign_change_cells) > 0}
    for entry in hopf:
        lam = entry["lambda"]
        bound = 5.0 * sol.grid.h ** 2
        checks[f"hopf_defect_at_{format_float(lam)}"] = \
            entry["defect"] <= bound
    svg = {"series": [("cap min diff", rep.lambda_grid, rep.cap_min_diff)],
           "title": "cap sweep", "xlabel": "plane height",
           "ylabel": "min(u_reflected - u)"}
    return _Result(summary, checks, {"cap_sweep.csv": (
        ["lambda", "cap_min_diff", "interp_bound"], rows)}, svg)


def _run_threshold_scan(cfg):
    p = cfg["params"]
    L, widths = p["L"], p["widths"]
    if isinstance(widths, dict):
        widths = list(np.linspace(widths["start"], widths["stop"],
                                  widths["count"]))
    rep = threshold_scan(L, widths, cells=p["cells"],
                         eig_tol=cfg["tolerances"]["eig"])
    eps = rep.epsilon_sufficient
    target = math.pi / math.sqrt(L)
    step = max(b - a for a, b in zip(widths, widths[1:]))
    summary = {
        "observations": {
            "L": L,
            "epsilon_sufficient": _finite_or_unbounded(eps),
            "failure_width": rep.failure_width,
            "predicted_failure_width": target,
            "scan_step": step,
            "cells": p["cells"],
        },
    }
    checks = {}
    if "sufficiency_gap_ok" in rep.meta:
        checks["sufficiency_gap"] = rep.meta["sufficiency_gap_ok"]
    if rep.failure_width is not None:
        checks["crossing_near_prediction"] = \
            abs(rep.failure_width - target) <= max(0.02 * target, step)
    rows = [[S, lam] for S, lam in rep.table]
    markers = []
    if not is_unbounded(eps):
        markers.append(("sufficient width", float(eps)))
    if rep.failure_width is not None:
        markers.append(("failure width", rep.failure_width))
    svg = {"series": [("lambda1", np.array([r[0] for r in rows]),
                       np.array([r[1] for r in rows]))],
           "title": "principal eigenvalue vs width", "xlabel": "width",
           "ylabel": "lambda1", "markers": markers}
    return _Result(summary, checks, {"scan.csv": (["S", "lambda1"], rows)},
                   svg)


def _run_uniqueness(cfg):
    _, f, grid = _problem(cfg)
    p = cfg["params"]
    rep = uniqueness_test(grid, f, n_restarts=p["n_restarts"],
                          tol=cfg["tolerances"]["check"], seed=cfg["seed"],
                          amplitude=p["amplitude"])
    restarts = rep.meta["restarts"]
    rows = [[r["restart"],
             math.nan if r["norm"] is None else r["norm"],
             r.get("iterations", -1), r["outcome"]] for r in restarts]
    summary = {
        "observations": {
            "lambda1": rep.lambda1,
            "lipschitz_bound": _finite_or_unbounded(rep.L),
            "epsilon_sufficient": _finite_or_unbounded(
                rep.epsilon_sufficient),
            "n_restarts": len(restarts),
            "max_restart_norm": max((r["norm"] for r in restarts
                                     if r["norm"] is not None),
                                    default=math.nan),
        },
        "status": rep.meta.get("status", "hypothesis satisfied"),
    }
    checks = {}
    if "status" not in rep.meta:
        checks["all_restarts_zero"] = rep.comparison_holds
    return _Result(summary, checks, {"restarts.csv": (
        ["restart", "norm", "iterations", "outcome"], rows)})


def _run_symmetry(cfg):
    p, tols = cfg["params"], cfg["tolerances"]
    if p["case"] == "torsion_strip":
        R = p["half_width"]
        h = R / p["cells"]
        grid = build_grid(strip_set(-R, R, dimension=2),
                          [[0.0, p["length"]], [-R, R]], h)
        f = make_nonlinearity("constant", value=1.0)
    else:
        period = 2.0 * math.pi / p["freq"]
        h = period / p["cells"]
        k = int(math.ceil((p["base"] + p["amp"]) / h - 1e-9)) + 1
        domain = revolution_set(profile="cosine", dimension=2, base=p["base"],
                                amp=p["amp"], freq=p["freq"])
        grid = build_grid(domain, [[-period, period], [-k * h, k * h]], h)
        f = _build_nonlinearity(cfg["nonlinearity"]) \
            if "nonlinearity" in cfg else make_nonlinearity("constant")
    sol = solve_semilinear(grid, f, policy=SolvePolicy(tol=tols["solve"]))
    mirror = symmetry_test(grid, f, lambda x: x * np.array([1.0, -1.0]),
                           tol=tols["check"], solution=sol)
    obs = {"reflection_defect": mirror.meta["defect"]}
    checks = {"reflection_symmetric": mirror.comparison_holds}
    if p["case"] == "torsion_strip":
        exact = (R * R - grid.points[:, 1] ** 2) / 2.0
        obs["torsion_error"] = float(np.abs(sol.values - exact).max())
        obs["matched_nodes"] = mirror.meta["n_matched"]
        checks["torsion_exact"] = obs["torsion_error"] <= 1e-12
    else:
        shift = symmetry_test(grid, f, lambda x: x + np.array([period, 0.0]),
                              tol=1e-6, solution=sol)
        obs["periodicity_defect"] = shift.meta["defect"]
        obs["periodicity_overlap_nodes"] = shift.meta["n_matched"]
        checks["periodic"] = shift.meta["defect"] <= 1e-6
    header, rows = _solution_rows(sol)
    return _Result({"observations": obs}, checks,
                   {"solution.csv": (header, rows)})


def _run_section(cfg):
    p = cfg["params"]
    domain = _build_domain(cfg["domain"])
    nu, probes = p["direction"], p["probes"]
    if isinstance(probes, dict):
        axes = [np.linspace(probes["lo"], probes["hi"], probes["count"])] \
            * (len(nu) - 1)
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        probe_grid = np.stack([m.ravel() for m in mesh], axis=1) \
            if axes else np.zeros((1, 0))
    else:
        probe_grid = np.asarray(probes, dtype=float)
    rep = section_measure(domain, np.asarray(nu, dtype=float), probe_grid,
                          p["line_resolution"], window=p["window"])
    rows = [list(q) + [m] for q, m in rep.per_line]
    header = [f"p{i + 1}" for i in range(probe_grid.shape[1])] + ["measure"]
    summary = {"observations": {
        "section_value": rep.value,
        "unbounded_suspected": rep.unbounded_suspected,
        "n_lines": len(rep.per_line),
        "window": rep.window,
    }}
    checks = {}
    if "expect_unbounded" in p:
        checks["unbounded_flag_matches"] = \
            rep.unbounded_suspected == p["expect_unbounded"]
    svg = None
    if probe_grid.shape[1] == 1:
        xs = np.array([q[0] for q, _ in rep.per_line])
        ms = np.array([m for _, m in rep.per_line])
        svg = {"series": [("per-line measure", xs, ms)],
               "title": "directional section", "xlabel": "probe",
               "ylabel": "line measure"}
    return _Result(summary, checks, {"per_line.csv": (header, rows)}, svg)


def _run_estimates(cfg):
    _, f, sol = _solve(cfg)
    p, grid = cfg["params"], sol.grid
    f_values = eval_f(f, sol.values)
    csvs = {}
    summary = {"observations": {"max_norm": sol.max_norm,
                                "h": float(grid.h)}}
    checks = {}
    if "brandt" in p:
        n_probes, delta = p["brandt"]["n_probes"], p["brandt"]["delta"]
        gen = np.random.default_rng(cfg["seed"])
        reports, attempts = [], 0
        while len(reports) < n_probes and attempts < 200 * n_probes:
            attempts += 1
            idx = int(gen.integers(grid.n_interior))
            try:
                reports.append(brandt_check(sol, f_values, grid.points[idx],
                                            delta))
            except ValidationError:
                continue
        if len(reports) < n_probes:
            raise ValidationError("could not place the requested probe balls"
                                  " inside the domain")
        rows = [list(r.center) + [r.delta, max(r.lhs), r.rhs, r.slack,
                                  int(r.holds)] for r in reports]
        header = [f"x{i + 1}" for i in range(grid.points.shape[1])] + \
            ["delta", "lhs_max", "rhs", "slack", "holds"]
        csvs["brandt.csv"] = (header, rows)
        summary["observations"]["brandt_probes"] = len(reports)
        summary["observations"]["brandt_min_slack"] = \
            min(r.slack for r in reports)
        checks["brandt_all_hold"] = all(r.holds for r in reports)
    if "oscillation" in p:
        fits, rows = [], []
        for center in p["oscillation"]["centers"]:
            fit = oscillation_fit(sol, np.asarray(center, dtype=float),
                                  [float(r) for r in
                                   p["oscillation"]["radii"]])
            fits.append(fit)
            for r, osc in zip(fit.radii, fit.osc_values):
                rows.append(list(fit.center) + [r, osc])
        header = [f"x{i + 1}" for i in range(grid.points.shape[1])] + \
            ["radius", "oscillation"]
        csvs["oscillation.csv"] = (header, rows)
        summary["oscillation_fits"] = [
            {"center": list(f_.center), "alpha": f_.alpha_fit,
             "C": f_.C_fit, "radii_used": len(f_.radii)} for f_ in fits]
        checks["oscillation_alpha_positive"] = \
            all(f_.alpha_fit > 0 for f_ in fits)
    return _Result(summary, checks, csvs)


def _order_rows(example: str, hs, observe):
    """Observed error per h against _ORDER_C h^2, and the least order."""
    errs = [(h, observe(h)) for h in hs]
    orders = [math.log(a / b, 2) for (_, a), (_, b) in zip(errs, errs[1:])]
    c = _ORDER_C[example]
    ok = all(e <= c * h * h for h, e in errs) and min(orders) >= 1.8
    return [[example, h, e, c * h * h] for h, e in errs], min(orders), ok


def _front_residual(fn, fkind: str, ymax: float):
    """Stencil residual of a closed-form front on a 1-D grid of step h."""
    def observe(h):
        grid = build_grid(strip_set(0.0, ymax, dimension=1),
                          [[0.0, ymax]], h)
        u = fn(grid.points[:, 0])

        def trace(p):
            return fn(np.atleast_2d(p)[:, 0])

        r = stencil_residual(grid, u, trace) - \
            eval_f(make_nonlinearity(fkind), u)
        return float(np.abs(r).max())
    return observe


def _tanh_solve_error(h: float) -> float:
    """Allen-Cahn solve vs the hyperbolic-tangent front."""
    grid = build_grid(make_epigraph("half_space", dimension=2),
                      [[0.0, 0.25], [0.0, 12.0]], h)

    def trace(p):
        return closed_forms.tanh_front(np.atleast_2d(p)[:, 1])

    sol = solve_semilinear(grid, make_nonlinearity("allen_cahn"), trace=trace,
                           policy=SolvePolicy(init="front_lift", tol=1e-11))
    return float(np.abs(sol.values -
                        closed_forms.tanh_front(grid.points[:, 1])).max())


def _run_verify_examples(cfg):
    rows, checks, orders = [], {}, {}
    three_h = (1 / 32, 1 / 64, 1 / 128)
    for example, hs, observe, check in (
            ("saturating_front", three_h, _front_residual(
                closed_forms.saturating_front, "sqrt_saturation", 2.0),
             "residual_order"),
            ("double_front", three_h, _front_residual(
                closed_forms.double_front_profile, "double_front_source",
                6.0), "residual_order"),
            ("tanh_front", (1 / 32, 1 / 64), _tanh_solve_error,
             "solve_order")):
        erows, orders[example], checks[f"{example}_{check}"] = \
            _order_rows(example, hs, observe)
        rows.extend(erows)

    tol = cfg["tolerances"]["check"]
    rep = cap_sweep(*_profile_field("saturating_front", _PROFILE_YMAX[
        "saturating_front"], _PROFILE_H), tol=tol)
    finite = rep.cap_min_diff[~np.isnan(rep.cap_min_diff)]
    checks["saturating_front_cap_ordering"] = bool((finite >= -1e-10).all())
    checks["saturating_front_flat_detected"] = \
        bool((finite == 0.0).any()) and rep.dn_u_min == 0.0
    checks["saturating_front_no_sign_changes"] = \
        len(rep.sign_change_cells) == 0

    rep2 = cap_sweep(*_profile_field("double_front", _PROFILE_YMAX[
        "double_front"], _PROFILE_H), tol=tol)
    checks["double_front_sign_changes_found"] = \
        len(rep2.sign_change_cells) > 0

    summary = {"observations": {"orders": orders,
                                "double_front_sign_cells":
                                len(rep2.sign_change_cells)}}
    return _Result(summary, checks, {"examples.csv": (
        ["example", "h", "observed", "bound"], rows)})


def _length_fits(c) -> bool:
    p = c["params"]
    if p["case"] != "torsion_strip":
        return True
    cells = p["length"] / (p["half_width"] / p["cells"])
    return abs(cells - round(cells)) <= 1e-9


def _probes_fit(c) -> bool:
    p = c["params"]
    return isinstance(p["probes"], dict) or all(
        len(q) == len(p["direction"]) - 1 for q in p["probes"])


# experiment -> (runner, its top-level keys besides _COMMON, rules on the
# parsed config as (predicate, message) pairs)
_EXPERIMENTS = {
    "solve": (_run_solve, {**_ALL_SECTIONS, "params": (_SOLVE_KEYS, {})}, ()),
    "moving_plane": (_run_moving_plane, {
        **_SECTIONS, "domain": _EPIGRAPH, "params": (Kinds("profile", {
            None: {**_SWEEP_KEYS, **_SOLVE_KEYS},
            **{name: {**_SWEEP_KEYS, "ymax": ("number > 0", ymax),
                      "h": ("number > 0", _PROFILE_H)}
               for name, ymax in _PROFILE_YMAX.items()}}), {})},
        ((lambda c: all(("profile" in c["params"]) != (s in c)
                        for s in _SECTIONS),
          "moving_plane needs domain, nonlinearity and grid, unless"
          " params.profile is given; then it uses none of them"),)),
    "threshold_scan": (_run_threshold_scan, {"params": ({
        "L": ("number > 0", REQUIRED), "cells": ("integer >= 1", 128),
        "widths": (Either(_NUMBERS, {
            "start": ("number", 0.5), "stop": ("number", 4.0),
            "count": ("integer >= 2", 36)}), {})}, {})},
        ((lambda c: isinstance(c["params"]["widths"], dict)
          or len(c["params"]["widths"]) >= 2,
          "params.widths needs at least 2 entries"),)),
    "uniqueness": (_run_uniqueness, {**_ALL_SECTIONS, "params": (
        {"n_restarts": ("integer >= 1", 20), "amplitude": ("number", 1.0)},
        {})}, ()),
    "symmetry": (_run_symmetry, {
        "nonlinearity": _SECTIONS["nonlinearity"], "params": (Kinds("case", {
            "torsion_strip": {"half_width": ("number > 0", 1.0),
                              "length": ("number > 0", 2.0),
                              "cells": ("integer >= 1", 16)},
            "revolution": {"base": ("number", 1.0), "amp": ("number", 0.2),
                           "freq": ("number > 0", 1.0),
                           "cells": ("integer >= 1", 64)}}), {})},
        ((lambda c: c["params"]["case"] == "revolution"
          or "nonlinearity" not in c,
          "symmetry case torsion_strip uses no nonlinearity"),
         (lambda c: c["params"]["case"] == "torsion_strip"
          or 0 <= c["params"]["amp"] < c["params"]["base"],
          "need 0 <= amp < base"),
         (_length_fits, "params.length must be a multiple of"
          " half_width/cells"))),
    "section": (_run_section, {"domain": _ALL_SECTIONS["domain"], "params": ({
        "direction": (_NUMBERS, REQUIRED), "expect_unbounded": "boolean",
        "probes": (Either([_NUMBERS], {
            "lo": ("number", -10.0), "hi": ("number", 10.0),
            "count": ("integer >= 1", 201)}), {}),
        "line_resolution": ("number > 0", 1e-3),
        "window": ("number >= 0", 100.0)}, {})},
        ((_probes_fit, "params.probes points need len(direction) - 1"
          " entries"),)),
    "estimates": (_run_estimates, {**_ALL_SECTIONS, "params": ({
        **_SOLVE_KEYS,
        "brandt": {"n_probes": ("integer >= 1", 100),
                   "delta": ("number > 0", REQUIRED)},
        "oscillation": {"centers": ([_NUMBERS], REQUIRED),
                        "radii": (_NUMBERS, REQUIRED)}}, {})},
        ((lambda c: "brandt" in c["params"] or "oscillation" in c["params"],
          "estimates needs params.brandt and/or params.oscillation"),)),
    "verify_examples": (_run_verify_examples, {"params": ({}, {})}, ()),
}


def _validate(config) -> dict:
    """Check a raw config against the schema; return it typed, defaulted."""
    cfg = _parse(Kinds("experiment", {
        name: {**_COMMON, **keys} for name, (_, keys, _) in
        _EXPERIMENTS.items()}), config, "")
    for ok, message in _EXPERIMENTS[cfg["experiment"]][2]:
        if not ok(cfg):
            raise ValidationError(message)
    return cfg


def _cmd_run(args) -> int:
    config = read_json(args.config)
    cfg = _validate(config)
    experiment, outdir = cfg["experiment"], cfg["output_dir"]

    started = datetime.now(timezone.utc).isoformat()
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output_dir {outdir!r}: {exc}")
    chash = config_hash(config)
    outcome, error_text = "success", None
    result = _Result({}, {})
    try:
        result = _EXPERIMENTS[experiment][0](cfg)
    except ValidationError:
        raise
    except LabError as exc:
        outcome = "error"
        error_text = f"{type(exc).__name__}: {exc}"
    if outcome == "success" and not all(result.checks.values()):
        outcome = "check_failed"

    files = []
    for name, (header, rows) in sorted(result.csvs.items()):
        write_csv(os.path.join(outdir, name), header, rows)
        files.append(name)
    if cfg["svg"] and result.svg is not None:
        svg_line_plot(os.path.join(outdir, "plot.svg"), **result.svg)
        files.append("plot.svg")
    summary_doc = {
        "experiment": experiment,
        "config_hash": chash,
        "checks": result.checks,
        "outcome": outcome,
    }
    if error_text is not None:
        summary_doc["error"] = error_text
    summary_doc.update(result.summary)
    write_json(os.path.join(outdir, "summary.json"), summary_doc)
    files.append("summary.json")

    manifest = {}
    for name in files:
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        manifest[name] = {"bytes": len(data),
                          "sha256": hashlib.sha256(data).hexdigest()}
    record = {
        "config_hash": chash,
        "experiment": experiment,
        "seed": cfg["seed"],
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outcome": outcome,
        "files": manifest,
    }
    write_json(os.path.join(outdir, "run_record.json"), record)

    for name, ok in result.checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if error_text is not None:
        print(f"error: {error_text}", file=sys.stderr)
    print(f"outcome: {outcome} ({os.path.join(outdir, 'summary.json')})")
    if outcome != "success":
        raise NumericalError(f"run outcome: {outcome}")
    return 0


def _cmd_report(args) -> int:
    record = read_json(os.path.join(args.run_dir, "run_record.json"))
    summary = read_json(os.path.join(args.run_dir, "summary.json"))
    print(f"experiment: {record.get('experiment')}")
    print(f"outcome: {record.get('outcome')}")
    print(f"config hash: {record.get('config_hash')}")
    print(f"version: {record.get('version')}")
    checks = summary.get("checks", {})
    if checks:
        print("checks:")
        for name in sorted(checks):
            print(f"  [{'PASS' if checks[name] else 'FAIL'}] {name}")
    obs = summary.get("observations", {})
    if obs:
        print("observations:")
        for name in sorted(obs):
            print(f"  {name} = {obs[name]}")
    if "error" in summary:
        print(f"error: {summary['error']}")
    print("files:")
    for name in sorted(record.get("files", {})):
        info = record["files"][name]
        print(f"  {name} ({info['bytes']} bytes)")
    return 0


def _cmd_list_catalog(args) -> int:
    for title, kinds in (("epigraph profiles", EPIGRAPH_KINDS),
                         ("open sets", OPEN_SET_KINDS),
                         ("nonlinearities", NONLINEARITY_KINDS),
                         ("closed-form profiles", CLOSED_FORM_PROFILES),
                         ("experiments", sorted(_EXPERIMENTS))):
        print(f"{title}:")
        for kind in kinds:
            print(f"  {kind}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epigraph-lab",
        description="Elliptic boundary-value experiments on epigraph and"
                    " strip domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.set_defaults(func=_cmd_run)
    p_rep = sub.add_parser("report", help="render a finished run directory")
    p_rep.add_argument("run_dir", help="directory holding run_record.json")
    p_rep.set_defaults(func=_cmd_report)
    p_cat = sub.add_parser("list-catalog", help="list built-in catalog tags")
    p_cat.set_defaults(func=_cmd_list_catalog)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
