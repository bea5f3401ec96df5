"""End-to-end runs of the config-driven command line."""

import hashlib
import json
import os

import pytest

from epigraph_lab.cli import main
from epigraph_lab.reporting import config_hash, read_json, write_csv


def run_cli(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return main(["run", str(path)]), path


def torsion_config(outdir):
    return {
        "experiment": "solve",
        "output_dir": str(outdir),
        "domain": {"kind": "strip", "a": 0.0, "b": 1.0, "dimension": 1},
        "nonlinearity": {"kind": "constant", "value": 1.0},
        "grid": {"box": [[0.0, 1.0]], "h": 0.125},
    }


class TestRunSolve:
    def test_success_and_artifacts(self, tmp_path, capsys):
        cfg = torsion_config(tmp_path / "out")
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] converged" in out
        assert "outcome: success" in out
        outdir = tmp_path / "out"
        for name in ("solution.csv", "summary.json", "run_record.json"):
            assert (outdir / name).is_file()
        summary = read_json(outdir / "summary.json")
        assert summary["outcome"] == "success"
        assert all(summary["checks"].values())
        assert summary["observations"]["n_interior"] == 7
        assert summary["observations"]["max_norm"] == pytest.approx(0.125,
                                                                    abs=1e-9)
        assert summary["config_hash"] == config_hash(cfg)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = torsion_config(tmp_path / "out")
        run_cli(tmp_path, cfg)
        outdir = tmp_path / "out"
        before = {n: (outdir / n).read_bytes()
                  for n in ("solution.csv", "summary.json")}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        for n, data in before.items():
            assert (outdir / n).read_bytes() == data

    def test_manifest_matches_files(self, tmp_path):
        cfg = torsion_config(tmp_path / "out")
        cfg["svg"] = True
        run_cli(tmp_path, cfg)
        outdir = tmp_path / "out"
        record = read_json(outdir / "run_record.json")
        assert set(record["files"]) == {"solution.csv", "summary.json",
                                        "plot.svg"}
        for name, info in record["files"].items():
            data = (outdir / name).read_bytes()
            assert info["bytes"] == len(data)
            assert info["sha256"] == hashlib.sha256(data).hexdigest()
        assert record["outcome"] == "success"
        assert record["config_hash"] == config_hash(cfg)

    def test_svg_only_on_request(self, tmp_path):
        cfg = torsion_config(tmp_path / "out")
        run_cli(tmp_path, cfg)
        assert not (tmp_path / "out" / "plot.svg").exists()


class TestExitCodes:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = torsion_config(tmp_path / "out")
        cfg["bogus"] = 1
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_unknown_experiment(self, tmp_path):
        code, _ = run_cli(tmp_path, {"experiment": "nope",
                                     "output_dir": str(tmp_path / "o")})
        assert code == 2

    def test_unknown_param_key(self, tmp_path):
        cfg = torsion_config(tmp_path / "out")
        cfg["params"] = {"bogus": True}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2

    def test_failing_check_exits_3_but_writes_summary(self, tmp_path, capsys):
        cfg = {
            "experiment": "moving_plane",
            "output_dir": str(tmp_path / "out"),
            "params": {"profile": "tanh_front", "expect": "sign_change",
                       "ymax": 4.0, "h": 0.0625},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 3
        out = capsys.readouterr().out
        assert "[FAIL] sign_changes_found" in out
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["outcome"] == "check_failed"


class TestExperiments:
    def test_moving_plane_profile_mode(self, tmp_path):
        cfg = {
            "experiment": "moving_plane",
            "output_dir": str(tmp_path / "out"),
            "params": {"profile": "tanh_front",
                       "hopf_lambdas": [0.5, 1.0]},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["checks"]["cap_ordering"]
        assert summary["checks"]["no_sign_changes"]
        assert summary["checks"]["hopf_defect_at_0.5"]
        assert summary["checks"]["hopf_defect_at_1"]
        assert summary["observations"]["dn_u_min"] > 0.0
        assert (tmp_path / "out" / "cap_sweep.csv").is_file()

    def test_threshold_scan(self, tmp_path):
        cfg = {
            "experiment": "threshold_scan",
            "output_dir": str(tmp_path / "out"),
            "svg": True,
            "params": {"L": 1.0,
                       "widths": {"start": 2.0, "stop": 3.6, "count": 17},
                       "cells": 64},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["checks"]["sufficiency_gap"]
        assert summary["checks"]["crossing_near_prediction"]
        assert summary["observations"]["failure_width"] == pytest.approx(3.2)
        assert (tmp_path / "out" / "plot.svg").is_file()

    def test_custom_table_nonlinearity_from_csv(self, tmp_path):
        table = tmp_path / "table.csv"
        write_csv(table, ["t", "f"], [[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
        cfg = torsion_config(tmp_path / "out")
        cfg["nonlinearity"] = {"kind": "custom_table", "csv": str(table)}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["observations"]["max_norm"] == pytest.approx(0.125,
                                                                    abs=1e-9)

    def test_custom_sampled_domain_from_csv(self, tmp_path):
        prof = tmp_path / "profile.csv"
        write_csv(prof, ["x", "g"],
                  [[x, 0.0] for x in (-10.0, 0.0, 10.0)])
        cfg = {
            "experiment": "solve",
            "output_dir": str(tmp_path / "out"),
            "domain": {"kind": "epigraph", "profile": "custom_sampled",
                       "csv": str(prof)},
            "nonlinearity": {"kind": "constant", "value": 1.0},
            "grid": {"box": [[0.0, 0.5], [0.0, 1.0]], "h": 0.125},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0

    def test_verify_examples_suite_passes(self, tmp_path):
        cfg = {"experiment": "verify_examples",
               "output_dir": str(tmp_path / "out")}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        assert all(summary["checks"].values())
        assert (tmp_path / "out" / "examples.csv").is_file()


class TestReportAndCatalog:
    def test_report_renders_finished_run(self, tmp_path, capsys):
        cfg = torsion_config(tmp_path / "out")
        run_cli(tmp_path, cfg)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "outcome: success" in out
        assert "[PASS] converged" in out
        assert "solution.csv" in out

    def test_solver_failure_is_recorded_and_reported(self, tmp_path, capsys):
        # one Newton step from zero cannot reach the front: exit 3, and the
        # summary and the report carry the error
        cfg = torsion_config(tmp_path / "out")
        cfg["domain"]["b"] = 4.0
        cfg["grid"]["box"] = [[0.0, 4.0]]
        cfg["nonlinearity"] = {"kind": "allen_cahn"}
        cfg["params"] = {"init": "zero", "trace": 1.0, "max_iter": 1}
        assert run_cli(tmp_path, cfg)[0] == 3
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["outcome"] == "error"
        assert summary["error"].startswith("ConvergenceError: ")
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 0
        assert f"error: {summary['error']}" in capsys.readouterr().out

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "void")]) == 2

    def test_list_catalog(self, capsys):
        assert main(["list-catalog"]) == 0
        out = capsys.readouterr().out
        for tag in ("half_space", "weierstrass", "winged_strip",
                    "under_parabola", "sqrt_saturation",
                    "double_front_source", "verify_examples", "solve"):
            assert tag in out


def section_config(outdir, domain, **params):
    return {"experiment": "section", "output_dir": str(outdir),
            "domain": domain, "params": params}


def brandt_config(outdir):
    return {"experiment": "estimates", "output_dir": str(outdir), "seed": 3,
            "domain": {"kind": "strip", "a": -1.0, "b": 1.0},
            "nonlinearity": {"kind": "constant", "value": 1.0},
            "grid": {"box": [[0.0, 2.0], [-1.0, 1.0]], "h": 0.125},
            "params": {"brandt": {"n_probes": 5, "delta": 0.25}}}


def uniqueness_config(outdir):
    return {"experiment": "uniqueness", "output_dir": str(outdir), "seed": 7,
            "domain": {"kind": "strip", "a": 0.0, "b": 1.0},
            "nonlinearity": {"kind": "allen_cahn"},
            "grid": {"box": [[0.0, 2.0], [0.0, 1.0]], "h": 0.125},
            "params": {"n_restarts": 4, "amplitude": 0.5}}


class TestMoreExperiments:
    def test_uniqueness_restarts_return_to_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, uniqueness_config(tmp_path / "out"))
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        obs = summary["observations"]
        assert summary["status"] == "hypothesis satisfied"
        assert summary["checks"] == {"all_restarts_zero": True}
        assert obs["n_restarts"] == 4
        assert obs["lipschitz_bound"] == 1.0
        assert obs["lambda1"] > obs["lipschitz_bound"]
        assert obs["max_restart_norm"] < 1e-12
        assert (tmp_path / "out" / "restarts.csv").is_file()

    def test_symmetry_torsion_strip_is_exact(self, tmp_path):
        cfg = {"experiment": "symmetry", "output_dir": str(tmp_path / "out"),
               "params": {"case": "torsion_strip", "cells": 8,
                          "length": 1.0}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        obs = read_json(tmp_path / "out" / "summary.json")["observations"]
        assert obs["torsion_error"] <= 1e-12
        assert obs["reflection_defect"] <= 1e-12
        assert obs["matched_nodes"] > 0

    def test_symmetry_revolution_is_periodic(self, tmp_path):
        cfg = {"experiment": "symmetry", "output_dir": str(tmp_path / "out"),
               "params": {"case": "revolution", "cells": 32}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        obs = read_json(tmp_path / "out" / "summary.json")["observations"]
        assert obs["reflection_defect"] <= 1e-12
        assert obs["periodicity_defect"] <= 1e-12
        assert obs["periodicity_overlap_nodes"] > 0

    def test_revolution_domain_constant_and_sampled_profiles(self, tmp_path):
        # |x2| < 1 given as a constant profile and as CSV samples: the same
        # strip, so the same torsion solution (1 - x2^2) / 2
        prof = tmp_path / "phi.csv"
        write_csv(prof, ["x", "phi"], [[-10.0, 1.0], [10.0, 1.0]])
        solutions = []
        for name, domain in [
                ("constant", {"kind": "revolution", "profile": "constant",
                              "params": {"value": 1.0}}),
                ("samples", {"kind": "revolution", "profile": "samples",
                             "csv": str(prof)})]:
            cfg = torsion_config(tmp_path / name)
            cfg["domain"] = domain
            cfg["grid"] = {"box": [[0.0, 1.0], [-1.0, 1.0]], "h": 0.125}
            assert run_cli(tmp_path, cfg)[0] == 0
            obs = read_json(tmp_path / name / "summary.json")["observations"]
            assert obs["max_norm"] == pytest.approx(0.5, abs=1e-12)
            solutions.append((tmp_path / name / "solution.csv").read_bytes())
        assert solutions[0] == solutions[1]

    def test_section_flags_unbounded_lines(self, tmp_path):
        cfg = section_config(tmp_path / "out", {"kind": "under_parabola"},
                             direction=[1.0, 0.0], window=20.0,
                             probes=[[1.0], [4.0]], expect_unbounded=True)
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["checks"] == {"unbounded_flag_matches": True}
        assert summary["observations"]["unbounded_suspected"] is True
        assert summary["observations"]["n_lines"] == 2

    def test_estimates_brandt_probes_hold(self, tmp_path):
        code, _ = run_cli(tmp_path, brandt_config(tmp_path / "out"))
        assert code == 0
        obs = read_json(tmp_path / "out" / "summary.json")["observations"]
        assert obs["brandt_probes"] == 5
        assert obs["brandt_min_slack"] > 0.0
        assert obs["max_norm"] == pytest.approx(0.5, abs=1e-9)
        assert (tmp_path / "out" / "brandt.csv").is_file()

    @pytest.mark.parametrize("h,code", [(0.5, 0), (1.0, 2)])
    def test_estimates_brandt_balls_smaller_than_a_cell(self, tmp_path, capsys,
                                                         h, code):
        # delta 0.25 < h: only centres whose +-1 neighbours are interior fit
        cfg = brandt_config(tmp_path / "out")
        cfg["grid"]["h"] = h
        assert run_cli(tmp_path, cfg)[0] == code
        if code == 2:
            assert "could not place" in capsys.readouterr().err
        else:
            obs = read_json(tmp_path / "out" / "summary.json")["observations"]
            assert obs["brandt_probes"] == 5

    def test_estimates_oscillation_fit(self, tmp_path):
        cfg = {"experiment": "estimates", "output_dir": str(tmp_path / "out"),
               "domain": {"kind": "epigraph", "profile": "half_space"},
               "nonlinearity": {"kind": "constant", "value": 1.0},
               "grid": {"box": [[-1.0, 1.0], [0.0, 2.0]], "h": 0.0625},
               "params": {"oscillation": {"centers": [[0.0, 0.0]],
                                          "radii": [0.25, 0.5, 0.75]}}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["checks"] == {"oscillation_alpha_positive": True}
        [fit] = summary["oscillation_fits"]
        assert fit["center"] == [0.0, 0.0]
        assert fit["alpha"] > 0.0
        assert (tmp_path / "out" / "oscillation.csv").is_file()


def _rerun_configs(out, tmp_path):
    prof = tmp_path / "profile.csv"
    write_csv(prof, ["x", "g"], [[x, 0.0] for x in (-10.0, 0.0, 10.0)])
    return {
        "solve": {"experiment": "solve", "output_dir": str(out), "svg": True,
                  "domain": {"kind": "epigraph", "profile": "custom_sampled",
                             "csv": str(prof)},
                  "nonlinearity": {"kind": "constant", "value": 1.0},
                  "grid": {"box": [[0.0, 0.5], [0.0, 1.0]], "h": 0.125}},
        "moving_plane": {
            "experiment": "moving_plane", "output_dir": str(out),
            "domain": {"kind": "epigraph", "profile": "half_space"},
            "nonlinearity": {"kind": "constant", "value": 1.0},
            "grid": {"box": [[0.0, 1.0], [0.0, 2.0]], "h": 0.0625},
            "params": {"expect": "sign_change", "lambda_max": 1.0}},
        "threshold_scan": {"experiment": "threshold_scan",
                           "output_dir": str(out),
                           "params": {"L": 2.0, "cells": 32,
                                      "widths": [1.0, 1.5, 2.0, 2.5]}},
        "uniqueness": uniqueness_config(out),
        "symmetry": {"experiment": "symmetry", "output_dir": str(out),
                     "nonlinearity": {"kind": "constant", "value": 2.0},
                     "params": {"case": "revolution", "cells": 16}},
        "section": section_config(out, {"kind": "winged_strip"},
                                  direction=[0.0, 1.0], window=20.0,
                                  probes={"lo": -4.0, "hi": 4.0, "count": 9}),
        "estimates": brandt_config(out),
        "verify_examples": {"experiment": "verify_examples",
                            "output_dir": str(out)},
    }


@pytest.mark.parametrize("experiment", [
    "solve", "moving_plane", "threshold_scan", "uniqueness", "symmetry",
    "section", "estimates", "verify_examples"])
def test_every_experiment_reruns_byte_identical(tmp_path, experiment):
    out = tmp_path / "out"
    cfg = _rerun_configs(out, tmp_path)[experiment]
    assert run_cli(tmp_path, cfg)[0] == 0
    names = sorted(p.name for p in out.iterdir()
                   if p.suffix == ".csv" or p.name == "summary.json")
    assert "summary.json" in names and len(names) >= 2
    before = {n: (out / n).read_bytes() for n in names}
    assert run_cli(tmp_path, cfg)[0] == 0
    for n, data in before.items():
        assert (out / n).read_bytes() == data, n


def _with(base, **changes):
    """A config maker: base(out) with the value at each path replaced,
    a path naming nested keys joined by double underscores."""
    def make(tmp_path):
        cfg = base(tmp_path / "out")
        for path, value in changes.items():
            *parents, leaf = path.split("__")
            node = cfg
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = value
        return cfg
    return make


def _profile_mp(out):
    return {"experiment": "moving_plane", "output_dir": str(out),
            "params": {"profile": "tanh_front"}}


def _solved_mp(out):
    return {"experiment": "moving_plane", "output_dir": str(out),
            "domain": {"kind": "epigraph", "profile": "half_space"},
            "nonlinearity": {"kind": "constant", "value": 1.0},
            "grid": {"box": [[0.0, 1.0], [0.0, 2.0]], "h": 0.0625},
            "params": {"lambda_max": 1.0}}


def _scan(out):
    return {"experiment": "threshold_scan", "output_dir": str(out),
            "params": {"L": 1.0, "cells": 16}}


def _section(out):
    return section_config(out, {"kind": "winged_strip"},
                          direction=[0.0, 1.0], window=20.0,
                          probes={"lo": -1.0, "hi": 1.0, "count": 3})


def _epigraph_solve(out):
    cfg = torsion_config(out)
    cfg["domain"] = {"kind": "epigraph", "profile": "half_space"}
    cfg["grid"] = {"box": [[0.0, 0.5], [0.0, 1.0]], "h": 0.125}
    return cfg


def _not_json(tmp_path):
    return '{"experiment": "solve",'


def _output_under_a_file(tmp_path):
    (tmp_path / "plain").write_text("x")
    return torsion_config(tmp_path / "plain" / "out")


# values the numerics cannot take: without validation each of these ends in
# an uncaught exception
CRASHING_CONFIGS = {
    "domain_params_not_object": _with(_epigraph_solve, domain__params=5),
    "grid_box_not_numbers": _with(torsion_config, grid__box=[["a", 1.0]]),
    "grid_face_policy_number": _with(torsion_config, grid__face_policy=3),
    "hopf_lambdas_scalar": _with(_profile_mp, params__hopf_lambdas=1.0),
    "widths_strings": _with(_scan, params__widths=["a", "b"]),
    "widths_single": _with(_scan, params__widths=[2.0]),
    "direction_strings": _with(_section, params__direction=["a", 1]),
    "config_not_json": _not_json,
    "output_dir_under_file": _output_under_a_file,
    "grid_h_nan": lambda tmp_path: json.dumps(
        torsion_config(tmp_path / "out")).replace("0.125", "NaN"),
    "negative_seed": lambda tmp_path: dict(
        uniqueness_config(tmp_path / "out"), seed=-1),
    # finite numbers asking for more lattice nodes, lambda values, line
    # samples or ball reach than an index can count
    "grid_box_oversize": _with(torsion_config, grid__box=[[0.0, 1e300]]),
    "ymax_oversize": _with(_profile_mp, params__ymax=1e300),
    "length_oversize": lambda tmp_path: {
        "experiment": "symmetry", "output_dir": str(tmp_path / "out"),
        "params": {"case": "torsion_strip", "length": 1e300}},
    "lambda_max_oversize": _with(_solved_mp, params__lambda_max=1e300),
    "window_oversize": _with(_section, params__window=1e300),
    "brandt_delta_oversize": _with(brandt_config,
                                   params__brandt__delta=1e300),
}

# strings where booleans belong, and keys the chosen kind does not use:
# without validation these run and misread or drop the value
MISAPPLIED_CONFIGS = {
    "svg_string": _with(torsion_config, svg="false"),
    "normalize_string": _with(_epigraph_solve, domain__normalize="no"),
    "expect_unbounded_string": _with(_section,
                                     params__expect_unbounded="yes"),
    "linear_with_value": _with(torsion_config, nonlinearity={
        "kind": "linear", "value": 3.0}),
    "a_b_on_winged_strip": _with(_section, domain={
        "kind": "winged_strip", "a": 0.0, "b": 1.0}),
    "csv_on_half_space": _with(_epigraph_solve, domain__csv="g.csv"),
    "unknown_weierstrass_param": _with(_section, domain={
        "kind": "epigraph", "profile": "weierstrass",
        "params": {"b": 2, "gamma": 1.0}}),
}


@pytest.mark.parametrize("make", [
    pytest.param(make, id=name) for name, make in
    {**CRASHING_CONFIGS, **MISAPPLIED_CONFIGS}.items()])
def test_malformed_config_exits_2(tmp_path, capsys, make):
    cfg = make(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    assert "validation error:" in capsys.readouterr().err
