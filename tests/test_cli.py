"""End-to-end runs of the config-driven command line."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import epigraph_lab
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
        assert "[PASS] residual_small" in out
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

    def test_no_svg_when_the_midline_column_holds_no_interior_node(
            self, tmp_path):
        # under the parabola, the lateral midline x = 0 of this box holds
        # no interior node, so there is no profile to plot
        cfg = torsion_config(tmp_path / "out")
        cfg["svg"] = True
        cfg["domain"] = {"kind": "under_parabola"}
        cfg["grid"] = {"box": [[-2.0, 2.0], [0.0, 4.0]], "h": 0.25}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0
        assert (tmp_path / "out" / "solution.csv").is_file()
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
        assert "[PASS] residual_small" in out
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
        # the kind tuples are read off the catalog tables, so their order
        # is pinned here
        assert main(["list-catalog"]) == 0
        assert capsys.readouterr().out == "\n".join([
            "epigraph profiles:", "  half_space", "  arc_bump",
            "  arc_bump_ramp", "  weierstrass", "  coercive_quadratic",
            "  exp_x1", "  custom_sampled",
            "open sets:", "  strip", "  winged_strip", "  under_parabola",
            "  epigraph", "  orthant", "  revolution",
            "nonlinearities:", "  constant", "  linear", "  allen_cahn",
            "  power", "  sqrt_saturation", "  double_front_source",
            "  custom_table",
            "closed-form profiles:", "  saturating_front", "  double_front",
            "  tanh_front",
            "experiments:", "  estimates", "  moving_plane", "  section",
            "  solve", "  symmetry", "  threshold_scan", "  uniqueness",
            "  verify_examples", ""])


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

    @pytest.mark.parametrize("domain,direction", [
        ({"kind": "strip", "a": 0.0, "b": 1.0, "dimension": 1}, [1.0]),
        ({"kind": "winged_strip"}, [0.0, 1.0]),
        ({"kind": "orthant", "dimension": 3}, [0.0, 0.0, 1.0])])
    def test_section_probe_lattice_is_in_c_order(self, tmp_path, domain,
                                                 direction):
        cfg = section_config(tmp_path / "out", domain, direction=direction,
                             window=5.0,
                             probes={"lo": -1.0, "hi": 1.0, "count": 3})
        assert run_cli(tmp_path, cfg)[0] == 0
        lines = (tmp_path / "out" / "per_line.csv").read_text().splitlines()
        k = len(direction) - 1
        assert lines[0].split(",") == [f"p{i + 1}" for i in range(k)] + [
            "measure"]
        probes = [[float(c) for c in line.split(",")[:k]]
                  for line in lines[1:]]
        axis = [-1.0, 0.0, 1.0]
        expected = {0: [[]], 1: [[a] for a in axis],
                    2: [[a, b] for a in axis for b in axis]}[k]
        assert probes == expected

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


def run_on_one_and_two_blas_threads(tmp_path, config):
    """The artifacts but ``run_record.json`` of ``config`` run in two
    processes, on one and on two BLAS threads, into one output_dir, which
    the config hash covers."""
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "output_dir": str(out)}))
    src = os.path.dirname(os.path.dirname(epigraph_lab.__file__))
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from epigraph_lab.cli import main;"
             " sys.exit(main(sys.argv[1:]))", "run", str(path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.name != "run_record.json"})
    return runs


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one solved moving-plane config: a Newton front, its cap sweep and Hopf
    # slopes
    runs = run_on_one_and_two_blas_threads(tmp_path, {
        "experiment": "moving_plane",
        "domain": {"kind": "epigraph", "profile": "arc_bump"},
        "nonlinearity": {"kind": "allen_cahn"},
        "grid": {"box": [[-2.0, 2.0], [0.0, 6.0]], "h": 0.0625},
        "params": {"trace": 1.0, "init": "front_lift",
                   "hopf_lambdas": [2.0, 3.0]}})
    assert sorted(runs[0]) == ["cap_sweep.csv", "summary.json"]
    assert runs[0] == runs[1]


def test_uniqueness_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the same on n = 18,335 nodes: BLAS splits dot products of vectors
    # above about 10,000 entries over its threads, so the restarts'
    # BiCGSTAB inner products and lambda1's Rayleigh quotient must not go
    # through it
    runs = run_on_one_and_two_blas_threads(tmp_path, {
        "experiment": "uniqueness", "seed": 3,
        "domain": {"kind": "strip", "a": 0.0, "b": 2.0},
        "nonlinearity": {"kind": "allen_cahn"},
        "grid": {"box": [[0.0, 4.0], [0.0, 2.0]], "h": 1.0 / 48},
        "params": {"n_restarts": 5}})
    assert sorted(runs[0]) == ["restarts.csv", "summary.json"]
    assert runs[0] == runs[1]


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
    # a working range whose Lipschitz bound overflows a float
    "power_lipschitz_overflow": _with(
        uniqueness_config, nonlinearity={"kind": "power", "exponent": 3.0},
        params__amplitude=1e200),
    "allen_cahn_lipschitz_overflow": _with(uniqueness_config,
                                           params__amplitude=1e200),
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
    # removed keys: eig had no effect, the sweep's tol repeated
    # tolerances.check, and method newton did what auto does
    "tolerances_eig": _with(_scan, tolerances__eig=1e-10),
    "moving_plane_tol": _with(_profile_mp, params__tol=1e-8),
    "method_newton": _with(torsion_config, params__method="newton"),
}


def _table_solve(kind, text):
    """A torsion solve on a domain read from a two-column CSV of ``text``
    (no file for None)."""
    def make(tmp_path):
        table = tmp_path / "table.csv"
        if text is not None:
            table.write_text(text)
        cfg = _epigraph_solve(tmp_path / "out")
        profile = "custom_sampled" if kind == "epigraph" else "samples"
        cfg["domain"] = {"kind": kind, "profile": profile, "csv": str(table)}
        return cfg
    return make


def _weierstrass(**params):
    return _with(_section, domain={
        "kind": "epigraph", "profile": "weierstrass", "params": params})


def _short_table(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("t,f\n-0.5,-0.5\n0,0\n0.5,0.5\n")
    return _with(uniqueness_config, params__amplitude=1.0, nonlinearity={
        "kind": "custom_table", "csv": str(table)})(tmp_path)


# values each rejected by one schema, library or loader check, with the
# message that names the cause; custom_sampled_unsorted and the two
# revolution entries are tables np.interp would misread
REJECTED_CONFIGS = {
    "method_unknown": (_with(torsion_config, params__method="fast"),
                       "params.method"),
    "grid_without_h": (lambda tmp_path: dict(
        torsion_config(tmp_path / "out"), grid={"box": [[0.0, 1.0]]}),
        "grid needs 'h'"),
    # the schema types b by its default, an integer
    "weierstrass_base_float": (_weierstrass(b=2.0),
                               "domain.params.b must be an integer"),
    # the series keeps its phases in 32-bit limbs, so b must stay below
    # 2^32; the library checks that range, and tol's, as it builds the domain
    "weierstrass_base_oversize": (_weierstrass(b=2**32),
                                  "base must be an integer in [2, 2^32)"),
    "weierstrass_tol_zero": (_weierstrass(tol=0.0),
                             "tolerance must be positive"),
    # the strip covers the box and every face is Neumann: A is singular
    "window_without_dirichlet_arm": (_with(
        torsion_config, domain={"kind": "strip", "a": -1.0, "b": 1.0},
        grid={"box": [[0.0, 2.0], [0.25, 0.75]], "h": 0.125,
              "face_policy": [["neumann", "neumann"]] * 2}),
        "has no Dirichlet arm"),
    "csv_missing": (_table_solve("epigraph", None), "cannot read"),
    "csv_one_row": (_table_solve("epigraph", "x,g\n0,0\n"),
                    "needs a header and >= 2 rows"),
    "csv_not_numeric": (_table_solve("epigraph", "x,g\n0,0\n1,high\n"),
                        "must hold two numeric columns"),
    "custom_sampled_unsorted": (_table_solve("epigraph", "x,g\n3,0\n1,5\n2,0\n"),
                                "strictly increasing"),
    "revolution_nan_abscissa": (_table_solve("revolution",
                                             "x,phi\n-10,1\n10,1\nnan,1\n"),
                                "strictly increasing"),
    "revolution_nan_radius": (_table_solve("revolution",
                                           "x,phi\n-10,1\n10,1\n20,nan\n"),
                              "phis must be finite"),
    # the working range [-amplitude, amplitude] needs amplitude >= 0
    "amplitude_negative": (_with(uniqueness_config, params__amplitude=-0.5),
                           "params.amplitude must be a number >= 0"),
    # and f defined on all of it: a table on [-0.5, 0.5] under amplitude 1
    "table_short_of_amplitude": (_short_table,
                                 "working range [-1, 1]: domain exceeded"),
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


@pytest.mark.parametrize("name, message", [
    ("tolerances_eig", "unknown key 'eig' in tolerances"),
    ("moving_plane_tol", "unknown key 'tol' in params"),
    ("method_newton", "params.method must be one of auto|picard")])
def test_removed_keys_are_named(tmp_path, capsys, name, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MISAPPLIED_CONFIGS[name](tmp_path)))
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", REJECTED_CONFIGS)
def test_rejection_names_its_cause(tmp_path, capsys, name):
    make, message = REJECTED_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make(tmp_path)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error:" in err and message in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_null_face_policy_is_the_default(tmp_path):
    explicit = _with(_epigraph_solve, grid__face_policy=None)(tmp_path / "a")
    assert explicit["grid"]["face_policy"] is None
    assert run_cli(tmp_path, explicit)[0] == 0
    assert run_cli(tmp_path, _epigraph_solve(tmp_path / "b" / "out"))[0] == 0
    csvs = [sorted((tmp_path / d / "out").glob("*.csv")) for d in "ab"]
    assert [p.name for p in csvs[0]] == ["solution.csv"]
    assert [p.read_bytes() for p in csvs[0]] == [p.read_bytes() for p in csvs[1]]
