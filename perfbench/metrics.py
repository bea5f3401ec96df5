"""Names and units of every metric the benchmark reports, and which
end-to-end metric each layer should move on which workload.

End-to-end metrics come from an untraced run (``--trace 0``); per-layer
metrics from a traced run (``--trace 1``). Per-layer times are per pass,
summed over the calls the benchmark makes into the layer; counts are per
pass. Every workload reports every per-layer metric: a layer a workload
bypasses reads 0 there.
"""

END_TO_END = {
    "wall_s": "s",          # one pass, artifacts included, gate excluded
    "peak_rss_mb": "MB",    # peak resident memory of the workload process
    "setup_s": "s",         # import epigraph_lab + build the inputs
}

LAYERS = {
    "geometry": {
        "metrics": {
            "geometry.section_measure_s": "s",
            "geometry.section_lines": "count",
            "geometry.contains_calls": "count",
            "geometry.contains_points": "count",
        },
        "moves": ["wall_s"], "mostly_on": ["probe_scan"],
        "bypassed_by": ["large_solve"],
    },
    "discretization": {
        "metrics": {
            "discretization.build_grid_s": "s",
            "discretization.assemble_laplacian_s": "s",
            "discretization.stencil_residual_s": "s",
            "discretization.n_interior": "count",
            "discretization.matrix_nnz": "count",
            "discretization.cut_arms": "count",
        },
        "moves": ["wall_s"], "mostly_on": ["probe_scan"],
        "bypassed_by": ["restart_batch"],
    },
    "solver": {
        "metrics": {
            "solver.torsion_solve_s": "s",
            "solver.front_solve_s": "s",
            "solver.newton_iterations": "count",
            "solver.principal_eigenpair_s": "s",
            "solver.eigen_iterations": "count",
            "solver.lu_factorizations": "count",
            "solver.lu_factor_s": "s",
            "solver.lu_fill_nnz": "count",
            "solver.lu_bytes_computed": "B",
            "solver.krylov_calls": "count",
            "solver.krylov_s": "s",
        },
        "moves": ["wall_s", "peak_rss_mb"],
        "mostly_on": ["large_solve", "restart_batch"],
        "bypassed_by": ["probe_scan"],
    },
    "moving_plane": {
        "metrics": {
            "moving_plane.cap_sweep_s": "s",
            "moving_plane.lambdas": "count",
            "moving_plane.columns": "count",
            "moving_plane.hopf_slope_check_s": "s",
        },
        "moves": ["wall_s"], "mostly_on": ["probe_scan", "large_solve"],
        "bypassed_by": ["restart_batch"],
    },
    "comparison": {
        "metrics": {
            "comparison.uniqueness_test_s": "s",
            "comparison.restarts": "count",
            "comparison.restarts_converged_ratio": "ratio",
            "comparison.threshold_scan_s": "s",
            "comparison.eigenproblems": "count",
            "comparison.ordered_pair_s": "s",
            "comparison.growth_counterexample_s": "s",
        },
        "moves": ["wall_s"], "mostly_on": ["restart_batch"],
        "bypassed_by": ["probe_scan"],
    },
    "estimates": {
        "metrics": {
            "estimates.brandt_check_s": "s",
            "estimates.brandt_placed_ratio": "ratio",
        },
        "moves": ["wall_s"], "mostly_on": ["probe_scan"],
        "bypassed_by": ["large_solve"],
    },
    "reporting": {
        "metrics": {
            "reporting.write_csv_s": "s",
            "reporting.csv_rows": "count",
            "reporting.csv_bytes": "B",
        },
        "moves": ["wall_s"], "mostly_on": ["large_solve", "restart_batch"],
        "bypassed_by": ["probe_scan"],
    },
    "cli": {
        "metrics": {
            "cli.run_s": "s",
            "cli.runs": "count",
        },
        "moves": ["wall_s"], "mostly_on": ["restart_batch"],
        "bypassed_by": ["large_solve", "probe_scan"],
    },
}

# self time of each layer: its spans minus the child spans they enclose
# (the SciPy factorization and Krylov spans nest inside comparison and cli)
SELF_TIME = {f"{layer}.self_s": "s" for layer in LAYERS}

TRACE = {
    "trace.overhead_s": "s",   # traced pass wall minus untraced pass wall
    "trace.spans": "count",
}

PER_LAYER = {name: unit for spec in LAYERS.values()
             for name, unit in spec["metrics"].items()}
PER_LAYER.update(SELF_TIME)
PER_LAYER.update(TRACE)
