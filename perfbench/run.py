"""Benchmark of epigraph_lab, measured from outside the package.

    python3 perfbench/run.py --workload large_solve --seed 1 --seconds 35 --trace 0

One process runs one workload. It times set-up (importing epigraph_lab from
``src/`` of this checkout and building the inputs from the seed) in itself
and in a few fresh child processes, runs one untimed warm-up pass on the
workload's small inputs, then as many timed passes as fit in ``--seconds``
(at least two). Every pass is checked against the workload's reference gate
and every timed pass's digest against the first timed pass's. The last line
of standard output is one JSON object: ``--trace 0`` reports the end-to-end
metrics and ``--trace 1`` the per-layer metrics.
A run also writes its full record (environment, passes, spans) to
``perfbench/_out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "_out"
WORK_DIR = BENCH_DIR / "_work"
SETUP_CHILDREN = 4
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("large_solve", "probe_scan", "restart_batch")


def pin_environment():
    """Leave EPIGRAPH_LAB_THREADS at the package default and run BLAS on one
    thread unless a thread count between 1 and the number of usable cores
    is set. Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("EPIGRAPH_LAB_THREADS", None)
    for var in BLAS_VARS:
        raw = os.environ.get(var)
        if raw is None or not (raw.isdigit() and 1 <= int(raw) <= nproc):
            os.environ[var] = "1"


def environment(seed):
    import numpy
    import scipy

    from epigraph_lab import runtime
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_budget": runtime.thread_budget(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "seed": seed,
    }


def set_up(workload, seed, size, workdir):
    """Import epigraph_lab from this checkout and build the inputs.

    Returns the workload, its inputs and the seconds both took."""
    if not (SRC / "epigraph_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no epigraph_lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed, size, str(workdir))
    seconds = time.perf_counter() - start
    import epigraph_lab
    if Path(epigraph_lab.__file__).resolve().parent != SRC / "epigraph_lab":
        raise SystemExit(f"perfbench: epigraph_lab imported from {epigraph_lab.__file__}")
    inputs["out"] = str(workdir / "out")
    return wl, inputs, seconds


def child_setup_seconds(workload, seed, size):
    """Set-up time in a fresh interpreter, as a user pays it on every run."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--size", size],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _digest_update(digest, value):
    if hasattr(value, "tobytes"):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(value.tobytes())
    elif isinstance(value, (list, tuple)):
        for v in value:
            _digest_update(digest, v)
    else:
        digest.update(repr(value).encode())


def _artifact_files(out):
    """CSVs and summary.json files a pass wrote; run_record.json holds
    timestamps and is left out."""
    found = []
    for dirpath, _, names in os.walk(out):
        for name in names:
            if name.endswith(".csv") or name == "summary.json":
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def run_pass(wl, inputs, ref, tr):
    """One pass: the timed operations, then the gate and the digest.

    An operation that raises fails, and so does every operation after it,
    which may depend on its output."""
    out = inputs["out"]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    ctx = {}
    done = []
    failures = []
    op_s = {}
    gc.collect()
    start = time.perf_counter()
    cpu_start = time.process_time()
    for name, op in wl.ops:
        op_start = time.perf_counter()
        try:
            done.append((name, op(inputs, ctx, tr)))
        except Exception:
            failures.append((name, traceback.format_exc()))
            break
        op_s[name] = time.perf_counter() - op_start
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    failures += [(name, "not run") for name, _ in wl.ops[len(done) + len(failures):]]

    digest = hashlib.sha256()
    for name, (gate, outputs) in done:
        try:
            checks = gate(ref, tr)
        except Exception:
            failures.append((name, traceback.format_exc()))
            continue
        bad = [k for k, ok in checks.items() if not ok]
        if bad:
            failures.append((name, "failed checks: " + ", ".join(bad)))
        digest.update(name.encode())
        _digest_update(digest, outputs)
    for path in _artifact_files(out):
        digest.update(os.path.relpath(path, out).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"wall_s": wall, "cpu_s": cpu, "op_s": op_s, "attempted": len(wl.ops),
            "failures": failures, "digest": digest.hexdigest(), "traced": tr.enabled}


def layer_metrics(tracer, pass_id):
    """Per-layer values of one traced pass, from its spans and counters."""
    spans = tracer.pass_spans(pass_id)
    counts = tracer.counts[pass_id]
    seconds = tracing.span_seconds(spans)
    self_s = tracing.self_seconds(spans)
    values = {}
    for name, unit in metrics.PER_LAYER.items():
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif unit == "s":
            values[name] = seconds.get(name[:-len("_s")], 0.0)
        else:
            values[name] = counts.get(name, 0.0)
    values["solver.lu_bytes_computed"] = \
        counts.get("solver.lu_fill_nnz", 0.0) * tracing.LU_BYTES_PER_NONZERO
    values["comparison.restarts_converged_ratio"] = _ratio(
        counts.get("comparison.restarts_converged", 0.0),
        counts.get("comparison.restarts", 0.0))
    values["estimates.brandt_placed_ratio"] = _ratio(
        counts.get("estimates.brandt_placed", 0.0),
        counts.get("estimates.brandt_attempted", 0.0))
    values["trace.spans"] = len(spans)
    return values


def _ratio(num, den):
    return num / den if den else 0.0


def measure(workload, seed, seconds, trace, size="full", reference=None,
            setup_children=SETUP_CHILDREN):
    """Run one workload and return (result line, full record)."""
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl, inputs, setup0 = set_up(workload, seed, size, workdir)
        setups = [setup0] + [child_setup_seconds(workload, seed, size)
                             for _ in range(setup_children)]
        ref = reference if reference is not None else wl.reference[size]
        tracer = tracing.Tracer()

        # warm-up: the same operations on the small inputs, gated against
        # the small reference, so the timed passes start warm
        warm_dir = workdir / "warm-up"
        warm_inputs = wl.make_inputs(seed, "small", str(warm_dir))
        warm_inputs["out"] = str(warm_dir / "out")
        warm_ref = ref if size == "small" else wl.reference["small"]
        passes = [run_pass(wl, warm_inputs, warm_ref, tracing.NULL)]
        begin = time.perf_counter()
        while True:
            # a traced run alternates traced and untraced passes, so the
            # tracing overhead is measured in the same process
            if trace and len(passes) % 2 == 1:
                tracer.pass_id = len(passes)
                with tracing.scipy_spans(tracer):
                    passes.append(run_pass(wl, inputs, ref, tracer))
            else:
                passes.append(run_pass(wl, inputs, ref, tracing.NULL))
            # stop before a pass that would end past --seconds, but only
            # after two timed passes: the determinism check compares them
            timed = len(passes) - 1
            projected = (time.perf_counter() - begin) * (timed + 1) / timed
            if projected > seconds and timed >= 2:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # determinism: every timed pass must reproduce the first one's digest
    attempted = sum(p["attempted"] for p in passes) + len(passes) - 2
    failures = [f for p in passes for f in p["failures"]]
    failures += [("determinism", f"pass {i} digest differs from pass 1")
                 for i, p in enumerate(passes[2:], 2)
                 if p["digest"] != passes[1]["digest"]]

    timed = passes[1:]
    plain_walls = [p["wall_s"] for p in timed if not p["traced"]]
    record = {
        "workload": workload, "seed": seed, "size": size, "trace": bool(trace),
        "environment": environment(seed),
        "setup_s": setups,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "op_s", "traced", "digest")}
                   for p in passes],
        "failures": failures,
    }
    if trace:
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        per_pass = [layer_metrics(tracer, i) for i in traced_ids]
        values = {name: statistics.median(v[name] for v in per_pass)
                  for name in metrics.PER_LAYER}
        values["trace.overhead_s"] = (
            statistics.median(passes[i]["wall_s"] for i in traced_ids)
            - statistics.median(plain_walls))
        units = metrics.PER_LAYER
        record["spans"] = tracer.spans
        samples = {name: len(per_pass) for name in units}
    else:
        values = {
            "wall_s": statistics.median(plain_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = metrics.END_TO_END
        samples = {"wall_s": len(plain_walls), "peak_rss_mb": 1,
                   "setup_s": len(setups)}
    record["samples"] = samples
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs each workload in seconds, for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up seconds and exit (internal)")
    args = parser.parse_args(argv)
    pin_environment()

    if args.setup_only:
        workdir = WORK_DIR / f"setup-{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            print(set_up(args.workload, args.seed, args.size, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result, record = measure(args.workload, args.seed, args.seconds,
                             args.trace, args.size)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  env {json.dumps(env, sort_keys=True)}")
    for name, failure in record["failures"]:
        print(f"FAILED {name}: {failure.strip()}", file=sys.stderr)
    print(f"fail_rate {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']} "
              f"(median of {record['samples'][name]})")
    print(f"record {path.relative_to(BENCH_DIR.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
