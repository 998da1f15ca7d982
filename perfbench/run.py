#!/usr/bin/env python3
"""fvc benchmark: end-to-end timings of solve, build_report and `fvc check`, and
a traced run that splits them by layer.

Run from the root of an fvc checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

--workload is free_fine, constrained_sweep, verify_batch or all. A run sets up
its inputs from --seed, repeats the workload's pass (a fixed list of ops) for
--seconds, checks every op's output against refs.json and prints one line per
metric, then a JSON line {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced passes and reports per-layer metrics, then
times the informational size ladder. The exit code is 0 only when every op
ran and matched its reference. Details and spans go to .bench_out/.
"""

from __future__ import annotations

import os
import sys
import time

# One process, no extra threads: BLAS and OpenMP pools are pinned to one thread
# before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
REFS_PATH = HERE / "refs.json"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": ("s", "median time of one pass of the workload's ops"),
    "op_s_p50": ("s", "median time of one solve (free_fine, constrained_sweep) or fvc check (verify_batch)"),
    "setup_s": ("s", "median over fresh processes of import + input set-up"),
    "peak_rss_mb": ("MB", "peak resident set size of the benchmark process"),
}

# Every workload calls these, so their self time is never exactly 0 and goes
# into the result line. The others (solver, functional, convex, cli,
# extract_multiplier) are idle on some workload; their self times are printed
# and written to the result file.
ALWAYS_CALLED = (
    "frac_ops.rl_integral_left", "frac_ops.rl_integral_right", "model.state",
    "expr.evaluate", "conditions.build_report", "conditions.el_residual",
    "conditions.transversality_residuals", "conditions.legendre_check",
)
RATIOS = ("frac_ops.left_calls_per_eval", "solver.accept_ratio")
TRACE_TOTALS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                "trace.remainder_s", "trace.spans")


def load_fvc():
    init = SRC / "fvc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of an fvc checkout")
    sys.path.insert(0, str(SRC))
    import fvc

    if Path(fvc.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported fvc from {fvc.__file__}, expected {init}")


def per_layer_units():
    from tracer import LAYER_NAMES
    from workloads import LADDER_SIZES

    units = {f"{name}.calls": "count" for name in LAYER_NAMES}
    units.update({f"{name}.self_s": "s" for name in ALWAYS_CALLED})
    units.update({name: "ratio" for name in RATIOS})
    units.update({name: "s" for name in TRACE_TOTALS})
    units["trace.spans"] = "count"
    for n in LADDER_SIZES:
        units[f"ladder.rl_integral_left_s.n{n}"] = "s"
        units[f"ladder.solve_s.n{n}"] = "s"
    return units


def metadata():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        # informational, not gated: the ROADMAP tracks it across PRs
        "src_fvc_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "fvc").glob("*.py")),
    }


# -- timing ---------------------------------------------------------------------------


def setup_probe_times(name, seed):
    """Wall time of fresh processes that import fvc and set the workload up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def run_pass(workload, tracer):
    records = []
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        previous_failed = False
        for op in workload.ops():
            if op.needs_previous and previous_failed:
                continue
            op_start = time.perf_counter()
            try:
                with tracer.op(op.kind) if tracer else contextlib.nullcontext():
                    outcome = op.run()
                error = None
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                outcome, error = None, type(exc).__name__
                sys.stderr.write(f"op {op.kind} {op.key} failed:\n{traceback.format_exc()}")
            records.append({"kind": op.kind, "key": op.key, "outcome": outcome, "error": error,
                            "seconds": time.perf_counter() - op_start})
            previous_failed = error is not None
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    last_span = len(tracer.spans) if tracer else 0
    return {"traced": tracer is not None, "wall": wall, "ops": records,
            "spans": (first_span, last_span)}


def run_passes(workload, seconds, tracer):
    """Whole passes until the time is up; with a tracer, untraced and traced alternate."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, tracer if traced else None))
        if time.perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            return passes


# -- statistics -------------------------------------------------------------------------


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it.

    None below 20 samples, where that percentile would not lie above the median.
    """
    n = len(samples)
    if n < 20:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def timing_summary(samples):
    out = {"p50": statistics.median(samples), "n": len(samples)}
    t = tail(samples)
    if t:
        out[f"p{t[0]}"] = t[1]
    return out


def gate_outcomes(workload_name, passes, refs):
    import workloads

    violations, devs, oracle = [], {}, []
    pass_iterations = []
    for p in passes:
        got = pinned = 0
        for r in p["ops"]:
            if r["outcome"] is None:
                continue
            res = workloads.check_outcome(workload_name, r["kind"], r["key"], r["outcome"], refs)
            violations += [v for v in res["violations"] if v not in violations]
            for name, dev in res["devs"].items():
                devs[name] = max(devs.get(name, 0.0), dev)
            if res["iterations"]:
                got += res["iterations"][0]
                pinned += res["iterations"][1]
            if res["oracle_err"] is not None:
                oracle.append(res["oracle_err"])
        pass_iterations.append((got, pinned))
    return {
        "violations": violations,
        "ref_dev": max(devs.values(), default=0.0),
        "ref_dev_by_output": devs,
        "oracle_err": max(oracle) if oracle else None,
        "iterations_per_pass": sorted(set(pass_iterations)),
    }


def end_to_end_metrics(workload_name, passes, probes):
    import workloads

    untraced = [p for p in passes if not p["traced"]]
    primary = workloads.PRIMARY_KIND[workload_name]
    primary_times = [r["seconds"] for p in untraced for r in p["ops"]
                     if r["kind"] == primary and r["error"] is None]
    return {
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "op_s_p50": statistics.median(primary_times) if primary_times else None,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, passes):
    """Per traced pass: calls and self time per layer, ratios, and the accounting.

    Returns (median over traced passes of every figure, accounting of the
    traced pass with the median wall time).
    """
    from tracer import LAYER_NAMES, OP_PREFIX, calls_under, self_times

    spans = tracer.spans
    rows = []
    for p in (p for p in passes if p["traced"]):
        first, last = p["spans"]
        calls, own = self_times(spans, first, last)
        in_solve = calls_under(spans, "solve", first, last)
        evals = in_solve["functional.bolza_eval"]
        iterations = sum(r["outcome"]["iterations"] for r in p["ops"]
                         if r["kind"] == "solve" and r["outcome"] is not None)
        layer_self = sum(own[name] for name in LAYER_NAMES)
        ops_total = sum(end - start for _, start, end, parent, _ in spans[first:last] if parent == -1)
        row = {}
        for name in LAYER_NAMES:
            row[f"{name}.calls"] = calls[name]
            row[f"{name}.self_s"] = own[name]
        row["frac_ops.left_calls_per_eval"] = in_solve["frac_ops.rl_integral_left"] / evals if evals else 0.0
        row["solver.accept_ratio"] = iterations / evals if evals else 0.0
        row["trace.wall_s"] = p["wall"]
        row["trace.remainder_s"] = p["wall"] - layer_self
        row["trace.spans"] = last - first
        accounting = {
            "wall_s": p["wall"],
            "layer_self_s": layer_self,
            "op_self_s": sum(v for k, v in own.items() if k.startswith(OP_PREFIX)),
            "benchmark_loop_s": p["wall"] - ops_total,
        }
        rows.append((row, accounting))
    medians = {key: statistics.median(r[key] for r, _ in rows) for key in rows[0][0]}
    for key, value in medians.items():
        if key.endswith(".calls") or key == "trace.spans":
            medians[key] = int(value) if float(value).is_integer() else value
    medians["trace.untraced_wall_s"] = statistics.median(p["wall"] for p in passes if not p["traced"])
    medians["trace.overhead_s"] = medians["trace.wall_s"] - medians["trace.untraced_wall_s"]
    rows.sort(key=lambda r: r[0]["trace.wall_s"])
    return medians, rows[len(rows) // 2][1]


# -- one workload -----------------------------------------------------------------------


def show(name, value, unit, note=""):
    text = "-" if value is None else repr(value)
    print(f"{name:<44} {text} {unit}{'  # ' + note if note else ''}")


def run_workload(name, args, refs, meta):
    import tracer as tracing
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        set_up = time.perf_counter()
        workload = workloads.build(name, args.seed, workdir)
        inproc_setup = time.perf_counter() - set_up
        probes = setup_probe_times(name, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p["ops"]]
    attempted = len(records)
    errors = [r["error"] for r in records if r["error"]]
    gates = gate_outcomes(name, passes, refs)
    correct = attempted > 0 and not errors and not gates["violations"]

    print(f"# workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# " + json.dumps(meta, sort_keys=True))
    e2e = end_to_end_metrics(name, passes, probes)
    for metric, (unit, note) in END_TO_END.items():
        show(metric, e2e[metric], unit, note)
    untraced = [p for p in passes if not p["traced"]]
    by_kind = {}
    for kind in ("solve", "report", "check"):
        samples = [r["seconds"] for p in untraced for r in p["ops"]
                   if r["kind"] == kind and r["error"] is None]
        if samples:
            by_kind[kind] = timing_summary(samples)
            for stat, value in by_kind[kind].items():
                if stat != "n":
                    show(f"{kind}_s_{stat}", value, "s", f"{by_kind[kind]['n']} samples")
    wall_summary = timing_summary([p["wall"] for p in untraced])
    for stat, value in wall_summary.items():
        if stat not in ("n", "p50"):
            show(f"wall_s_{stat}", value, "s", f"{wall_summary['n']} passes")
    info = {
        "passes": len(passes),
        "first_pass_s": passes[0]["wall"],
        "attempted": attempted,
        "failed": len(errors),
        "fail_ratio": len(errors) / attempted if attempted else None,
        "exceptions": sorted(set(errors)),
        "ref_dev": gates["ref_dev"],
        "oracle_err": gates["oracle_err"],
        "iterations_per_pass": gates["iterations_per_pass"],
        "setup_inproc_s": inproc_setup,
    }
    show("first_pass_s", passes[0]["wall"], "s", "the first pass pays lazy initialisation")
    show("passes", info["passes"], "count")
    show("fail_ratio", info["fail_ratio"], "ratio",
         f"{len(errors)} of {attempted} ops failed {info['exceptions']}")
    for pair in gates["iterations_per_pass"]:
        show("iterations", pair[0], "count", f"per pass; pinned {pair[1]}")
    show("ref_dev", info["ref_dev"], "ratio",
         "largest relative deviation from refs.json " + json.dumps(gates["ref_dev_by_output"]))
    if gates["oracle_err"] is not None:
        show("oracle_err", gates["oracle_err"], "1", "|objective - coth(1)/2|, fixed_both alpha=1")
    show("setup_inproc_s", inproc_setup, "s", "this process: building the inputs after import")
    for v in gates["violations"]:
        print(f"GATE FAILED: {v}")

    detail = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "meta": meta, "end_to_end": e2e, "timings": by_kind, "info": info,
              "violations": gates["violations"], "setup_probes_s": probes,
              "pass_walls_s": [(p["traced"], p["wall"]) for p in passes]}
    if args.trace:
        metrics = trace_report(name, args, tracer, passes, detail)
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    detail["correct"] = correct
    (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return correct


def trace_report(name, args, tracer, passes, detail):
    import workloads

    medians, accounting = layer_metrics(tracer, passes)
    ladder = workloads.size_ladder()
    for row in ladder:
        medians[f"ladder.rl_integral_left_s.n{row['n']}"] = row["rl_integral_left_s"]
        medians[f"ladder.solve_s.n{row['n']}"] = row["solve_s"]
    units = per_layer_units()
    print("# traced passes: per-layer medians (calls and self time per pass)")
    for key in sorted(k for k in medians if not k.startswith("ladder.")):
        show(key, medians[key], "count" if key.endswith("calls") or key == "trace.spans"
             else ("ratio" if key in RATIOS else "s"))
    print("# objective_gradient's transpose convolution is not a public function:"
          " it shows only in solver.objective_gradient.self_s")
    print(f"# accounting of the median traced pass: layer self {accounting['layer_self_s']!r} s"
          f" + fvc code outside traced functions {accounting['op_self_s']!r} s"
          f" + benchmark loop {accounting['benchmark_loop_s']!r} s = wall {accounting['wall_s']!r} s")
    print(f"# tracing overhead: traced wall - untraced wall = {medians['trace.overhead_s']!r} s per pass")
    print("# size ladder (classic free, alpha=0.75; informational, not gated)")
    for row in ladder:
        print(f"#   n={row['n']:<6} rl_integral_left {row['rl_integral_left_s']!r} s"
              f"  solve {row['solve_s']!r} s  iterations {row['iterations']}")
    spans_path = OUT_DIR / f"{name}-seed{args.seed}-spans.jsonl.gz"
    tracer.write(spans_path)
    detail.update({"per_layer": medians, "accounting": accounting, "ladder": ladder,
                   "spans_file": spans_path.name})
    return {key: {"value": medians[key], "unit": unit} for key, unit in units.items()}


# -- entry point ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("free_fine", "constrained_sweep", "verify_batch", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute refs.json from the current fvc sources")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    load_fvc()
    import workloads

    if args.setup_probe:
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
            workloads.build(args.workload, args.seed, workdir)
        return 0
    if args.pin:
        WORK_DIR.mkdir(exist_ok=True)
        refs = workloads.pin_references(str(WORK_DIR))
        refs["pinned_with"] = metadata()
        REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0
    refs = json.loads(REFS_PATH.read_text())
    meta = metadata()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, refs, meta) for name in names]
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
