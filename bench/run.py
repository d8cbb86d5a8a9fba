"""Benchmark of the mbb-sdp pipeline: k-search, rounding and the exact oracle.

Run from the repository root:

    python3 bench/run.py --workload search-sparse --seed 0 --seconds 35 --trace 0

One caller runs the workload's passes back to back in this process (a closed
loop) with one BLAS thread.  Passes repeat while the next one would end no
more than half a pass (the median so far) after ``--seconds``; there is
always at least one.  Every end-to-end metric is printed by name and unit,
every output is checked, and the last line of standard output is one JSON
object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
untraced passes are followed by one traced pass, and ``metrics`` holds the
per-layer numbers instead.  Full results (and, traced, the spans as gzipped
JSON lines) go to ``bench/out/``.  Exit status: 0 when every check passed,
1 when a check failed or set-up failed, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Import cost of the package, timed inside a fresh interpreter.
IMPORT_PROBE = "import time; t = time.perf_counter(); import mbb_sdp; print(time.perf_counter() - t)"
TRACE_PASS = "traced"
SETUP_PASS = "setup"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search-sparse", "search-dense", "reround"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads",
        default="1",
        help="BLAS/OpenMP thread count, or 'default' to leave the library's own choice",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    return parser.parse_args(argv)


def pin_threads(setting: str) -> None:
    """Must run before numpy is imported: OpenBLAS reads these once at load."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if setting == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(int(setting))


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "seed": args.seed,
    }


def import_seconds() -> list[float]:
    """Package import time in SETUP_REPEATS fresh interpreters, which inherit
    the pinned thread settings."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(child.stdout))
    return times


def tail_percentile(samples: list[float]):
    """Highest of the usual percentiles with at least ten samples beyond it,
    as (percentile, value), or None when there are too few samples."""
    import numpy as np

    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(samples, q))
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.blas_threads)
    if not (ROOT / "src" / "mbb_sdp" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'mbb_sdp'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    import workloads

    work = workloads.WORKLOADS[args.workload]()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = work.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
    except workloads.SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    import_times = import_seconds()
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(work.run_pass(state))
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - t_start + typical / 2 > args.seconds:
            break
    wall = [p.seconds for p in passes]
    wall_s = statistics.median(wall)

    failures = [msg for p in passes for msg in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = min(len(failures), attempted)
    last = passes[-1]
    quality = {
        name: {"value": num / den if den else 0.0, "num": num, "den": den}
        for name, (num, den) in last.ratios.items()
    }
    if last.wrong_verdicts is not None:
        quality["wrong_verdicts"] = {"value": last.wrong_verdicts}
    quality["failed_frac"] = {"value": failed / attempted, "num": failed, "den": attempted}

    peak_rss_mb = _peak_rss_mb()
    end_to_end = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "size_ratio": {"value": quality[work.size_ratio]["value"], "unit": "ratio"},
    }

    per_layer = None
    if args.trace:
        per_layer, traced_attempted, trace_failures = _traced_run(args, work, wall_s)
        attempted += traced_attempted
        failures += trace_failures
        failed = min(len(failures), attempted)

    _print_report(args, work, wall, setup_times, import_times, end_to_end, quality, failures)
    for name, entry in (per_layer or {}).items():
        print(f"  {name:<27} {entry['value']:.6g} {entry['unit']}")
    env = environment(args, np, scipy)
    metrics = per_layer if per_layer is not None else end_to_end
    correct = not failures
    _write_json(
        args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "workload": args.workload,
            "environment": env,
            "passes": wall,
            "passes_cpu_s": [p.cpu_s for p in passes],
            "setup_runs_s": setup_times,
            "import_runs_s": import_times,
            "end_to_end": end_to_end,
            "quality": quality,
            "per_layer": per_layer,
            "failures": failures,
        },
    )
    print(f"environment: {env}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def _traced_run(args, work, untraced_wall):
    """One traced set-up and one traced pass, then the sdp probe and the
    feasibility re-check outside the spans.  Returns (per-layer metrics,
    calls attempted, check failures)."""
    from mbb_sdp import graphs, pipeline, rounding, sdp

    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install(pipeline, rounding, graphs)
    try:
        tracer.pass_id = SETUP_PASS
        state = work.setup(args.seed)
        tracer.pass_id = TRACE_PASS
        traced = work.run_pass(state)
    finally:
        tracer.restore()

    failures = list(traced.failures)
    probe_s = 0.0
    probe_config = sdp.SolverConfig(max_iterations=1)
    for pass_id, problem, outcome in tracer.solved:
        if pass_id == TRACE_PASS:
            t0 = time.perf_counter()
            sdp.solve_feasibility(problem, probe_config)
            probe_s += time.perf_counter() - t0
        if outcome.feasible:
            report = sdp.check_feasibility(problem, outcome.gram, workloads.SOLVER.eps_feas)
            if not report.passed:
                failures.append(
                    f"{problem.label}: feasible gram fails check_feasibility "
                    f"(violation {report.max_violation:.3g}, min eig {report.min_eigenvalue:.3g})"
                )
    metrics = tracing.layer_metrics(
        tracer.totals(TRACE_PASS),
        tracer.totals(SETUP_PASS),
        probe_s=probe_s,
        overhead_s=traced.seconds - untraced_wall,
    )
    tracer.write(args.out / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    return metrics, traced.attempted, failures


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_report(args, work, wall, setup_times, import_times, end_to_end, quality, failures) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(wall)}  "
          f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
    tail = tail_percentile(wall)
    tail_text = (
        f"p{tail[0]:g} {tail[1]:.4f} s" if tail else f"no tail percentile: {len(wall)} samples, needs 20"
    )
    print(
        f"  wall_s          {end_to_end['wall_s']['value']:.4f} s  (median of {len(wall)} passes, "
        f"fastest {min(wall):.4f} s; {tail_text})"
    )
    print(
        f"  setup_s         {end_to_end['setup_s']['value']:.4f} s  (median of {len(import_times)} imports "
        f"+ median of {len(setup_times)} set-ups)"
    )
    print(f"  peak_rss_mb     {end_to_end['peak_rss_mb']['value']:.1f} MB")
    print(f"  size_ratio      {end_to_end['size_ratio']['value']:.4f} ratio  (the {work.size_ratio} below)")
    for name, entry in quality.items():
        unit = "count" if name == "wrong_verdicts" else "ratio"
        frac = f"  ({entry['num']}/{entry['den']})" if "den" in entry else ""
        print(f"  {name:<15} {entry['value']:.4f} {unit}{frac}")
    for msg in failures:
        print(f"  FAILED: {msg}")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
