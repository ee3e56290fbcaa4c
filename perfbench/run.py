"""csspheres benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload family_iso --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead and the time a fresh process takes to import the CLI.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the detail behind each number.  A run with a
failed check exits 1; a run that cannot start exits 2 without a result.
One client runs a closed loop on a single thread; see NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3
SETUP_CHILDREN = 4  # fresh processes timed for setup_s, besides this one
STARTUP_SAMPLES = 3  # fresh `import csspheres.cli` processes timed for cli.startup_s
HARD_CAP_S = 140.0  # start no further pass beyond this, whatever MIN_PASSES says
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("family_iso", "verify_ladder", "cli_pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also append the full record to this JSON list file")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(name: str, seed: int, workdir: str):
    """Import the package and make the seeded inputs; return (inputs, seconds)."""
    t0 = time.perf_counter()
    import workloads

    inputs = workloads.WORKLOADS[name][0](seed, workdir)
    return inputs, time.perf_counter() - t0


def _child_seconds(argv: list[str]) -> float:
    """Run a fresh interpreter to completion; return the last number it printed."""
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return float(done.stdout.split()[-1])


def _wall_of_child(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], capture_output=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def timed_pass(run_pass, inputs, inproc: bool, tracer=None):
    """One pass; returns (Pass, wall seconds).  Tracing wraps only when given a tracer."""
    import workloads

    p = workloads.Pass()
    patches = tracing.install(tracer) if tracer is not None else []
    t0 = time.perf_counter()
    try:
        run_pass(p, inputs, inproc)
    except Exception as exc:  # a pass that aborts is a failed check, not a crash
        p.checks.append(("pass completed", False, f"raised {exc!r}"))
    finally:
        wall = time.perf_counter() - t0
        tracing.uninstall(patches)
    return p, wall


def keep_going(count: int, least: int, started: float, last: float, seconds: float) -> bool:
    """Start another pass (or pair) while it is predicted to end by seconds + last/2."""
    elapsed = time.perf_counter() - started
    if elapsed + last > HARD_CAP_S:
        return False
    return count < least or elapsed + 0.5 * last <= seconds


def nearest_rank(sorted_xs, q: float):
    """The q-th percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_xs)))
    return sorted_xs[rank - 1], len(sorted_xs) - rank


def tail_level(ops_per_pass: int) -> float:
    """Highest level with at least ten samples beyond it in a run of MIN_PASSES passes.

    Fixing the level per workload, not per run, keeps it the same quantile of
    the same operations whatever number of passes fits in the time.
    """
    n = ops_per_pass * MIN_PASSES
    for q in TAIL_LEVELS:
        if n - max(1, math.ceil(q / 100.0 * n)) >= 10:
            return q
    return 50.0


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4)


def measure(name, inputs, seconds):
    import workloads

    run_pass = workloads.WORKLOADS[name][1]
    passes, started = [], time.perf_counter()
    while not passes or keep_going(len(passes), MIN_PASSES, started, passes[-1][1], seconds):
        passes.append(timed_pass(run_pass, inputs, False))
    walls = [w for _, w in passes]
    ops = sorted(t for p, _ in passes for _, t in p.ops)
    level = tail_level(min(len(p.ops) for p, _ in passes))
    tail, beyond = nearest_rank(ops, level)
    if name == "cli_pipeline":
        rss_kb = max(p.child_rss_kb for p, _ in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "wall_s_quartiles": quartiles(walls),
        "ops": len(ops),
        "op_tail_percentile": level,
        "op_tail_samples_beyond": beyond,
        "peak_rss_of": "cli child processes" if name == "cli_pipeline" else "benchmark process",
    }
    return [p for p, _ in passes], metrics, detail


def measure_traced(name, inputs, seconds, spans_path):
    import workloads

    run_pass = workloads.WORKLOADS[name][1]
    inproc = True  # cli_pipeline runs each argv through cli.main so spans nest under it
    plain, traced, tracers, started = [], [], [], time.perf_counter()
    while not traced or keep_going(len(traced), 1, started, plain[-1][1] + traced[-1][1], seconds):
        plain.append(timed_pass(run_pass, inputs, inproc))
        tracers.append(tracing.Tracer())
        traced.append(timed_pass(run_pass, inputs, inproc, tracers[-1]))
    per_pass = [tracing.layer_metrics(t) for t in tracers]
    metrics = {}
    for key in per_pass[0]:
        median = statistics.median if tracing.layer_unit(key) == "s" else statistics.median_low
        metrics[key] = median(m[key] for m in per_pass)
    startup = [_wall_of_child(["-c", "import csspheres.cli"]) for _ in range(STARTUP_SAMPLES)]
    metrics["cli.startup_s"] = statistics.median(startup)
    plain_wall = statistics.median(w for _, w in plain)
    traced_wall = statistics.median(w for _, w in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    tracing.write_spans(tracers[-1], spans_path)
    # the traced pass must certify exactly what the untraced pass certified
    same = all(p.checks == t.checks for (p, _), (t, _) in zip(plain, traced))
    check_pass = workloads.Pass()
    check_pass.checks.append(("traced and untraced results identical", same, ""))
    detail = {
        "pass_pairs": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "cli_startup_samples": startup,
        "spans_written": os.path.relpath(spans_path, ROOT),
        "spans_last_pass": len(tracers[-1].spans),
    }
    return [p for p, _ in plain] + [p for p, _ in traced] + [check_pass], metrics, detail


def _append_record(path: str, record: dict) -> None:
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "csspheres", "__init__.py")):
        print(f"error: no csspheres source tree at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(STATE_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            _, seconds = setup(args.workload, args.seed, workdir)
            print(repr(seconds))
            return 0
        env = environment(args.seed)
        inputs, first = setup(args.workload, args.seed, workdir)
        import csspheres

        if os.path.dirname(os.path.abspath(csspheres.__file__)) != os.path.join(SRC, "csspheres"):
            print(f"error: imported csspheres from {csspheres.__file__}, not {SRC}", file=sys.stderr)
            return 2
        me = [os.path.abspath(__file__), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
        setup_samples = [first] + [_child_seconds(me) for _ in range(SETUP_CHILDREN)]
        if args.trace:
            spans = os.path.join(STATE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            passes, metrics, detail = measure_traced(args.workload, inputs, args.seconds, spans)
            units = {k: tracing.layer_unit(k) for k in metrics}
        else:
            passes, metrics, detail = measure(args.workload, inputs, args.seconds)
            metrics["setup_s"] = statistics.median(setup_samples)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for p in passes for c in p.checks]
    failed = [c for c in checks if not c[1]]
    detail.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  setup_s_samples=setup_samples, failed_ratio=len(failed) / len(checks),
                  failed_checks=failed[:10], environment=env)
    for key in sorted(metrics):
        print(f"{key:24s} {metrics[key]:>16.6f} {units[key]}")
    print(f"{'failed_ratio':24s} {len(failed):>9d} / {len(checks)}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        _append_record(args.out, {"detail": detail, **result})
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
