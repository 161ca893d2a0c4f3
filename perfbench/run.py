"""The normplane benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 34 \\
        --trace 0 [--out results.jsonl]

Run from the root of a checkout; it imports normplane from ``src/`` there
and nowhere else.  Each workload (see workloads.py) runs in child
processes (child.py) with one thread and BLAS pools pinned to one thread,
driven as a closed loop by one client.  The seed makes the inputs; the
program sees only the inputs (for ``corpus``, the seed run_corpus takes).

Every time below is rescaled to nominal host speed by the reference
kernel timed just before and after it (hostspeed.py says why and how); the
raw figures and the host's slowdown are kept in the record.

--trace 0 reports the end-to-end metrics.  The --seconds of operations
are split over SEGMENTS loop children, each going on with the inputs
where the one before stopped, with SETUPS_BETWEEN set-up-only children
before, between and after them, so the set-up samples are spread over
the whole run:

  items_per_s  curves checked, polygons or documents completed per second
               of time spent inside the operations
  op_p50_ms    median latency of one operation
  op_tail_ms   latency at the highest percentile with at least ten samples
               beyond it (the percentile and sample count are in the record)
  setup_s      median, over every child of the run, of the time from
               spawning the child to its first operation being ready:
               importing normplane and normplane.cli and building the
               workload's balls
  peak_rss_mb  peak resident memory of the largest loop child

--trace 1 reports the per-layer metrics (tracer.py).  TRACE_ROUNDS rounds
of four children (untraced, traced, traced, untraced) each run the same
fixed number of operations, set by --seconds.  Every traced child must
reproduce the hardware-independent counts exactly; the span times are
medians over the traced children.  Each round gives one tracing overhead;
the median over the rounds is reported with its interquartile range, and
is marked unresolved in the record when that range exceeds it.

An operation fails if it raises, exits with the wrong code or fails its
check.  The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record with provenance, also appended to --out for compare.py.
A non-zero exit code means nothing was measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import reference, rescale
from tracer import EXACT_COUNTS
from workloads import BATCH, VERTEX_RANGE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

UNITS = {"items_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "setup_s": "s"}
SEGMENTS = 4          # loop children per untraced run
SETUPS_BETWEEN = 2    # set-up-only children before, between and after them
TRACE_ROUNDS = 4
# operations per traced child per second of --seconds (1, 24 and 15 at
# 34 s), so a given --seconds always traces the same work
TRACE_OPS_PER_S = {"corpus": 0.03, "lhuilier": 0.7, "documents": 0.45}
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """Nothing valid was measured."""


class Runner:
    def __init__(self, workload, seed, workdir):
        self.common = ["--workload", workload, "--seed", str(seed),
                       "--workdir", str(workdir)]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **dict.fromkeys(THREAD_VARS, "1"))
        reference()  # warm-up: the first call pays for numpy's dispatch

    def spawn(self, *args):
        """Run one child to completion; add its set-up time to its output."""
        cmd = [sys.executable, str(HERE / "child.py"), *self.common, *args]
        ref = reference()
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {args}") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        if not Path(out["module"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"normplane came from {out['module']}")
        out["raw_setup_s"] = out["ready"] - start
        out["setup_s"] = rescale(out["raw_setup_s"], ref, out["ready_ref"])
        return out


def tail(latencies):
    """(value, percentile): the highest sample with ten samples above it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def rate(*runs, key="latencies"):
    """Items completed per second spent inside the operations."""
    return (sum(r["items"] for r in runs)
            / sum(sum(r[key]) for r in runs))


def untraced(runner, seconds):
    setups, loops = [], []

    def setup_children():
        setups.extend(runner.spawn("--mode", "setup")
                      for _ in range(SETUPS_BETWEEN))

    setup_children()
    for _ in range(SEGMENTS):
        done = sum(r["attempted"] for r in loops)
        loops.append(runner.spawn("--mode", "loop", "--start", str(done),
                                  "--seconds", str(seconds / SEGMENTS)))
        setups.append(loops[-1])
        setup_children()

    def timings(lat_key, setup_key):
        lat = [x for r in loops for x in r[lat_key]]
        return {"items_per_s": rate(*loops, key=lat_key),
                "op_p50_ms": 1e3 * statistics.median(lat),
                "op_tail_ms": 1e3 * tail(lat)[0],
                "setup_s": statistics.median(r[setup_key] for r in setups)}

    metrics = {name: (value, UNITS[name]) for name, value
               in timings("latencies", "setup_s").items()}
    metrics["peak_rss_mb"] = (max(r["peak_rss_kb"] for r in loops) / 1024.0,
                              "MB")
    lat = [x for r in loops for x in r["latencies"]]
    raw = [x for r in loops for x in r["raw_latencies"]]
    detail = {"samples": len(lat), "tail_percentile": tail(lat)[1],
              "setup_samples_s": [r["setup_s"] for r in setups],
              "raw": timings("raw_latencies", "raw_setup_s"),
              "host_slowdown": statistics.median(
                  r / x for r, x in zip(raw, lat)),
              "errors": [e for r in loops for e in r["errors"]][:5]}
    return (metrics, sum(r["attempted"] for r in loops),
            sum(r["failed"] for r in loops), detail)


def traced(runner, workload, seconds):
    ops = ["--mode", "fixed", "--ops",
           str(max(1, round(seconds * TRACE_OPS_PER_S[workload])))]
    runs, overheads = [], []
    for _ in range(TRACE_ROUNDS):
        # untraced, traced, traced, untraced: what drift in host speed
        # the rescaling leaves cancels to first order in the overhead
        rnd = [runner.spawn(*ops, *flags)
               for flags in ((), ("--trace",), ("--trace",), ())]
        runs.extend(rnd)
        base_ips, ips = rate(rnd[0], rnd[3]), rate(rnd[1], rnd[2])
        overheads.append(100.0 * (base_ips - ips) / base_ips)
    traces = [r for r in runs if "layers" in r]
    untraced_runs = [r for r in runs if "layers" not in r]
    first = traces[0]
    differ = sorted({k for r in traces[1:] for k in EXACT_COUNTS
                     if r["layers"][k] != first["layers"][k]})
    metrics = {k: (v if k in EXACT_COUNTS else
                   statistics.median(r["layers"][k][0] for r in traces), u)
               for k, (v, u) in first["layers"].items()}
    overhead = statistics.median(overheads)
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    metrics["trace.items_per_s"] = (rate(*traces), "1/s")
    metrics["trace.untraced_items_per_s"] = (rate(*untraced_runs), "1/s")
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.overhead_iqr_pct"] = (q3 - q1, "%")
    detail = {"ops_per_child": int(ops[-1]), "rounds": TRACE_ROUNDS,
              "counts_differ": differ,
              "overhead": {"rounds_pct": overheads, "median_pct": overhead,
                           "q1_pct": q1, "q3_pct": q3,
                           "resolved": q3 - q1 <= abs(overhead)},
              "absent": {k: "not reached by this workload; reported as 0"
                         for k in first["absent"]},
              "errors": [e for r in runs for e in r["errors"]][:5]}
    return (metrics, sum(r["attempted"] for r in runs),
            sum(r["failed"] for r in runs), detail)


def provenance():
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path,
                   help="append the full record to this JSON-lines file")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "normplane" / "__init__.py").is_file():
        sys.exit(f"no normplane sources under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced(
                runner, args.workload, args.seconds)
            correct = failed == 0 and not detail["counts_differ"]
        else:
            metrics, attempted, failed, detail = untraced(runner,
                                                          args.seconds)
            correct = failed == 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "batch": BATCH, "vertex_range": list(VERTEX_RANGE),
              "provenance": provenance(), "correct": correct,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, **detail,
              "metrics": metrics}
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
