"""One workload in its own process: import normplane, set up, run ops.

Started by run.py with one thread and BLAS pools pinned to one thread.
Prints one JSON line: the CLOCK_MONOTONIC time at which the first
operation was ready and the reference kernel's time just after it
(hostspeed.py), then (unless --mode setup) the operations' latencies, raw
and rescaled to nominal host speed, failures and, with --trace, the
per-layer metrics.

  --mode setup   set up and exit (a set-up time sample)
  --mode loop    closed loop of operations for --seconds, on inputs
                 --start, --start + 1, ...
  --mode fixed   exactly --ops operations, so counts repeat exactly
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from hostspeed import reference, rescale


def _call(name, fn, *args, **kwargs):
    """The untraced stand-in for Tracer.span."""
    return fn(*args, **kwargs)


def run_ops(workload, mode, seconds, ops, start_item, trace):
    from tracer import ROOT_SPAN, Tracer

    span, tracer = _call, None
    if trace:
        tracer = Tracer()
        tracer.install()
        span = tracer.span
    latencies, raw, errors = [], [], []
    items = failed = 0
    ref_before = reference()
    start = time.perf_counter()
    i = 0
    while (i < ops if mode == "fixed"
           else i == 0 or time.perf_counter() - start < seconds):
        inp = workload.item(start_item + i)
        error = None
        t0 = time.perf_counter()
        try:
            out = span(ROOT_SPAN, workload.op, inp, span)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            error = f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - t0)
        ref_after = reference()
        latencies.append(rescale(raw[-1], ref_before, ref_after))
        ref_before = ref_after
        if error is None:
            try:
                items += workload.check(inp, out)
            except Exception as exc:  # noqa: BLE001 - a wrong result
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {start_item + i}: {error}")
        i += 1
    result = {"latencies": latencies, "raw_latencies": raw,
              "items": items, "attempted": i,
              "failed": failed, "errors": errors}
    if tracer is not None:
        result["layers"] = tracer.metrics(i)
        result["absent"] = tracer.absent()
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--mode", choices=("setup", "loop", "fixed"),
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    import normplane
    import normplane.cli  # noqa: F401 - part of set-up for every workload
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    result = {"ready": time.monotonic(), "module": normplane.__file__}
    reference()  # warm-up: the first call pays for numpy's dispatch
    result["ready_ref"] = reference()
    if args.mode != "setup":
        result.update(run_ops(workload, args.mode, args.seconds, args.ops,
                              args.start, args.trace))
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
