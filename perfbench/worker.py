"""Passes of one workload in one fresh process: a single closed-loop caller.

Started by run.py, never by hand.  Imports dotqed from the checkout's
`src/`, builds and validates the workload's configs, prints `ready`, then
runs passes of the workload, each operation after the previous one
returned, until the next operation would end after --budget seconds; the
first --min-passes passes always run whole.  With --trace 1 only whole
passes run and every second one (the 2nd, 4th, ...) is traced; otherwise
reference.Sampler samples the host's speed all along.  Writes result.json (and spans.jsonl with --trace 1) into --out.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_dotqed():
    sys.path.insert(0, str(SRC))
    import dotqed
    if Path(dotqed.__file__).resolve().parent != (SRC / "dotqed").resolve():
        raise ImportError(f"dotqed imported from {dotqed.__file__}, "
                          f"not from {SRC}")
    return dotqed


def _environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ}}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--state", default=None,
                    help="JSON file left by the previous worker of the run")
    ap.add_argument("--min-passes", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import reference
    # the host-speed sampler runs in untraced workers only, so that it stays
    # out of the spans
    sampler = None if args.trace else reference.Sampler()
    if sampler is not None:
        sampler.start()
    dotqed = _import_dotqed()
    import spans
    import workloads

    out = Path(args.out)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.pass_id = "setup"
        tracer.install(dotqed)
    ops = workloads.build(args.workload, args.seed, out / "artifacts")
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    setup_samples, setup_sampling_s = sampler.take() if sampler else ([], 0.0)
    clock = sampler.clock if sampler else time.perf_counter

    deadline = time.perf_counter() + args.budget
    # what earlier workers of the run saw: seconds per operation, where
    # their cycle through the operations stopped, and their latest results
    state = {"expected": {}, "next": 0, "done": {}}
    if args.state:
        with open(args.state) as fh:
            state = json.load(fh)
    hints, own, done = state["expected"], {}, state["done"]
    start = state["next"]

    def expected(names):
        return sum(statistics.mean(own[n]) if n in own else hints.get(n, 0.0)
                   for n in names)

    def may_start(op):
        return time.perf_counter() + expected([op.name]) <= deadline

    # an untraced pass may stop before any operation that would end after
    # the deadline; a traced run keeps whole passes only
    whole = tracer is not None
    names = [op.name for op in ops]
    passes = []
    while True:
        due = len(passes) < args.min_passes
        if not due and (time.perf_counter() + expected(
                names if whole else [ops[start].name]) > deadline):
            break
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = f"pass{len(passes)}"
            tracer.install(dotqed)
        cpu0, t0 = time.process_time(), time.perf_counter()
        records = workloads.run_pass(ops, done, start, clock,
                                     None if whole or due else may_start)
        t1, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        if records:
            passes.append({"traced": traced, "start": t0, "end": t1,
                           "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
                           "ops": records})
        for rec in records:
            if rec["seconds"] is not None:
                own.setdefault(rec["name"], []).append(rec["seconds"])
        start = (start + len(records)) % len(ops)
        if len(records) < len(ops):
            break

    samples = []
    if sampler is not None:
        sampler.stop()
        samples = sampler.take()[0]
    if tracer is not None:
        tracer.write(out / "spans.jsonl")
    result = {"env": _environment(), "passes": passes, "next": start,
              "done": done, "setup_samples": setup_samples,
              "setup_sampling_s": setup_sampling_s, "samples": samples,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
