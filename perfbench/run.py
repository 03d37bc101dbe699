"""Benchmark of the dotqed measurement loop, end to end and per layer.

    python3 perfbench/run.py --workload pulsed-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run starts N_WORKERS fresh worker processes (worker.py) one after
another; each imports dotqed from this checkout's `src/` and runs passes
of the workload in its share of --seconds.  --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer metrics of the traced
passes.  Human-readable lines (environment, gate verdicts, run hashes,
metrics with units) come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exits 2
without a result when the checkout holds no dotqed sources, 1 when a worker
process fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import metrics
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "dotqed"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("pulsed-sweep", "mc-dephasing", "jc-master", "readout-shots")
# fresh processes per run: each gives one set-up sample and some passes
N_WORKERS = 3
# set-up time assumed for a worker before one has been measured
SETUP_GUESS_S = 2.0
# a run must end within 180 s; leave room for start-up and analysis
RUN_TIMEOUT_S = 160.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _run_worker(workload, seed, trace, budget, state, min_passes, out,
                deadline):
    """Run one worker.py process and return its result.

    The result gains `setup_s`, the seconds from spawn to the worker's
    `ready` line, and `spans` when the worker was traced.
    """
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--budget", f"{budget:.3f}", "--min-passes", str(min_passes),
           "--out", str(out)]
    if state is not None:
        with open(out / "state.json", "w") as fh:
            json.dump(state, fh)
        cmd += ["--state", str(out / "state.json")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or line.strip() != "ready":
        raise BenchError(f"worker for {workload} exited with code {rc}")
    with open(out / "result.json") as fh:
        result = json.load(fh)
    result["setup_s"] = ready_s
    if trace:
        result["spans"] = spans.read_spans(out / "spans.jsonl")
    return result


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _mark_hash_mismatches(passes):
    """Fail every operation of a pass whose digests differ from the first
    pass's."""
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    for p in passes[1:]:
        bad = [op["name"] for op in p["ops"] if op["digest"] != first[op["name"]]]
        if bad:
            for op in p["ops"]:
                op["ok"] = False
                op["error"] = op["error"] or f"run hash differs from pass 0: {bad}"


def _report_ops(workload, passes):
    for op in passes[0]["ops"]:
        runs = [r for p in passes for r in p["ops"] if r["name"] == op["name"]]
        n_failed = sum(not r["ok"] for r in runs)
        print(f"op {workload}/{op['name']}: "
              f"{'PASS' if n_failed == 0 else 'FAIL'} "
              f"({n_failed}/{len(runs)} runs failed)")
        for label, ok, detail in op["checks"]:
            print(f"  gate {label}: {'pass' if ok else 'FAIL'}  {detail}")
        for err in sorted({r["error"] for r in runs} - {None}):
            print(f"  error: {err}")
        digests = {r["digest"] for r in runs}
        print(f"  run_hash {op['digest']} "
              f"({'identical in' if len(digests) == 1 else 'DIFFERS across'} "
              f"{len(runs)} runs)")


def _op_seconds(passes):
    """Seconds of every untraced run of each operation, by name."""
    per_op = {}
    for p in passes:
        for op in p["ops"]:
            if not p["traced"] and op["seconds"] is not None:
                per_op.setdefault(op["name"], []).append(op["seconds"])
    return per_op


def _merge_spans(workers):
    """Spans of all traced workers in one list; pass ids become
    `w<i>.setup` and `w<i>.pass<k>` for worker i."""
    merged = []
    for i, w in enumerate(workers):
        offset = len(merged)
        for rec in w.get("spans", ()):
            if rec[spans.PARENT] is not None:
                rec[spans.PARENT] += offset
            rec[spans.PASS] = f"w{i}.{rec[spans.PASS]}"
            merged.append(rec)
    return merged


def _per_layer(workers):
    traced = {f"w{i}.pass{k}": p for i, w in enumerate(workers)
              for k, p in enumerate(w["passes"]) if p["traced"]}
    untraced = [p for w in workers for p in w["passes"] if not p["traced"]]
    merged = _merge_spans(workers)
    view = metrics.TraceView(merged, list(traced))
    ctx = SimpleNamespace(
        view=view,
        setup=metrics.TraceView(merged, [f"w{i}.setup"
                                         for i in range(len(workers))],
                                selfs=view.selfs),
        cpu_s=statistics.median(p["cpu_s"] for p in traced.values()),
        coverage=spans.coverage(merged, {
            pid: (p["start"], p["end"]) for pid, p in traced.items()}),
        overhead_s=(statistics.median(p["wall_s"] for p in traced.values())
                    - statistics.median(p["wall_s"] for p in untraced)))
    return {name: (value(ctx), unit, moves)
            for name, unit, _better, value, moves in metrics.PER_LAYER}


def _host_speed(samples):
    """Nominal over mean measured seconds of the reference computations
    sampled: above 1 while the host runs fast."""
    return reference.NOMINAL_S / statistics.mean(sum(x) for x in samples)


def _end_to_end(workers, passes):
    """wall_s, setup_s and peak_rss_mib of a run, with the raw seconds.

    Times are in reference seconds, so that a drift of the host's speed
    cancels: operation seconds are scaled by the host speed sampled while
    the workers ran their passes, and each set-up by the speed sampled
    during it.  Seconds spent sampling are left out of both.
    """
    speed = _host_speed([x for w in workers for x in w["samples"]])
    per_op = _op_seconds(passes)
    setups = [w["setup_s"] - w["setup_sampling_s"] for w in workers]
    setup_speeds = [_host_speed(w["setup_samples"]) for w in workers]
    print(f"host speed {speed:.4f} during the passes, "
          f"{[round(x, 4) for x in setup_speeds]} during each set-up "
          f"({sum(len(w['samples']) + len(w['setup_samples']) for w in workers)}"
          f" samples; reference nominal {reference.NOMINAL_S} s)")
    for name, xs in per_op.items():
        print(f"  {name}: {len(xs)} runs, raw seconds mean "
              f"{statistics.mean(xs):.4f}, min {min(xs):.4f}, "
              f"max {max(xs):.4f}")
    raw_wall = sum(metrics.op_seconds(xs) for xs in per_op.values())
    return {
        "wall_s": (speed * raw_wall, "s", [raw_wall]),
        "setup_s": (statistics.median(x * v for x, v in
                                      zip(setups, setup_speeds)), "s", setups),
        "peak_rss_mib": (max(w["peak_rss_kib"] for w in workers) / 1024.0,
                         "MiB", None),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; print its report and return the result object.

    N_WORKERS fresh worker processes run one after another; each gets an
    equal share of what is left of `seconds`, and runs passes in it while
    the operations seen so far say the next one ends in time.
    """
    start = time.perf_counter()
    deadline = start + RUN_TIMEOUT_S
    tmp = TMP / f"{workload}-{seed}-{trace}-{os.getpid()}"
    workers = []
    try:
        for i in range(N_WORKERS):
            setup = (statistics.median(w["setup_s"] for w in workers)
                     if workers else SETUP_GUESS_S)
            left = start + seconds - time.perf_counter()
            budget = max(0.0, left / (N_WORKERS - i) - setup)
            # a worker goes on through the operations where the previous
            # one stopped, so that each operation runs about equally often;
            # the first worker runs whole passes, one, or with trace one
            # untraced and one traced
            state = workers and {
                "expected": {name: statistics.mean(xs) for name, xs in
                             _op_seconds([p for w in workers
                                          for p in w["passes"]]).items()},
                "next": workers[-1]["next"], "done": workers[-1]["done"]}
            workers.append(_run_worker(workload, seed, trace, budget,
                                       state or None,
                                       (2 if trace else 1) if i == 0 else 0,
                                       tmp / f"w{i}", deadline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()
    passes = [p for w in workers for p in w["passes"]]

    env = dict(workers[0]["env"], git_commit=_git_commit(),
               source_sha256=_source_digest())
    print(f"workload {workload} seed={seed} seconds={seconds} trace={trace} "
          f"workers={len(workers)} passes={len(passes)} "
          f"(one fresh process per worker)")
    print("env " + json.dumps(env, sort_keys=True))
    _mark_hash_mismatches(passes)
    _report_ops(workload, passes)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    print(f"metric {workload} error_rate {failed / attempted:.4f} ratio "
          f"({failed} failed / {attempted} attempted)")

    values = {}
    if trace:
        for name, (value, unit, moves) in _per_layer(workers).items():
            values[name] = (value, unit)
            print(f"layer {workload} {name} {value:.6g} {unit}  -> {moves}")
    else:
        for name, (value, unit, xs) in _end_to_end(workers, passes).items():
            values[name] = (value, unit)
            extra = (f"  (raw seconds: {', '.join(f'{x:.4f}' for x in xs)})"
                     if xs else "")
            print(f"metric {workload} {name} {value:.4f} {unit}{extra}")

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no dotqed sources at {PACKAGE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0

    columns = [("error_rate", "ratio")] + ([] if args.trace else [
        (name, unit) for name, unit, _ in metrics.END_TO_END])
    print("summary " + " ".join(f"{n}[{u}]" for n, u in columns))
    for name, res in results.items():
        row = [res["failed"] / res["attempted"]] + [
            res["metrics"][n]["value"] for n, _ in columns[1:]]
        print(f"  {name:<14} " + " ".join(f"{v:>12.4f}" for v in row))
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
