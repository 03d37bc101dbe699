"""Alternating benchmark pairs of a parent revision and the work tree, written
as one BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent HEAD --label my-change \
        --workload all --pairs 10 --seed 1801 --claim jc-master.wall_s

The parent's committed files are exported (`git archive`) into a temporary
directory; the change is the work tree as it stands, committed or not.
Pair i runs `perfbench/run.py` of each tree on seed S + i with the
benchmark's own run length, the parent first on odd seeds and the change
first on even ones.  With a claim, one more traced pair of the claimed
workload follows on the next seed.  The summary gives, per workload and
end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
pairs the change wins (ties count for neither) and the relative change of
the medians.  With a claim, the traced summary gives each side's value of
every per-layer metric in the traced pair, to show which layer moved.
Each side also records its line count of src/dotqed/*.py (`src_lines`);
their difference is the change's net source-line count.
"""

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20    # lines of a failed run's stderr kept in the error


# ------------------------------------------------------------- arithmetic

def quartiles(values):
    """First and third quartiles, by linear interpolation between order
    statistics (statistics.quantiles' inclusive method)."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(parent, change, better):
    """Medians, quartiles and won pairs of one metric over paired runs;
    parent and change map each seed to a value, better is "lower" or
    "higher"."""
    seeds = sorted(parent)
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(p), statistics.median(c)
    return {"parent_median": p_med, "parent_quartiles": quartiles(p),
            "change_median": c_med, "change_quartiles": quartiles(c),
            "change_better_pairs": sum(sign * (y - x) < 0
                                       for x, y in zip(p, c)),
            "pairs": len(seeds), "relative_change": c_med / p_med - 1.0}


def summarize(parent_runs, change_runs, end_to_end):
    """Per workload: compare() of each end-to-end metric, and the operations
    failed over all runs of each side.  Runs map a seed to run.py's JSON
    for `--workload all` ({"workloads": {name: result}})."""
    seeds = sorted(parent_runs)
    if sorted(change_runs) != seeds:
        raise ValueError("parent and change runs are not paired by seed")
    workloads = parent_runs[seeds[0]]["workloads"]
    summary = {}
    for name in workloads:
        def values(runs, metric):
            return {s: runs[s]["workloads"][name]["metrics"][metric]["value"]
                    for s in seeds}
        row = {m["name"]: compare(values(parent_runs, m["name"]),
                                  values(change_runs, m["name"]), m["better"])
               for m in end_to_end}
        row["failed_parent_change"] = [
            sum(runs[s]["workloads"][name]["failed"] for s in seeds)
            for runs in (parent_runs, change_runs)]
        summary[name] = row
    return summary


def traced_summary(traced, per_layer):
    """Per-layer metric of BENCHMARK.json -> its unit and the parent's and
    the change's value in the traced pair (run.py's JSON of one workload
    per side)."""
    return {m["name"]: {"unit": m["unit"],
                        **{side: traced[side]["metrics"][m["name"]]["value"]
                           for side in ("parent", "change")}}
            for m in per_layer}


def claim(summary, workload, metric):
    row = summary[workload][metric]
    return {"workload": workload, "metric": metric,
            **{k: row[k] for k in ("parent_median", "change_median",
                                   "change_better_pairs", "pairs")}}


def source_lines(tree):
    """Lines of src/dotqed/*.py under the checkout tree, as `wc -l` counts
    them (newline characters)."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(tree) / "src" / "dotqed").glob("*.py"))


# ---------------------------------------------------------------- running

def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev, dest):
    """The committed files of rev, unpacked under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                              rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _work_tree_src():
    """Tree hash of the work tree's src/, as a commit of it would record."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        for args in (["read-tree", "--empty"], ["add", "-A", "src"]):
            subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                           env=env, capture_output=True)
        return subprocess.run(
            ["git", "-C", str(ROOT), "write-tree", "--prefix=src/"],
            check=True, env=env, capture_output=True, text=True).stdout.strip()


def _run(tree, args, side):
    """run.py's JSON result (its last stdout line) in the checkout tree of
    side.  A non-zero exit raises RuntimeError naming the side and run.py's
    arguments (workload and seed among them), with the last STDERR_TAIL
    lines of its stderr."""
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         cwd=tree, capture_output=True, text=True)
    if out.returncode:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        raise RuntimeError(f"perfbench/run.py {' '.join(args)} on the {side} "
                           f"side exited with status {out.returncode}; the "
                           f"end of its stderr:\n{tail}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = ", ".join(f"{pkg} {importlib.metadata.version(pkg)}"
                         for pkg in ("numpy", "scipy"))
    return (f"{os.cpu_count()} CPUs ({model}), "
            f"Python {platform.python_version()}, {versions}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", default="all",
                    help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="pairs run on seeds seed .. seed + pairs - 1")
    ap.add_argument("--claim", metavar="WORKLOAD.METRIC",
                    help="the claimed metric; adds a traced pair")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim:
        workload, _, metric = args.claim.partition(".")
        if (workload not in {w["name"] for w in bench["workloads"]}
                or metric not in {m["name"] for m in bench["end_to_end"]}):
            ap.error(f"--claim {args.claim}: not a workload.metric of "
                     "BENCHMARK.json")
        if args.workload not in ("all", workload):
            ap.error(f"--claim {args.claim}: --workload {args.workload} "
                     f"does not run {workload}")
    seconds = str(bench["run_seconds"])
    seeds = [args.seed + i for i in range(args.pairs)]
    parent_commit = _git("rev-parse", "--verify", args.parent + "^{commit}")
    head_src = _git("rev-parse", "HEAD:src")
    change_src = _work_tree_src()

    def command(workload, seed, trace):
        return ["--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", str(trace)]

    def pair(seed, workload, trace):
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        out = {}
        for side in sides:
            print(f"seed {seed}: {side} {workload}", file=sys.stderr)
            out[side] = _run(trees[side], command(workload, seed, trace),
                             side)
        return out, f"{sides[0]} first"

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        _export(parent_commit, tmp)
        trees = {"parent": tmp, "change": ROOT}
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        runs = {"parent": {}, "change": {}}
        for seed in seeds:
            out, _ = pair(seed, args.workload, 0)
            for side, result in out.items():
                if args.workload != "all":
                    result = {"workloads": {args.workload: result}}
                runs[side][seed] = result
        traced = None
        if args.claim:
            out, order = pair(seeds[-1] + 1, workload, 1)
            traced = {"command": "python3 perfbench/run.py " + " ".join(
                          command(workload, seeds[-1] + 1, 1)),
                      "order": order, **out}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(runs["parent"], runs["change"], bench["end_to_end"])
    doc = {
        "label": args.label,
        "command": "python3 perfbench/run.py " + " ".join(
            command(args.workload, "S", 0)),
        "host": _host(),
        "order": (f"{args.pairs} pairs on seeds {seeds[0]}-{seeds[-1]}; "
                  "parent first on odd seeds, change first on even seeds"),
        "claim": claim(summary, workload, metric) if args.claim else None,
        "summary": summary,
        "traced_summary": (traced_summary(traced, bench["per_layer"])
                           if traced else None),
        "parent": {"commit": parent_commit,
                   "src_tree": _git("rev-parse", parent_commit + ":src"),
                   "src_lines": lines["parent"],
                   "runs": {str(s): r for s, r in runs["parent"].items()}},
        "change": {"commit": _git("rev-parse", "HEAD")
                   if change_src == head_src else None,
                   "src_tree": change_src,
                   "src_lines": lines["change"],
                   "runs": {str(s): r for s, r in runs["change"].items()}},
        "traced": traced,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
