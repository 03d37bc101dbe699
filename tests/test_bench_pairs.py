"""Summary arithmetic of tools/bench_pairs.py on canned run records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = BENCHMARK["end_to_end"]


def _run(wall, rss, failed=0):
    metrics = {"wall_s": wall, "setup_s": 0.4, "peak_rss_mib": rss}
    return {"workloads": {"jc-master": {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()}}}}


# five pairs; the change loses seed 4 on wall_s and ties seed 2 on rss
PARENT = {1: _run(0.36, 86.0), 2: _run(0.40, 87.0), 3: _run(0.30, 86.5),
          4: _run(0.20, 86.0, failed=1), 5: _run(0.38, 86.0)}
CHANGE = {1: _run(0.26, 88.0), 2: _run(0.25, 87.0), 3: _run(0.27, 88.5),
          4: _run(0.29, 88.0), 5: _run(0.24, 88.0, failed=2)}


def test_summary_medians_quartiles_and_pairs():
    row = bench_pairs.summarize(PARENT, CHANGE, END_TO_END)["jc-master"]
    wall = row["wall_s"]
    # parent sorted 0.20 0.30 0.36 0.38 0.40; change 0.24 0.25 0.26 0.27 0.29
    assert wall["parent_median"] == 0.36
    assert wall["parent_quartiles"] == pytest.approx([0.30, 0.38])
    assert wall["change_median"] == 0.26
    assert wall["change_quartiles"] == pytest.approx([0.25, 0.27])
    assert wall["change_better_pairs"] == 4 and wall["pairs"] == 5
    assert wall["relative_change"] == pytest.approx(0.26 / 0.36 - 1.0)
    # lower is better for memory too; the tie on seed 2 counts for neither
    assert row["peak_rss_mib"]["change_better_pairs"] == 0
    assert row["setup_s"]["change_better_pairs"] == 0
    assert row["failed_parent_change"] == [1, 2]


def test_quartiles_interpolate_between_order_statistics():
    # inclusive method: positions 1 + (n - 1) / 4 and 1 + 3 (n - 1) / 4
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 3.25]


def test_higher_is_better_counts_the_other_way():
    cmp = bench_pairs.compare({1: 0.5, 2: 0.6}, {1: 0.7, 2: 0.6}, "higher")
    assert cmp["change_better_pairs"] == 1


def test_claim_reads_the_summary_row():
    summary = bench_pairs.summarize(PARENT, CHANGE, END_TO_END)
    assert bench_pairs.claim(summary, "jc-master", "wall_s") == {
        "workload": "jc-master", "metric": "wall_s", "parent_median": 0.36,
        "change_median": 0.26, "change_better_pairs": 4, "pairs": 5}


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError, match="paired"):
        bench_pairs.summarize(PARENT, {1: CHANGE[1]}, END_TO_END)


def test_summary_reproduces_a_checked_in_bench_file():
    doc = json.loads((ROOT / "BENCH_stark-dense.json").read_text())
    runs = {side: {int(s): r for s, r in doc[side]["runs"].items()}
            for side in ("parent", "change")}
    summary = bench_pairs.summarize(runs["parent"], runs["change"], END_TO_END)
    assert summary == doc["summary"]
    assert bench_pairs.claim(summary, "jc-master", "wall_s") == doc["claim"]


def test_traced_summary_pairs_each_per_layer_metric():
    per_layer = [{"name": "dynamics.evolve.self_s", "unit": "s",
                  "better": "lower"},
                 {"name": "process.cpu_s", "unit": "s", "better": "lower"}]

    def side(evolve, cpu):
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": {
            "wall_s": {"value": 1.0, "unit": "s"},
            "dynamics.evolve.self_s": {"value": evolve, "unit": "s"},
            "process.cpu_s": {"value": cpu, "unit": "s"}}}

    traced = {"command": "run.py", "order": "parent first",
              "parent": side(0.5, 0.9), "change": side(0.2, 0.6)}
    assert bench_pairs.traced_summary(traced, per_layer) == {
        "dynamics.evolve.self_s": {"unit": "s", "parent": 0.5, "change": 0.2},
        "process.cpu_s": {"unit": "s", "parent": 0.9, "change": 0.6}}
    # every per-layer metric of the benchmark, off a checked-in traced pair
    traced = json.loads((ROOT / "BENCH_stark-dense.json").read_text())["traced"]
    full = bench_pairs.traced_summary(traced, BENCHMARK["per_layer"])
    assert list(full) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert full["dynamics.evolve.steps"] == {
        "unit": "count", "parent": 10000, "change": 10000}


def test_claim_outside_the_run_workload_is_refused_before_any_run(
        monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("ran before refusing the claim")

    monkeypatch.setattr(bench_pairs, "_export", no_run)
    monkeypatch.setattr(bench_pairs, "_run", no_run)
    monkeypatch.setattr(bench_pairs, "_git", no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--label", "x", "--seed", "1",
                          "--workload", "jc-master",
                          "--claim", "mc-dephasing.wall_s"])
    assert exit_info.value.code == 2
    assert "does not run mc-dephasing" in capsys.readouterr().err


def test_failed_run_names_the_side_and_keeps_its_stderr(tmp_path):
    # a stub tree whose run.py dies as a worker with no set-up samples did
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "sys.stderr.write('Traceback (most recent call last):\\n'\n"
        "                 'statistics.StatisticsError: mean requires at '\n"
        "                 'least one data point\\n')\n"
        "sys.exit(1)\n")
    args = ["--workload", "jc-master", "--seed", "501", "--seconds", "30",
            "--trace", "0"]
    with pytest.raises(RuntimeError) as err:
        bench_pairs._run(tmp_path, args, "change")
    message = str(err.value)
    assert "change side" in message
    assert "--workload jc-master --seed 501" in message
    assert "status 1" in message
    assert message.endswith("StatisticsError: mean requires at least one "
                            "data point")
