"""tools/bench_pairs.py's summary of one metric's pairs, on canned numbers, and its
argument check and its record of each tree's bytecode cache and src/ line count, with
no benchmark run."""

import json
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _bench_pairs():
    sys.path.insert(0, TOOLS)
    try:
        import bench_pairs
    finally:
        sys.path.remove(TOOLS)
    return bench_pairs


def _summarize(*args):
    return _bench_pairs().summarize(*args)


def test_a_higher_is_better_metric_counts_the_pairs_the_change_raised():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [14.0, 11.0, 15.0, 16.0, 13.0]
    out = _summarize(parent, change, "higher")
    assert out["parent"] == {"values": parent, "median": 11.0, "q1": 10.0, "q3": 12.0}
    assert out["change"] == {"values": change, "median": 14.0, "q1": 13.0, "q3": 15.0}
    assert out["pairs"] == 5
    assert out["wins"] == 4  # pair 1 fell
    assert out["change_pct"] == pytest.approx(100.0 * 3.0 / 11.0)
    assert out["beyond_parent_iqr"]  # 14 - 11 > 12 - 10


def test_a_lower_is_better_metric_counts_the_pairs_the_change_lowered():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.0, 1.5, 3.5, 2.0]
    out = _summarize(parent, change, "lower")
    assert out["wins"] == 2  # a tie is no win
    assert out["parent"]["median"] == 2.5
    assert out["change"]["median"] == 1.75
    assert out["parent"]["q1"] == 1.75 and out["parent"]["q3"] == 3.25
    assert not out["beyond_parent_iqr"]  # 0.75 is within the parent's IQR of 1.5


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_fewer_than_two_pairs_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch,
                                                                pairs):
    # at the parent every run went ahead and statistics.quantiles then failed on one value
    def no_run(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().main(["--parent", ".", "--change", ".", "--pairs", pairs,
                             "--out", str(out)])
    assert exc.value.code == 2
    assert f"--pairs must be >= 2, got {pairs}" in capsys.readouterr().err
    assert not out.exists()


def test_bytecode_cache_reads_the_run_environment_and_the_tree(tmp_path):
    bytecode_cache = _bench_pairs().bytecode_cache
    assert bytecode_cache(str(tmp_path), {}) == {"PYTHONDONTWRITEBYTECODE": False,
                                                 "src_pycache": False}
    (tmp_path / "src" / "simppl" / "__pycache__").mkdir(parents=True)
    assert bytecode_cache(str(tmp_path), {"PYTHONDONTWRITEBYTECODE": "1"}) == {
        "PYTHONDONTWRITEBYTECODE": True, "src_pycache": True}
    # Python ignores the variable when it is empty
    assert not bytecode_cache(str(tmp_path), {"PYTHONDONTWRITEBYTECODE": ""})[
        "PYTHONDONTWRITEBYTECODE"]


def test_the_report_holds_each_trees_bytecode_cache_before_and_after_its_runs(tmp_path,
                                                                             monkeypatch):
    bench_pairs = _bench_pairs()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "simppl").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "setup_s", "better": "lower"}]}))
    (trees["parent"] / "src" / "simppl" / "__pycache__").mkdir()
    # src_lines counts newlines of src/simppl/*.py only, as `wc -l` does: a last line
    # without a newline is not counted, nor are other files
    (trees["parent"] / "src" / "simppl" / "a.py").write_text("x = 1\n\ny = 2\n")
    (trees["parent"] / "src" / "simppl" / "b.py").write_text("z = 3\nw = 4")
    (trees["parent"] / "src" / "simppl" / "notes.txt").write_text("\n" * 9)
    (trees["parent"] / "src" / "simppl" / "__pycache__" / "a.py").write_text("\n" * 9)
    (trees["change"] / "src" / "simppl" / "a.py").write_text("x = 1\n")

    def run_once(tree, workload, seed, seconds):  # a run that compiles src/ leaves a cache
        os.makedirs(os.path.join(tree, "src", "simppl", "__pycache__"), exist_ok=True)
        return {"attempted": 100 * seed, "metrics": {"setup_s": {"value": 0.1 * seed}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "golden_sha", lambda tree: "sha")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--pairs", "2", "--workloads", "rejection-cli",
                             "--out", str(out)]) == 0
    state = {cached: {"PYTHONDONTWRITEBYTECODE": False, "src_pycache": cached}
             for cached in (False, True)}
    report = json.loads(out.read_text())
    assert report["bytecode_cache"] == {
        "parent": {"before": state[True], "after": state[True]},
        "change": {"before": state[False], "after": state[True]},
    }
    assert report["src_lines"] == {"parent": 4, "change": 1}
    assert report["complete"] is True and "failed" not in report


def test_the_report_summarises_the_operations_each_side_attempted(tmp_path, monkeypatch):
    # tau-infer's peak_rss_mb follows the particles a run attempted, so the report keeps
    # each side's attempted counts with their median and quartiles, as for a metric
    bench_pairs = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "peak_rss_mb", "better": "lower"}]}))
    attempted = {"parent": [100, 300, 200, 400, 500], "change": [150, 120, 110, 130, 140]}

    def run_once(tree, workload, seed, seconds):
        n = attempted[os.path.basename(tree)][seed - 1]
        return {"attempted": n, "metrics": {"peak_rss_mb": {"value": 50.0 + n / 1000}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "golden_sha", lambda tree: "sha")
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--pairs", "5",
                             "--workloads", "tau-infer", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["workloads"]["tau-infer"]
    assert report["attempted"] == {
        "parent": {"values": attempted["parent"], "median": 300, "q1": 200, "q3": 400},
        "change": {"values": attempted["change"], "median": 130, "q1": 120, "q3": 140}}
    assert report["metrics"]["peak_rss_mb"]["wins"] == 4


# counts its calls in a file beside it and fails on the second
_STUB_RUN = """
import json, os, sys
calls = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calls")
n = int(open(calls).read()) if os.path.exists(calls) else 0
open(calls, "w").write(str(n + 1))
if n == 1:
    sys.stderr.write("".join(f"line {i}\\n" for i in range(30)))
    sys.exit(3)
print("a progress line")
print(json.dumps({"metrics": {"setup_s": {"value": 0.5 + n}}}))
"""


def test_a_failing_run_stops_the_tool_and_keeps_the_finished_runs(tmp_path, monkeypatch,
                                                                  capsys):
    bench_pairs = _bench_pairs()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for side, tree in trees.items():
        (tree / "benchmark").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "setup_s", "better": "lower"}]}))
        (tree / "benchmark" / "run.py").write_text(
            _STUB_RUN if side == "change" else _STUB_RUN.replace("n == 1", "False"))
    monkeypatch.setattr(bench_pairs, "golden_sha", lambda tree: "sha")
    out = tmp_path / "bench.json"
    # pair 0 runs the parent, then the change; pair 1 the change first, whose second call fails
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--pairs", "3", "--seed-base", "7", "--workloads", "tau-train",
                             "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["complete"] is False
    assert report["failed"] == {"workload": "tau-train", "side": "change", "seed": 8,
                                "exit_code": 3,
                                "stderr": [f"line {i}" for i in range(10, 30)]}
    runs = report["workloads"]["tau-train"]["runs"]
    assert [(r["seed"], r["first"], r["metrics"]) for r in runs["parent"]] == [
        (7, True, {"setup_s": {"value": 0.5}})]
    assert [(r["seed"], r["first"]) for r in runs["change"]] == [(7, False)]
    assert "metrics" not in report["workloads"]["tau-train"]
    assert "tau-train change seed 8 exited 3" in capsys.readouterr().err
