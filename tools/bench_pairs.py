"""Alternating benchmark pairs of two source trees, written as one JSON file.

    python tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --seconds 30 --out BENCH.json

For each workload and pair k, both trees run their own unchanged
benchmark/run.py with the same seed (--seed-base + k). The parent runs first
in even pairs and the change first in odd ones, so a slow stretch of the host
falls on both sides alike. The file holds every run's end-to-end metrics and,
per metric, each side's median and quartiles and the number of pairs the
change won; also the host's core count, the Python, numpy and scipy versions,
the sha256 of each tree's golden outputs (tests/test_golden.py run as a
script), each tree's bytecode-cache state before and after its runs
(rejection-cli setup_s includes compiling src/ when no cache exists), and
each tree's src/ line count, the newlines of src/simppl/*.py as `wc -l`
counts them.

The file is rewritten after every run with "complete": false until the last
run. A failing run stops the tool with exit code 1; the file then keeps the
runs finished so far and names the failed run's workload, side and seed, its
exit code and the last lines of its stderr.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("tau-infer", "tau-train", "rejection-cli")
STDERR_LINES = 20  # of a failed run, kept in the file


class RunFailed(Exception):
    """A benchmark run that exited non-zero: (exit code, its stderr's last lines)."""


def summarize(parent, change, better):
    """Per-pair values of one metric on both sides: each side's values,
    median and quartiles, the pairs the change won, and whether the medians
    differ by more than the parent's interquartile range."""
    sides = {}
    for name, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        sides[name] = {"values": list(values), "median": median, "q1": q1, "q3": q3}
    sign = 1 if better == "higher" else -1
    p, c = sides["parent"], sides["change"]
    return {
        **sides,
        "better": better,
        "pairs": len(parent),
        "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "change_pct": 100.0 * (c["median"] / p["median"] - 1.0) if p["median"] else None,
        "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def run_env():
    """The environment of every benchmark run: this one without PYTHONPATH."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def bytecode_cache(tree, env):
    """Whether env stops Python writing bytecode, and whether tree's package has a cache."""
    return {"PYTHONDONTWRITEBYTECODE": bool(env.get("PYTHONDONTWRITEBYTECODE")),
            "src_pycache": os.path.isdir(os.path.join(tree, "src", "simppl", "__pycache__"))}


def run_once(tree, workload, seed, seconds):
    """The result line of one `benchmark/run.py --trace 0` run in tree, or RunFailed."""
    env = run_env()
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RunFailed(proc.returncode, proc.stderr.strip().splitlines()[-STDERR_LINES:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(tree):
    """The newlines in tree's src/simppl/*.py: `wc -l`'s total."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "simppl", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def golden_sha(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, "tests/test_golden.py"], cwd=tree, env=env,
                         capture_output=True, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # each side's quartiles need at least two runs
        parser.error(f"--pairs must be >= 2, got {args.pairs}")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    import numpy
    import scipy

    report = {
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
        "golden_sha256": {side: golden_sha(tree) for side, tree in trees.items()},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "bytecode_cache": {side: {"before": bytecode_cache(tree, run_env())}
                           for side, tree in trees.items()},
        "pairs": args.pairs, "seconds": args.seconds, "complete": False, "workloads": {},
    }

    def write():
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        report["workloads"][workload] = {"runs": runs}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                seed = args.seed_base + k
                try:
                    result = run_once(trees[side], workload, seed, args.seconds)
                except RunFailed as exc:
                    report["failed"] = {"workload": workload, "side": side, "seed": seed,
                                        "exit_code": exc.args[0], "stderr": exc.args[1]}
                    write()
                    print(f"{workload} {side} seed {seed} exited {exc.args[0]}", file=sys.stderr)
                    return 1
                runs[side].append({"seed": seed, "first": side == order[0], **result})
                print(workload, k, side, json.dumps(result["metrics"]), flush=True)
                write()
        report["workloads"][workload]["metrics"] = {
            name: summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                            [r["metrics"][name]["value"] for r in runs["change"]], direction)
            for name, direction in better.items()}
    for side, tree in trees.items():
        report["bytecode_cache"][side]["after"] = bytecode_cache(tree, run_env())
    report["complete"] = True
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
