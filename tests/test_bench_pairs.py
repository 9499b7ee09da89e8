"""tools/bench_pairs.py's summary of one metric's pairs, on canned numbers, and its
argument check, with no benchmark run."""

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
