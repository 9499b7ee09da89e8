import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from simppl import cli, simzoo
from simppl.net import load_net
from simppl.runtime import Mode, run_batch
from simppl.trace import trace_to_line
from simppl.simzoo import TauToyConfig, make_observation

SMALL_TAU = TauToyConfig(
    n_channels=2,
    channel_prior=(0.6, 0.4),
    grid=(2, 3, 3),
    momentum_scale=5.0,
    noise_sigma=0.5,
    depth_profiles=((0.8, 0.2), (0.3, 0.7)),
    channel_kinds=("em", "had"),
    theta_max=0.4,
    lever_arm=1.0,
    spot_sigma=0.8,
)


def write_observation(path, model, values, config=None):
    wrapper = {"model": model, "values": values}
    if config is not None:
        wrapper["config"] = config
    path.write_text(json.dumps(wrapper))
    return str(path)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_parseable_jsonl(tmp_path, capsys):
    out = tmp_path / "traces.jsonl"
    rc = cli.main(["generate", "--model", "gaussian_unknown_mean",
                   "--n", "5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    status = json.loads(capsys.readouterr().out)
    assert status["n"] == 5
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    objs = [json.loads(line) for line in lines]
    assert [o["trace_id"] for o in objs] == [0, 1, 2, 3, 4]


def test_generate_record_mode_drops_rejected_iterations(tmp_path, capsys):
    out = tmp_path / "rec.jsonl"
    rc = cli.main(["generate", "--model", "rejection_demo", "--n", "40",
                   "--seed", "11", "--mode", "record", "--out", str(out)])
    assert rc == 0
    for line in out.read_text().splitlines():
        obj = json.loads(line)
        assert len(obj["entries"]) == 2
        assert all(e["accepted"] for e in obj["entries"])


def test_generate_bytes_stable_across_reruns_and_threads(tmp_path, capsys):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.jsonl"
        rc = cli.main(["generate", "--model", "rejection_demo", "--n", "25",
                       "--seed", "9", "--out", str(out), "--threads", threads])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_generate_zero_traces(tmp_path, capsys):
    out = tmp_path / "empty.jsonl"
    rc = cli.main(["generate", "--model", "gaussian_unknown_mean",
                   "--n", "0", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"n": 0, "mean_length": 0.0}
    assert out.read_text() == ""


# ---------------------------------------------------------------------------
# train


def test_train_telemetry_and_net_file(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    rc = cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "3",
                   "--seed", "1", "--batch-size", "8", "--net-out", str(net_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    steps = [json.loads(line) for line in lines[:-1]]
    assert [s["step"] for s in steps] == [0, 1, 2]
    assert all(isinstance(s["loss"], float) for s in steps)
    final = json.loads(lines[-1])
    assert final == {"trained": "gaussian_unknown_mean", "steps": 3,
                     "net": str(net_path)}
    load_net(str(net_path))


def test_train_net_bytes_follow_seed(tmp_path, capsys):
    paths = [tmp_path / n for n in ("a.json", "b.json", "c.json")]
    for path, seed in zip(paths, ("5", "5", "6")):
        rc = cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "2",
                       "--seed", seed, "--batch-size", "8", "--net-out", str(path)])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


# ---------------------------------------------------------------------------
# infer


def test_infer_prior_proposals(tmp_path, capsys):
    obs = write_observation(tmp_path / "obs.json", "gaussian_unknown_mean",
                            {"y": 1.0})
    out = tmp_path / "post.json"
    rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                   "--observation", obs, "--particles", "200", "--seed", "2",
                   "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    result = json.loads(out.read_text())
    assert json.loads(stdout) == result
    assert set(result) == {"model", "n_particles", "ess", "proposal_fallbacks",
                           "summaries"}
    assert result["n_particles"] == 200
    assert 0 < result["ess"] <= 200
    assert result["proposal_fallbacks"] == 0
    mu = result["summaries"]["mu"]
    assert mu["kind"] == "real"
    assert abs(mu["mean"] - 0.5) < 0.2


def test_infer_with_trained_net(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    assert cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "5",
                     "--seed", "1", "--batch-size", "8",
                     "--net-out", str(net_path)]) == 0
    obs = write_observation(tmp_path / "obs.json", "gaussian_unknown_mean",
                            {"y": 1.0})
    out = tmp_path / "post.json"
    rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                   "--observation", obs, "--net", str(net_path),
                   "--particles", "100", "--seed", "2", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["proposal_fallbacks"] == 0
    assert "mu" in result["summaries"]


def test_infer_bytes_stable_across_threads(tmp_path, capsys):
    obs = write_observation(tmp_path / "obs.json", "gaussian_unknown_mean",
                            {"y": -0.3})
    blobs = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"{name}.json"
        rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                       "--observation", obs, "--particles", "150", "--seed", "7",
                       "--out", str(out), "--threads", threads])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_infer_tau_config_rides_in_observation(tmp_path, capsys):
    values, _ = make_observation("tau_decay_toy", 3, SMALL_TAU)
    obs = write_observation(tmp_path / "obs.json", "tau_decay_toy",
                            {"cells": values["cells"]},
                            config=SMALL_TAU.to_dict())
    out = tmp_path / "post.json"
    rc = cli.main(["infer", "--model", "tau_decay_toy", "--observation", obs,
                   "--particles", "50", "--seed", "4", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert set(result["summaries"]) == {"channel", "p_x", "p_y", "p_z"}
    assert result["summaries"]["channel"]["kind"] == "int"


# ---------------------------------------------------------------------------
# inspect


def test_inspect_outputs(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    assert cli.main(["generate", "--model", "rejection_demo", "--n", "30",
                     "--seed", "5", "--out", str(traces)]) == 0
    capsys.readouterr()
    dot = tmp_path / "graph.dot"
    stats = tmp_path / "stats.json"
    rc = cli.main(["inspect", "--traces", str(traces), "--dot-out", str(dot),
                   "--stats-out", str(stats)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"hot_addresses", "cycles"}
    assert any(c["nodes"] == ["disc/u:Uniform", "disc/v:Uniform"]
               for c in report["cycles"])
    assert dot.read_text().startswith("digraph")
    assert json.loads(stats.read_text())["n_traces"] == 30


def test_inspect_reports_retries_recorded_in_record_mode(tmp_path, capsys):
    # record traces keep only the accepted pass, and still carry its retry count
    def scope_hist(mode):
        traces, stats = tmp_path / f"{mode}.jsonl", tmp_path / f"{mode}.json"
        assert cli.main(["generate", "--model", "rejection_demo", "--n", "500",
                         "--seed", "5", "--mode", mode, "--out", str(traces)]) == 0
        assert cli.main(["inspect", "--traces", str(traces), "--dot-out",
                         str(tmp_path / "g.dot"), "--stats-out", str(stats)]) == 0
        return json.loads(stats.read_text())["scopes"]

    record = scope_hist("record")
    assert record == scope_hist("prior")
    assert sum(record["disc"].values()) == 500
    assert set(record["disc"]) != {"0"}


def test_inspect_non_utf8_trace_file_is_runtime_failure(tmp_path, capsys):
    traces = tmp_path / "bad.jsonl"
    traces.write_bytes(b"\xff\xfe\x00garbage\n")
    rc = cli.main(["inspect", "--traces", str(traces),
                   "--dot-out", str(tmp_path / "g.dot"),
                   "--stats-out", str(tmp_path / "s.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 1:")


def test_inspect_empty_trace_file(tmp_path, capsys):
    traces = tmp_path / "empty.jsonl"
    traces.write_text("")
    rc = cli.main(["inspect", "--traces", str(traces),
                   "--dot-out", str(tmp_path / "g.dot"),
                   "--stats-out", str(tmp_path / "s.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"hot_addresses": [], "cycles": []}


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv_builder,code",
    [
        # unknown model name
        (lambda d: ["generate", "--model", "nope", "--n", "1", "--seed", "1",
                    "--out", str(d / "t.jsonl")], 2),
        # observation file absent
        (lambda d: ["infer", "--model", "gaussian_unknown_mean",
                    "--observation", str(d / "missing.json"),
                    "--particles", "10", "--seed", "1",
                    "--out", str(d / "o.json")], 2),
        # inspect threshold at the boundary
        (lambda d: ["inspect", "--traces", str(d / "t.jsonl"),
                    "--dot-out", str(d / "g.dot"),
                    "--stats-out", str(d / "s.json"),
                    "--threshold", "1.0"], 2),
        # trace file absent
        (lambda d: ["inspect", "--traces", str(d / "missing.jsonl"),
                    "--dot-out", str(d / "g.dot"),
                    "--stats-out", str(d / "s.json")], 2),
        # net file absent: runtime failure, not config
        (lambda d: ["infer", "--model", "gaussian_unknown_mean",
                    "--observation", write_observation(
                        d / "obs.json", "gaussian_unknown_mean", {"y": 0.0}),
                    "--net", str(d / "missing_net.json"),
                    "--particles", "10", "--seed", "1",
                    "--out", str(d / "o.json")], 1),
        # net-out directory absent
        (lambda d: ["train", "--model", "gaussian_unknown_mean", "--steps", "1",
                    "--seed", "1", "--batch-size", "8",
                    "--net-out", str(d / "no_dir" / "net.json")], 1),
    ],
)
def test_exit_codes(tmp_path, capsys, argv_builder, code):
    rc = cli.main(argv_builder(tmp_path))
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err.startswith("error:")


def test_infer_rejects_observation_without_values(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"y": 1.0}))
    rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                   "--observation", str(path), "--particles", "10",
                   "--seed", "1", "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert '"values"' in capsys.readouterr().err


def test_infer_rejects_model_mismatch(tmp_path, capsys):
    obs = write_observation(tmp_path / "obs.json", "rejection_demo", {"y": 0.1})
    rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                   "--observation", obs, "--particles", "10", "--seed", "1",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "rejection_demo" in capsys.readouterr().err


def test_infer_rejects_wrong_value_keys(tmp_path, capsys):
    obs = write_observation(tmp_path / "obs.json", "gaussian_unknown_mean",
                            {"z": 1.0})
    rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                   "--observation", obs, "--particles", "10", "--seed", "1",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "do not fit" in capsys.readouterr().err


TAU_NET = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "benchmark", "inputs", "tau_net.json")


def _tau_cells_with_nan_at(index):
    obs, _ = make_observation("tau_decay_toy", 3)
    obs["cells"][index] = math.nan
    return {"cells": obs["cells"]}


@pytest.mark.parametrize("model, values, net, where", [
    ("gaussian_unknown_mean", {"y": math.nan}, None, "observation y is not finite: nan"),
    ("rejection_demo", {"y": math.inf}, None, "observation y is not finite: inf"),
    ("tau_decay_toy", None, TAU_NET, "observation cells[17] is not finite: nan"),
])
def test_infer_rejects_non_finite_observation(tmp_path, capsys, model, values, net, where):
    if values is None:
        values = _tau_cells_with_nan_at(17)
    obs = write_observation(tmp_path / "obs.json", model, values)
    argv = ["infer", "--model", model, "--observation", obs, "--particles", "10",
            "--seed", "1", "--out", str(tmp_path / "o.json")]
    rc = cli.main(argv + (["--net", net] if net else []))
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_infer_rejects_malformed_observation_json(tmp_path, capsys):
    path = tmp_path / "obs.json"
    for content in (b"{not json", b"\x80"):  # bad syntax, then bytes that are not UTF-8
        path.write_bytes(content)
        rc = cli.main(["infer", "--model", "gaussian_unknown_mean",
                       "--observation", str(path), "--particles", "10",
                       "--seed", "1", "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: malformed observation JSON")


def test_inspect_malformed_trace_line_is_runtime_failure(tmp_path, capsys):
    traces = tmp_path / "bad.jsonl"
    good = json.dumps({"trace_id": 0, "entries": [], "observes": [],
                       "predicts": {}, "log_weight": 0.0, "scopes": []})
    traces.write_text(good + "\nnot json\n")
    rc = cli.main(["inspect", "--traces", str(traces),
                   "--dot-out", str(tmp_path / "g.dot"),
                   "--stats-out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def _gen(*opts):
    return lambda d: ["generate", "--model", "rejection_demo", "--out", str(d / "t.jsonl"), *opts]


@pytest.mark.parametrize(
    "argv_builder",
    [
        _gen("--n", "2", "--seed", "-1"),
        _gen("--n", "-3", "--seed", "1"),
        _gen("--n", "two", "--seed", "1"),
        _gen("--n", "2", "--seed", "1", "--threads", "0"),
        _gen("--n", "2", "--seed", "1", "--threads", "-2"),
        lambda d: ["train", "--model", "gaussian_unknown_mean", "--steps", "1",
                   "--seed", "-5", "--net-out", str(d / "net.json")],
        lambda d: ["infer", "--model", "gaussian_unknown_mean", "--observation",
                   str(d / "obs.json"), "--particles", "0", "--seed", "1",
                   "--out", str(d / "o.json")],
        lambda d: ["inspect", "--traces", str(d / "t.jsonl"), "--dot-out", str(d / "g.dot"),
                   "--stats-out", str(d / "s.json"), "--threads", "0"],
    ],
)
def test_bad_integer_options_are_usage_errors(tmp_path, capsys, argv_builder):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv_builder(tmp_path))
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# drawn command-line inputs

_TRACE_LINES = [trace_to_line(t) for t in run_batch(
    simzoo.get_model("rejection_demo").run, Mode.PRIOR, 3, 3)]


def _non_finite(line, field, value):
    obj = json.loads(line)
    if field == "value" and obj["entries"]:
        obj["entries"][0]["value"] = value
    else:
        obj[field] = value
    return json.dumps(obj)


# counts stay small so that a valid draw runs quickly; a seed may be huge
_BAD_INT = st.sampled_from(["", "x", "1.5", "1e3", "0x10"])
_COUNT_TEXT = st.one_of(st.integers(-1, 12).map(str), _BAD_INT)
_SEED_TEXT = st.one_of(st.integers(-1, 12).map(str), st.just(str(2**64)), _BAD_INT)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_TRACES = st.one_of(
    st.just("\n".join(_TRACE_LINES) + "\n"),
    st.integers(1, 300).map(lambda k: "\n".join(_TRACE_LINES)[:k]),
    st.builds(_non_finite, st.sampled_from(_TRACE_LINES),
              st.sampled_from(["log_weight", "trace_id", "value"]), _NON_FINITE),
)
# y drawn from every float, NaN, infinities and overflowing magnitudes included
_OBSERVATION = st.floats().map(
    lambda y: json.dumps({"model": "gaussian_unknown_mean", "values": {"y": y}}))
_PAYLOADS = {
    "generate": st.just(""),
    "infer": st.one_of(_OBSERVATION,
                       st.builds(lambda text, k: text[:k], _OBSERVATION, st.integers(0, 40))),
    "inspect": _TRACES,
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(_PAYLOADS)), count=_COUNT_TEXT, seed=_SEED_TEXT,
       data=st.data())
def test_drawn_inputs_exit_0_1_or_2_with_an_error_line(command, count, seed, data):
    payload = data.draw(st.one_of(_PAYLOADS[command].map(str.encode), st.binary(max_size=40)))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "input"), os.path.join(tmp, "out")
        with open(path, "wb") as fh:
            fh.write(payload)
        argv = {
            "generate": ["generate", "--model", "rejection_demo", "--n", count,
                         "--seed", seed, "--out", out],
            "infer": ["infer", "--model", "gaussian_unknown_mean", "--observation", path,
                      "--particles", count, "--seed", seed, "--out", out],
            "inspect": ["inspect", "--traces", path, "--dot-out", out,
                        "--stats-out", out + ".json"],
        }[command]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2
                rc = exc.code
    assert rc in (0, 1, 2)
    if rc:
        assert any("error:" in line for line in stderr.getvalue().splitlines())


# ---------------------------------------------------------------------------
# installed entry point


def test_module_invocation_matches_in_process(tmp_path):
    out_sub = tmp_path / "sub.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "simppl.cli", "generate", "--model",
         "rejection_demo", "--n", "10", "--seed", "21", "--out", str(out_sub)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)
    out_in = tmp_path / "in.jsonl"
    assert cli.main(["generate", "--model", "rejection_demo", "--n", "10",
                     "--seed", "21", "--out", str(out_in)]) == 0
    assert out_sub.read_bytes() == out_in.read_bytes()
