import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from simppl import cli, simzoo
from simppl.errors import ConfigInvalid
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


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0"])
def test_train_rejects_a_learning_rate_not_positive_and_finite(tmp_path, capsys, lr):
    net_path = tmp_path / "net.json"
    rc = cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "1", "--seed", "1",
                   "--batch-size", "1", f"--lr={lr}", "--net-out", str(net_path)])
    assert rc == 2
    assert "learning_rate must be positive and finite" in capsys.readouterr().err
    assert not net_path.exists()


@pytest.mark.parametrize("steps, seed, batch, lr, error", [
    ("3", "3", "4", "1e308", "step 0: parameters became non-finite"),  # the update overflows
    ("2", "2", "1", "1.4939228887783732e+64", "step 1: gradient is not finite"),  # its norm
])
def test_train_whose_update_overflows_prints_only_the_error_line(tmp_path, steps, seed, batch,
                                                                 lr, error):
    # a subprocess, so numpy's RuntimeWarning would reach stderr rather than raise
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "simppl.cli", "train", "--model", "gaussian_unknown_mean",
         "--steps", steps, "--seed", seed, "--batch-size", batch, "--lr", lr,
         "--net-out", str(tmp_path / "g.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {error}\n"
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("where", ["missing", "file"])
def test_train_checks_the_network_directory_before_step_0(tmp_path, capsys, where):
    parent = tmp_path / "no" / "such"
    if where == "file":  # the directory named is a file
        parent = tmp_path / "plain"
        parent.write_text("")
    net_path = parent / "x.json"
    rc = cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "1", "--seed", "1",
                   "--net-out", str(net_path)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""  # no step line
    assert err.startswith(f"error: cannot write network to {net_path}: ")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ([] if where == "missing" else ["plain"])


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


@pytest.mark.parametrize("part, key, value, message", [
    ("params", "obs_b", math.nan, "array obs_b is not finite"),
    ("standardization", "std", 0.0, "array standardization.std must be positive and finite"),
], ids=["nan-param", "zero-std"])
def test_infer_rejects_a_corrupt_network_file_naming_the_file_and_array(
        tmp_path, capsys, part, key, value, message):
    # train never writes either: it raises NonFiniteLoss, and std is floored at 1e-6
    net_path = tmp_path / "net.json"
    assert cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "3",
                     "--seed", "1", "--batch-size", "8", "--net-out", str(net_path)]) == 0
    obj = json.loads(net_path.read_text())
    obj[part][key][0] = value
    net_path.write_text(json.dumps(obj))
    capsys.readouterr()
    obs = write_observation(tmp_path / "obs.json", "gaussian_unknown_mean", {"y": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero on the way to the error
        rc = cli.main(["infer", "--model", "gaussian_unknown_mean", "--observation", obs,
                       "--net", str(net_path), "--particles", "10", "--seed", "2",
                       "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {net_path}: {message}\n"
    assert not (tmp_path / "o.json").exists()


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


def test_inspect_rejects_a_family_field_that_disagrees_with_its_address(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    assert cli.main(["generate", "--model", "rejection_demo", "--n", "3",
                     "--seed", "5", "--out", str(traces)]) == 0
    capsys.readouterr()
    lines = traces.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["entries"][0]["family"] = "Normal"
    lines[1] = json.dumps(obj)
    traces.write_text("\n".join(lines) + "\n")
    rc = cli.main(["inspect", "--traces", str(traces), "--dot-out", str(tmp_path / "g.dot"),
                   "--stats-out", str(tmp_path / "s.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:") and "family field 'Normal' disagrees with" in err


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


def _tau_cells_with(index, value):
    obs, _ = make_observation("tau_decay_toy", 3)
    obs["cells"][index] = value
    return {"cells": obs["cells"]}


@pytest.mark.parametrize("model, values, net, where", [
    ("gaussian_unknown_mean", {"y": math.nan}, None, "observation y is not finite: nan"),
    ("rejection_demo", {"y": math.inf}, None, "observation y is not finite: inf"),
    ("tau_decay_toy", None, TAU_NET, "observation cells[17] is not finite: nan"),
])
def test_infer_rejects_non_finite_observation(tmp_path, capsys, model, values, net, where):
    if values is None:
        values = _tau_cells_with(17, math.nan)
    obs = write_observation(tmp_path / "obs.json", model, values)
    argv = ["infer", "--model", model, "--observation", obs, "--particles", "10",
            "--seed", "1", "--out", str(tmp_path / "o.json")]
    rc = cli.main(argv + (["--net", net] if net else []))
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("model, values, where", [
    ("gaussian_unknown_mean", {"y": True}, "observation y is a boolean: True"),
    ("tau_decay_toy", None, "observation cells[3] is a boolean: False"),
], ids=["y", "cells[3]"])
def test_infer_rejects_a_boolean_observation(tmp_path, capsys, model, values, where):
    obs = write_observation(tmp_path / "obs.json", model, values or _tau_cells_with(3, False))
    rc = cli.main(["infer", "--model", model, "--observation", obs, "--particles", "10",
                   "--seed", "1", "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def _tau_cells_as(convert):
    obs, _ = make_observation("tau_decay_toy", 3)
    return {"cells": [convert(c) for c in obs["cells"]]}


def _infer(tmp_path, model, values, config=None):
    obs = write_observation(tmp_path / "obs.json", model, values, config)
    return cli.main(["infer", "--model", model, "--observation", obs, "--particles", "10",
                     "--seed", "1", "--out", str(tmp_path / "o.json")])


@pytest.mark.parametrize("model, values, where", [
    ("gaussian_unknown_mean", {"y": "1"}, "observation y is not a number: '1'"),
    ("gaussian_unknown_mean", {"y": "nan"}, "observation y is not a number: 'nan'"),
    ("tau_decay_toy", _tau_cells_as(str), "observation cells[0] is not a number: '"),
    ("tau_decay_toy", _tau_cells_with(3, "nan"), "observation cells[3] is not a number: 'nan'"),
    ("tau_decay_toy", _tau_cells_as(lambda c: [c]), "observation cells[0] is not a number: ["),
], ids=["y string", "y string nan", "cells strings", "cells[3] string nan", "cells nested"])
def test_infer_rejects_a_value_that_is_not_a_number(tmp_path, capsys, model, values, where):
    # at the parent: exit 1 from the model, exit 0, or exit 2 with a cell count naming no cell
    assert _infer(tmp_path, model, values) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("model, values, message", [
    # a list where one number belongs: the message now ends, like a missing key's, in the
    # key, where the parent's ended in float()'s TypeError text
    ("gaussian_unknown_mean", {"y": [1.0]},
     "observation values do not fit gaussian_unknown_mean: 'y'"),
    ("tau_decay_toy", {"cells": [0.0] * 195}, "observation has 195 cells, config grid wants 196"),
    ("rejection_demo", {"y": 0.1, "z": math.nan}, "observation z is not finite: nan"),
    ("rejection_demo", {"y": 0.1, "z": [1, True]}, "observation z[1] is a boolean: True"),
], ids=["y list", "cell count", "unread nan", "unread boolean"])
def test_infer_usage_errors_that_stay_exit_2(tmp_path, capsys, model, values, message):
    assert _infer(tmp_path, model, values) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("patch, message", [
    ({"grid": ["a", 3, 3]}, "grid[0] must be an integer, got 'a'"),
    ({"channel_prior": ["x", 0.4]}, "channel_prior[0] must be a number, got 'x'"),
    ({"depth_profiles": [[0.8, 0.2], ["y", 0.7]]},
     "depth_profiles[1][0] must be a number, got 'y'"),
    ({"grid": ["2", "3", "3"]}, "grid[0] must be an integer, got '2'"),
    ({"noise_sigma": "0.2"}, "noise_sigma must be a number, got '0.2'"),
    ({"grid": [2, 3, 3.5]}, "grid[2] must be an integer, got 3.5"),
    ({"n_channels": 2.0}, "n_channels must be an integer, got 2.0"),
    ({"noise_sigma": True}, "noise_sigma must be a number, got True"),
    ({"lever_arm": False}, "lever_arm must be a number, got False"),
    ({"depth_profiles": [[0.8, 0.2], [False, 1]]},
     "depth_profiles[1][0] must be a number, got False"),
], ids=["grid", "channel_prior", "depth_profiles", "numeric string grid", "noise_sigma string",
        "grid fraction", "n_channels float", "noise_sigma boolean", "lever_arm boolean",
        "depth_profiles boolean"])
def test_infer_rejects_a_tau_config_field_of_the_wrong_type(tmp_path, capsys, patch, message):
    # unchecked, a string cell raised an uncaught ValueError (exit 1), a boolean, a float
    # count or a numeric string cell passed as a number (exit 0), and a string in a scalar
    # field failed in a comparison whose message named no field
    values, _ = make_observation("tau_decay_toy", 3, SMALL_TAU)
    config = {**SMALL_TAU.to_dict(), **patch}
    assert _infer(tmp_path, "tau_decay_toy", {"cells": values["cells"]}, config) == 2
    assert capsys.readouterr().err == f"error: bad tau_decay_toy config: {message}\n"


@pytest.mark.parametrize("patch, message", [
    ({"n_channels": 0}, "n_channels must be >= 1"),
    ({"channel_prior": [1.0]}, "channel_prior length must equal n_channels"),
    ({"depth_profiles": [[0.5, 0.3, 0.2], [0.3, 0.7]]}, "depth profile 0 must have 2 fractions"),
], ids=["n_channels", "channel_prior", "depth_profiles"])
def test_infer_rejects_a_tau_config_of_the_wrong_size(tmp_path, capsys, patch, message):
    config = {**SMALL_TAU.to_dict(), **patch}
    with pytest.raises(ConfigInvalid, match=message):
        TauToyConfig(**config)
    values, _ = make_observation("tau_decay_toy", 3, SMALL_TAU)
    assert _infer(tmp_path, "tau_decay_toy", {"cells": values["cells"]}, config) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("patch, message", [
    ({"channel_prior": [math.nan, 0.4]}, "channel_prior must be a probability vector"),
    ({"depth_profiles": [[0.8, 0.2], [math.nan, 0.7]]},
     "depth profile 1 must be a probability vector"),
    ({"lever_arm": math.nan}, "lever_arm must be >= 0 and finite"),
    ({"momentum_scale": math.inf}, "momentum_scale must be positive and finite"),
    ({"noise_sigma": math.inf}, "noise_sigma must be positive and finite"),
    ({"spot_sigma": math.inf}, "spot_sigma must be positive and finite"),
], ids=["channel_prior", "depth_profiles", "lever_arm", "momentum_scale", "noise_sigma",
        "spot_sigma"])
def test_infer_rejects_a_non_finite_tau_config_number(tmp_path, capsys, patch, message):
    # each passed the config's checks at the parent, and infer exited 1 (an
    # infinite spot_sigma with a numpy RuntimeWarning too)
    values, _ = make_observation("tau_decay_toy", 3, SMALL_TAU)
    config = {**SMALL_TAU.to_dict(), **patch}
    assert _infer(tmp_path, "tau_decay_toy", {"cells": values["cells"]}, config) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_infer_rejects_a_network_for_another_observation_size(tmp_path, capsys, monkeypatch):
    net_path = tmp_path / "net.json"
    assert cli.main(["train", "--model", "gaussian_unknown_mean", "--steps", "1",
                     "--seed", "1", "--batch-size", "2", "--net-out", str(net_path)]) == 0
    capsys.readouterr()
    obs, _ = make_observation("tau_decay_toy", 3)
    path = write_observation(tmp_path / "obs.json", "tau_decay_toy", {"cells": obs["cells"]})

    def no_particles(*args, **kwargs):
        raise AssertionError("a particle ran")

    monkeypatch.setattr(cli, "sis_infer", no_particles)
    rc = cli.main(["infer", "--model", "tau_decay_toy", "--observation", path,
                   "--net", str(net_path), "--particles", "10", "--seed", "1",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "--net takes 1 observation cells, the observation has 196" in capsys.readouterr().err


def test_infer_names_the_address_whose_head_does_not_fit_its_prior(tmp_path, capsys):
    # tau_net.json's channel head emits 5 raw values, the prior of a 3-channel config takes 3;
    # at the parent the message named neither the head nor the address
    default = TauToyConfig().to_dict()
    config = {**default, "n_channels": 3, "channel_prior": [0.5, 0.3, 0.2],
              "depth_profiles": default["depth_profiles"][:3],
              "channel_kinds": default["channel_kinds"][:3]}
    values, _ = make_observation("tau_decay_toy", 3, config)
    obs = write_observation(tmp_path / "obs.json", "tau_decay_toy", {"cells": values["cells"]},
                            config)
    rc = cli.main(["infer", "--model", "tau_decay_toy", "--observation", obs, "--net", TAU_NET,
                   "--particles", "10", "--seed", "1", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: head at channel:Categorical#0: Categorical "
                                       "proposal needs 3 params, got shape (5,)\n")
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


@pytest.mark.parametrize("key, constant", [("trace_id", "Infinity"), ("log_weight", "NaN")])
def test_inspect_non_finite_trace_number_is_runtime_failure(tmp_path, capsys, key, constant):
    good = json.dumps({"trace_id": 0, "entries": [], "observes": [],
                       "predicts": {}, "log_weight": 0.0, "scopes": []})
    bad = json.dumps({**json.loads(good), key: "@"}).replace('"@"', constant)
    traces = tmp_path / "bad.jsonl"
    traces.write_text(good + "\n" + bad + "\n")
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


@pytest.mark.parametrize("argv, option", [
    (["generate", "--model", "rejection_demo", "--n=--", "--seed", "1", "--out", "t.jsonl"],
     "--n"),
    (["train", "--model", "gaussian_unknown_mean", "--steps", "1", "--seed", "1", "--lr=--",
      "--net-out", "net.json"], "--lr"),
    (["infer", "--model", "gaussian_unknown_mean", "--observation", "obs.json",
      "--particles=--", "--seed", "1", "--out", "o.json"], "--particles"),
    (["inspect", "--traces", "t.jsonl", "--dot-out", "g.dot", "--stats-out", "s.json",
      "--threshold=--"], "--threshold"),
], ids=["generate", "train", "infer", "inspect"])
def test_an_option_written_as_name_equals_dashes_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                                   argv, option):
    # argparse reads --name=-- as an empty list; the parent ended in a TypeError traceback
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"error: argument {option}: expected one argument" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
_BAD_INT = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--"])
_COUNT_TEXT = st.one_of(st.integers(-1, 12).map(str), _BAD_INT)
_SEED_TEXT = st.one_of(st.integers(-1, 12).map(str), st.just(str(2**64)), _BAD_INT)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_TRACES = st.one_of(
    st.just("\n".join(_TRACE_LINES) + "\n"),
    st.integers(1, 300).map(lambda k: "\n".join(_TRACE_LINES)[:k]),
    st.builds(_non_finite, st.sampled_from(_TRACE_LINES),
              st.sampled_from(["log_weight", "trace_id", "value"]), _NON_FINITE),
)
# y drawn from every JSON type: every float (NaN, infinities and overflowing
# magnitudes included), any integer, booleans, null, strings, lists and objects
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=5)
_OBSERVATION = _JSON.map(
    lambda y: json.dumps({"model": "gaussian_unknown_mean", "values": {"y": y}}))
# SMALL_TAU's config with fields, or cells of list fields, of the wrong type or
# not finite
_BAD_CONFIG_VALUE = st.none() | st.booleans() | st.text(max_size=3) | _NON_FINITE | st.lists(
    st.none() | st.booleans() | st.text(max_size=2) | st.floats(0, 1) | _NON_FINITE,
    max_size=4)
_TAU_CELLS = make_observation("tau_decay_toy", 3, SMALL_TAU)[0]["cells"]
_TAU_OBSERVATION = st.dictionaries(
    st.sampled_from(sorted(SMALL_TAU.to_dict())), _BAD_CONFIG_VALUE, min_size=1,
    max_size=2).map(
    lambda patch: json.dumps({"model": "tau_decay_toy", "values": {"cells": _TAU_CELLS},
                              "config": {**SMALL_TAU.to_dict(), **patch}}))
_STEPS = st.one_of(st.integers(-1, 3).map(str), _BAD_INT)
# any float's text, NaN and infinities included, or not a number at all
_LR_TEXT = st.one_of(_NON_FINITE.map(repr), st.floats().map(repr),
                     st.sampled_from(["", "x", "1e", "0x10", "1,5", "--"]))
_INFER = _OBSERVATION | _TAU_OBSERVATION
_PAYLOADS = {
    "generate": st.just(""),
    "train": st.just(""),
    "infer": st.one_of(_INFER, st.builds(lambda text, k: text[:k], _INFER, st.integers(0, 40))),
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
        # counts and --lr are written as --name=text, so "--" reaches the option
        argv = {
            "generate": ["generate", "--model", "rejection_demo", f"--n={count}",
                         "--seed", seed, "--out", out],
            "train": ["train", "--model", "gaussian_unknown_mean", "--steps", data.draw(_STEPS),
                      "--seed", seed, "--batch-size", "1", f"--lr={data.draw(_LR_TEXT)}",
                      "--net-out", out],
            "infer": ["infer", "--observation", path, f"--particles={count}", "--seed", seed,
                      "--out", out, "--model", "tau_decay_toy" if b'"tau_decay_toy"' in payload
                      else "gaussian_unknown_mean"],
            "inspect": ["inspect", "--traces", path, "--dot-out", out,
                        "--stats-out", out + ".json"],
        }[command]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2
                rc = exc.code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
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


# A fresh interpreter imports simppl.cli, optionally with scipy blocked, runs each argv
# through cli.main and prints, as its last line, whether scipy.special was loaded after
# the import and after each command.
_FRESH_CLI = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # every scipy import now raises ImportError
import simppl, simppl.cli
loaded = [sys.modules.get("scipy") is not None]
for argv in json.loads(sys.argv[2]):
    assert simppl.cli.main(argv) == 0, argv
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


def _fresh_cli(block, argvs):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI, block, json.dumps(argvs)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_loads_only_for_the_tau_model_and_training(tmp_path):
    obs = {"rejection_demo": {"y": 0.5}, "gaussian_unknown_mean": {"y": 1.0}}
    runs = {}
    for block in ("block", "free"):
        out = tmp_path / block
        out.mkdir()
        argvs = []
        for model, values in obs.items():
            path = {ext: str(out / f"{model}.{ext}")
                    for ext in ("jsonl", "dot", "stats.json", "obs.json", "post.json")}
            write_observation(out / f"{model}.obs.json", model, values)
            argvs += [["generate", "--model", model, "--n", "30", "--seed", "5",
                       "--out", path["jsonl"]],
                      ["inspect", "--traces", path["jsonl"], "--dot-out", path["dot"],
                       "--stats-out", path["stats.json"]],
                      ["infer", "--model", model, "--observation", path["obs.json"],
                       "--particles", "40", "--seed", "6", "--out", path["post.json"]]]
        assert _fresh_cli(block, argvs) == [False] * 7
        runs[block] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(runs["free"]) == 10
    assert runs["block"] == runs["free"]
    # the tau image and a training step each still load it
    assert _fresh_cli("free", [["generate", "--model", "tau_decay_toy", "--n", "2", "--seed",
                                "1", "--out", str(tmp_path / "tau.jsonl")]]) == [False, True]
    assert _fresh_cli("free", [["train", "--model", "gaussian_unknown_mean", "--steps", "1",
                                "--seed", "1", "--batch-size", "4",
                                "--net-out", str(tmp_path / "net.json")]]) == [False, True]


# ---------------------------------------------------------------------------
# streamed generate and typed trace fields


@pytest.mark.parametrize("n", [0, 3])
def test_generate_streams_each_trace_to_the_file(tmp_path, capsys, monkeypatch, n):
    events = []
    real_run_batch, real_write = cli.run_batch, cli.write_traces

    def run_batch_logged(*args, **kwargs):
        for trace in real_run_batch(*args, **kwargs):
            events.append(("run", trace.trace_id))
            yield trace

    def write_logged(path, traces):
        assert not hasattr(traces, "__len__")  # an iterator, not a list held in memory
        real_write(path, (events.append(("write", t.trace_id)) or t for t in traces))

    monkeypatch.setattr(cli, "run_batch", run_batch_logged)
    monkeypatch.setattr(cli, "write_traces", write_logged)
    out = tmp_path / "t.jsonl"
    rc = cli.main(["generate", "--model", "rejection_demo", "--n", str(n), "--seed", "4",
                   "--out", str(out)])
    assert rc == 0
    assert events == [(kind, i) for i in range(n) for kind in ("run", "write")]
    traces = list(run_batch(simzoo.get_model("rejection_demo").run, Mode.PRIOR, 4, n))
    assert out.read_text() == "".join(trace_to_line(t) + "\n" for t in traces)
    mean_length = sum(t.length for t in traces) / n if n else 0.0
    assert json.loads(capsys.readouterr().out) == {"n": n, "mean_length": mean_length}


def test_generate_failing_inside_a_vectorised_chunk_writes_the_traces_before_the_failing_run(
        tmp_path, capsys, monkeypatch):
    spec = simzoo.get_model("tau_decay_toy")
    scalar = dataclasses.replace(spec, run=lambda ctx: spec.run(ctx))  # carries no run.many
    assert hasattr(spec.run, "many")
    want = list(run_batch(scalar.run, Mode.PRIOR, 3, 71))
    bad_pmag = want[-1].entries[1].value  # run 70's momentum, in the second chunk
    real_deposit = simzoo.deposit_image

    def deposit(cfg, latents):
        if any(row[1] == bad_pmag for row in latents):
            raise ValueError("deposit failed")
        return real_deposit(cfg, latents)

    monkeypatch.setattr(simzoo, "deposit_image", deposit)
    results = []
    for model_spec in (spec, scalar):
        monkeypatch.setattr(simzoo, "get_model", lambda name, config=None: model_spec)
        out = tmp_path / "t.jsonl"
        rc = cli.main(["generate", "--model", "tau_decay_toy", "--n", "200", "--seed", "3",
                       "--out", str(out)])
        results.append((rc, out.read_text(), capsys.readouterr()))
    assert results[0] == results[1]
    rc, text, captured = results[0]
    assert rc == 1
    assert text == "".join(trace_to_line(t) + "\n" for t in want[:-1])
    assert captured.err == "error: model failed after phi:Uniform#0: ValueError('deposit failed')\n"


def test_inspect_rejects_fields_of_the_wrong_type(tmp_path, capsys):
    entry = {"addr": "disc/u:Uniform#0", "family": "Uniform", "params": ["a"],
             "value": "oops", "log_p": "p", "log_q": None, "scope_id": 7,
             "iteration": -3, "accepted": "yes"}
    line = {"trace_id": 0, "entries": [entry], "observes": [], "predicts": {},
            "log_weight": "oops", "scopes": []}
    traces = tmp_path / "bad.jsonl"
    traces.write_text(json.dumps(line) + "\n")
    rc = cli.main(["inspect", "--traces", str(traces),
                   "--dot-out", str(tmp_path / "g.dot"),
                   "--stats-out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err
