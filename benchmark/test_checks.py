"""Tests of the benchmark's output checks: each passes on real program
output and rejects a corrupted copy of it.

    python3 -m pytest -q benchmark/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import NET_PATH, ROOT, TAU_INPUTS_PATH, import_simppl  # noqa: E402

import_simppl()

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from simppl import cli, net, runtime, simzoo, sis  # noqa: E402

TAU = simzoo.get_model("tau_decay_toy")


@pytest.fixture(scope="module")
def tau_inputs():
    with open(TAU_INPUTS_PATH) as fh:
        return json.load(fh)["observations"]


@pytest.fixture(scope="module")
def tau_particles(tau_inputs):
    row = tau_inputs[0]
    source = net.TrainedProposal(net.load_net(NET_PATH), row["cells"])
    return row, sis.sis_infer(TAU.run, {"cells": row["cells"]}, 400, source, master_seed=3)


def test_tau_log_weight_accepts_real_particles_and_rejects_a_shift(tau_particles):
    row, ps = tau_particles
    for trace in ps.traces[:20]:
        checks.check_tau_log_weight(TAU.config, trace, row["cells"])
    bad = copy.deepcopy(ps.traces[0])
    bad.log_weight += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_tau_log_weight(TAU.config, bad, row["cells"])


def test_tau_log_joint_rejects_wrong_cells(tau_particles):
    row, ps = tau_particles
    cells = list(row["cells"])
    cells[100] += 0.5
    with pytest.raises(CheckFailed):
        checks.check_tau_log_weight(TAU.config, ps.traces[0], cells)


def test_normalized_weights(tau_particles):
    _, ps = tau_particles
    checks.check_normalized(ps.weights)
    for bad in (ps.weights * 1.01, np.where(np.arange(ps.weights.size) == 0, np.nan, ps.weights)):
        with pytest.raises(CheckFailed):
            checks.check_normalized(bad)


def test_pooled_tau_posterior_against_oracle(tau_particles):
    row, ps = tau_particles
    predicts = {name: [t.predicts[name] for t in ps.traces] for name in checks.TAU_PREDICTS}
    checks.check_tau_pooled(ps.log_weights, predicts, row["oracle"], "seed 23")
    shifted = dict(predicts, p_z=[v + 4 * math.sqrt(row["oracle"]["p_z"]["var"])
                                  for v in predicts["p_z"]])
    with pytest.raises(CheckFailed):
        checks.check_tau_pooled(ps.log_weights, shifted, row["oracle"], "seed 23")
    relabelled = dict(predicts, channel=[(c + 1) % 5 for c in predicts["channel"]])
    with pytest.raises(CheckFailed):
        checks.check_tau_pooled(ps.log_weights, relabelled, row["oracle"], "seed 23")


def test_thread_identity_check_rejects_a_changed_weight(tau_particles):
    _, ps = tau_particles
    checks.check_same_log_weights(ps.log_weights, ps.log_weights.copy(), "same")
    other = ps.log_weights.copy()
    other[5] = np.nextafter(other[5], 0.0)
    with pytest.raises(CheckFailed):
        checks.check_same_log_weights(ps.log_weights, other, "shifted")


def test_grid_posterior_matches_an_independent_marginal():
    # p(u | y) is proportional to N(y; u, 0.1) * 2 sqrt(1 - u^2): a 1-D
    # integral on a fine grid, which the 2-D grid must reproduce.
    grid = checks.rejection_grid_posterior(0.5)
    u = np.linspace(-1.0, 1.0, 400_001)
    w = np.exp(-0.5 * ((0.5 - u) / 0.1) ** 2) * np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    mean_u = float((w * u).sum() / w.sum())
    assert abs(grid["u"]["mean"] - mean_u) < 1e-4
    assert abs(grid["v"]["mean"]) < 1e-12


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {k: str(d / k) for k in ("t.jsonl", "g.dot", "s.json", "o.json", "p.json")}
    with open(paths["o.json"], "w") as fh:
        json.dump({"model": "rejection_demo", "values": {"y": 0.5}}, fh)
    assert cli.main(["generate", "--model", "rejection_demo", "--n", "400", "--seed", "5",
                     "--out", paths["t.jsonl"]]) == 0
    assert cli.main(["inspect", "--traces", paths["t.jsonl"], "--dot-out", paths["g.dot"],
                     "--stats-out", paths["s.json"]]) == 0
    assert cli.main(["infer", "--model", "rejection_demo", "--observation", paths["o.json"],
                     "--particles", "2000", "--seed", "5", "--out", paths["p.json"]]) == 0
    out = {}
    with open(paths["t.jsonl"]) as fh:
        out["lines"] = fh.read().splitlines()
    with open(paths["g.dot"]) as fh:
        out["dot"] = fh.read()
    with open(paths["p.json"]) as fh:
        out["posterior"] = json.load(fh)
    return out


def test_rejection_summary_against_grid(cli_outputs):
    grid = checks.rejection_grid_posterior(0.5)
    post = cli_outputs["posterior"]
    checks.check_rejection_summary(post, grid, 2000)
    bad = copy.deepcopy(post)
    bad["summaries"]["u"]["mean"] += 0.05
    with pytest.raises(CheckFailed):
        checks.check_rejection_summary(bad, grid, 2000)


def test_disc_traces_reject_a_point_outside_the_disc(cli_outputs):
    lines = cli_outputs["lines"]
    attempts = checks.check_disc_traces(lines, 400)
    assert sum(attempts) >= 400
    obj = json.loads(lines[0])
    obj["entries"][-2]["value"] = 0.9
    obj["entries"][-1]["value"] = 0.9
    obj["predicts"] = {"u": 0.9, "v": 0.9}
    with pytest.raises(CheckFailed):
        checks.check_disc_traces([json.dumps(obj)] + lines[1:], 400)
    with pytest.raises(CheckFailed):
        checks.check_disc_traces(lines[1:], 400)


def test_scope_iterations_mean(cli_outputs):
    attempts = checks.check_disc_traces(cli_outputs["lines"], 400)
    checks.check_scope_iterations(sum(attempts), len(attempts))
    with pytest.raises(CheckFailed):
        checks.check_scope_iterations(len(attempts), len(attempts))  # never retried


def test_succession_graph_flow_and_counts(cli_outputs):
    attempts = checks.check_disc_traces(cli_outputs["lines"], 400)
    edges = checks.parse_dot_edges(cli_outputs["dot"])
    checks.check_flow(edges, 400)
    checks.check_disc_graph(edges, attempts)
    bad = dict(edges)
    bad[("disc/u:Uniform", "disc/v:Uniform")] += 1
    with pytest.raises(CheckFailed):
        checks.check_flow(bad, 400)
    with pytest.raises(CheckFailed):
        checks.check_flow(edges, 401)


@pytest.fixture(scope="module")
def small_net():
    arch, std = net.discover_architecture(TAU, 11, n_sims=50)
    trained = net.train(TAU, net.TrainingConfig(steps=5, master_seed=11, batch_size=8,
                                                learning_rate=3e-2), arch=arch,
                        standardization=std)
    batch = [runtime.run_model(TAU.run, runtime.Mode.RECORD, np.random.SeedSequence([11, i]))
             for i in range(3)]
    return trained, batch


def test_gradient_check_rejects_a_perturbed_gradient(small_net):
    trained, batch = small_net
    params = trained.params
    x0 = params.to_vector()
    grad = net.ic_grad(trained, batch).to_vector()

    def loss_at(x):
        params.from_vector(x)
        return net.ic_loss(trained, batch)

    coords = np.random.default_rng(0).choice(x0.size, 12, replace=False)
    # coordinates with a gradient away from zero, so a 1% error is visible
    coords = list(coords) + list(np.argsort(-np.abs(grad))[:4])
    try:
        checks.check_gradient(loss_at, grad, x0, coords)
        bad = grad.copy()
        bad[coords[-1]] *= 1.01
        with pytest.raises(CheckFailed):
            checks.check_gradient(loss_at, bad, x0, coords)
    finally:
        params.from_vector(x0)


def test_loss_fell():
    checks.check_loss_fell(10.0, 9.0, "ok")
    for after in (10.0, 11.0, math.nan):
        with pytest.raises(CheckFailed):
            checks.check_loss_fell(10.0, after, "bad")


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_union_length_of_overlapping_spans():
    from tracer import _union_length

    assert _union_length([(0, 10), (5, 15), (20, 30), (21, 22)]) == 25
    assert _union_length([]) == 0
