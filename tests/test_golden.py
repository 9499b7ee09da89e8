"""Golden outputs: sha256 hashes of fixed seeded outputs.

Seeded outputs stay bit-identical unless a change says why it changes them.
These hashes pin prior and record traces of every bundled model, guided
rejection_demo traces under a biased proposal (the per-scope proposal cache
and prior fallbacks), guided tau_decay_toy log-weights with the committed
benchmark network, the heads and standardization found by
discover_architecture, the initial network parameters, the saved bytes of
networks after a few training steps, and the stdout and file bytes of a
fixed generate/inspect/infer sequence. The trained bytes depend on the
summation order of the gradient; a change that reorders it says so.

After a deliberate change, print the new hashes with
`PYTHONPATH=src python tests/test_golden.py` and say why they moved.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from simppl import cli, net, simzoo
from simppl.distributions import ScaledBeta
from simppl.runtime import FixedProposal, Mode, run_model
from simppl.sis import particle_seed, sis_infer
from simppl.trace import trace_to_line

INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmark", "inputs")
NET_PATH = os.path.join(INPUTS, "tau_net.json")
RUNS = {"gaussian_unknown_mean": 40, "rejection_demo": 40, "tau_decay_toy": 8}

GOLDEN = {
    "gaussian_unknown_mean-prior":
        "3839fc173d61bf2eadf857882a0a40ea913b5326aad7f8232a8ac150e023dafc",
    "gaussian_unknown_mean-record":
        "3839fc173d61bf2eadf857882a0a40ea913b5326aad7f8232a8ac150e023dafc",
    "rejection_demo-prior":
        "ffcacbfd556722d1e1980437d763357129f0f5ea599e03189906379091f57084",
    "rejection_demo-record":
        "458125c7091026bccc989ed853dda7ac1d0289d03db9eade4eae1c4ae9083a7c",
    "tau_decay_toy-prior":
        "c11a40c7232f988c71328d19788afd11cdc525911f85e31976508da4398f955a",
    "tau_decay_toy-record":
        "c11a40c7232f988c71328d19788afd11cdc525911f85e31976508da4398f955a",
    "guided-rejection":
        "bc85745cdb0da68fe7d0ebd6a149575c6c1823a8e1c08ade5804447db429bbcd",
    "guided-tau":
        "3a477ee6feed792425645244a052f9a67160195a0390e4eaa963e65b7b424bcb",
    "discover":
        "19d22862e73f1c980f32a8a6b81a65e62eb5921dfe5c30198f23d7f1ebe59fb3",
    "cli":
        "c24b7426cc76ae0ca5a8aa500c822ac6df8173b5af63e63bbdeb964ce5b05877",
    "init":
        "283f9c490dcf28b4596ae11fd5fe2092065bf10ccc3eb97fdebb9288a6cfd9ad",
    "train":
        "77c0f14af3cddbedbf64d6f246d880275ce647aec0263a7bcfb16145c068c2f9",
}


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _tau_rows():
    with open(os.path.join(INPUTS, "tau_observations.json")) as fh:
        return json.load(fh)["observations"]


def traces_digest(model, mode):
    """Each run's JSONL line, predicts and observed values."""
    spec = simzoo.get_model(model)
    parts = []
    for i in range(RUNS[model]):
        trace = run_model(spec.run, mode, particle_seed(17, i))
        parts.append(trace_to_line(trace))
        parts.append(repr(sorted(trace.predicts.items())))
        parts.append(repr([o.value for o in trace.observes]))
    return _sha(parts)


def guided_rejection_digest():
    """Guided traces with a proposal for u only, so v falls back to the prior."""
    source = FixedProposal({"disc/u:Uniform": ScaledBeta(2.0, 3.0, -1.0, 1.0)})
    ps = sis_infer(simzoo.get_model("rejection_demo").run, {"y": 0.3}, 200, source,
                   master_seed=8)
    parts = [ps.log_weights.tobytes(), ps.weights.tobytes()]
    for trace in ps.traces:
        parts += [trace_to_line(trace), str(trace.proposal_fallbacks)]
    return _sha(parts)


def guided_tau_digest():
    """Log-weights and fallback counts of 60 guided particles per observation."""
    spec = simzoo.get_model("tau_decay_toy")
    network = net.load_net(NET_PATH)
    parts = []
    for k, row in enumerate(_tau_rows()):
        obs = {"cells": row["cells"]}
        source = net.TrainedProposal(network, spec.obs_to_vector(obs))
        ps = sis_infer(spec.run, obs, 60, source, master_seed=k)
        parts.append(ps.log_weights.tobytes())
        parts.append(repr([t.proposal_fallbacks for t in ps.traces]))
    return _sha(parts)


def discover_digest():
    """Heads and standardization moments from 40 record runs per model."""
    parts = []
    for model in ("rejection_demo", "tau_decay_toy"):
        arch, std = net.discover_architecture(simzoo.get_model(model), 6, n_sims=40)
        parts += [repr(sorted(arch.heads.items())), std.mean.tobytes(), std.std.tobytes()]
    return _sha(parts)


def _small_arch(model):
    return net.discover_architecture(simzoo.get_model(model), 6, n_sims=40)


def init_digest():
    """glorot_init parameters, in name order, for two discovered architectures."""
    parts = []
    for model in ("rejection_demo", "tau_decay_toy"):
        params = net.glorot_init(_small_arch(model)[0], 11)
        for name in params.names():
            parts += [name, repr(params.arrays[name].shape), params.arrays[name].tobytes()]
    return _sha(parts)


def train_digest(tmp):
    """save_net bytes after a few SGD steps from a fresh init."""
    parts = []
    for model, steps in (("rejection_demo", 8), ("tau_decay_toy", 4)):
        arch, std = _small_arch(model)
        config = net.TrainingConfig(steps=steps, master_seed=5, batch_size=8,
                                    learning_rate=1e-2)
        trained = net.train(simzoo.get_model(model), config, arch=arch, standardization=std)
        path = os.path.join(tmp, f"{model}.json")
        net.save_net(trained, path)
        with open(path, "rb") as fh:
            parts.append(fh.read())
    return _sha(parts)


def cli_digest(tmp):
    """Exit code, stdout and output files of a fixed command sequence."""

    def path(name):
        return os.path.join(tmp, name)

    def observation(name, model, values):
        with open(path(name), "w") as fh:
            json.dump({"model": model, "values": values}, fh)
        return path(name)

    tau_cells = _tau_rows()[0]["cells"]
    commands = [
        (["generate", "--model", "rejection_demo", "--n", "60", "--seed", "5",
          "--out", path("prior.jsonl")], ["prior.jsonl"]),
        (["generate", "--model", "rejection_demo", "--n", "60", "--seed", "5",
          "--mode", "record", "--out", path("record.jsonl")], ["record.jsonl"]),
        (["generate", "--model", "tau_decay_toy", "--n", "3", "--seed", "2",
          "--out", path("tau.jsonl")], ["tau.jsonl"]),
        (["inspect", "--traces", path("prior.jsonl"), "--dot-out", path("prior.dot"),
          "--stats-out", path("prior_stats.json")], ["prior.dot", "prior_stats.json"]),
        (["inspect", "--traces", path("record.jsonl"), "--dot-out", path("record.dot"),
          "--stats-out", path("record_stats.json")], ["record.dot", "record_stats.json"]),
        (["infer", "--model", "rejection_demo", "--particles", "300", "--seed", "9",
          "--observation", observation("rej.json", "rejection_demo", {"y": 0.3}),
          "--out", path("rej_post.json")], ["rej_post.json"]),
        (["infer", "--model", "gaussian_unknown_mean", "--particles", "200", "--seed", "3",
          "--observation", observation("gauss.json", "gaussian_unknown_mean", {"y": 1.2}),
          "--out", path("gauss_post.json")], ["gauss_post.json"]),
        (["infer", "--model", "tau_decay_toy", "--particles", "60", "--seed", "4",
          "--net", NET_PATH,
          "--observation", observation("tau_obs.json", "tau_decay_toy", {"cells": tau_cells}),
          "--out", path("tau_post.json")], ["tau_post.json"]),
    ]
    parts = []
    for argv, outputs in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        parts += [argv[0], str(rc), stdout.getvalue()]
        for name in outputs:
            with open(path(name), "rb") as fh:
                parts.append(fh.read())
    return _sha(parts)


@pytest.mark.parametrize("model", sorted(RUNS))
@pytest.mark.parametrize("mode", [Mode.PRIOR, Mode.RECORD])
def test_prior_and_record_traces_match_golden(model, mode):
    assert traces_digest(model, mode) == GOLDEN[f"{model}-{mode.value}"]


def test_guided_rejection_traces_match_golden():
    assert guided_rejection_digest() == GOLDEN["guided-rejection"]


def test_guided_tau_log_weights_match_golden():
    assert guided_tau_digest() == GOLDEN["guided-tau"]


def test_discovered_architecture_matches_golden():
    assert discover_digest() == GOLDEN["discover"]


def test_initial_params_match_golden():
    assert init_digest() == GOLDEN["init"]


def test_trained_network_bytes_match_golden(tmp_path):
    assert train_digest(str(tmp_path)) == GOLDEN["train"]


def test_cli_sequence_matches_golden(tmp_path):
    assert cli_digest(str(tmp_path)) == GOLDEN["cli"]


def current_digests():
    out = {f"{model}-{mode.value}": traces_digest(model, mode)
           for model in sorted(RUNS) for mode in (Mode.PRIOR, Mode.RECORD)}
    out["guided-rejection"] = guided_rejection_digest()
    out["guided-tau"] = guided_tau_digest()
    out["discover"] = discover_digest()
    out["init"] = init_digest()
    with tempfile.TemporaryDirectory() as tmp:
        out["train"] = train_digest(tmp)
        out["cli"] = cli_digest(tmp)
    return out


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=4)
    print()
