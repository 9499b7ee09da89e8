"""The three workloads: set-up, one measured round, and the checks.

A round is a fixed batch of operations, measured as units (an SGD step, a
particle set, a CLI command) whose times hostspeed.Meter rescales to the
reference host speed. The checks run after the round, outside its time.
Every call into simppl goes through its module attribute (``sis.sis_infer``
rather than an imported name) so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

import checks
from common import BENCH_DIR, NET_PATH, OUT, SRC, TAU_INPUTS_PATH, ncores
from hostspeed import Meter


# Keys of the set-up seeds; round seeds use the round index (and observation).
THREADS_KEY, ARCH_KEY, INIT_KEY, HELDOUT_KEY, COORDS_KEY = (10**9 + i for i in range(5))


def run_seed(seed, *key):
    """Deterministic master seed for one set of operations of a run."""
    return int(np.random.SeedSequence(entropy=[seed, *key]).generate_state(1, dtype=np.uint64)[0])


class Round:
    """Work items and rescaled seconds of one round's measured calls, and
    its raw wall seconds; phases map a name to (units, rescaled seconds)
    for the per-phase rates of the traced run."""

    def __init__(self, items, meter, **phases):
        self.items = items
        self.seconds = meter.scaled
        self.raw_seconds = meter.raw
        self.phases = phases
        self.ess_sets = []
        self.data = None


class TauInfer:
    """sis_infer plus posterior_summary of every predict on tau_decay_toy,
    five observations (one per decay channel), the committed network."""

    name = "tau-infer"
    setup_reps = 40
    particles = 100

    def __init__(self, seed):
        from simppl import simzoo

        self.seed = seed
        self.threads = ncores()
        self.spec = simzoo.get_model("tau_decay_toy")
        with open(TAU_INPUTS_PATH) as fh:
            self.inputs = json.load(fh)["observations"]
        self.observations = [{"cells": row["cells"]} for row in self.inputs]
        self.pooled = [{"lw": [], **{p: [] for p in checks.TAU_PREDICTS}} for _ in self.inputs]

    def setup_once(self, meter):
        from simppl import net

        meter.start()
        network = net.load_net(NET_PATH)
        self.sources = [net.TrainedProposal(network, self.spec.obs_to_vector(obs))
                        for obs in self.observations]
        meter.lap()

    def prepare(self):
        """Log-weights must not depend on the worker count."""
        from simppl import sis

        n = 4 * self.threads
        one = sis.sis_infer(self.spec.run, self.observations[0], n, self.sources[0],
                            run_seed(self.seed, THREADS_KEY), threads=1)
        many = sis.sis_infer(self.spec.run, self.observations[0], n, self.sources[0],
                             run_seed(self.seed, THREADS_KEY), threads=self.threads)
        checks.check_same_log_weights(one.log_weights, many.log_weights,
                                      f"1 thread vs {self.threads} threads")

    def round(self, r):
        from simppl import sis

        sets, ess_sets = [], []
        meter = Meter()
        meter.start()
        for k, obs in enumerate(self.observations):
            ps = sis.sis_infer(self.spec.run, obs, self.particles,
                               proposal_source=self.sources[k],
                               master_seed=run_seed(self.seed, r, k), threads=self.threads)
            summaries = [sis.posterior_summary(ps, name) for name in checks.TAU_PREDICTS]
            meter.lap()
            ess_sets.append(summaries[0]["ess"])
            sets.append(ps)
        out = Round(len(sets) * self.particles, meter, ess=(sum(ess_sets), meter.scaled))
        out.ess_sets = [float(s) for s in ess_sets]
        out.data = sets
        return out

    def check_round(self, r, out):
        cfg = self.spec.config
        for k, ps in enumerate(out.data):
            checks.check_normalized(ps.weights, f"round {r} observation {k}")
            for trace in ps.traces[:2]:
                checks.check_tau_log_weight(cfg, trace, self.observations[k]["cells"])
            pool = self.pooled[k]
            pool["lw"].extend(ps.log_weights.tolist())
            for name in checks.TAU_PREDICTS:
                pool[name].extend(t.predicts[name] for t in ps.traces)
        out.data = None

    def finish(self):
        for row, pool in zip(self.inputs, self.pooled):
            checks.check_tau_pooled(pool["lw"], pool, row["oracle"],
                                    f"observation seed {row['obs_seed']}")


class TauTrain:
    """SGD on tau_decay_toy from a fresh init with the acceptance test's
    batch size and learning rate; set-up is architecture discovery."""

    name = "tau-train"
    setup_reps = 5
    steps = 20
    batch_size = 32
    learning_rate = 3e-2
    heldout = 64

    def __init__(self, seed):
        from simppl import simzoo

        self.seed = seed
        self.spec = simzoo.get_model("tau_decay_toy")

    def config(self, master_seed, steps):
        from simppl import net

        return net.TrainingConfig(steps=steps, master_seed=master_seed,
                                  batch_size=self.batch_size, learning_rate=self.learning_rate)

    def setup_once(self, meter):
        from simppl import net

        meter.start()
        arch, std = net.discover_architecture(self.spec, run_seed(self.seed, ARCH_KEY))
        net.train(self.spec, self.config(run_seed(self.seed, INIT_KEY), 0), arch=arch,
                  standardization=std)
        meter.lap()
        self.arch, self.std = arch, std

    def prepare(self):
        from simppl import runtime

        self.heldout_batch = [
            runtime.run_model(self.spec.run, runtime.Mode.RECORD,
                              np.random.SeedSequence(entropy=[self.seed, HELDOUT_KEY], spawn_key=(i,)))
            for i in range(self.heldout)
        ]

    def train(self, master_seed, steps, on_step=None):
        from simppl import net

        return net.train(self.spec, self.config(master_seed, steps), arch=self.arch,
                         standardization=self.std, on_step=on_step)

    def round(self, r):
        meter = Meter()
        meter.start()
        trained = self.train(run_seed(self.seed, r), self.steps, lambda step, loss: meter.lap())
        meter.lap()
        out = Round(self.steps * self.batch_size, meter)
        out.data = trained
        return out

    def check_round(self, r, out):
        from simppl import net

        init = self.train(run_seed(self.seed, r), 0)
        checks.check_loss_fell(net.ic_loss(init, self.heldout_batch),
                               net.ic_loss(out.data, self.heldout_batch), f"round {r}")
        if r == 0:
            self.check_gradient(out.data)
        out.data = None

    def check_gradient(self, trained):
        from simppl import net

        batch = self.heldout_batch[:4]
        params = trained.params
        x0 = params.to_vector()
        grad = net.ic_grad(trained, batch).to_vector()
        rng = np.random.default_rng(run_seed(self.seed, COORDS_KEY))

        def loss_at(x):
            params.from_vector(x)
            return net.ic_loss(trained, batch)

        try:
            checks.check_gradient(loss_at, grad, x0, rng.choice(x0.size, 24, replace=False))
        finally:
            params.from_vector(x0)

    def finish(self):
        pass


class RejectionCli:
    """simppl generate, inspect and infer on rejection_demo through cli.main
    with its defaults; the network is idle (prior proposals)."""

    name = "rejection-cli"
    setup_reps = 7
    traces = 1000
    y = 0.5

    def __init__(self, seed):
        self.seed = seed
        self.dir = os.path.join(OUT, f"rejection-cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.path = {name: os.path.join(self.dir, name) for name in
                     ("traces.jsonl", "graph.dot", "stats.json", "obs.json", "post.json")}
        with open(self.path["obs.json"], "w") as fh:
            json.dump({"model": "rejection_demo", "values": {"y": self.y}}, fh)
        self.grid = checks.rejection_grid_posterior(self.y)
        self.attempts = 0
        self.n_traces = 0

    # A fresh process imports the CLI, then runs the calibration chunk twice
    # (the first warms it up) and prints both durations, so its start-up is
    # rescaled by what the host was doing in that process.
    STARTUP = ("import simppl.cli\nfrom hostspeed import calibrate\n"
               "print(calibrate(), calibrate())")

    def setup_once(self, meter):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]))
        t0 = perf_counter()
        child = subprocess.run([sys.executable, "-c", self.STARTUP], env=env, check=True,
                               capture_output=True, text=True, timeout=60)
        wall = perf_counter() - t0
        warm, calibration = (float(x) for x in child.stdout.split())
        meter.add(wall - warm - calibration, calibration)

    def prepare(self):
        pass

    def cli(self, meter, argv):
        """Run one command as one measured unit; returns (stdout, rescaled s)."""
        from simppl import cli

        buf = io.StringIO()
        before = meter.scaled
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
            meter.lap()
        if code != 0:
            raise checks.CheckFailed(f"simppl {argv[0]} exited with {code}")
        return buf.getvalue(), meter.scaled - before

    def round(self, r):
        p, n, seed = self.path, str(self.traces), str(run_seed(self.seed, r) % 2**31)
        meter = Meter()
        meter.start()
        _, t_gen = self.cli(meter, ["generate", "--model", "rejection_demo", "--n", n,
                                    "--seed", seed, "--out", p["traces.jsonl"]])
        report, t_ins = self.cli(meter, ["inspect", "--traces", p["traces.jsonl"], "--dot-out",
                                         p["graph.dot"], "--stats-out", p["stats.json"]])
        posterior, t_inf = self.cli(meter, ["infer", "--model", "rejection_demo",
                                            "--observation", p["obs.json"], "--particles", n,
                                            "--seed", seed, "--out", p["post.json"]])
        out = Round(self.traces, meter, generate=(self.traces, t_gen),
                    inspect=(self.traces, t_ins), infer=(self.traces, t_inf))
        out.data = (report, posterior)
        ess = json.loads(posterior.strip().splitlines()[-1])["ess"]
        out.phases["ess"] = (ess, t_inf)
        out.ess_sets = [ess]
        return out

    def check_round(self, r, out):
        report, posterior = out.data
        with open(self.path["traces.jsonl"]) as fh:
            attempts = checks.check_disc_traces(fh.read().splitlines(), self.traces)
        with open(self.path["graph.dot"]) as fh:
            edges = checks.parse_dot_edges(fh.read())
        checks.check_flow(edges, self.traces)
        checks.check_disc_graph(edges, attempts)
        with open(self.path["stats.json"]) as fh:
            stats = json.load(fh)
        checks.require(stats["n_traces"] == self.traces, "inspect stats count the wrong traces")
        cycles = json.loads(report.strip().splitlines()[-1])["cycles"]
        checks.require([c["nodes"] for c in cycles] == [["disc/u:Uniform", "disc/v:Uniform"]],
                       f"hotspot report cycles {cycles}")
        checks.check_rejection_summary(json.loads(posterior.strip().splitlines()[-1]),
                                       self.grid, self.traces)
        self.attempts += sum(attempts)
        self.n_traces += len(attempts)
        out.data = None

    def finish(self):
        checks.check_scope_iterations(self.attempts, self.n_traces)
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (TauInfer, TauTrain, RejectionCli)}
