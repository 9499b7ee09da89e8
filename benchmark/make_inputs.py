"""Rebuild the fixed inputs of the tau-infer workload.

    python3 benchmark/make_inputs.py net      # proposal network, about 3 min
    python3 benchmark/make_inputs.py oracles  # quadrature posteriors, about 1 min

``net`` trains the tau_decay_toy proposal network with the acceptance test's
settings (3000 steps, batch 32, lr 3e-2, master seed 7) and writes
``inputs/tau_net.json``. ``oracles`` draws the five observations (one per
decay channel) with ``simzoo.make_observation`` and stores each with its
ground truth and its ``simzoo.oracle_posterior``, an independent channel
enumeration plus 3-D quadrature, in ``inputs/tau_observations.json``.
Both commands are deterministic.
"""

from __future__ import annotations

import json
import sys
import time

from common import NET_PATH, TAU_INPUTS_PATH, TAU_OBS_SEEDS, TAU_TRAIN, import_simppl


def make_net():
    simppl = import_simppl()
    from simppl import simzoo

    spec = simzoo.get_model("tau_decay_toy")
    t0 = time.perf_counter()
    net = simppl.train(spec, simppl.TrainingConfig(**TAU_TRAIN))
    simppl.save_net(net, NET_PATH)
    print(f"wrote {NET_PATH} in {time.perf_counter() - t0:.0f} s", file=sys.stderr)


def make_oracles():
    import_simppl()
    from simppl import simzoo

    rows = []
    for seed in TAU_OBS_SEEDS:
        t0 = time.perf_counter()
        obs, truth = simzoo.make_observation("tau_decay_toy", seed)
        oracle = simzoo.oracle_posterior("tau_decay_toy", obs)
        rows.append({
            "obs_seed": seed,
            "cells": obs["cells"],
            "ground_truth": truth,
            "oracle": {
                "channel": {str(k): v for k, v in oracle["channel"]["histogram"].items()},
                **{k: {"mean": oracle[k]["mean"], "var": oracle[k]["var"]}
                   for k in ("p_x", "p_y", "p_z")},
            },
        })
        print(f"obs seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(TAU_INPUTS_PATH, "w") as fh:
        json.dump({"model": "tau_decay_toy", "observations": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {TAU_INPUTS_PATH}", file=sys.stderr)


def main(argv):
    jobs = {"net": make_net, "oracles": make_oracles}
    if len(argv) != 1 or argv[0] not in jobs:
        print(f"usage: make_inputs.py {{{','.join(jobs)}}}", file=sys.stderr)
        return 2
    jobs[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
