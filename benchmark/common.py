"""Paths and the import of simppl from the checkout's own source tree.

The benchmark measures the code in ``src/`` next to it, never an installed
copy, so it refuses to run when that tree is missing.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(BENCH_DIR, "inputs")
OUT = os.path.join(BENCH_DIR, "out")

NET_PATH = os.path.join(INPUTS, "tau_net.json")
TAU_INPUTS_PATH = os.path.join(INPUTS, "tau_observations.json")

# Observation seeds of simzoo.make_observation whose ground-truth channels
# are 0, 1, 2, 3 and 4: one observation per decay channel.
TAU_OBS_SEEDS = (23, 8, 6, 4, 10)

# The acceptance test's training settings for tau_decay_toy.
TAU_TRAIN = {"steps": 3000, "master_seed": 7, "batch_size": 32, "learning_rate": 3e-2}


class MissingSource(RuntimeError):
    pass


def import_simppl():
    """Import simppl from ``<root>/src`` and return the package."""
    if not os.path.isfile(os.path.join(SRC, "simppl", "__init__.py")):
        raise MissingSource(f"no simppl source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import simppl

    if os.path.dirname(os.path.dirname(os.path.abspath(simppl.__file__))) != SRC:
        raise MissingSource(f"simppl was imported from {simppl.__file__}, not from {SRC}")
    return simppl


def ncores():
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
