"""The benchmark's span tracer must still find every call it hooks.

benchmark/tracer.py wraps named simppl functions and methods for
`benchmark/run.py --trace 1`; a renamed or deleted target breaks that run.
Its trace_bytes reads the fields of a trace (entry params, observe values and
log-likelihoods) that a change of the trace's layout would move.
"""

import os
import sys

import pytest

from simppl import simzoo
from simppl.runtime import Mode, run_batch
from simppl.trace import iter_traces, write_traces

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


def _target(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _tracer_module():
    sys.path.insert(0, BENCHMARK)
    try:
        import tracer
    finally:
        sys.path.remove(BENCHMARK)
    return tracer


def test_tracer_installs_over_every_hook_and_restores_the_originals():
    tracer = _tracer_module()
    t = tracer.Tracer()
    originals = [(owner, attr, _target(owner, attr)) for owner, attr, _ in tracer.hooks(t)]
    t.install()
    try:
        wrapped = [_target(owner, attr) is not original for owner, attr, original in originals]
    finally:
        t.uninstall()
    assert all(wrapped)
    assert all(_target(owner, attr) is original for owner, attr, original in originals)


@pytest.mark.parametrize("name", simzoo.MODEL_NAMES)
def test_trace_bytes_sizes_prior_record_and_guided_traces(name):
    spec = simzoo.get_model(name)
    observation, _ = simzoo.make_observation(name, 4)
    traces = [next(run_batch(spec.run, mode, 4, 1)) for mode in (Mode.PRIOR, Mode.RECORD)]
    traces += run_batch(spec.run, Mode.GUIDED, 4, 1, observation=observation)
    sizes = [_tracer_module().trace_bytes(t) for t in traces]
    assert len(sizes) == 3
    assert all(type(s) is int and s > 0 for s in sizes)


def test_trace_bytes_sizes_a_trace_read_back_from_jsonl(tmp_path):
    path = tmp_path / "traces.jsonl"
    write_traces(path, run_batch(simzoo.get_model("rejection_demo").run, Mode.PRIOR, 4, 2))
    sizes = [_tracer_module().trace_bytes(t) for t in iter_traces(path)]
    assert len(sizes) == 2
    assert all(type(s) is int and s > 0 for s in sizes)
