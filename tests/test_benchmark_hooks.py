"""The benchmark's span tracer must still find every call it hooks.

benchmark/tracer.py wraps named simppl functions and methods for
`benchmark/run.py --trace 1`; a renamed or deleted target breaks that run.
"""

import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


def _target(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_over_every_hook_and_restores_the_originals():
    sys.path.insert(0, BENCHMARK)
    try:
        import tracer
    finally:
        sys.path.remove(BENCHMARK)
    t = tracer.Tracer()
    originals = [(owner, attr, _target(owner, attr)) for owner, attr, _ in tracer.hooks(t)]
    t.install()
    try:
        wrapped = [_target(owner, attr) is not original for owner, attr, original in originals]
    finally:
        t.uninstall()
    assert all(wrapped)
    assert all(_target(owner, attr) is original for owner, attr, original in originals)
