"""Span tracing for the traced run, kept entirely outside the simppl package.

``hooks()`` lists the public calls at each layer boundary. ``Tracer.install``
replaces each of them, wherever a simppl module holds a reference, by a
wrapper that records a span: name, start, end and the span that caused it.
``Tracer.uninstall`` puts the originals back, so untraced rounds run the
program exactly as shipped.

A span's self time is its duration minus the part of it covered by its
child spans. A span opened on a worker thread with nothing open on that
thread is a child of the innermost span open on the tracing thread, which
is how the particles of a threaded ``sis_infer`` are attributed to it; such
cross-thread children overlap each other, so their covered time is the
union of their intervals.

Spans are aggregated per name as they close; when a round ends they are
folded into the run's totals, their times rescaled like the round's own
time (hostspeed.py). The raw spans of the first traced round (the spans of
one round share its number) are also kept in memory, up to a cap, and
written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter_ns

RAW_SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggs = []
        self._counters = []
        self._ids = itertools.count(1)
        self._totals = {}
        self._counts = {}
        self._home = None
        self._installed = []
        self.raw = []
        self.keep_raw = False
        self.round = 0
        self.trace_sizes = []
        self.particle_set_sizes = []

    # -- spans -------------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.agg = {}
            self._local.counters = {}
            with self._lock:
                self._aggs.append(self._local.agg)
                self._counters.append(self._local.counters)
        return st

    def enter(self, name):
        stack = self._state()
        if stack:
            parent, cross = stack[-1], False
        else:
            home = self._home
            parent = home[-1] if home and home is not stack else None
            cross = parent is not None
        # frame: name, start, same-thread child time, cross-thread child
        # intervals, parent frame, parent is on another thread, span id
        frame = [name, perf_counter_ns(), 0, None, parent, cross, next(self._ids)]
        stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf_counter_ns()
        stack = self._local.stack
        stack.pop()
        name, start, child, intervals, parent, cross, span_id = frame
        dur = end - start
        covered = child + (_union_length(intervals) if intervals else 0)
        rec = self._local.agg.get(name)
        if rec is None:
            rec = self._local.agg[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - covered
        if parent is not None:
            if cross:
                with self._lock:
                    if parent[3] is None:
                        parent[3] = []
                    parent[3].append((start, end))
            else:
                parent[2] += dur
        if self.keep_raw and len(self.raw) < RAW_SPAN_CAP:
            self.raw.append((span_id, parent[6] if parent else 0, name, start, end,
                             threading.get_ident(), self.round))

    def count(self, name, amount=1):
        self._state()
        counters = self._local.counters
        counters[name] = counters.get(name, 0) + amount

    # -- results -----------------------------------------------------------

    def end_round(self, factor):
        """Fold the spans and counts since the last call into the totals,
        with span times multiplied by `factor` (the round's rescaling)."""
        with self._lock:
            for agg in self._aggs:
                for name, (n, total, self_ns) in agg.items():
                    r = self._totals.setdefault(name, [0, 0.0, 0.0])
                    r[0] += n
                    r[1] += total * factor
                    r[2] += self_ns * factor
                agg.clear()
            for counters in self._counters:
                for name, value in counters.items():
                    self._counts[name] = self._counts.get(name, 0) + value
                counters.clear()

    def aggregates(self):
        """name -> [calls, total ns, self ns], summed over threads and rounds."""
        return self._totals

    def counters(self):
        return self._counts

    def write_raw(self, path):
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end, thread, round_ in self.raw:
                fh.write(json.dumps({"round": round_, "id": span_id, "parent": parent_id,
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "thread": thread}))
                fh.write("\n")

    # -- hooks -------------------------------------------------------------

    def install(self):
        """Wrap every hooked call; the calling thread becomes the home thread."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._home = self._state()
        for owner, attr, make in hooks(self):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = make(original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
            else:
                for module in _simppl_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)
                            self._installed.append((module, name, original))
                commands = getattr(sys.modules.get("simppl.cli"), "_COMMANDS", {})
                for name, value in list(commands.items()):
                    if value is original:
                        commands[name] = wrapped
                        self._installed.append((commands, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed = []


def _simppl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "simppl" or name.startswith("simppl."))]


def _union_length(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span(tracer, name, after=None):
    """Wrapper factory: a span named ``name`` around the call; ``after``
    sees (args, kwargs, result) once the span has closed."""

    def make(fn):
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def hooks(tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    from simppl import cli, distributions, inspector, net, runtime, simzoo, sis, trace

    t = tracer
    mode_span = {"prior": "runtime.run.prior", "record": "runtime.run.record",
                 "guided": "runtime.run.guided"}

    sampled = itertools.count()

    def make_run_model(fn):
        def wrapper(model, mode, seed, observation=None, proposal_source=None):
            frame = t.enter(mode_span[runtime.Mode(mode).value])
            try:
                result = fn(model, mode, seed, observation=observation,
                            proposal_source=proposal_source)
            finally:
                t.exit(frame)
            t.count("runtime.runs")
            t.count("runtime.fallbacks", result.proposal_fallbacks)
            if next(sampled) % 16 == 0:
                t.trace_sizes.append(trace_bytes(result))
            return result

        return wrapper

    def make_iter_traces(fn):
        def wrapper(path):
            it = iter(fn(path))
            while True:
                frame = t.enter("trace.decode")
                try:
                    item = next(it)
                except StopIteration:
                    t.exit(frame)
                    return
                except BaseException:
                    t.exit(frame)
                    raise
                t.exit(frame)
                yield item

        return wrapper

    def after_encode(args, kwargs, line):
        t.count("trace.jsonl_bytes", len(line) + 1)

    def after_loss(args, kwargs, result):
        want_grad = kwargs.get("want_grad", args[2] if len(args) > 2 else False)
        if want_grad:
            t.count("net.steps")
            t.count("net.entries", sum(len(tr.entries) for tr in args[1]))

    def after_sis(args, kwargs, particles):
        sample = particles.traces[:8]
        per_trace = sum(trace_bytes(tr) for tr in sample) / len(sample)
        arrays = particles.log_weights.nbytes + particles.weights.nbytes
        t.particle_set_sizes.append(per_trace * len(particles.traces) + arrays)

    def counting(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                t.count(name)
                return fn(*args, **kwargs)

            return wrapper

        return make

    out = [
        (runtime, "run_model", make_run_model),
        (trace.AddressTable, "extend", span(t, "trace.extend")),
        (trace, "trace_log_weight", span(t, "trace.log_weight")),
        (trace, "trace_to_line", span(t, "trace.encode", after_encode)),
        (trace, "iter_traces", make_iter_traces),
        (runtime.ExecutionContext, "sample", span(t, "runtime.sample")),
        (runtime.ExecutionContext, "observe", span(t, "runtime.observe")),
        (runtime.ExecutionContext, "scope_begin", counting("runtime.scope_begins")),
        (runtime.ExecutionContext, "scope_retry", counting("runtime.scope_retries")),
        (distributions, "proposal_from_params", span(t, "distributions.proposal")),
        (distributions, "proposal_nll_grad", span(t, "distributions.nll_grad")),
        (simzoo, "tau_decay_toy", span(t, "simzoo.tau_body")),
        (simzoo, "deposit_image", span(t, "simzoo.deposit_image")),
        (net.TrainedProposal, "proposal_for", span(t, "net.proposal_for")),
        (net, "_loss_and_grad", span(t, "net.loss_grad", after_loss)),
        (net.NetParams, "global_norm", span(t, "net.sgd_update")),
        (net.NetParams, "add_scaled", span(t, "net.sgd_update")),
        (net.NetParams, "all_finite", span(t, "net.sgd_update")),
        (net, "discover_architecture", span(t, "net.discover")),
        (net, "load_net", span(t, "net.load")),
        (sis, "sis_infer", span(t, "sis.infer", after_sis)),
        (sis.ParticleSet, "normalize", span(t, "sis.normalize")),
        (sis, "posterior_summary", span(t, "sis.summary")),
        (inspector.SuccessionGraph, "add_trace", span(t, "inspector.graph_add")),
        (inspector.TraceStats, "add_trace", span(t, "inspector.stats_add")),
        (inspector, "hotspot_report", span(t, "inspector.report")),
        (cli, "cmd_generate", span(t, "cli.generate")),
        (cli, "cmd_inspect", span(t, "cli.inspect")),
        (cli, "cmd_infer", span(t, "cli.infer")),
    ]
    for cls in distributions.FAMILIES.values():
        new_name = "distributions.normal_new" if cls is distributions.Normal else "distributions.other_new"
        out.append((cls, "__init__", span(t, new_name)))
        out.append((cls, "log_prob", span(t, "distributions.log_prob")))
    return out


def trace_bytes(trace):
    """Bytes a trace holds on its own: the trace, its lists, entries, params,
    values and predicts. Interned addresses are shared and not counted."""
    size = sys.getsizeof
    total = size(trace) + size(trace.__dict__) + size(trace.entries) + size(trace.observes)
    for e in trace.entries:
        total += size(e) + size(e.params) + size(e.value) + size(e.log_p) + size(e.log_q)
        total += sum(size(p) for p in e.params)
    for o in trace.observes:
        total += size(o) + size(o.log_likelihood) + (size(o.value) if o.value is not None else 0)
    total += size(trace.predicts) + sum(size(v) for v in trace.predicts.values())
    return total
