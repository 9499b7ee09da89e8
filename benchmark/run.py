"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload tau-infer --seed 1 --seconds 20 --trace 0

Workloads: tau-infer, tau-train, rejection-cli (see README.md). The run sets
up, runs one warm-up round, then runs whole rounds until the measured calls
have taken ``--seconds`` of wall time, checking every round's outputs
outside the measured time, and sets up again several times between rounds.
Every reported time is rescaled to the reference host speed (hostspeed.py).

With ``--trace 0`` it prints the end-to-end metrics: the throughput is the
median of the per-round rates, rounds being long enough to include the
program's garbage collection, and ``setup_s`` the median set-up.

With ``--trace 1`` rounds alternate between untraced and traced; the traced
rounds give the per-layer metrics and the two kinds together give the
tracing overhead. End-to-end numbers never come from a traced run.

Exit codes: 0 with a result line, 1 when an output check fails, 2 when the
arguments are wrong or the simppl source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys

# BLAS worker threads would come on top of sis_infer's threads; the
# workloads' matrices are far too small to gain from them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402
from common import OUT, MissingSource, import_simppl  # noqa: E402
from hostspeed import Meter  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 10

END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; BENCHMARK.json lists the same names.
PER_LAYER = {
    "trace.extend_ns": "ns",
    "trace.extends_per_run": "count",
    "trace.log_weight_us": "us",
    "trace.encode_us": "us",
    "trace.jsonl_bytes_per_trace": "B",
    "trace.decode_us": "us",
    "distributions.normal_new_ns": "ns",
    "distributions.log_prob_ns": "ns",
    "distributions.objects_per_run": "count",
    "distributions.proposal_us": "us",
    "distributions.nll_grad_us": "us",
    "runtime.guided_run_ms": "ms",
    "runtime.record_run_ms": "ms",
    "runtime.prior_run_us": "us",
    "runtime.observe_self_us": "us",
    "runtime.sample_self_us": "us",
    "runtime.observes_per_run": "count",
    "runtime.samples_per_run": "count",
    "runtime.scope_iterations_per_run": "count",
    "runtime.scope_accept_ratio": "ratio",
    "runtime.fallbacks_per_run": "count",
    "runtime.trace_kb": "KB",
    "simzoo.tau_body_self_ms": "ms",
    "simzoo.deposit_image_us": "us",
    "net.proposal_for_us": "us",
    "net.loss_grad_ms": "ms",
    "net.entries_per_step": "count",
    "net.sgd_update_us": "us",
    "net.discover_s": "s",
    "net.load_ms": "ms",
    "sis.self_ms": "ms",
    "sis.normalize_ms": "ms",
    "sis.summary_ms": "ms",
    "sis.ess": "count",
    "sis.ess_per_s": "1/s",
    "sis.particle_set_mb": "MB",
    "inspector.graph_add_us": "us",
    "inspector.stats_add_us": "us",
    "inspector.report_ms": "ms",
    "cli.startup_s": "s",
    "cli.generate_self_ms": "ms",
    "cli.inspect_self_ms": "ms",
    "cli.infer_self_ms": "ms",
    "cli.generate_traces_per_s": "1/s",
    "cli.inspect_traces_per_s": "1/s",
    "cli.infer_particles_per_s": "1/s",
    "tracing.overhead_pct": "%",
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload):
    meter = Meter()
    workload.setup_once(meter)
    return meter.scaled


def run_rounds(workload, seconds, tracer=None):
    """Set up, run a warm-up round, then whole rounds until the measured
    calls have taken `seconds` of wall time; with a tracer, even rounds are
    traced. The remaining set-ups are spread over the run, between rounds,
    so that their median does not rest on one stretch of host time.
    Returns (set-up times, untraced rounds, traced rounds, rounds run)."""
    setups = [time_setup(workload)]
    workload.prepare()
    gc.collect()
    untraced, traced = [], []
    r = 0
    out = workload.round(r)
    workload.check_round(r, out)
    measured = 0.0
    while measured < seconds or len(untraced) < MIN_ROUNDS or (tracer and len(traced) < MIN_ROUNDS):
        r += 1
        trace_this = tracer is not None and r % 2 == 0
        if trace_this:
            tracer.install()
            tracer.keep_raw = not traced
            tracer.round = r
        try:
            out = workload.round(r)
        finally:
            if trace_this:
                tracer.uninstall()
                tracer.keep_raw = False
        if trace_this:
            tracer.end_round(out.seconds / out.raw_seconds)
        workload.check_round(r, out)
        (traced if trace_this else untraced).append(out)
        measured += out.raw_seconds
        if len(setups) < workload.setup_reps * min(1.0, measured / seconds):
            setups.append(time_setup(workload))
    while len(setups) < workload.setup_reps:
        setups.append(time_setup(workload))
    workload.finish()
    return setups, untraced, traced, r + 1


def rate(rounds, phase=None):
    """Median over rounds of the round's (or one phase's) rescaled rate."""
    if phase is None:
        return statistics.median(o.items / o.seconds for o in rounds)
    if phase not in rounds[0].phases:
        return 0.0
    return statistics.median(o.phases[phase][0] / o.phases[phase][1] for o in rounds)


def layer_metrics(workload, setup_s, untraced, traced, tracer, setup_tracer):
    agg = tracer.aggregates()
    cnt = tracer.counters()
    setup_agg = setup_tracer.aggregates()
    runs = cnt.get("runtime.runs", 0)
    steps = cnt.get("net.steps", 0)

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def mean(name, scale, which=1, source=agg):
        rec = source.get(name)
        return rec[which] / rec[0] / scale if rec and rec[0] else 0.0

    def per(x, n):
        return x / n if n else 0.0

    begins = cnt.get("runtime.scope_begins", 0)
    iterations = begins + cnt.get("runtime.scope_retries", 0)
    ess = [e for o in untraced + traced for e in o.ess_sets]
    m = {
        "trace.extend_ns": mean("trace.extend", 1),
        "trace.extends_per_run": per(calls("trace.extend"), runs),
        "trace.log_weight_us": mean("trace.log_weight", 1e3),
        "trace.encode_us": mean("trace.encode", 1e3),
        "trace.jsonl_bytes_per_trace": per(cnt.get("trace.jsonl_bytes", 0), calls("trace.encode")),
        "trace.decode_us": mean("trace.decode", 1e3),
        "distributions.normal_new_ns": mean("distributions.normal_new", 1),
        "distributions.log_prob_ns": mean("distributions.log_prob", 1),
        "distributions.objects_per_run": per(
            calls("distributions.normal_new") + calls("distributions.other_new"), runs),
        "distributions.proposal_us": mean("distributions.proposal", 1e3),
        "distributions.nll_grad_us": mean("distributions.nll_grad", 1e3),
        "runtime.guided_run_ms": mean("runtime.run.guided", 1e6),
        "runtime.record_run_ms": mean("runtime.run.record", 1e6),
        "runtime.prior_run_us": mean("runtime.run.prior", 1e3),
        "runtime.observe_self_us": mean("runtime.observe", 1e3, which=2),
        "runtime.sample_self_us": mean("runtime.sample", 1e3, which=2),
        "runtime.observes_per_run": per(calls("runtime.observe"), runs),
        "runtime.samples_per_run": per(calls("runtime.sample"), runs),
        "runtime.scope_iterations_per_run": per(iterations, runs),
        "runtime.scope_accept_ratio": per(begins, iterations),
        "runtime.fallbacks_per_run": per(cnt.get("runtime.fallbacks", 0), runs),
        "runtime.trace_kb": per(sum(tracer.trace_sizes), len(tracer.trace_sizes)) / 1024.0,
        "simzoo.tau_body_self_ms": mean("simzoo.tau_body", 1e6, which=2),
        "simzoo.deposit_image_us": mean("simzoo.deposit_image", 1e3),
        "net.proposal_for_us": mean("net.proposal_for", 1e3),
        "net.loss_grad_ms": mean("net.loss_grad", 1e6),
        "net.entries_per_step": per(cnt.get("net.entries", 0), steps),
        "net.sgd_update_us": per(agg.get("net.sgd_update", (0, 0, 0))[1], steps) / 1e3,
        "net.discover_s": mean("net.discover", 1e9, source=setup_agg),
        "net.load_ms": mean("net.load", 1e6, source=setup_agg),
        "sis.self_ms": mean("sis.infer", 1e6, which=2),
        "sis.normalize_ms": mean("sis.normalize", 1e6),
        "sis.summary_ms": mean("sis.summary", 1e6),
        "sis.ess": per(sum(ess), len(ess)),
        "sis.ess_per_s": rate(untraced, "ess"),
        "sis.particle_set_mb": per(sum(tracer.particle_set_sizes),
                                   len(tracer.particle_set_sizes)) / 2**20,
        "inspector.graph_add_us": mean("inspector.graph_add", 1e3),
        "inspector.stats_add_us": mean("inspector.stats_add", 1e3),
        "inspector.report_ms": mean("inspector.report", 1e6),
        "cli.startup_s": setup_s if workload.name == "rejection-cli" else 0.0,
        "cli.generate_self_ms": mean("cli.generate", 1e6, which=2),
        "cli.inspect_self_ms": mean("cli.inspect", 1e6, which=2),
        "cli.infer_self_ms": mean("cli.infer", 1e6, which=2),
        "cli.generate_traces_per_s": rate(untraced, "generate"),
        "cli.inspect_traces_per_s": rate(untraced, "inspect"),
        "cli.infer_particles_per_s": rate(untraced, "infer"),
        "tracing.overhead_pct": (rate(untraced) / rate(traced) - 1.0) * 100.0,
    }
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_simppl()
    except (MissingSource, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        tracer = setup_tracer = None
        if args.trace:
            tracer, setup_tracer = Tracer(), Tracer()
            meter = Meter()
            setup_tracer.install()
            try:
                workload.setup_once(meter)
            finally:
                setup_tracer.uninstall()
            setup_tracer.end_round(meter.scaled / meter.raw)
        setups, untraced, traced, n_rounds = run_rounds(workload, args.seconds, tracer)
    except checks.CheckFailed as exc:
        print(f"error: {args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    setup_s = statistics.median(setups)
    if args.trace:
        values = layer_metrics(workload, setup_s, untraced, traced, tracer, setup_tracer)
        units = PER_LAYER
        tracer.write_raw(os.path.join(OUT, f"spans-{tag}.jsonl"))
    else:
        values = {"throughput_per_s": rate(untraced), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
    result = {
        "correct": True,
        "attempted": n_rounds * untraced[0].items,
        "failed": 0,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
