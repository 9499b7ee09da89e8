"""Command-line interface.

Four subcommands: generate (write prior/record traces), train (fit a
proposal network), infer (guided SIS posterior summaries), inspect (graph,
stats, and hotspot report from a trace file). Machine-readable JSON goes to
stdout, prose diagnostics to stderr. Every command takes an explicit seed;
nothing reads the clock, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import net as net_mod
from . import simzoo
from .errors import ConfigError, SimpplError
from .inspector import SuccessionGraph, TraceStats, graph_to_dot, hotspot_report
from .runtime import Mode, run_batch
from .sis import effective_sample_size, posterior_summary, sis_infer
from .trace import iter_traces, write_traces


def _int_at_least(low, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    return parse


# seeds and trace counts may be 0; particle and thread counts may not
_SEED = _int_at_least(0, "seed")
_COUNT = _int_at_least(0, "count")
_PARTICLES = _int_at_least(1, "particles")
_THREADS = _int_at_least(1, "threads")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="simppl",
        description="Probabilistic programming runtime with amortized importance sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write prior/record traces as JSONL")
    gen.add_argument("--model", required=True)
    gen.add_argument("--n", type=_COUNT, required=True, help="number of traces")
    gen.add_argument("--seed", type=_SEED, required=True)
    gen.add_argument("--mode", choices=["prior", "record"], default="prior")
    gen.add_argument("--out", required=True, help="output JSONL path")

    tr = sub.add_parser("train", help="train a proposal network on prior runs")
    tr.add_argument("--model", required=True)
    tr.add_argument("--steps", type=int, required=True)
    tr.add_argument("--seed", type=_SEED, required=True)
    tr.add_argument("--net-out", required=True, help="output network JSON path")
    tr.add_argument("--batch-size", type=int, default=64)
    tr.add_argument("--lr", type=float, default=1e-3)

    inf = sub.add_parser("infer", help="guided SIS posterior for an observation")
    inf.add_argument("--model", required=True)
    inf.add_argument("--observation", required=True, help="observation JSON path")
    inf.add_argument("--net", help="trained network JSON; omit for prior proposals")
    inf.add_argument("--particles", type=_PARTICLES, required=True)
    inf.add_argument("--seed", type=_SEED, required=True)
    inf.add_argument("--out", required=True, help="output summary JSON path")

    ins = sub.add_parser("inspect", help="succession graph, stats, and hotspots")
    ins.add_argument("--traces", required=True, help="input JSONL path")
    ins.add_argument("--dot-out", required=True, help="output DOT path")
    ins.add_argument("--stats-out", required=True, help="output stats JSON path")
    ins.add_argument("--threshold", type=float, default=1.5,
                     help="mean occurrences per trace above which an address is hot")
    for command in (gen, tr, inf, ins):
        command.add_argument("--threads", type=_THREADS, default=1,
                             help="accepted for compatibility; every command runs sequentially")
    return parser


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
        raise ConfigError(f"malformed {what} JSON at {path}: {exc}") from exc


def cmd_generate(args):
    spec = simzoo.get_model(args.model)
    traces = list(run_batch(spec.run, Mode(args.mode), args.seed, args.n))
    write_traces(args.out, traces)
    mean_length = sum(t.length for t in traces) / len(traces) if traces else 0.0
    print(json.dumps({"n": len(traces), "mean_length": mean_length}))
    return 0


def cmd_train(args):
    spec = simzoo.get_model(args.model)
    config = net_mod.TrainingConfig(
        steps=args.steps,
        master_seed=args.seed,
        batch_size=args.batch_size,
        learning_rate=args.lr,
    )

    def on_step(step, loss):
        print(json.dumps({"step": step, "loss": loss}))

    net = net_mod.train(spec, config, on_step=on_step)
    try:
        net_mod.save_net(net, args.net_out)
    except OSError as exc:
        raise SimpplError(f"cannot write network to {args.net_out}: {exc}") from exc
    print(json.dumps({"trained": args.model, "steps": args.steps, "net": args.net_out}))
    return 0


def cmd_infer(args):
    wrapper = _load_json(args.observation, "observation")
    if not isinstance(wrapper, dict) or not isinstance(wrapper.get("values"), dict):
        raise ConfigError(
            'observation JSON must be an object with a "values" object, '
            'e.g. {"model": "gaussian_unknown_mean", "values": {"y": 1.0}}'
        )
    obs_model = wrapper.get("model")
    if obs_model is not None and obs_model != args.model:
        raise ConfigError(
            f"observation was generated for {obs_model!r}, not {args.model!r}"
        )
    spec = simzoo.get_model(args.model, wrapper.get("config"))
    observation = wrapper["values"]
    _check_finite(observation)
    try:
        obs_vec = spec.obs_to_vector(observation)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"observation values do not fit {args.model}: {exc}") from exc
    proposal_source = None
    if args.net:
        net = net_mod.load_net(args.net)
        proposal_source = net_mod.TrainedProposal(net, obs_vec)
    particles = sis_infer(
        spec.run,
        observation,
        args.particles,
        proposal_source=proposal_source,
        master_seed=args.seed,
        threads=args.threads,
    )
    names = sorted(particles.traces[0].predicts)
    fallbacks = sum(t.proposal_fallbacks for t in particles.traces)
    result = {
        "model": args.model,
        "n_particles": args.particles,
        "ess": effective_sample_size(particles),
        "proposal_fallbacks": fallbacks,
        "summaries": {name: posterior_summary(particles, name) for name in names},
    }
    payload = json.dumps(result, sort_keys=True)
    with open(args.out, "w") as fh:
        fh.write(payload + "\n")
    print(payload)
    return 0


def _check_finite(observation):
    """Reject a NaN or infinite value, naming its key or list cell."""
    for key, value in observation.items():
        cells = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, v in cells:
            if isinstance(v, float) and not math.isfinite(v):
                where = key if i is None else f"{key}[{i}]"
                raise ConfigError(f"observation {where} is not finite: {v!r}")


def cmd_inspect(args):
    if not args.threshold > 1.0:
        raise ConfigError("--threshold must be > 1")
    graph = SuccessionGraph()
    stats = TraceStats()
    try:
        for trace in iter_traces(args.traces):
            graph.add_trace(trace)
            stats.add_trace(trace)
    except FileNotFoundError as exc:
        raise ConfigError(f"trace file not found: {args.traces}") from exc
    with open(args.dot_out, "w") as fh:
        fh.write(graph_to_dot(graph))
    with open(args.stats_out, "w") as fh:
        fh.write(json.dumps(stats.to_obj(), sort_keys=True) + "\n")
    print(json.dumps(hotspot_report(stats, graph, args.threshold), sort_keys=True))
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "infer": cmd_infer,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimpplError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
