"""simppl: a probabilistic programming runtime with amortized importance sampling.

Models are ordinary Python callables instrumented with sample/observe/predict
statements on an ExecutionContext. Prior runs of a model train a proposal
network; guided runs draw latents from its per-address proposals and carry
importance weights that keep posterior estimates unbiased.
"""

from .distributions import (
    Categorical,
    Exponential,
    LogNormal,
    Normal,
    Poisson,
    ScaledBeta,
    Uniform,
    proposal_from_params,
    proposal_param_dim,
)
from .errors import SimpplError
from .inspector import SuccessionGraph, TraceStats, build_graph, compute_stats, graph_to_dot, hotspot_report
from .net import (
    NetArchitecture,
    ProposalNetwork,
    TrainedProposal,
    TrainingConfig,
    ic_grad,
    ic_loss,
    load_net,
    save_net,
    train,
)
from .runtime import ExecutionContext, FixedProposal, Mode, run_model
from .sis import ParticleSet, effective_sample_size, posterior_summary, sis_infer
from .trace import Address, ObserveEntry, Trace, TraceEntry, iter_traces, trace_log_weight, write_traces

__version__ = "0.1.0"

__all__ = [
    "Address",
    "Categorical",
    "ExecutionContext",
    "Exponential",
    "FixedProposal",
    "LogNormal",
    "Mode",
    "NetArchitecture",
    "Normal",
    "ObserveEntry",
    "ParticleSet",
    "Poisson",
    "ProposalNetwork",
    "ScaledBeta",
    "SimpplError",
    "SuccessionGraph",
    "Trace",
    "TraceEntry",
    "TraceStats",
    "TrainedProposal",
    "TrainingConfig",
    "Uniform",
    "build_graph",
    "compute_stats",
    "effective_sample_size",
    "graph_to_dot",
    "hotspot_report",
    "ic_grad",
    "ic_loss",
    "iter_traces",
    "load_net",
    "posterior_summary",
    "proposal_from_params",
    "proposal_param_dim",
    "run_model",
    "save_net",
    "sis_infer",
    "trace_log_weight",
    "train",
    "write_traces",
]
