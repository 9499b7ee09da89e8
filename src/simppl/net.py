"""Inference network: amortized per-address proposal parameters.

Architecture: a dense tanh encoder embeds the standardized observation, an
embedding table gives each address (instance stripped) a learned vector, and
a shared tanh trunk maps [obs embedding, address embedding, previous value]
to a hidden state read out by one linear head per address. Heads emit the
unconstrained proposal parameters consumed by proposal_from_params.

Everything is plain float64 numpy with hand-written backpropagation; the
analytic gradients are validated against central finite differences in the test
suite. A training step is one batched pass over rows, one per sample in (run,
statement) order, held as columns (run, previous value, value; per head its rows
and prior parameters) that a model's chunk gives straight from its (runs,
statements) values: the encoder runs once on the stacked observations, the trunk
once on the (rows, trunk inputs) matrix, each head once on its rows, and the
family NLL gradients come from the proposal table in distributions. Training is
plain SGD with global-norm gradient clipping (at _GRAD_CLIP_NORM) on fresh
Record-mode batches each step, so the simulator itself is the (infinite)
training set. All randomness derives from the master seed: stream (0,)
initializes parameters; record runs with key (1,) are the standardization and
head-discovery simulations, with key (2, step) the training batch of each step.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import distributions as dists
from .errors import (
    ConfigError,
    DimensionMismatch,
    MalformedFile,
    NonFiniteLoss,
    SimpplError,
    UnknownHead,
    VersionMismatch,
)
from .runtime import Mode, _run_chunks, derived_seed, run_batch

NET_FORMAT_VERSION = 1

_STD_FLOOR = 1e-6
_N_STANDARDIZE = 1000
_GRAD_CLIP_NORM = 10.0

_derived_seed = derived_seed  # the name older callers import


@dataclass(frozen=True)
class HeadSpec:
    family: str
    out_dim: int


_ARCH_DIMS = ("obs_dim", "obs_embed_dim", "addr_embed_dim", "hidden_dim")


@dataclass
class NetArchitecture:
    obs_dim: int
    obs_embed_dim: int = 32
    addr_embed_dim: int = 16
    hidden_dim: int = 64
    heads: dict = field(default_factory=dict)

    def __post_init__(self):
        for dim in (getattr(self, name) for name in _ARCH_DIMS):
            if dim < 1:
                raise ConfigError(f"architecture dimensions must be >= 1, got {dim}")
        for key, head in self.heads.items():
            if head.out_dim < 1:
                raise ConfigError(f"head {key!r} has out_dim {head.out_dim}")

    @property
    def trunk_in_dim(self):
        return self.obs_embed_dim + self.addr_embed_dim + 1


class NetParams:
    """Named float64 arrays; iteration order is fixed by sorted names."""

    def __init__(self, arrays):
        self.arrays = arrays

    def names(self):
        return sorted(self.arrays)

    def zeros_like(self):
        return NetParams({k: np.zeros_like(v) for k, v in self.arrays.items()})

    def global_norm(self):
        with np.errstate(over="ignore"):  # an overflow reads inf, which train reports
            return math.sqrt(sum(float(np.square(v).sum()) for v in self.arrays.values()))

    def scale(self, factor):
        for v in self.arrays.values():
            v *= factor

    def add_scaled(self, other, factor):
        with np.errstate(over="ignore", invalid="ignore"):  # as in global_norm
            for k, v in self.arrays.items():
                v += factor * other.arrays[k]

    def all_finite(self):
        return all(np.isfinite(v).all() for v in self.arrays.values())

    def to_vector(self):
        return np.concatenate([self.arrays[k].ravel() for k in self.names()])

    def from_vector(self, vec):
        need = sum(a.size for a in self.arrays.values())
        if vec.size != need:
            raise DimensionMismatch(f"vector has {vec.size} entries, params need {need}")
        pos = 0
        for k in self.names():
            arr = self.arrays[k]
            arr[...] = vec[pos:pos + arr.size].reshape(arr.shape)
            pos += arr.size


@dataclass
class Standardization:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, obs):
        return (obs - self.mean) / self.std


def _param_shapes(arch):
    """Name -> shape of every parameter array, heads in sorted key order."""
    shapes = {
        "obs_W": (arch.obs_embed_dim, arch.obs_dim),
        "obs_b": (arch.obs_embed_dim,),
        "trunk_W": (arch.hidden_dim, arch.trunk_in_dim),
        "trunk_b": (arch.hidden_dim,),
    }
    for key in sorted(arch.heads):
        out_dim = arch.heads[key].out_dim
        shapes[f"embed::{key}"] = (arch.addr_embed_dim,)
        shapes[f"head_W::{key}"] = (out_dim, arch.hidden_dim)
        shapes[f"head_b::{key}"] = (out_dim,)
    return shapes


def glorot_init(arch, seed):
    """Uniform(+-sqrt(6/(fan_in+fan_out))) for the weight matrices and address
    embeddings (a vector counts as fan-in 1), drawn in _param_shapes order;
    zeros for biases and heads, so initial proposals are each family's
    neutral member."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _param_shapes(arch).items():
        if name in ("obs_W", "trunk_W") or name.startswith("embed::"):
            limit = math.sqrt(6.0 / (sum(shape) + (len(shape) == 1)))
            arrays[name] = rng.uniform(-limit, limit, size=shape)
        else:
            arrays[name] = np.zeros(shape)
    return NetParams(arrays)


def _squash(value):
    # keeps large raw values (momenta in tens of GeV) from saturating the trunk
    return value / (1.0 + abs(value))


@dataclass
class ProposalNetwork:
    """Bundle of architecture, parameters, and observation standardization."""

    arch: NetArchitecture
    params: NetParams
    standardization: Standardization

    def encode_obs(self, obs_vec):
        obs_vec = np.asarray(obs_vec, dtype=float)
        if obs_vec.shape != (self.arch.obs_dim,):
            raise DimensionMismatch(
                f"observation has shape {obs_vec.shape}, expected ({self.arch.obs_dim},)"
            )
        bad = np.flatnonzero(~np.isfinite(obs_vec))
        if bad.size:
            raise ConfigError(f"observation cell {bad[0]} is not finite: {obs_vec[bad[0]]}")
        a = self.params.arrays
        return np.tanh(a["obs_W"] @ self.standardization.apply(obs_vec) + a["obs_b"])

    def raw_from_encoding(self, h_obs, head_key, prev_value):
        a = self.params.arrays
        if head_key not in self.arch.heads:
            raise UnknownHead(f"no head for address {head_key!r}")
        x = np.concatenate([h_obs, a[f"embed::{head_key}"], [_squash(prev_value)]])
        hidden = np.tanh(a["trunk_W"] @ x + a["trunk_b"])
        return a[f"head_W::{head_key}"] @ hidden + a[f"head_b::{head_key}"]


def _trace_obs_vector(trace):
    values = [block[2] for block in trace.observe_blocks]
    if any(v is None for v in values):  # read back from JSONL
        raise SimpplError("trace carries no recorded observe values")
    return np.concatenate([np.asarray(v, dtype=float) for v in values])


def _rows(groups):
    """The loss rows of groups of runs, each (observations (runs, cells), [(address, prior params,
    value column)] of the statements all its runs took), one per sample in (run, statement)
    order: (observations, a matrix or, if their layouts vary, a list, then run, prev and value,
    each row's run index, previous value (0.0 first) and value, and heads, mapping head keys,
    first seen first, to (family, rows, distinct prior params, which of them each row has)).
    In a group, statement k's rows start at row k, a statement apart."""
    obs, sizes, value, heads, n_rows = [], [], [], {}, 0
    for cells, samples in groups:
        n, width = len(cells), len(samples)
        obs.append(cells)
        sizes += [width] * n
        value.append(np.array([v for *_, v in samples], dtype=float).reshape(width, n).T.ravel())
        for k, (addr, params, _) in enumerate(samples):
            _, rows, priors, which = heads.setdefault(addr.head_key, (addr.family_tag, [], {}, []))
            rows.append(np.arange(n_rows + k, n_rows + n * width, width))
            which.append(np.full(n, priors.setdefault(tuple(params), len(priors))))
        n_rows += n * width
    for key, (family, rows, priors, which) in heads.items():  # a head's rows in row order
        rows, which = np.concatenate(rows), np.concatenate(which)
        order = rows.argsort(kind="stable")
        heads[key] = family, rows[order], list(priors), which[order]
    run, value = np.repeat(np.arange(len(sizes)), sizes), np.concatenate(value)
    prev = np.zeros_like(value)
    prev[1:] = np.where(run[1:] == run[:-1], value[:-1], 0.0)
    obs = [r for c in obs for r in c] if len({c.shape[1] for c in obs}) > 1 else np.vstack(obs)
    return obs, run, prev, value, heads


def _trace_rows(batch):
    return _rows((_trace_obs_vector(t)[None], [(e.address, e.params, [e.value]) for e in t.entries])
                 for t in batch)


def _chunk_rows(chunks):
    return _rows((np.hstack([v for _, v, _, _ in chunk.observes]),
                  [(a, prior.params, v) for a, prior, v in chunk.samples]) for chunk in chunks)


def _record_rows(model, master_seed, n, *key):
    """The rows of run_batch(model, RECORD, ...), read as the runs stream in: from the chunks
    of a model carrying many. A chunk the body fails yields its scalar traces, then an error."""
    if hasattr(model, "many"):
        chunks = _run_chunks(model, Mode.RECORD, master_seed, n, *key)
        return _chunk_rows(chunk for chunk in chunks if not isinstance(chunk, list))
    return _trace_rows(run_batch(model, Mode.RECORD, master_seed, n, *key))


def _loss_and_grad(net, batch, want_grad):
    """Mean over a list of traces of the summed proposal NLL, with optional gradients."""
    if not batch:
        raise ValueError("batch must be non-empty")
    return _loss_grad_rows(net, *_trace_rows(batch), want_grad)


def _loss_grad_rows(net, obs_rows, run, prev, value, heads, want_grad):
    """_loss_and_grad of a batch's _rows columns, each head's rows gathered by index; each distinct
    prior is built, and so validated, once. Overflow shows only as a non-finite loss or gradient."""
    arch, a = net.arch, net.params.arrays
    bad = [obs.shape for obs in obs_rows if obs.shape != (arch.obs_dim,)]
    if bad:
        raise DimensionMismatch(f"trace observation has shape {bad[0]}, expected ({arch.obs_dim},)")
    e_dim, scale, total, grads = arch.obs_embed_dim, 1.0 / len(obs_rows), 0.0, {}
    with np.errstate(all="ignore"):
        obs = net.standardization.apply(np.asarray(obs_rows))
        h_obs = np.tanh(obs @ a["obs_W"].T + a["obs_b"])
        x = np.empty((len(run), arch.trunk_in_dim))
        x[:, :e_dim] = h_obs[run]
        x[:, -1] = _squash(prev)
        for key, (_, idx, _, _) in heads.items():
            if key not in arch.heads:
                raise UnknownHead(f"no head for address {key!r}")
            x[idx, e_dim:-1] = a[f"embed::{key}"]
        hidden = np.tanh(x @ a["trunk_W"].T + a["trunk_b"])
        d_hidden = np.empty_like(hidden)
        for key, (family, idx, priors, which) in heads.items():
            head_w = a[f"head_W::{key}"]
            for params in priors:
                if dists.proposal_param_dim(dists.from_params(family, params)) != len(head_w):
                    raise DimensionMismatch(f"head {key!r} does not fit prior {family}{params}")
            raw = hidden[idx] @ head_w.T + a[f"head_b::{key}"]
            nll, d_raw = dists.proposal_nll_grads(family, raw, value[idx],
                                                  np.array(priors, dtype=float)[which])
            total += float(nll.sum())
            d_raw *= scale
            grads[f"head_W::{key}"] = d_raw.T @ hidden[idx]
            grads[f"head_b::{key}"] = d_raw.sum(axis=0)
            d_hidden[idx] = d_raw @ head_w
        d_pre = d_hidden * (1.0 - hidden * hidden)
        grads["trunk_W"] = d_pre.T @ x
        grads["trunk_b"] = d_pre.sum(axis=0)
        d_x = d_pre @ a["trunk_W"]
        for key, (_, idx, _, _) in heads.items():
            grads[f"embed::{key}"] = d_x[idx, e_dim:-1].sum(axis=0)
        # np.add.at(zeros, run, d_x[:, :e_dim]) in its order, as one bincount over the cells
        d_h_obs = np.bincount((run[:, None] * e_dim + np.arange(e_dim)).ravel(),
                              d_x[:, :e_dim].ravel(), h_obs.size).reshape(h_obs.shape)
        d_pre_obs = d_h_obs * (1.0 - h_obs * h_obs)
        grads["obs_W"] = d_pre_obs.T @ obs
        grads["obs_b"] = d_pre_obs.sum(axis=0)
    grads = {k: grads[k] if k in grads else np.zeros_like(v) for k, v in a.items()}
    return total * scale, NetParams(grads) if want_grad else None


def ic_loss(net, batch):
    """Mean per-trace sum of -log q over all entries."""
    return _loss_and_grad(net, batch, want_grad=False)[0]


def ic_grad(net, batch):
    """Exact gradient of ic_loss with respect to every parameter array."""
    return _loss_and_grad(net, batch, want_grad=True)[1]


@dataclass
class TrainingConfig:
    steps: int
    master_seed: int = 0
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # NaN fails both comparisons
            raise ConfigError("learning_rate must be positive and finite")


def discover_architecture(model_spec, master_seed, n_sims=_N_STANDARDIZE):
    """Build the architecture and standardization from prior simulations.

    Runs n_sims Record-mode executions: their observe values give the
    per-cell standardization moments and their entries enumerate the heads.
    The layer widths are NetArchitecture's defaults.
    """
    if n_sims < 2:
        raise ConfigError("n_sims must be >= 2")
    obs_rows, *_, heads = _record_rows(model_spec.run, master_seed, n_sims, 1)
    if len({row.size for row in obs_rows}) > 1:
        raise ConfigError("models with varying observation layout cannot be standardized")
    for key, (family, _, (params, *_), _) in heads.items():  # the prior of the head's first row
        heads[key] = HeadSpec(family, dists.proposal_param_dim(dists.from_params(family, params)))
    matrix = np.asarray(obs_rows)
    std = Standardization(matrix.mean(axis=0), np.maximum(matrix.std(axis=0), _STD_FLOOR))
    return NetArchitecture(obs_dim=matrix.shape[1], heads=heads), std


def train(model_spec, config, arch=None, standardization=None, on_step=None):
    """SGD training loop; returns the trained ProposalNetwork.

    Each step draws a fresh batch of Record-mode traces from run_batch with
    key (2, step), so the same config always produces bitwise-identical
    parameters.
    """
    if arch is None or standardization is None:
        disc_arch, disc_std = discover_architecture(model_spec, config.master_seed)
        arch, standardization = arch or disc_arch, standardization or disc_std
    params = glorot_init(arch, derived_seed(config.master_seed, 0))
    net = ProposalNetwork(arch=arch, params=params, standardization=standardization)
    for step in range(config.steps):
        rows = _record_rows(model_spec.run, config.master_seed, config.batch_size, 2, step)
        loss, grad = _loss_grad_rows(net, *rows, want_grad=True)
        if not math.isfinite(loss):
            raise NonFiniteLoss(step)
        norm = grad.global_norm()
        if not math.isfinite(norm):
            raise NonFiniteLoss(step, "gradient is not finite")
        if norm > _GRAD_CLIP_NORM:
            grad.scale(_GRAD_CLIP_NORM / norm)
        params.add_scaled(grad, -config.learning_rate)
        if not params.all_finite():
            raise NonFiniteLoss(step, "parameters became non-finite")
        if on_step is not None:
            on_step(step, loss)
    return net


class TrainedProposal:
    """Adapter exposing a ProposalNetwork as a runtime proposal source.

    The observation is fixed per inference run, so its encoding is computed
    once and shared by every particle. Addresses without a head return None,
    which the runtime counts and resolves by falling back to the prior.
    """

    def __init__(self, net, obs_vector):
        self.net = net
        self._h_obs = net.encode_obs(np.asarray(obs_vector, dtype=float))

    def proposal_for(self, address, prev_value, prior):
        key = address.head_key
        if key not in self.net.arch.heads:
            return None
        raw = self.net.raw_from_encoding(self._h_obs, key, prev_value)
        return dists.proposal_from_params(prior, raw)


# ---------------------------------------------------------------------------
# serialization


def save_net(net, path):
    std = net.standardization
    obj = {
        "version": NET_FORMAT_VERSION,
        "arch": asdict(net.arch),
        "standardization": {"mean": std.mean.tolist(), "std": std.std.tolist()},
        "params": {name: arr.tolist() for name, arr in net.params.arrays.items()},
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def load_net(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or "version" not in obj:
        raise MalformedFile(f"{path}: missing version field")
    if obj["version"] != NET_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {obj['version']!r}, supported {NET_FORMAT_VERSION}"
        )
    try:
        arch_obj = obj["arch"]
        heads = {
            key: HeadSpec(h["family"], int(h["out_dim"]))
            for key, h in arch_obj["heads"].items()
        }
        arch = NetArchitecture(heads=heads, **{name: int(arch_obj[name]) for name in _ARCH_DIMS})
        std = Standardization(
            mean=np.asarray(obj["standardization"]["mean"], dtype=float),
            std=np.asarray(obj["standardization"]["std"], dtype=float),
        )
        arrays = {name: np.asarray(arr, dtype=float) for name, arr in obj["params"].items()}
        net = ProposalNetwork(arch=arch, params=NetParams(arrays), standardization=std)
        _check_shapes(net)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    return net


def _check_shapes(net):
    arch = net.arch
    actual = {k: v.shape for k, v in net.params.arrays.items()}
    if actual != _param_shapes(arch):
        raise ValueError("parameter arrays do not match the architecture")
    std = net.standardization
    if std.mean.shape != (arch.obs_dim,) or std.std.shape != (arch.obs_dim,):
        raise ValueError("standardization vectors do not match obs_dim")
    for name, arr in [*net.params.arrays.items(), ("standardization.mean", std.mean)]:
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name} is not finite")
    if not (np.isfinite(std.std) & (std.std > 0)).all():
        raise ValueError("array standardization.std must be positive and finite")
