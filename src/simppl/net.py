"""Inference network: amortized per-address proposal parameters.

Architecture: a dense tanh encoder embeds the standardized observation, an
embedding table gives each address (instance stripped) a learned vector, and
a shared tanh trunk maps [obs embedding, address embedding, previous value]
to a hidden state read out by one linear head per address. Heads emit the
unconstrained proposal parameters consumed by proposal_from_params.

Everything is plain float64 numpy with hand-written backpropagation; the
analytic gradients are validated against central finite differences in the
test suite. A training step is one batched pass grouped by trace type: the
encoder runs once on the stacked observations, the trunk once on the
(entries, trunk inputs) matrix, each head once on the rows of its address,
and the family NLL gradients come vectorised from the per-family proposal
table in distributions. Training is plain SGD with global-norm gradient
clipping (at _GRAD_CLIP_NORM) on fresh Record-mode batches each step, so the
simulator itself is the (infinite) training set. All randomness derives from
the master seed: stream (0,) initializes parameters; runtime.run_batch with
key (1,) runs the standardization and head-discovery simulations on streams
(1, i), and with key (2, step) the training batch of each step on streams
(2, step, i).
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
from .runtime import Mode, derived_seed, run_batch

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
        return math.sqrt(sum(float(np.square(v).sum()) for v in self.arrays.values()))

    def scale(self, factor):
        for v in self.arrays.values():
            v *= factor

    def add_scaled(self, other, factor):
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


def _loss_and_grad(net, batch, want_grad):
    """Mean over traces of the summed proposal NLL, with optional gradients.

    One batched pass (see the module docstring); each distinct prior is built,
    and so validated, once. Overflow shows only as a non-finite loss or gradient.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    arch, a = net.arch, net.params.arrays
    obs_rows = [_trace_obs_vector(trace) for trace in batch]
    for obs in obs_rows:
        if obs.shape != (arch.obs_dim,):
            raise DimensionMismatch(f"trace observation has shape {obs.shape}, "
                                    f"expected ({arch.obs_dim},)")
    rows, heads = [], {}  # rows: (trace, previous value, value, prior params, family)
    for i, trace in enumerate(batch):
        prev = 0.0
        for entry in trace.entries:
            heads.setdefault(entry.address.head_key, []).append(len(rows))
            rows.append((i, prev, entry.value, entry.params, entry.address.family_tag))
            prev = float(entry.value)
    trace_idx = [row[0] for row in rows]
    e_dim, scale, total = arch.obs_embed_dim, 1.0 / len(batch), 0.0
    grads = net.params.zeros_like().arrays
    with np.errstate(all="ignore"):
        obs = net.standardization.apply(np.stack(obs_rows))
        h_obs = np.tanh(obs @ a["obs_W"].T + a["obs_b"])
        x = np.empty((len(rows), arch.trunk_in_dim))
        x[:, :e_dim] = h_obs[trace_idx]
        x[:, -1] = _squash(np.array([row[1] for row in rows]))
        for key, idx in heads.items():
            if key not in arch.heads:
                raise UnknownHead(f"no head for address {key!r}")
            x[idx, e_dim:-1] = a[f"embed::{key}"]
        hidden = np.tanh(x @ a["trunk_W"].T + a["trunk_b"])
        d_hidden = np.empty_like(hidden)
        for key, idx in heads.items():
            family, head_w = rows[idx[0]][4], a[f"head_W::{key}"]
            params = [rows[j][3] for j in idx]
            for distinct in dict.fromkeys(map(tuple, params)):
                if dists.proposal_param_dim(dists.from_params(family, distinct)) != len(head_w):
                    raise DimensionMismatch(f"head {key!r} does not fit prior {family}{distinct}")
            raw = hidden[idx] @ head_w.T + a[f"head_b::{key}"]
            nll, d_raw = dists.proposal_nll_grads(
                family, raw, np.array([rows[j][2] for j in idx], dtype=float),
                np.array(params, dtype=float))
            total += float(nll.sum())
            d_raw *= scale
            grads[f"head_W::{key}"] = d_raw.T @ hidden[idx]
            grads[f"head_b::{key}"] = d_raw.sum(axis=0)
            d_hidden[idx] = d_raw @ head_w
        d_pre = d_hidden * (1.0 - hidden * hidden)
        grads["trunk_W"] = d_pre.T @ x
        grads["trunk_b"] = d_pre.sum(axis=0)
        d_x = d_pre @ a["trunk_W"]
        for key, idx in heads.items():
            grads[f"embed::{key}"] = d_x[idx, e_dim:-1].sum(axis=0)
        d_h_obs = np.zeros_like(h_obs)
        np.add.at(d_h_obs, trace_idx, d_x[:, :e_dim])
        d_pre_obs = d_h_obs * (1.0 - h_obs * h_obs)
        grads["obs_W"] = d_pre_obs.T @ obs
        grads["obs_b"] = d_pre_obs.sum(axis=0)
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
    heads = {}
    obs_rows = []
    for trace in run_batch(model_spec.run, Mode.RECORD, master_seed, n_sims, 1):
        obs_rows.append(_trace_obs_vector(trace))
        if obs_rows[-1].size != obs_rows[0].size:
            raise ConfigError(
                "models with varying observation layout cannot be standardized"
            )
        for entry in trace.entries:
            key = entry.address.head_key
            if key not in heads:
                prior = dists.from_params(entry.address.family_tag, entry.params)
                heads[key] = HeadSpec(entry.address.family_tag, dists.proposal_param_dim(prior))
    matrix = np.asarray(obs_rows)
    std = Standardization(
        mean=matrix.mean(axis=0),
        std=np.maximum(matrix.std(axis=0), _STD_FLOOR),
    )
    return NetArchitecture(obs_dim=matrix.shape[1], heads=heads), std


def train(model_spec, config, arch=None, standardization=None, on_step=None):
    """SGD training loop; returns the trained ProposalNetwork.

    Each step draws a fresh batch of Record-mode traces from run_batch with
    key (2, step), so the same config always produces bitwise-identical
    parameters.
    """
    if arch is None or standardization is None:
        disc_arch, disc_std = discover_architecture(model_spec, config.master_seed)
        arch = arch or disc_arch
        standardization = standardization or disc_std
    params = glorot_init(arch, derived_seed(config.master_seed, 0))
    net = ProposalNetwork(arch=arch, params=params, standardization=standardization)
    for step in range(config.steps):
        batch = list(run_batch(model_spec.run, Mode.RECORD, config.master_seed, config.batch_size,
                               2, step))
        loss, grad = _loss_and_grad(net, batch, want_grad=True)
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
    obj = {
        "version": NET_FORMAT_VERSION,
        "arch": asdict(net.arch),
        "standardization": {
            "mean": net.standardization.mean.tolist(),
            "std": net.standardization.std.tolist(),
        },
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
