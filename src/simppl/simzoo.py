"""Bundled demonstration simulators and their ground-truth posterior oracles.

Three models are registered by name, each as one row of the _MODELS table
(model body, spec builder, oracle) that get_model, oracle_posterior and
MODEL_NAMES all read:

  gaussian_unknown_mean   conjugate sanity check with a closed-form posterior
  rejection_demo          uniform disc sampling via a rejection scope
  tau_decay_toy           decay-channel + momentum inference from a small
                          segmented-calorimeter image; its spec.run carries the
                          vectorised body as spec.run.many, which only
                          runtime._run_chunks runs; image and oracle load scipy on first use

Each oracle is an independent route to the posterior (analytic form, dense
grid quadrature, or channel enumeration plus 3-D quadrature) used to validate
the sampling engine; none of them share code with the inference path.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .distributions import Categorical, Exponential, Normal, Uniform, scipy_special
from .errors import ConfigInvalid, UnsupportedModel
from .runtime import Mode, run_model
from .trace import column_list

_LOG_2PI = math.log(2.0 * math.pi)
ndtr = functools.partial(scipy_special, "ndtr", namespace=globals())

# Cell energies below this floor keep a fixed noise scale so empty cells do
# not get a degenerate likelihood.
ENERGY_FLOOR = 0.1


# ---------------------------------------------------------------------------
# gaussian_unknown_mean


def gaussian_unknown_mean(ctx):
    """x ~ N(0,1), y | x ~ N(x,1); posterior is N(y/2, 1/2)."""
    x = ctx.sample("mu", Normal(0.0, 1.0))
    ctx.observe("y", Normal(x, 1.0), ctx.observed("y"))
    ctx.predict("mu", x)


# ---------------------------------------------------------------------------
# rejection_demo


def rejection_demo(ctx):
    """Uniform point on the unit disc by rejection, observed through u."""
    with ctx.rejection_scope("disc"):
        while True:
            u = ctx.sample("u", Uniform(-1.0, 1.0))
            v = ctx.sample("v", Uniform(-1.0, 1.0))
            if u * u + v * v <= 1.0:
                break
            ctx.scope_retry()
    ctx.observe("y", Normal(u, 0.1), ctx.observed("y"))
    ctx.predict("u", u)
    ctx.predict("v", v)


# ---------------------------------------------------------------------------
# tau_decay_toy


@dataclass
class TauToyConfig:
    """Configuration of the decay toy.

    depth_profiles rows must each sum to 1; channels marked "em" must put at
    least 70% of their energy in the front half of the calorimeter, channels
    marked "had" at least 50% in the back half. theta_max, lever_arm and
    spot_sigma control how strongly the incidence angles move the transverse
    spot across the face.
    """

    n_channels: int = 5
    channel_prior: tuple = (0.5, 0.25, 0.15, 0.07, 0.03)
    grid: tuple = (4, 7, 7)
    momentum_scale: float = 20.0
    noise_sigma: float = 0.2
    depth_profiles: tuple = (
        (0.78, 0.16, 0.04, 0.02),
        (0.62, 0.26, 0.08, 0.04),
        (0.38, 0.30, 0.20, 0.12),
        (0.18, 0.26, 0.30, 0.26),
        (0.06, 0.14, 0.34, 0.46),
    )
    channel_kinds: tuple = ("em", "em", "mixed", "had", "had")
    theta_max: float = 0.45
    lever_arm: float = 2.0
    spot_sigma: float = 0.9

    def __post_init__(self):
        for name in ("n_channels", "grid", "channel_prior", "depth_profiles", "momentum_scale",
                     "noise_sigma", "theta_max", "lever_arm", "spot_sigma"):
            kind = int if name in ("n_channels", "grid") else float
            setattr(self, name, _numbers(name, getattr(self, name), kind))
        self.channel_kinds = tuple(self.channel_kinds)
        if self.n_channels < 1:
            raise ConfigInvalid("n_channels must be >= 1")
        if len(self.channel_prior) != self.n_channels:
            raise ConfigInvalid("channel_prior length must equal n_channels")
        if not abs(sum(self.channel_prior) - 1.0) <= 1e-9 or min(self.channel_prior) < 0:
            raise ConfigInvalid("channel_prior must be a probability vector")
        if len(self.grid) != 3 or min(self.grid) < 1:
            raise ConfigInvalid("grid must be three positive extents (depth, x, y)")
        if not 0 < self.momentum_scale < math.inf:
            raise ConfigInvalid("momentum_scale must be positive and finite")
        if not 0 < self.noise_sigma < math.inf:
            raise ConfigInvalid("noise_sigma must be positive and finite")
        if len(self.depth_profiles) != self.n_channels:
            raise ConfigInvalid("one depth profile per channel required")
        if len(self.channel_kinds) != self.n_channels:
            raise ConfigInvalid("one channel kind per channel required")
        depth = self.grid[0]
        half = depth // 2
        for c, row in enumerate(self.depth_profiles):
            if len(row) != depth:
                raise ConfigInvalid(f"depth profile {c} must have {depth} fractions")
            if min(row) < 0 or not abs(sum(row) - 1.0) <= 1e-9:  # a NaN sum fails <=
                raise ConfigInvalid(f"depth profile {c} must be a probability vector")
            front = sum(row[:half])
            kind = self.channel_kinds[c]
            if kind == "em" and front < 0.7:
                raise ConfigInvalid(f"em channel {c} puts only {front:.3f} in the front half")
            if kind == "had" and (1.0 - front) < 0.5:
                raise ConfigInvalid(f"had channel {c} puts only {1 - front:.3f} in the back half")
            if kind not in ("em", "had", "mixed"):
                raise ConfigInvalid(f"unknown channel kind {kind!r}")
        if not 0 < self.theta_max < math.pi / 2:
            raise ConfigInvalid("theta_max must lie in (0, pi/2)")
        if not 0 <= self.lever_arm < math.inf:
            raise ConfigInvalid("lever_arm must be >= 0 and finite")
        if not 0 < self.spot_sigma < math.inf:
            raise ConfigInvalid("spot_sigma must be positive and finite")

    def to_dict(self):
        """Every field in declaration order, tuples as (nested) lists."""

        def plain(value):
            return [plain(v) for v in value] if isinstance(value, tuple) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj):
        try:
            return cls(**obj)
        except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong type
            raise ConfigInvalid(f"bad tau_decay_toy config: {exc}") from exc


def _numbers(name, value, kind, cell=False):
    """A numeric config field with each (nested) list made a tuple of kind; TypeError naming
    the first boolean or other non-number, or in an int field the first non-integer."""
    if isinstance(value, (tuple, list)):
        return tuple(_numbers(f"{name}[{i}]", v, kind, True) for i, v in enumerate(value))
    if type(value) is bool or not isinstance(value, numbers.Real) or (
            kind is int and not isinstance(value, numbers.Integral)):
        raise TypeError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                        f"got {value!r}")
    return kind(value) if cell else value


DEFAULT_TAU_CONFIG = TauToyConfig()


@functools.cache
def _cell_site_ids(grid):
    d, x, y = grid
    return tuple(f"cal_{i}_{j}_{k}" for i in range(d) for j in range(x) for k in range(y))


def _axis_weights(n, centers, sigma):
    """Normal(center, sigma) mass of each of n unit cells, one row per center."""
    cdf = ndtr((np.arange(-0.5, n + 0.5) - centers[:, None]) / sigma)
    return cdf[:, 1:] - cdf[:, :-1]


def deposit_image(cfg, latents):
    """Deterministic expected deposits, one per (channel, pmag, theta, phi)
    row of latents: shape (rows,) + grid, each image summing exactly to its pmag."""
    _, nx, ny = cfg.grid
    centers, scales = [], []
    for channel, pmag, theta, phi in latents:
        offset = cfg.lever_arm * math.tan(theta)
        centers.append(((nx - 1) / 2.0 + offset * math.cos(phi),
                        (ny - 1) / 2.0 + offset * math.sin(phi)))
        scales.append([pmag * f for f in cfg.depth_profiles[channel]])
    cx, cy = np.array(centers).T
    wx = _axis_weights(nx, cx, cfg.spot_sigma)
    wy = _axis_weights(ny, cy, cfg.spot_sigma)
    spot = wx[:, :, None] * wy[:, None, :]
    spot /= spot.sum(axis=(1, 2), keepdims=True)
    return np.array(scales)[:, :, None, None] * spot[:, None, :, :]


def _tau_priors(cfg):
    return {"channel": Categorical(cfg.channel_prior),
            "pmag": Exponential(1.0 / cfg.momentum_scale),
            "theta": Uniform(0.0, cfg.theta_max), "phi": Uniform(-math.pi, math.pi)}


def _tau_predicts(channel, pmag, theta, phi):
    sin_t = math.sin(theta)
    return {"channel": int(channel), "p_x": pmag * sin_t * math.cos(phi),
            "p_y": pmag * sin_t * math.sin(phi), "p_z": pmag * math.cos(theta)}


def tau_decay_toy(ctx, cfg=DEFAULT_TAU_CONFIG):
    latents = [ctx.sample(site, prior) for site, prior in _tau_priors(cfg).items()]
    expected = deposit_image(cfg, [latents]).ravel()
    sigmas = cfg.noise_sigma * np.maximum(expected, ENERGY_FLOOR)
    ctx.observe_normal_many(_cell_site_ids(cfg.grid), expected, sigmas, ctx.observed("cells"))
    for name, value in _tau_predicts(*latents).items():
        ctx.predict(name, value)


def tau_decay_toy_many(chunk, cfg=DEFAULT_TAU_CONFIG):
    """tau_decay_toy over a runtime chunk of unconditioned runs, bit for bit: each statement
    runs once for the chunk, and the images and likelihood parameters are one numpy pass."""
    latents = [chunk.sample(site, prior) for site, prior in _tau_priors(cfg).items()]
    expected = deposit_image(cfg, list(zip(*latents))).reshape(len(chunk), -1)
    sigmas = cfg.noise_sigma * np.maximum(expected, ENERGY_FLOOR)
    chunk.observe_normal_many(_cell_site_ids(cfg.grid), expected, sigmas)
    runs = [_tau_predicts(*run) for run in zip(*latents)]
    for name in runs[0]:
        chunk.predict(name, [run[name] for run in runs])


# ---------------------------------------------------------------------------
# registry


@dataclass
class ModelSpec:
    """A registered model plus its observation packing conventions."""

    name: str
    run: object
    obs_to_vector: object
    observation_from_values: object
    config: object = None


def _obs_converter(name, key, n_cells=None):
    """obs_to_vector of a model reading obs[key], one number or with n_cells a
    list of that many, as a float64 vector. No value may be a boolean or not
    finite, nor one at key not an int or float: ConfigInvalid names its key or cell."""

    def obs_to_vector(obs):
        for k, value in obs.items():
            many = isinstance(value, list)
            for i, v in enumerate(value if many else [value]):
                if type(v) is float and math.isfinite(v):  # the common case, decided first
                    continue
                num = isinstance(v, float) or k == key and isinstance(v, int)
                what = ("a boolean" if type(v) is bool else "not a number" if k == key and not num
                        else "not finite" if num and not abs(v) <= sys.float_info.max else "")
                if what:
                    raise ConfigInvalid(f"observation {f'{k}[{i}]' if many else k} is {what}: {v!r}")
        value = obs.get(key)  # None only when missing: the scan rejects a null at key
        if value is None or isinstance(value, list) is not bool(n_cells):
            raise ConfigInvalid(f"observation values do not fit {name}: {key!r}")
        if n_cells and len(value) != n_cells:
            raise ConfigInvalid(f"observation has {len(value)} cells, config grid wants {n_cells}")
        return np.asarray(value if n_cells else [value], dtype=float)

    return obs_to_vector


def _scalar_spec(name, body, config):
    if config is not None:
        raise ConfigInvalid(f"{name} takes no config")
    return ModelSpec(name, body, _obs_converter(name, "y"),
                     lambda values: {"model": name, "y": values[0]})


def _tau_spec(name, body, config):
    """Spec for config None (the default), a TauToyConfig or a dict of its fields."""
    cfg = DEFAULT_TAU_CONFIG if config is None else config
    if not isinstance(cfg, TauToyConfig):
        cfg = TauToyConfig.from_dict(cfg)

    def observation_from_values(values):
        return {
            "model": name,
            "config": cfg.to_dict(),
            "grid": list(cfg.grid),
            "cells": [float(v) for v in values],
        }

    run = functools.partial(body, cfg=cfg)
    run.many = functools.partial(tau_decay_toy_many, cfg=cfg)  # the body _run_chunks finds
    return ModelSpec(name, run, _obs_converter(name, "cells", math.prod(cfg.grid)),
                     observation_from_values, config=cfg)


def _model_row(name):
    try:
        return _MODELS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnsupportedModel(f"unknown model {name!r}") from None


def get_model(name, config=None):
    """Look up a registered model; config applies to tau_decay_toy only."""
    body, build_spec, _ = _model_row(name)
    return build_spec(name, body, config)


def make_observation(name, seed, config=None):
    """Prior-predictive observation plus its ground-truth latents.

    Runs the model unconditioned with the given seed; the synthetic observe
    values become the observation and the trace predicts the ground truth.
    """
    spec = get_model(name, config)
    trace = run_model(spec.run, Mode.PRIOR, seed)
    obs = spec.observation_from_values([v for b in trace.observe_blocks for v in column_list(b[2])])
    return obs, dict(trace.predicts)


# ---------------------------------------------------------------------------
# oracles


def _gaussian_oracle(observation, resolution):
    y = float(observation["y"])
    return {
        "mu": {"predict": "mu", "kind": "real", "mean": y / 2.0, "var": 0.5},
    }


def _rejection_oracle(observation, resolution):
    res = resolution or 512
    y = float(observation["y"])
    centers = -1.0 + (np.arange(res) + 0.5) * (2.0 / res)
    u = centers[:, None]
    v = centers[None, :]
    mask = (u * u + v * v) <= 1.0
    log_l = -0.5 * ((y - u) / 0.1) ** 2
    w = np.exp(log_l - log_l.max()) * mask
    total = w.sum()
    mean_u = float((w * u).sum() / total)
    mean_v = float((w * v).sum() / total)
    var_u = float((w * (u - mean_u) ** 2).sum() / total)
    var_v = float((w * (v - mean_v) ** 2).sum() / total)
    return {
        "u": {"predict": "u", "kind": "real", "mean": mean_u, "var": var_u},
        "v": {"predict": "v", "kind": "real", "mean": mean_v, "var": var_v},
    }


def _tau_log_integrand(cfg, obs, channel, p, th, ph):
    """Log posterior integrand (prior density times likelihood) at a batch of
    (pmag, theta, phi) points for one channel. Vectorized over points."""
    depth, nx, ny = cfg.grid
    sigma = cfg.spot_sigma
    offset = cfg.lever_arm * np.tan(th)
    cx = (nx - 1) / 2.0 + offset * np.cos(ph)
    cy = (ny - 1) / 2.0 + offset * np.sin(ph)
    ex = (np.arange(nx + 1) - 0.5)[None, :]
    ey = (np.arange(ny + 1) - 0.5)[None, :]
    cdf_x = ndtr((ex - cx[:, None]) / sigma)
    cdf_y = ndtr((ey - cy[:, None]) / sigma)
    wx = cdf_x[:, 1:] - cdf_x[:, :-1]
    wy = cdf_y[:, 1:] - cdf_y[:, :-1]
    spot = wx[:, :, None] * wy[:, None, :]
    spot /= spot.sum(axis=(1, 2), keepdims=True)
    profile = np.asarray(cfg.depth_profiles[channel])
    img = (p[:, None, None, None] * profile[None, :, None, None] * spot[:, None, :, :]).reshape(
        len(p), -1
    )
    sig = cfg.noise_sigma * np.maximum(img, ENERGY_FLOOR)
    z = (obs[None, :] - img) / sig
    log_lik = (-0.5 * z * z - np.log(sig)).sum(axis=1) - 0.5 * _LOG_2PI * img.shape[1]
    rate = 1.0 / cfg.momentum_scale
    log_prior = (
        math.log(cfg.channel_prior[channel])
        + (math.log(rate) - rate * p)
        - math.log(cfg.theta_max)
        - math.log(2.0 * math.pi)
    )
    return log_prior + log_lik


def _midpoints(lo, hi, n):
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def _tau_channel_scan(cfg, obs, channel, bounds, n):
    """Evaluate the log integrand on an n^3 midpoint grid; returns the grid
    axes and the full log-integrand array of shape (n, n, n)."""
    (p_lo, p_hi), (t_lo, t_hi), (f_lo, f_hi) = bounds
    ps = _midpoints(p_lo, p_hi, n)
    ts = _midpoints(t_lo, t_hi, n)
    fs = _midpoints(f_lo, f_hi, n)
    pg, tg, fg = np.meshgrid(ps, ts, fs, indexing="ij")
    flat_p = pg.ravel()
    flat_t = tg.ravel()
    flat_f = fg.ravel()
    out = np.empty(flat_p.size)
    for start in range(0, flat_p.size, 8192):  # bounds the integrand's temporaries
        part = slice(start, start + 8192)
        out[part] = _tau_log_integrand(cfg, obs, channel, flat_p[part], flat_t[part], flat_f[part])
    return (ps, ts, fs), out.reshape(n, n, n)


def _shrink_bounds(axes, logpost, bounds, margin=40.0):
    """Bounding box of the region within `margin` nats of the peak, padded by
    one coarse cell and clipped to the original bounds."""
    new_bounds = []
    mask = logpost >= logpost.max() - margin
    for dim, (axis, (lo, hi)) in enumerate(zip(axes, bounds)):
        other = tuple(d for d in range(3) if d != dim)
        hit = mask.any(axis=other)
        idx = np.nonzero(hit)[0]
        step = axis[1] - axis[0] if len(axis) > 1 else (hi - lo)
        new_lo = max(lo, axis[idx[0]] - 1.5 * step)
        new_hi = min(hi, axis[idx[-1]] + 1.5 * step)
        new_bounds.append((float(new_lo), float(new_hi)))
    return new_bounds


def _tau_oracle(observation, resolution):
    spec = get_model("tau_decay_toy", observation.get("config") or None)
    cfg, obs = spec.config, spec.obs_to_vector(observation)
    res_fine = resolution or 64
    res_coarse = 48
    p_max = 8.0 * cfg.momentum_scale
    full_bounds = [(0.0, p_max), (0.0, cfg.theta_max), (-math.pi, math.pi)]

    log_masses = np.empty(cfg.n_channels)
    first = {"p_x": [], "p_y": [], "p_z": []}
    second = {"p_x": [], "p_y": [], "p_z": []}
    for c in range(cfg.n_channels):
        axes, coarse = _tau_channel_scan(cfg, obs, c, full_bounds, res_coarse)
        bounds = _shrink_bounds(axes, coarse, full_bounds)
        (ps, ts, fs), logpost = _tau_channel_scan(cfg, obs, c, bounds, res_fine)
        vol = (
            (bounds[0][1] - bounds[0][0])
            * (bounds[1][1] - bounds[1][0])
            * (bounds[2][1] - bounds[2][0])
        ) / res_fine**3
        ref = logpost.max()
        w = np.exp(logpost - ref)
        total = w.sum()
        log_masses[c] = ref + math.log(total) + math.log(vol)
        pg, tg, fg = np.meshgrid(ps, ts, fs, indexing="ij")
        sin_t = np.sin(tg)
        comps = {
            "p_x": pg * sin_t * np.cos(fg),
            "p_y": pg * sin_t * np.sin(fg),
            "p_z": pg * np.cos(tg),
        }
        for key, g in comps.items():
            first[key].append(float((w * g).sum() / total))
            second[key].append(float((w * g * g).sum() / total))

    probs = np.exp(log_masses - log_masses.max())
    probs /= probs.sum()
    out = {
        "channel": {
            "predict": "channel",
            "kind": "int",
            "histogram": {c: float(probs[c]) for c in range(cfg.n_channels)},
        }
    }
    for key in ("p_x", "p_y", "p_z"):
        mean = float(np.dot(probs, first[key]))
        second_moment = float(np.dot(probs, second[key]))
        out[key] = {
            "predict": key,
            "kind": "real",
            "mean": mean,
            "var": max(second_moment - mean * mean, 0.0),
        }
    return out


def oracle_posterior(name, observation, resolution=None):
    """Independent posterior computation for a registered model.

    gaussian_unknown_mean: closed form. rejection_demo: dense 2-D grid over
    the square, masked to the disc. tau_decay_toy: channel enumeration with a
    two-pass (locate, then refine) 3-D midpoint quadrature per channel;
    `resolution` sets the fine-pass points per dimension.
    """
    return _model_row(name)[2](observation, resolution)


# name -> (model body, spec builder, oracle)
_MODELS = {
    "gaussian_unknown_mean": (gaussian_unknown_mean, _scalar_spec, _gaussian_oracle),
    "rejection_demo": (rejection_demo, _scalar_spec, _rejection_oracle),
    # looked up at each run, so a wrapper set on the module attribute sees every call
    "tau_decay_toy": (lambda ctx, cfg: tau_decay_toy(ctx, cfg), _tau_spec, _tau_oracle),
}

MODEL_NAMES = tuple(_MODELS)
