"""Bundled demonstration simulators and their ground-truth posterior oracles.

Three models are registered by name:

  gaussian_unknown_mean   conjugate sanity check with a closed-form posterior
  rejection_demo          uniform disc sampling via a rejection scope
  tau_decay_toy           decay-channel + momentum inference from a small
                          segmented-calorimeter image

Each oracle is an independent route to the posterior (analytic form, dense
grid quadrature, or channel enumeration plus 3-D quadrature) used to validate
the sampling engine; none of them share code with the inference path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .distributions import Categorical, Exponential, Normal, Uniform
from .errors import ConfigInvalid, UnsupportedModel
from .runtime import Mode, run_model

_LOG_2PI = math.log(2.0 * math.pi)

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
        self.channel_prior = tuple(float(p) for p in self.channel_prior)
        self.grid = tuple(int(g) for g in self.grid)
        self.depth_profiles = tuple(tuple(float(f) for f in row) for row in self.depth_profiles)
        self.channel_kinds = tuple(self.channel_kinds)
        if self.n_channels < 1:
            raise ConfigInvalid("n_channels must be >= 1")
        if len(self.channel_prior) != self.n_channels:
            raise ConfigInvalid("channel_prior length must equal n_channels")
        if abs(sum(self.channel_prior) - 1.0) > 1e-9 or min(self.channel_prior) < 0:
            raise ConfigInvalid("channel_prior must be a probability vector")
        if len(self.grid) != 3 or min(self.grid) < 1:
            raise ConfigInvalid("grid must be three positive extents (depth, x, y)")
        if not self.momentum_scale > 0:
            raise ConfigInvalid("momentum_scale must be positive")
        if not self.noise_sigma > 0:
            raise ConfigInvalid("noise_sigma must be positive")
        if len(self.depth_profiles) != self.n_channels:
            raise ConfigInvalid("one depth profile per channel required")
        if len(self.channel_kinds) != self.n_channels:
            raise ConfigInvalid("one channel kind per channel required")
        depth = self.grid[0]
        half = depth // 2
        for c, row in enumerate(self.depth_profiles):
            if len(row) != depth:
                raise ConfigInvalid(f"depth profile {c} must have {depth} fractions")
            if min(row) < 0 or abs(sum(row) - 1.0) > 1e-9:
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
        if self.lever_arm < 0:
            raise ConfigInvalid("lever_arm must be >= 0")
        if not self.spot_sigma > 0:
            raise ConfigInvalid("spot_sigma must be positive")

    def to_dict(self):
        return {
            "n_channels": self.n_channels,
            "channel_prior": list(self.channel_prior),
            "grid": list(self.grid),
            "momentum_scale": self.momentum_scale,
            "noise_sigma": self.noise_sigma,
            "depth_profiles": [list(r) for r in self.depth_profiles],
            "channel_kinds": list(self.channel_kinds),
            "theta_max": self.theta_max,
            "lever_arm": self.lever_arm,
            "spot_sigma": self.spot_sigma,
        }

    @classmethod
    def from_dict(cls, obj):
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigInvalid(f"bad tau_decay_toy config: {exc}") from exc


DEFAULT_TAU_CONFIG = TauToyConfig()


@functools.cache
def _cell_site_ids(grid):
    d, x, y = grid
    return tuple(f"cal_{i}_{j}_{k}" for i in range(d) for j in range(x) for k in range(y))


def _axis_weights(n, center, sigma):
    edges = (np.arange(n + 1) - 0.5 - center) / sigma
    cdf = ndtr(edges)
    return cdf[1:] - cdf[:-1]


def deposit_image(cfg, channel, pmag, theta, phi):
    """Deterministic expected deposit, shape grid, summing exactly to pmag."""
    depth, nx, ny = cfg.grid
    offset = cfg.lever_arm * math.tan(theta)
    cx = (nx - 1) / 2.0 + offset * math.cos(phi)
    cy = (ny - 1) / 2.0 + offset * math.sin(phi)
    wx = _axis_weights(nx, cx, cfg.spot_sigma)
    wy = _axis_weights(ny, cy, cfg.spot_sigma)
    spot = np.outer(wx, wy)
    spot /= spot.sum()
    profile = np.asarray(cfg.depth_profiles[channel])
    return pmag * profile[:, None, None] * spot[None, :, :]


def tau_decay_toy(ctx, cfg=DEFAULT_TAU_CONFIG):
    channel = ctx.sample("channel", Categorical(cfg.channel_prior))
    pmag = ctx.sample("pmag", Exponential(1.0 / cfg.momentum_scale))
    theta = ctx.sample("theta", Uniform(0.0, cfg.theta_max))
    phi = ctx.sample("phi", Uniform(-math.pi, math.pi))

    expected = deposit_image(cfg, channel, pmag, theta, phi).ravel()
    sigmas = cfg.noise_sigma * np.maximum(expected, ENERGY_FLOOR)
    ctx.observe_normal_many(_cell_site_ids(cfg.grid), expected, sigmas, ctx.observed("cells"))

    sin_t = math.sin(theta)
    ctx.predict("channel", int(channel))
    ctx.predict("p_x", pmag * sin_t * math.cos(phi))
    ctx.predict("p_y", pmag * sin_t * math.sin(phi))
    ctx.predict("p_z", pmag * math.cos(theta))


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


def _scalar_obs_spec(name):
    def obs_to_vector(obs):
        return np.asarray([float(obs["y"])])

    def observation_from_values(values):
        return {"model": name, "y": values[0]}

    return obs_to_vector, observation_from_values


def get_model(name, config=None):
    """Look up a registered model; config applies to tau_decay_toy only."""
    if name == "gaussian_unknown_mean" or name == "rejection_demo":
        if config is not None:
            raise ConfigInvalid(f"{name} takes no config")
        run = gaussian_unknown_mean if name == "gaussian_unknown_mean" else rejection_demo
        to_vec, from_vals = _scalar_obs_spec(name)
        return ModelSpec(name, run, to_vec, from_vals)
    if name == "tau_decay_toy":
        if config is None:
            cfg = DEFAULT_TAU_CONFIG
        elif isinstance(config, TauToyConfig):
            cfg = config
        else:
            cfg = TauToyConfig.from_dict(config)
        n_cells = cfg.grid[0] * cfg.grid[1] * cfg.grid[2]

        def obs_to_vector(obs):
            cells = np.asarray(obs["cells"], dtype=float)
            if cells.shape != (n_cells,):
                raise ConfigInvalid(
                    f"observation has {cells.size} cells, config grid wants {n_cells}"
                )
            return cells

        def observation_from_values(values):
            return {
                "model": name,
                "config": cfg.to_dict(),
                "grid": list(cfg.grid),
                "cells": [float(v) for v in values],
            }

        return ModelSpec(name, lambda ctx: tau_decay_toy(ctx, cfg), obs_to_vector,
                         observation_from_values, config=cfg)
    raise UnsupportedModel(f"unknown model {name!r}")


MODEL_NAMES = ("gaussian_unknown_mean", "rejection_demo", "tau_decay_toy")


def make_observation(name, seed, config=None):
    """Prior-predictive observation plus its ground-truth latents.

    Runs the model unconditioned with the given seed; the synthetic observe
    values become the observation and the trace predicts the ground truth.
    """
    spec = get_model(name, config)
    trace = run_model(spec.run, Mode.PRIOR, seed)
    obs = spec.observation_from_values([o.value for o in trace.observes])
    return obs, dict(trace.predicts)


# ---------------------------------------------------------------------------
# oracles


def _gaussian_oracle(observation):
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


def _tau_oracle(cfg, observation, resolution):
    res_fine = resolution or 64
    res_coarse = 48
    obs = np.asarray(observation["cells"], dtype=float)
    n_cells = cfg.grid[0] * cfg.grid[1] * cfg.grid[2]
    if obs.shape != (n_cells,):
        raise ConfigInvalid(f"observation has {obs.size} cells, config grid wants {n_cells}")
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
    if name == "gaussian_unknown_mean":
        return _gaussian_oracle(observation)
    if name == "rejection_demo":
        return _rejection_oracle(observation, resolution)
    if name == "tau_decay_toy":
        cfg_obj = observation.get("config")
        cfg = TauToyConfig.from_dict(cfg_obj) if cfg_obj else DEFAULT_TAU_CONFIG
        return _tau_oracle(cfg, observation, resolution)
    raise UnsupportedModel(f"unknown model {name!r}")
