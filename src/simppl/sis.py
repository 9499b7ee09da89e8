"""Sequential importance sampling over model executions.

Particles are independent guided executions, run one after another; particle
i uses the RNG stream derived from (master_seed, i), so results depend only on
(master_seed, n_particles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllWeightsZero, ConfigError, MissingPredict, NonFiniteWeight, SimpplError
from .runtime import Mode, run_model


def particle_seed(master_seed, index):
    """Deterministic per-particle seed stream."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


@dataclass
class ParticleSet:
    traces: list
    log_weights: np.ndarray
    weights: np.ndarray | None = None
    normalized: bool = False

    def normalize(self):
        """Exponentiate shifted log-weights and normalize to sum 1.

        -inf log-weights are zero weights; +inf or NaN raise NonFiniteWeight.
        """
        lw = np.asarray(self.log_weights, dtype=float)
        bad = np.isnan(lw) | (lw == math.inf)
        if bad.any():
            i = int(bad.argmax())
            raise NonFiniteWeight(i, _first_non_finite_term(self.traces, i))
        finite = lw[np.isfinite(lw)]
        if finite.size == 0:
            raise AllWeightsZero(_first_zero_observe(self.traces))
        w = np.exp(lw - finite.max())
        w /= w.sum()
        self.weights = w
        self.normalized = True
        return self


def _first_non_finite_term(traces, index):
    """Address of the first weight term of particle `index` that is not finite."""
    if index >= len(traces):
        return None
    trace = traces[index]
    for entry in trace.entries:
        if not math.isfinite(entry.log_p - entry.log_q):
            return entry.address
    for obs in trace.observes:
        if not math.isfinite(obs.log_likelihood):
            return obs.address
    return None


def _first_zero_observe(traces):
    for trace in traces:
        for obs in trace.observes:
            if obs.log_likelihood == -math.inf:
                return obs.address
    return None


def effective_sample_size(particles):
    """ESS = 1 / sum of squared normalized weights."""
    if not particles.normalized:
        raise SimpplError("particle set is not normalized")
    return float(1.0 / np.square(particles.weights).sum())


def sis_infer(model, observation, n_particles, proposal_source=None, master_seed=0, threads=1):
    """Run n_particles guided executions and return a normalized ParticleSet.

    threads must be >= 1; it changes neither the result nor the speed.
    """
    if n_particles < 1:
        raise ConfigError("n_particles must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    def one(index):
        trace = run_model(
            model,
            Mode.GUIDED,
            particle_seed(master_seed, index),
            observation=observation,
            proposal_source=proposal_source,
        )
        trace.trace_id = index
        return trace

    traces = [one(i) for i in range(n_particles)]
    log_weights = np.array([t.log_weight for t in traces], dtype=float)
    return ParticleSet(traces=traces, log_weights=log_weights).normalize()


_QUANTILES = (0.05, 0.5, 0.95)


def posterior_summary(particles, name):
    """Weighted posterior summary of one predict across a particle set.

    Integer-valued predicts produce a normalized histogram; real-valued ones
    produce mean, variance, and 5/50/95 weighted quantiles.
    """
    if not particles.normalized:
        raise SimpplError("particle set is not normalized")
    values = []
    for trace in particles.traces:
        try:
            values.append(trace.predicts[name])
        except KeyError:
            raise MissingPredict(f"trace {trace.trace_id} has no predict {name!r}") from None
    w = particles.weights
    ess = effective_sample_size(particles)
    base = {"predict": name, "ess": ess, "n_particles": len(values)}

    if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        hist = {}
        for v, wi in zip(values, w):
            key = int(v)
            hist[key] = hist.get(key, 0.0) + float(wi)
        base["kind"] = "int"
        base["histogram"] = {k: hist[k] for k in sorted(hist)}
        return base

    x = np.asarray(values, dtype=float)
    mean = float(np.dot(w, x))
    var = float(np.dot(w, (x - mean) ** 2))
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.cumsum(w[order])
    quantiles = {}
    for q in _QUANTILES:
        quantiles[str(q)] = _weighted_quantile(xs, cum, q)
    base["kind"] = "real"
    base["mean"] = mean
    base["var"] = var
    base["quantiles"] = quantiles
    return base


def _weighted_quantile(xs, cum, q):
    """Left inverse of the weighted CDF with linear interpolation."""
    if q <= cum[0]:
        return float(xs[0])
    i = int(np.searchsorted(cum, q, side="left"))
    if i >= len(xs):
        return float(xs[-1])
    span = cum[i] - cum[i - 1]
    if span <= 0:
        return float(xs[i])
    t = (q - cum[i - 1]) / span
    return float(xs[i - 1] + t * (xs[i] - xs[i - 1]))
