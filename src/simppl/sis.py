"""Sequential importance sampling over model executions.

Particles are independent guided executions from runtime.run_batch with an
empty key: particle i runs on the streams of derived_seed(master_seed, i), made
a chunk at a time without that SeedSequence, so results depend only on
(master_seed, n_particles); master_seed is a non-negative int or sequence of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllWeightsZero, ConfigError, MissingPredict, NonFiniteWeight, SimpplError
from .runtime import Mode, derived_seed, run_batch
from .trace import column_list

particle_seed = derived_seed  # particle i's seed is particle_seed(master_seed, i)


@dataclass
class ParticleSet:
    traces: list
    log_weights: np.ndarray
    weights: np.ndarray | None = None

    def normalize(self):
        """Exponentiate shifted log-weights and normalize to sum 1.

        -inf log-weights are zero weights; +inf or NaN raise NonFiniteWeight.
        """
        lw = np.asarray(self.log_weights, dtype=float)
        bad = np.isnan(lw) | (lw == math.inf)
        if bad.any():
            i = int(bad.argmax())
            raise NonFiniteWeight(i, *_first_term(self.traces[i:i + 1],
                                                  lambda t: not math.isfinite(t)))
        finite = lw[np.isfinite(lw)]
        if finite.size == 0:
            raise AllWeightsZero(*_first_term(self.traces, lambda t: t == -math.inf))
        w = np.exp(lw - finite.max())
        w /= w.sum()
        self.weights = w
        return self


def _first_term(traces, predicate):
    """(address, kind) of the first weight term for which predicate holds,
    each trace's sample entries before its observes, or (None, None)."""
    for trace in traces:
        for entry in trace.entries:
            if predicate(entry.log_p - entry.log_q):
                return entry.address, "log_p - log_q"
        for addrs, log_liks, _ in trace.observe_blocks:
            for addr, log_lik in zip(addrs, column_list(log_liks)):
                if predicate(log_lik):
                    return addr, "observe log-likelihood"
    return None, None


def effective_sample_size(particles):
    """ESS = 1 / sum of squared normalized weights."""
    if particles.weights is None:
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
    traces = list(run_batch(model, Mode.GUIDED, master_seed, n_particles,
                            observation=observation, proposal_source=proposal_source))
    log_weights = np.array([t.log_weight for t in traces], dtype=float)
    return ParticleSet(traces=traces, log_weights=log_weights).normalize()


_QUANTILES = (0.05, 0.5, 0.95)


def posterior_summary(particles, name):
    """Weighted posterior summary of one predict across a particle set.

    Integer-valued predicts produce a normalized histogram; real-valued ones
    produce mean, variance, and 5/50/95 weighted quantiles.
    """
    ess = effective_sample_size(particles)
    values = []
    for trace in particles.traces:
        try:
            values.append(trace.predicts[name])
        except KeyError:
            raise MissingPredict(f"trace {trace.trace_id} has no predict {name!r}") from None
    w = particles.weights
    base = {"predict": name, "ess": ess, "n_particles": len(values)}

    if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        hist = {}
        for v, wi in zip(values, w):
            key = int(v)
            hist[key] = hist.get(key, 0.0) + float(wi)
        return {**base, "kind": "int", "histogram": {k: hist[k] for k in sorted(hist)}}

    x = np.asarray(values, dtype=float)
    mean = float(np.dot(w, x))
    var = float(np.dot(w, (x - mean) ** 2))
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.cumsum(w[order])
    quantiles = {str(q): _weighted_quantile(xs, cum, q) for q in _QUANTILES}
    return {**base, "kind": "real", "mean": mean, "var": var, "quantiles": quantiles}


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
