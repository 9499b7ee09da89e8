"""Distribution families: sampling, log-densities, and proposal parameter maps.

Priors supported at sample statements: Normal, Uniform, Categorical,
Exponential, Poisson. Each prior family has a fixed proposal family whose
parameters an inference network emits as an unconstrained vector; the
constraint map (identity for locations, softplus for scales/rates, softmax
for simplex weights) lives here so network outputs and densities stay in one
place. Proposal supports cover the matching prior supports, which keeps
importance weights finite for prior-drawn values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma

from .errors import DimensionMismatch, ParameterError

_LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


def softplus(x):
    """Numerically stable log(1 + e^x) with a positivity floor."""
    v = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
    return v if v > 1e-12 else 1e-12


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax(raw):
    v = np.asarray(raw, dtype=float)
    v = np.exp(v - v.max())
    v /= v.sum()
    return v


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return float(value)


def _is_integral(value):
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    return isinstance(value, float) and value.is_integer()


class Normal:
    family = "Normal"
    __slots__ = ("mu", "sigma")

    def __init__(self, mu, sigma):
        self.mu = _check_finite("mu", mu)
        if not (sigma > 0 and math.isfinite(sigma)):
            raise ParameterError(f"sigma must be positive and finite, got {sigma!r}")
        self.sigma = float(sigma)

    @property
    def params(self):
        return (self.mu, self.sigma)

    def sample(self, rng):
        return float(rng.normal(self.mu, self.sigma))

    def log_prob(self, value):
        z = (value - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * _LOG_2PI

    def __eq__(self, other):
        return type(other) is type(self) and other.params == self.params

    def __hash__(self):
        return hash((self.family, self.params))

    def __repr__(self):
        return f"{type(self).__name__}{self.params}"


def normal_log_probs(x, mu, sigma):
    """Normal(mu[i], sigma[i]).log_prob(x[i]) for float arrays, bit for bit.

    log(sigma) goes through math.log per element because np.log can differ
    from it in the last bit; the rest is the same IEEE arithmetic in numpy.
    """
    z = (x - mu) / sigma
    log_sigma = np.fromiter(map(math.log, sigma.tolist()), float, len(sigma))
    return -0.5 * z * z - log_sigma - 0.5 * _LOG_2PI


class Uniform:
    family = "Uniform"
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = _check_finite("lo", lo)
        self.hi = _check_finite("hi", hi)
        if not self.lo < self.hi:
            raise ParameterError(f"need lo < hi, got ({lo!r}, {hi!r})")

    @property
    def params(self):
        return (self.lo, self.hi)

    def sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))

    def log_prob(self, value):
        if self.lo <= value <= self.hi:
            return -math.log(self.hi - self.lo)
        return _NEG_INF

    __eq__ = Normal.__eq__
    __hash__ = Normal.__hash__
    __repr__ = Normal.__repr__


class Categorical:
    """Distribution over indices 0..k-1 with explicit probabilities."""

    family = "Categorical"
    __slots__ = ("probs",)

    def __init__(self, probs):
        p = tuple(float(x) for x in probs)
        if len(p) == 0:
            raise ParameterError("probs must be non-empty")
        total = 0.0
        for x in p:
            if not (math.isfinite(x) and x >= 0.0):
                raise ParameterError(f"probabilities must be finite and >= 0, got {x!r}")
            total += x
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"probabilities sum to {total!r}, not 1")
        self.probs = p

    @property
    def params(self):
        return self.probs

    @property
    def k(self):
        return len(self.probs)

    def sample(self, rng):
        r = rng.random()
        acc = 0.0
        for i, p in enumerate(self.probs):
            acc += p
            if r < acc:
                return i
        return len(self.probs) - 1

    def log_prob(self, value):
        if not _is_integral(value):
            return _NEG_INF
        i = int(value)
        if 0 <= i < len(self.probs) and self.probs[i] > 0.0:
            return math.log(self.probs[i])
        return _NEG_INF

    __eq__ = Normal.__eq__
    __hash__ = Normal.__hash__
    __repr__ = Normal.__repr__


class Exponential:
    family = "Exponential"
    __slots__ = ("rate",)

    def __init__(self, rate):
        if not (rate > 0 and math.isfinite(rate)):
            raise ParameterError(f"rate must be positive and finite, got {rate!r}")
        self.rate = float(rate)

    @property
    def params(self):
        return (self.rate,)

    def sample(self, rng):
        return float(rng.exponential(1.0 / self.rate))

    def log_prob(self, value):
        if value < 0:
            return _NEG_INF
        return math.log(self.rate) - self.rate * value

    __eq__ = Normal.__eq__
    __hash__ = Normal.__hash__
    __repr__ = Normal.__repr__


class Poisson:
    family = "Poisson"
    __slots__ = ("rate",)

    def __init__(self, rate):
        if not (rate > 0 and math.isfinite(rate)):
            raise ParameterError(f"rate must be positive and finite, got {rate!r}")
        self.rate = float(rate)

    @property
    def params(self):
        return (self.rate,)

    def sample(self, rng):
        return int(rng.poisson(self.rate))

    def log_prob(self, value):
        if not _is_integral(value) or value < 0:
            return _NEG_INF
        k = int(value)
        return k * math.log(self.rate) - self.rate - math.lgamma(k + 1)

    __eq__ = Normal.__eq__
    __hash__ = Normal.__hash__
    __repr__ = Normal.__repr__


class ScaledBeta:
    """Beta distribution rescaled to an interval; proposal family for Uniform."""

    family = "ScaledBeta"
    __slots__ = ("alpha", "beta", "lo", "hi")

    def __init__(self, alpha, beta, lo, hi):
        if not (alpha > 0 and beta > 0 and math.isfinite(alpha) and math.isfinite(beta)):
            raise ParameterError(f"need positive finite shapes, got ({alpha!r}, {beta!r})")
        self.lo = _check_finite("lo", lo)
        self.hi = _check_finite("hi", hi)
        if not self.lo < self.hi:
            raise ParameterError(f"need lo < hi, got ({lo!r}, {hi!r})")
        self.alpha = float(alpha)
        self.beta = float(beta)

    @property
    def params(self):
        return (self.alpha, self.beta, self.lo, self.hi)

    def sample(self, rng):
        return float(self.lo + (self.hi - self.lo) * rng.beta(self.alpha, self.beta))

    def log_prob(self, value):
        width = self.hi - self.lo
        z = (value - self.lo) / width
        if not 0.0 < z < 1.0:
            return _NEG_INF
        log_b = math.lgamma(self.alpha) + math.lgamma(self.beta) - math.lgamma(self.alpha + self.beta)
        return (
            (self.alpha - 1.0) * math.log(z)
            + (self.beta - 1.0) * math.log1p(-z)
            - log_b
            - math.log(width)
        )

    __eq__ = Normal.__eq__
    __hash__ = Normal.__hash__
    __repr__ = Normal.__repr__


class LogNormal:
    """Proposal family for Exponential priors; support (0, inf)."""

    family = "LogNormal"
    __slots__ = ("mu", "sigma")

    def __init__(self, mu, sigma):
        self.mu = _check_finite("mu", mu)
        if not (sigma > 0 and math.isfinite(sigma)):
            raise ParameterError(f"sigma must be positive and finite, got {sigma!r}")
        self.sigma = float(sigma)

    @property
    def params(self):
        return (self.mu, self.sigma)

    def sample(self, rng):
        return float(rng.lognormal(self.mu, self.sigma))

    def log_prob(self, value):
        if value <= 0:
            return _NEG_INF
        lx = math.log(value)
        z = (lx - self.mu) / self.sigma
        return -0.5 * z * z - lx - math.log(self.sigma) - 0.5 * _LOG_2PI

    __eq__ = Normal.__eq__
    __hash__ = Normal.__hash__
    __repr__ = Normal.__repr__


FAMILIES = {
    cls.family: cls
    for cls in (Normal, Uniform, Categorical, Exponential, Poisson, ScaledBeta, LogNormal)
}


def from_params(family, params):
    cls = FAMILIES.get(family)
    if cls is None:
        raise ParameterError(f"unknown distribution family {family!r}")
    if cls is Categorical:
        return Categorical(params)
    return cls(*params)


def proposal_param_dim(prior):
    """Unconstrained parameter count of the proposal family for a prior."""
    fam = prior.family
    if fam == "Normal" or fam == "Uniform" or fam == "Exponential":
        return 2
    if fam == "Categorical":
        return prior.k
    if fam == "Poisson":
        return 1
    raise ParameterError(f"no proposal family for prior {fam!r}")


def proposal_from_params(prior, raw):
    """Build the proposal distribution for a prior from unconstrained params.

    Normal -> Normal(raw0, softplus(raw1))
    Uniform(lo,hi) -> ScaledBeta(softplus(raw0), softplus(raw1), lo, hi)
    Categorical(k) -> Categorical(softmax(raw))
    Exponential -> LogNormal(raw0, softplus(raw1))
    Poisson -> Poisson(softplus(raw0))
    """
    raw = np.asarray(raw, dtype=float)
    expected = proposal_param_dim(prior)
    if raw.shape != (expected,):
        raise DimensionMismatch(
            f"{prior.family} proposal needs {expected} params, got shape {raw.shape}"
        )
    fam = prior.family
    if fam == "Normal":
        return Normal(raw[0], softplus(raw[1]))
    if fam == "Uniform":
        return ScaledBeta(softplus(raw[0]), softplus(raw[1]), prior.lo, prior.hi)
    if fam == "Categorical":
        return Categorical(softmax(raw))
    if fam == "Exponential":
        return LogNormal(raw[0], softplus(raw[1]))
    if fam == "Poisson":
        return Poisson(softplus(raw[0]))
    raise ParameterError(f"no proposal family for prior {fam!r}")


def proposal_nll_grad(prior, raw, value):
    """Gradient of -log q(value) with respect to the unconstrained params.

    Returns (nll, grad). The density itself comes from the same constraint
    maps as proposal_from_params; the finite-difference tests cross-check the
    two code paths against each other.
    """
    raw = np.asarray(raw, dtype=float)
    q = proposal_from_params(prior, raw)
    nll = -q.log_prob(value)
    fam = prior.family
    grad = np.zeros_like(raw)
    if fam == "Normal":
        mu, sigma = q.mu, q.sigma
        d = value - mu
        grad[0] = -d / (sigma * sigma)
        # spelled as products: float ** raises OverflowError where * gives inf,
        # and a diverging training step must surface as a non-finite gradient
        d_sigma = 1.0 / sigma - (d * d) / (sigma * sigma * sigma)
        grad[1] = d_sigma * _sigmoid(raw[1])
    elif fam == "Uniform":
        a, b = q.alpha, q.beta
        z = (value - q.lo) / (q.hi - q.lo)
        dig_ab = digamma(a + b)
        d_a = -math.log(z) + digamma(a) - dig_ab
        d_b = -math.log1p(-z) + digamma(b) - dig_ab
        grad[0] = d_a * _sigmoid(raw[0])
        grad[1] = d_b * _sigmoid(raw[1])
    elif fam == "Categorical":
        p = softmax(raw)
        grad[:] = p
        grad[int(value)] -= 1.0
    elif fam == "Exponential":
        mu, sigma = q.mu, q.sigma
        d = math.log(value) - mu
        grad[0] = -d / (sigma * sigma)
        d_sigma = 1.0 / sigma - (d * d) / (sigma * sigma * sigma)
        grad[1] = d_sigma * _sigmoid(raw[1])
    elif fam == "Poisson":
        lam = q.rate
        d_lam = 1.0 - value / lam
        grad[0] = d_lam * _sigmoid(raw[0])
    else:
        raise ParameterError(f"no proposal family for prior {fam!r}")
    return nll, grad
