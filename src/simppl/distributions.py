"""Distribution families: sampling, log-densities, and proposal parameter maps.

Priors supported at sample statements: Normal, Uniform, Categorical,
Exponential, Poisson. Each prior family has a fixed proposal family whose
parameters an inference network emits as an unconstrained vector. _PROPOSALS
holds one row per prior family: the constraint map of an (n, dim) raw batch
(identity for locations, softplus for scales/rates, softmax for simplex
weights), the row builder that makes the proposal from one raw row, and
-log q with its gradient over (n, dim) raw arrays. Proposals sample inside
supports that cover the matching priors', which keeps importance weights finite.

A family subclasses _Family and lists its parameters in __slots__, in the
order of its constructor's arguments; _Family derives params, equality,
hashing and repr from them. Each family defines __init__ and log_prob on its
own class, not on a shared base, because the benchmark's tracer wraps them
per class. scipy.special is imported on the first proposal_nll_grads call.
"""

from __future__ import annotations

import math
import operator
from functools import partial

import numpy as np

from .errors import DimensionMismatch, ParameterError

_LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


def scipy_special(name, *args, namespace=globals()):
    """scipy.special.<name>(*args); first binds namespace[name], a partial of this, to the ufunc."""
    from scipy import special
    namespace[name] = getattr(special, name)
    return namespace[name](*args)


def softplus(x):
    """Numerically stable log(1 + e^x) with a positivity floor."""
    v = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
    return v if v > 1e-12 else 1e-12


def _constrain(cmap, raw):
    """Constraint map on each row of an (n, dim) batch, where softplus is
    np.fmax(np.logaddexp(0.0, col), 1e-12), the scalar softplus bit for bit."""
    if not isinstance(cmap, tuple):
        return cmap(raw)
    return np.column_stack([col if f is None else np.fmax(np.logaddexp(0.0, col), 1e-12)
                            for f, col in zip(cmap, raw.T)])


def softmax(raw):
    v = np.asarray(raw, dtype=float)
    v = np.exp(v - np.maximum.reduce(v, axis=-1, keepdims=True))  # v.max and v.sum, called
    v /= np.add.reduce(v, axis=-1, keepdims=True)  # without their Python wrappers
    return v


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return float(value)


def _check_positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_interval(lo, hi):
    lo_f, hi_f = _check_finite("lo", lo), _check_finite("hi", hi)
    if not (lo_f < hi_f and hi_f - lo_f < math.inf):
        raise ParameterError(f"need lo < hi with hi - lo finite, got ({lo!r}, {hi!r})")
    return lo_f, hi_f


def _is_integral(value):
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    return isinstance(value, float) and value.is_integer()


class _Family:
    """params is the tuple of the __slots__ values, read by one attrgetter per
    class (params is read at every sample statement); equality, hashing and
    repr follow from the family and params."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "params" not in cls.__dict__:  # Categorical's params are its probs tuple
            get = operator.attrgetter(*cls.__slots__)
            cls.params = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        return type(other) is type(self) and other.params == self.params

    def __hash__(self):
        return hash((self.family, self.params))

    def __repr__(self):
        return f"{type(self).__name__}{self.params}"


class Normal(_Family):
    family = "Normal"
    __slots__ = ("mu", "sigma")

    def __init__(self, mu, sigma):
        self.mu = _check_finite("mu", mu)
        self.sigma = _check_positive("sigma", sigma)

    def sample(self, rng):
        return float(rng.normal(self.mu, self.sigma))

    def log_prob(self, value):
        z = (value - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * _LOG_2PI


def normal_log_probs(x, mu, sigma):
    """Normal(mu[i], sigma[i]).log_prob(x[i]) for float arrays of one shape, bit for bit.

    log(sigma) goes through math.log per element because np.log can differ
    from it in the last bit; the rest is the same IEEE arithmetic in numpy.
    """
    z = (x - mu) / sigma
    log_sigma = np.fromiter(map(math.log, sigma.ravel().tolist()), float, sigma.size)
    return -0.5 * z * z - log_sigma.reshape(sigma.shape) - 0.5 * _LOG_2PI


class Uniform(_Family):
    family = "Uniform"
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = _check_interval(lo, hi)

    def sample(self, rng):  # rng.uniform(lo, hi) bit for bit, a third of its cost
        return self.lo + (self.hi - self.lo) * rng.random()

    def log_prob(self, value):
        if self.lo <= value <= self.hi:
            return -math.log(self.hi - self.lo)
        return _NEG_INF


class Categorical(_Family):
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


class Exponential(_Family):
    family = "Exponential"
    __slots__ = ("rate",)

    def __init__(self, rate):
        self.rate = _check_positive("rate", rate)

    def sample(self, rng):  # rng.exponential(1 / rate) bit for bit
        return 1.0 / self.rate * rng.standard_exponential()

    def log_prob(self, value):
        if value < 0:
            return _NEG_INF
        return math.log(self.rate) - self.rate * value


class Poisson(_Family):
    family = "Poisson"
    __slots__ = ("rate",)

    def __init__(self, rate):
        self.rate = _check_positive("rate", rate)

    def sample(self, rng):
        return int(rng.poisson(self.rate))

    def log_prob(self, value):
        if not _is_integral(value) or value < 0:
            return _NEG_INF
        k = int(value)
        return k * math.log(self.rate) - self.rate - math.lgamma(k + 1)


class ScaledBeta(_Family):
    """Beta distribution rescaled to an interval; proposal family for Uniform."""

    family = "ScaledBeta"
    __slots__ = ("alpha", "beta", "lo", "hi")

    def __init__(self, alpha, beta, lo, hi):
        if not (alpha > 0 and beta > 0 and math.isfinite(alpha) and math.isfinite(beta)):
            raise ParameterError(f"need positive finite shapes, got ({alpha!r}, {beta!r})")
        self.lo, self.hi = _check_interval(lo, hi)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def sample(self, rng):
        width = self.hi - self.lo
        x = self.lo + width * rng.beta(self.alpha, self.beta)
        if 0.0 < (x - self.lo) / width < 1.0:
            return float(x)
        # on a bound for log_prob (beta gave 0 or 1, or rounding): bisect to the nearest inside
        inside = self.lo + 0.5 * width
        while (m := x + 0.5 * (inside - x)) not in (x, inside):
            if 0.0 < (m - self.lo) / width < 1.0:
                inside = m
            else:
                x = m
        return inside

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


class LogNormal(_Family):
    """Proposal family for Exponential priors; support (0, inf)."""

    family = "LogNormal"
    __slots__ = ("mu", "sigma")

    def __init__(self, mu, sigma):
        self.mu = _check_finite("mu", mu)
        self.sigma = _check_positive("sigma", sigma)

    def sample(self, rng):
        x = float(rng.lognormal(self.mu, self.sigma))
        return x if 0.0 < x < math.inf else math.nextafter(x, 1.0)  # under/overflow

    def log_prob(self, value):
        if value <= 0:
            return _NEG_INF
        lx = math.log(value)
        z = (lx - self.mu) / self.sigma
        return -0.5 * z * z - lx - math.log(self.sigma) - 0.5 * _LOG_2PI


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


# ---------------------------------------------------------------------------
# proposal families: -log q and d(-log q)/d raw, row-wise over (n, dim) raw,
# constrained parameters, values and prior parameters; +inf off the support
digamma, expit, gammaln = (partial(scipy_special, n) for n in ("digamma", "expit", "gammaln"))


def _normal_nll_grad(raw, q, x, prior_params):
    d, sigma = x - q[:, 0], q[:, 1]
    d_sigma = 1.0 / sigma - (d * d) / (sigma * sigma * sigma)
    grad = np.column_stack((-d / (sigma * sigma), d_sigma * expit(raw[:, 1])))
    return 0.5 * (d / sigma) * (d / sigma) + np.log(sigma) + 0.5 * _LOG_2PI, grad


def _lognormal_nll_grad(raw, q, x, prior_params):
    nll, grad = _normal_nll_grad(raw, q, np.log(x), prior_params)  # Normal in log x
    return np.where(x > 0.0, nll + np.log(x), np.inf), grad


def _beta_nll_grad(raw, q, x, prior_params):
    (a, b), (lo, hi) = q.T, prior_params.T
    z = (x - lo) / (hi - lo)
    log_z, log_1mz, dig_ab = np.log(z), np.log1p(-z), digamma(a + b)
    nll = (gammaln(a) + gammaln(b) - gammaln(a + b) + np.log(hi - lo)
           - (a - 1.0) * log_z - (b - 1.0) * log_1mz)
    grad = np.column_stack((digamma(a) - dig_ab - log_z, digamma(b) - dig_ab - log_1mz))
    return np.where((z > 0.0) & (z < 1.0), nll, np.inf), grad * expit(raw)


def _categorical_nll_grad(raw, q, x, prior_params):
    ok = (x >= 0.0) & (x < q.shape[1]) & (x == np.floor(x))
    at = (np.arange(len(x)), np.where(ok, x, 0.0).astype(np.intp))
    grad = q.copy()
    grad[at] -= 1.0
    return np.where(ok, -np.log(q[at]), np.inf), grad


def _poisson_nll_grad(raw, q, x, prior_params):
    lam = q[:, 0]
    ok = (x >= 0.0) & (x == np.floor(x))
    nll = np.where(ok, lam + gammaln(x + 1.0) - x * np.log(lam), np.inf)
    return nll, ((1.0 - x / lam) * expit(raw[:, 0]))[:, None]


# prior family: (constraint map of a batch, softmax or a scalar map per column with None for
# identity; proposal of prior p from a raw row's list r; -log q with its gradient)
_PROPOSALS = {
    "Normal": ((None, softplus), lambda p, r: Normal(r[0], softplus(r[1])), _normal_nll_grad),
    "Uniform": ((softplus, softplus), lambda p, r: ScaledBeta(softplus(r[0]), softplus(r[1]),
                                                              p.lo, p.hi), _beta_nll_grad),
    "Categorical": (softmax, lambda p, r: Categorical(softmax(r).tolist()),
                    _categorical_nll_grad),
    "Exponential": ((None, softplus), lambda p, r: LogNormal(r[0], softplus(r[1])),
                    _lognormal_nll_grad),
    "Poisson": ((softplus,), lambda p, r: Poisson(softplus(r[0])), _poisson_nll_grad),
}


def _proposal_family(family):
    row = _PROPOSALS.get(family)
    if row is None:
        raise ParameterError(f"no proposal family for prior {family!r}")
    return row


def proposal_param_dim(prior):
    """Unconstrained parameter count of the proposal family for a prior."""
    cmap = _proposal_family(prior.family)[0]
    return len(cmap) if isinstance(cmap, tuple) else prior.k


def _raw_row(prior, raw):
    raw = np.asarray(raw, dtype=float)
    expected = proposal_param_dim(prior)
    if raw.shape != (expected,):
        raise DimensionMismatch(f"{prior.family} proposal needs {expected} params, "
                                f"got shape {raw.shape}")
    return raw


def proposal_from_params(prior, raw):
    """The proposal for a prior from unconstrained params r: after one length check, the
    family's row builder in _PROPOSALS on their list. Normal: Normal(r0, softplus(r1)); Uniform:
    ScaledBeta(softplus(r0), softplus(r1), lo, hi); Categorical: Categorical(softmax(r));
    Exponential: LogNormal(r0, softplus(r1)); Poisson: Poisson(softplus(r0))."""
    return _PROPOSALS[prior.family][1](prior, _raw_row(prior, raw).tolist())


def proposal_nll_grads(family, raw, values, prior_params):
    """(-log q(values), its gradient wrt raw) for (n, dim) raw, (n,) values and
    (n, p) prior parameters of one family; overflow gives inf or nan silently."""
    cmap, _, nll_grad = _proposal_family(family)
    with np.errstate(all="ignore"):
        return nll_grad(raw, _constrain(cmap, raw), values, prior_params)


def proposal_nll_grad(prior, raw, value):
    """(-log q(value), its gradient wrt raw): one row of proposal_nll_grads."""
    nll, grad = proposal_nll_grads(prior.family, _raw_row(prior, raw)[None],
                                   np.array([float(value)]), np.array([prior.params], dtype=float))
    return float(nll[0]), grad[0]
