import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate

from simppl.distributions import (
    Categorical,
    Exponential,
    LogNormal,
    Normal,
    Poisson,
    ScaledBeta,
    FAMILIES,
    Uniform,
    _PROPOSALS,
    _constrain,
    from_params,
    normal_log_probs,
    proposal_from_params,
    proposal_nll_grad,
    proposal_param_dim,
    softmax,
    softplus,
)
from simppl.errors import DimensionMismatch, ParameterError
from simppl.runtime import FixedProposal
from simppl.sis import sis_infer

RNG = np.random.default_rng(20240817)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50)
positive = st.floats(min_value=1e-3, max_value=50, allow_nan=False)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "build",
    [
        lambda: Normal(0.0, 0.0),
        lambda: Normal(0.0, -1.0),
        lambda: Normal(math.nan, 1.0),
        lambda: Uniform(1.0, 1.0),
        lambda: Uniform(2.0, -2.0),
        lambda: Categorical((0.5, 0.6)),
        lambda: Categorical((1.2, -0.2)),
        lambda: Categorical(()),
        lambda: Exponential(0.0),
        lambda: Poisson(-3.0),
        lambda: ScaledBeta(0.0, 1.0, 0.0, 1.0),
        lambda: ScaledBeta(1.0, 1.0, 1.0, 0.0),
        lambda: LogNormal(0.0, 0.0),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ParameterError):
        build()


# ---------------------------------------------------------------------------
# densities normalize to one (quadrature / summation oracle, independent of
# the sampling code)


@settings(max_examples=25, deadline=None)
@given(mu=finite, sigma=positive)
def test_normal_density_normalizes(mu, sigma):
    d = Normal(mu, sigma)
    total, _ = integrate.quad(lambda x: math.exp(d.log_prob(x)),
                              mu - 12 * sigma, mu + 12 * sigma)
    assert total == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(lo=finite, width=positive)
def test_uniform_density_normalizes(lo, width):
    d = Uniform(lo, lo + width)
    total, _ = integrate.quad(lambda x: math.exp(d.log_prob(x)), lo, lo + width)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert d.log_prob(lo - 1e-3) == -math.inf
    assert d.log_prob(lo + width + 1e-3) == -math.inf


@settings(max_examples=25, deadline=None)
@given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
def test_categorical_normalizes_and_bounds(weights):
    probs = tuple(w / sum(weights) for w in weights)
    d = Categorical(probs)
    total = sum(math.exp(d.log_prob(k)) for k in range(len(probs)))
    assert total == pytest.approx(1.0, abs=1e-9)
    assert d.log_prob(-1) == -math.inf
    assert d.log_prob(len(probs)) == -math.inf


@settings(max_examples=25, deadline=None)
@given(rate=positive)
def test_exponential_density_normalizes(rate):
    d = Exponential(rate)
    total, _ = integrate.quad(lambda x: math.exp(d.log_prob(x)), 0, 60.0 / rate)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert d.log_prob(-1e-9) == -math.inf


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(min_value=0.05, max_value=60.0, allow_nan=False))
def test_poisson_mass_normalizes(rate):
    d = Poisson(rate)
    hi = int(rate + 40 * math.sqrt(rate) + 40)
    total = sum(math.exp(d.log_prob(k)) for k in range(hi))
    assert total == pytest.approx(1.0, abs=1e-6)
    assert d.log_prob(-1) == -math.inf
    assert d.log_prob(0.5) == -math.inf


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0.3, max_value=20, allow_nan=False),
       beta=st.floats(min_value=0.3, max_value=20, allow_nan=False),
       lo=finite, width=positive)
def test_scaled_beta_density_normalizes(alpha, beta, lo, width):
    d = ScaledBeta(alpha, beta, lo, lo + width)
    total, _ = integrate.quad(lambda x: math.exp(d.log_prob(x)), lo, lo + width,
                              points=[lo, lo + width], limit=200)
    assert total == pytest.approx(1.0, abs=1e-5)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(min_value=-3, max_value=3, allow_nan=False),
       sigma=st.floats(min_value=1e-3, max_value=4.0, allow_nan=False))
def test_lognormal_density_normalizes(mu, sigma):
    d = LogNormal(mu, sigma)
    # substitute x = e^t; the Jacobian makes the integrand well-conditioned
    total, _ = integrate.quad(lambda t: math.exp(d.log_prob(math.exp(t)) + t),
                              mu - 12 * sigma, mu + 12 * sigma, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert d.log_prob(0.0) == -math.inf
    assert d.log_prob(-1.0) == -math.inf


# ---------------------------------------------------------------------------
# sampling agrees with the density (moment check, 5 standard errors)


@pytest.mark.parametrize(
    "dist,mean,sd",
    [
        (Normal(2.0, 3.0), 2.0, 3.0),
        (Uniform(-1.0, 5.0), 2.0, 6.0 / math.sqrt(12)),
        (Categorical((0.2, 0.5, 0.3)), 1.1, math.sqrt(0.49)),
        (Exponential(0.25), 4.0, 4.0),
        (Poisson(6.0), 6.0, math.sqrt(6.0)),
        (ScaledBeta(2.0, 2.0, -1.0, 1.0), 0.0, math.sqrt(4 * 0.05)),
        (LogNormal(0.5, 0.4), math.exp(0.5 + 0.08), None),
    ],
)
def test_sample_mean_matches_analytic(dist, mean, sd):
    n = 100_000
    rng = np.random.default_rng(7)
    draws = np.array([dist.sample(rng) for _ in range(n)], dtype=float)
    if sd is None:
        sd = draws.std()
    assert abs(draws.mean() - mean) < 5 * sd / math.sqrt(n)


def test_categorical_sample_is_python_int():
    d = Categorical((0.3, 0.7))
    v = d.sample(np.random.default_rng(0))
    assert type(v) is int


def test_categorical_draw_above_a_sum_just_under_one_is_the_last_index():
    class StubRng:
        def random(self):
            return 1.0 - 5e-11

    d = Categorical((0.5, 0.5 - 1e-10))  # within the 1e-9 tolerance
    assert sum(d.probs) < StubRng().random()
    assert d.sample(StubRng()) == 1


def test_a_boolean_is_not_a_count():
    assert Categorical((0.5, 0.5)).log_prob(True) == -math.inf
    assert Poisson(1.0).log_prob(True) == -math.inf


def test_sampling_is_reproducible():
    d = Normal(0.0, 1.0)
    a = d.sample(np.random.default_rng(42))
    b = d.sample(np.random.default_rng(42))
    assert a == b


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    bounds=(st.tuples(_ANY_FLOAT, _ANY_FLOAT).map(sorted)  # from tiny to overflowing widths
            | st.tuples(finite, st.floats(1e-300, 1e3)).map(lambda b: (b[0], b[0] + b[1])))
    .filter(lambda b: b[0] < b[1]),
    rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_uniform_and_exponential_samples_are_generator_draws_bit_for_bit(seed, bounds, rate):
    # Uniform.sample is lo + (hi - lo) * rng.random() and Exponential.sample
    # 1 / rate * rng.standard_exponential(): numpy's own arithmetic, a third of the cost
    lo, hi = bounds
    if hi - lo == math.inf:  # rng.uniform raises OverflowError on these bounds
        with pytest.raises(ParameterError, match="hi - lo finite"):
            Uniform(lo, hi)
        assume(False)
    uniform, exponential = Uniform(lo, hi), Exponential(rate)
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(25):  # interleaved, so each takes one double from the stream
        assert uniform.sample(got).hex() == float(want.uniform(lo, hi)).hex()
        assert exponential.sample(got).hex() == float(want.exponential(1 / rate)).hex()
    assert got.bit_generator.state == want.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats(-800, 800)), min_size=1,
                     max_size=40))
@example(rows=[(0.0, -0.0, 1e-3), (math.inf, -math.inf, -1e-3), (math.nan, 1e308, -1e308),
               (5e-324, -5e-324, 36.7), (709.8, -745.2, -36.7)])
def test_a_batch_softplus_is_the_scalar_softplus_bit_for_bit(rows):
    # a batch constrains a column in numpy, np.fmax(np.logaddexp(0.0, col), 1e-12);
    # a row builder maps each value through the scalar softplus (NaN gives the floor on both)
    raw = np.array(rows, dtype=float)
    cmap = (softplus, None, softplus)
    with np.errstate(invalid="ignore"):  # NaN in logaddexp
        got = _constrain(cmap, raw)
    want = np.array([[v if f is None else f(v) for f, v in zip(cmap, row)] for row in rows])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# frozen density values (hand-checked against the closed forms)


def test_frozen_density_values():
    assert Normal(0.0, 1.0).log_prob(0.0) == pytest.approx(-0.9189385332046727, abs=1e-15)
    assert Uniform(0.0, 4.0).log_prob(1.0) == pytest.approx(math.log(0.25), abs=1e-15)
    assert Exponential(2.0).log_prob(0.5) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
    assert Poisson(3.0).log_prob(2) == pytest.approx(2 * math.log(3.0) - 3.0 - math.log(2.0), abs=1e-12)
    assert Categorical((0.25, 0.75)).log_prob(1) == pytest.approx(math.log(0.75), abs=1e-15)


def test_normal_log_probs_match_scalar_log_prob_bit_for_bit():
    # scales spread over 14 e-folds: np.log differs from math.log in the last
    # bit for a few of them, which the vectorized form must not inherit
    rng = np.random.default_rng(5)
    sigma = np.exp(rng.uniform(-7.0, 7.0, 20_000))
    mu = rng.normal(0.0, 10.0, sigma.size)
    x = rng.normal(mu, sigma)
    want = [Normal(m, s).log_prob(v) for m, s, v in zip(mu.tolist(), sigma.tolist(), x.tolist())]
    assert normal_log_probs(x, mu, sigma).tolist() == want


# ---------------------------------------------------------------------------
# proposal parameter maps


def test_proposal_dims():
    assert proposal_param_dim(Normal(0, 1)) == 2
    assert proposal_param_dim(Uniform(0, 1)) == 2
    assert proposal_param_dim(Categorical((0.5, 0.3, 0.2))) == 3
    assert proposal_param_dim(Exponential(1.0)) == 2
    assert proposal_param_dim(Poisson(4.0)) == 1


def test_proposal_families():
    assert isinstance(proposal_from_params(Normal(0, 1), [0.3, 0.0]), Normal)
    assert isinstance(proposal_from_params(Uniform(-2, 3), [0.1, -0.2]), ScaledBeta)
    assert isinstance(proposal_from_params(Categorical((0.5, 0.5)), [0.0, 1.0]), Categorical)
    assert isinstance(proposal_from_params(Exponential(2.0), [0.0, 0.1]), LogNormal)
    assert isinstance(proposal_from_params(Poisson(4.0), [1.0]), Poisson)


def test_proposal_raw_map_frozen_examples():
    q = proposal_from_params(Normal(0, 1), [1.5, 0.0])
    assert q.mu == 1.5 and q.sigma == pytest.approx(math.log(2.0))
    q = proposal_from_params(Uniform(-2.0, 3.0), [0.0, 0.0])
    assert (q.lo, q.hi) == (-2.0, 3.0)
    assert q.alpha == q.beta == pytest.approx(math.log(2.0))
    q = proposal_from_params(Categorical((0.9, 0.1)), [0.0, 0.0])
    assert q.probs == pytest.approx((0.5, 0.5))
    q = proposal_from_params(Poisson(4.0), [2.0])
    assert q.rate == pytest.approx(softplus(2.0))


def test_a_prior_without_a_proposal_family_has_no_proposal_dimension():
    with pytest.raises(ParameterError, match="no proposal family for prior 'ScaledBeta'"):
        proposal_param_dim(ScaledBeta(1.0, 1.0, 0.0, 1.0))


def test_proposal_wrong_dim_raises():
    with pytest.raises(DimensionMismatch):
        proposal_from_params(Normal(0, 1), [0.0])
    with pytest.raises(DimensionMismatch):
        proposal_from_params(Categorical((0.5, 0.5)), [0.0, 0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(raw=st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                    min_size=2, max_size=2))
def test_proposal_support_covers_prior_normal(raw):
    prior = Normal(1.0, 2.0)
    q = proposal_from_params(prior, raw)
    for v in (-50.0, 0.0, 50.0):
        assert math.isfinite(q.log_prob(v))


@settings(max_examples=40, deadline=None)
@given(raw=st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                    min_size=2, max_size=2))
def test_proposal_support_covers_prior_uniform(raw):
    prior = Uniform(-1.0, 1.0)
    q = proposal_from_params(prior, raw)
    # interior of the box must stay reachable whatever the raw params
    for v in (-0.999, 0.0, 0.999):
        assert math.isfinite(q.log_prob(v))


@settings(max_examples=40, deadline=None)
@given(raw=st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                    min_size=3, max_size=3))
def test_proposal_support_covers_prior_categorical(raw):
    prior = Categorical((0.2, 0.3, 0.5))
    q = proposal_from_params(prior, raw)
    for k in range(3):
        assert math.isfinite(q.log_prob(k))


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (-2.0, 0.0), (0.0, math.pi), (1000.0, 1001.0),
                                   (-1e300, 1.0), (5e-324, 1e-300)])
def test_scaled_beta_draws_stay_inside_the_support(lo, hi):
    # shapes of 1e-3 put nearly every beta draw at exactly 0 or 1
    q = ScaledBeta(1e-3, 1e-3, lo, hi)
    rng = np.random.default_rng(0)
    draws = [q.sample(rng) for _ in range(400)]
    assert all(lo < x < hi for x in draws)
    assert all(math.isfinite(q.log_prob(x)) for x in draws)
    assert min(draws) < lo + (hi - lo) / 4 and max(draws) > hi - (hi - lo) / 4


def test_scaled_beta_interior_draws_unchanged():
    q = ScaledBeta(2.0, 3.0, -1.0, 4.0)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    assert [q.sample(a) for _ in range(200)] == [
        float(-1.0 + 5.0 * b.beta(2.0, 3.0)) for _ in range(200)]


def test_lognormal_draws_stay_finite_and_positive():
    # at sigma = 400 about 6 % of raw draws underflow to 0 or overflow to inf
    q = LogNormal(0.0, 400.0)
    rng = np.random.default_rng(0)
    draws = [q.sample(rng) for _ in range(1000)]
    assert all(0.0 < x < math.inf for x in draws)
    assert all(math.isfinite(q.log_prob(x)) for x in draws)


PROPERTY_PRIORS = st.one_of(
    st.builds(Normal, finite, positive),
    st.builds(lambda lo, width: Uniform(lo, lo + width), finite, positive),
    st.builds(Categorical, st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5).map(
        lambda w: tuple(x / sum(w) for x in w))),
    st.builds(Exponential, st.floats(1e-3, 1.0)),
    st.builds(Poisson, positive),
)


def _one_site(prior):
    def model(ctx):
        ctx.sample("x", prior)
        ctx.observe("y", Normal(0.0, 1.0), ctx.observed("y"))
    return model


@settings(max_examples=150, deadline=None)
@given(prior=PROPERTY_PRIORS, data=st.data())
def test_proposal_draws_keep_densities_and_weights_finite(prior, data):
    raw = data.draw(st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                             min_size=proposal_param_dim(prior),
                             max_size=proposal_param_dim(prior)))
    q = proposal_from_params(prior, raw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert all(math.isfinite(q.log_prob(q.sample(rng))) for _ in range(50))
    key = f"x:{prior.family}"
    ps = sis_infer(_one_site(prior), {"y": 0.0}, 50, FixedProposal({key: q}),
                   master_seed=data.draw(st.integers(0, 2**32 - 1)))
    assert np.isfinite(ps.log_weights).all()
    assert np.isfinite(ps.weights).all()
    assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(prior=PROPERTY_PRIORS, data=st.data())
def test_each_row_builder_is_row_0_of_the_batch_constraint_bit_for_bit(prior, data):
    # the row builders of proposal_from_params and the batch _constrain of training are two
    # writings of one constraint map; the proposal's leading params are the constrained row
    dim = proposal_param_dim(prior)
    raw = np.array(data.draw(st.lists(st.floats(-700.0, 700.0), min_size=dim, max_size=dim)))
    cmap, build, _ = _PROPOSALS[prior.family]
    q = proposal_from_params(prior, raw)
    assert [v.hex() for v in q.params[:dim]] == [
        v.hex() for v in _constrain(cmap, raw[None])[0].tolist()]
    assert q == build(prior, raw.tolist())
    assert q.params[dim:] == (prior.params if prior.family == "Uniform" else ())  # the bounds


def test_softplus_floor_keeps_scales_positive():
    assert softplus(-1000.0) == 1e-12
    q = proposal_from_params(Normal(0, 1), [0.0, -1000.0])
    assert q.sigma == 1e-12


def test_softmax_sums_to_one_under_extreme_logits():
    p = softmax([800.0, -800.0, 0.0])
    assert p.sum() == pytest.approx(1.0)
    assert p[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# gradient of the proposal negative log-density wrt raw params
# (finite differences recomputed here; the training loop relies on these)


def _fd_grad(prior, raw, value, h=1e-6):
    raw = np.asarray(raw, dtype=float)
    g = np.zeros_like(raw)
    for i in range(raw.size):
        up, dn = raw.copy(), raw.copy()
        up[i] += h
        dn[i] -= h
        fu = -proposal_from_params(prior, up).log_prob(value)
        fd = -proposal_from_params(prior, dn).log_prob(value)
        g[i] = (fu - fd) / (2 * h)
    return g


@pytest.mark.parametrize(
    "prior,raw,value",
    [
        (Normal(0, 1), [0.4, 0.3], 1.2),
        (Normal(0, 1), [-1.0, -0.5], -0.7),
        (Uniform(-2, 3), [0.2, -0.4], 1.5),
        (Uniform(0, 1), [1.1, 0.7], 0.25),
        (Categorical((0.2, 0.3, 0.5)), [0.1, -0.2, 0.6], 2),
        (Exponential(0.5), [0.3, 0.2], 4.0),
        (Poisson(6.0), [1.2], 4),
    ],
)
def test_nll_grad_matches_finite_differences(prior, raw, value):
    nll, grad = proposal_nll_grad(prior, np.asarray(raw, dtype=float), value)
    assert nll == pytest.approx(-proposal_from_params(prior, raw).log_prob(value), rel=1e-12)
    fd = _fd_grad(prior, raw, value)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize(
    "prior,raw,value",
    [
        (Uniform(0, 1), [0.2, -0.4], 1.0),
        (Uniform(0, 1), [0.2, -0.4], 0.0),
        (Uniform(0, 1), [0.2, -0.4], -3.0),
        (Categorical((0.2, 0.3, 0.5)), [0.1, -0.2, 0.6], 5),
        (Categorical((0.2, 0.3, 0.5)), [0.1, -0.2, 0.6], 1.5),
        (Exponential(0.5), [0.3, 0.2], 0.0),
        (Poisson(6.0), [1.2], -1),
        (Poisson(6.0), [1.2], 2.5),
    ],
)
def test_nll_outside_the_proposal_support_is_inf(prior, raw, value):
    assert proposal_from_params(prior, raw).log_prob(value) == -math.inf
    nll, grad = proposal_nll_grad(prior, raw, value)
    assert nll == math.inf
    assert grad.shape == (len(raw),)


EXAMPLE_PARAMS = {
    "Normal": (1.0, 2.0), "Uniform": (-1.0, 3.0), "Categorical": (0.25, 0.75),
    "Exponential": (0.5,), "Poisson": (3.0,), "ScaledBeta": (2.0, 3.0, -1.0, 1.0),
    "LogNormal": (0.5, 1.5),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_from_params_roundtrip(family):
    d = from_params(family, EXAMPLE_PARAMS[family])
    assert type(d) is FAMILIES[family] and d.params == EXAMPLE_PARAMS[family]
    rebuilt = from_params(d.family, d.params)
    assert rebuilt == d and hash(rebuilt) == hash(d)
    assert repr(rebuilt) == f"{d.family}{d.params}"
    assert Normal(0, 1) != LogNormal(0, 1)
    with pytest.raises(ParameterError):
        from_params("NoSuchFamily", (1.0,))
