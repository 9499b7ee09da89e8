import math

import numpy as np
import pytest

from simppl import simzoo
from simppl.distributions import Normal, ScaledBeta, Uniform
from simppl.errors import AllWeightsZero, ConfigError, MissingPredict, NonFiniteWeight, SimpplError
from simppl.runtime import FixedProposal, Mode, run_model
from simppl.sis import (
    ParticleSet,
    effective_sample_size,
    particle_seed,
    posterior_summary,
    sis_infer,
)
from simppl.trace import Trace, trace_to_line

GAUSSIAN = simzoo.get_model("gaussian_unknown_mean").run


def fake_particles(values, log_weights):
    traces = []
    for i, v in enumerate(values):
        t = Trace(trace_id=i)
        t.predicts["x"] = v
        traces.append(t)
    return ParticleSet(traces=traces, log_weights=np.asarray(log_weights, dtype=float))


# ---------------------------------------------------------------------------
# seeds


def test_particle_seeds_are_distinct_and_stable():
    a = particle_seed(42, 0)
    b = particle_seed(42, 1)
    assert a.spawn_key != b.spawn_key
    assert np.random.default_rng(a).random() != np.random.default_rng(b).random()
    assert np.random.default_rng(particle_seed(42, 0)).random() \
        == np.random.default_rng(a).random()


# ---------------------------------------------------------------------------
# normalization and ESS


def test_normalize_handles_log_spread_of_700():
    ps = fake_particles([0.0, 1.0], [0.0, -700.0])
    ps.normalize()
    assert ps.weights[0] == pytest.approx(1.0)
    assert ps.weights[1] >= 0.0
    assert ps.weights.sum() == pytest.approx(1.0)


def test_normalize_handles_large_positive_log_weights():
    ps = fake_particles([0.0, 1.0], [710.0, 709.0])
    ps.normalize()
    assert np.isfinite(ps.weights).all()
    assert ps.weights.sum() == pytest.approx(1.0)


def test_ess_frozen_example():
    # weights (0.5, 0.25, 0.25): 1 / (0.25 + 0.0625 + 0.0625) = 8/3
    ps = fake_particles([1.0, 2.0, 3.0], np.log([2.0, 1.0, 1.0]))
    ps.normalize()
    assert effective_sample_size(ps) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_ess_requires_normalization():
    ps = fake_particles([1.0], [0.0])
    with pytest.raises(SimpplError):
        effective_sample_size(ps)


def test_single_particle_normalizes_to_one():
    ps = sis_infer(GAUSSIAN, {"y": 1.0}, 1, master_seed=3)
    assert ps.weights.tolist() == [1.0]
    assert effective_sample_size(ps) == pytest.approx(1.0)


def test_all_weights_zero_names_the_observe_address():
    def model(ctx):
        ctx.sample("x", Normal(0, 1))
        ctx.observe("inside", Uniform(0.0, 1.0), ctx.observed("y"))
        ctx.predict("x", 0.0)

    with pytest.raises(AllWeightsZero) as err:
        sis_infer(model, {"y": 5.0}, 8, master_seed=1)
    assert "inside:Uniform#0" in str(err.value)


def test_minus_inf_particles_tolerated_when_any_survive():
    def model(ctx):
        x = ctx.sample("x", Uniform(0.0, 1.0))
        ctx.observe("y", Uniform(0.0, 0.5), x)
        ctx.predict("x", x)

    ps = sis_infer(model, {}, 64, master_seed=1)
    assert ps.weights.sum() == pytest.approx(1.0)
    dead = ps.weights[np.asarray(ps.log_weights) == -math.inf]
    assert (dead == 0.0).all()


def test_boundary_draws_are_clamped_into_the_support():
    # tiny shapes put most beta draws exactly at 0 or 1; the proposal clamps
    # them inside (-1, 1), so every log q and every weight stays finite
    proposal = FixedProposal({"disc/u:Uniform": ScaledBeta(1e-3, 1e-3, -1.0, 1.0)})
    rejection = simzoo.get_model("rejection_demo").run
    ps = sis_infer(rejection, {"y": 0.5}, 200, proposal, master_seed=1)
    assert np.isfinite(ps.log_weights).all()
    assert np.isfinite(ps.weights).all()
    assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)
    u = [t.entries[-2].value for t in ps.traces]
    assert all(-1.0 < v < 1.0 for v in u)


def test_mixed_finite_and_inf_log_weights_raise():
    traces = [run_model(GAUSSIAN, Mode.GUIDED, i, observation={"y": 0.5}) for i in range(4)]
    traces[2].entries[0].log_q = -math.inf
    for t in traces:
        t.finalize()
    log_weights = [t.log_weight for t in traces]
    assert math.isinf(log_weights[2]) and all(map(math.isfinite, log_weights[:2]))
    with pytest.raises(NonFiniteWeight) as err:
        ParticleSet(traces, np.asarray(log_weights)).normalize()
    assert err.value.particle == 2
    assert err.value.address.rendered == "mu:Normal#0"


def test_nan_log_weight_raises_without_traces():
    with pytest.raises(NonFiniteWeight, match="<unknown>"):
        ParticleSet([], np.array([0.0, math.nan])).normalize()


# ---------------------------------------------------------------------------
# inference correctness


def test_gaussian_posterior_matches_conjugate_oracle():
    ps = sis_infer(GAUSSIAN, {"y": 1.0}, 2000, master_seed=11)
    s = posterior_summary(ps, "mu")
    se = math.sqrt(0.5 / effective_sample_size(ps))
    assert abs(s["mean"] - 0.5) < 3 * se
    assert s["var"] == pytest.approx(0.5, rel=0.15)


def test_estimates_tighten_with_more_particles():
    errs = {}
    for n in (100, 10_000):
        reps = [abs(posterior_summary(sis_infer(GAUSSIAN, {"y": 1.0}, n, master_seed=s),
                                      "mu")["mean"] - 0.5)
                for s in range(20)]
        errs[n] = sum(reps) / len(reps)
    assert errs[10_000] < errs[100] / 3  # sqrt(100) ideal, slack for noise


def test_trace_ids_number_the_particles():
    ps = sis_infer(GAUSSIAN, {"y": 1.0}, 5, master_seed=2)
    assert [t.trace_id for t in ps.traces] == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# threading


def test_thread_count_does_not_change_results():
    base = sis_infer(GAUSSIAN, {"y": 1.0}, 64, master_seed=9, threads=1)
    for threads in (2, 5):
        ps = sis_infer(GAUSSIAN, {"y": 1.0}, 64, master_seed=9, threads=threads)
        assert np.array_equal(np.asarray(ps.log_weights), np.asarray(base.log_weights))
        assert [trace_to_line(t) for t in ps.traces] == [trace_to_line(t) for t in base.traces]


@pytest.mark.parametrize("n_particles, threads", [(0, 1), (-1, 1), (4, 0), (4, -2)])
def test_particle_and_thread_counts_below_one_are_config_errors(n_particles, threads):
    with pytest.raises(ConfigError):
        sis_infer(GAUSSIAN, {"y": 1.0}, n_particles, threads=threads)


# ---------------------------------------------------------------------------
# posterior summaries


def test_summary_of_integer_predict_is_histogram():
    ps = fake_particles([0, 1, 1, 2], np.log([1.0, 1.0, 1.0, 1.0]))
    ps.normalize()
    s = posterior_summary(ps, "x")
    assert s["kind"] == "int"
    assert s["histogram"] == {0: pytest.approx(0.25), 1: pytest.approx(0.5),
                              2: pytest.approx(0.25)}


def test_summary_of_real_predict_frozen_example():
    # cum weights (0.4, 0.5, 0.6, 1.0) over values 1..4:
    #   q05 -> first value, q50 -> 2.0 exactly, q95 interpolates to 3.875
    ps = fake_particles([1.0, 2.0, 3.0, 4.0], np.log([0.4, 0.1, 0.1, 0.4]))
    ps.normalize()
    s = posterior_summary(ps, "x")
    assert s["kind"] == "real"
    assert s["mean"] == pytest.approx(2.5)
    assert s["var"] == pytest.approx(1.85)
    assert s["quantiles"]["0.05"] == pytest.approx(1.0)
    assert s["quantiles"]["0.5"] == pytest.approx(2.0)
    assert s["quantiles"]["0.95"] == pytest.approx(3.875)


def test_summary_quantiles_are_monotone():
    rng = np.random.default_rng(3)
    ps = fake_particles(rng.normal(size=50).tolist(), rng.normal(size=50))
    ps.normalize()
    q = posterior_summary(ps, "x")["quantiles"]
    assert q["0.05"] <= q["0.5"] <= q["0.95"]


def test_missing_predict_raises():
    ps = fake_particles([1.0], [0.0])
    ps.normalize()
    with pytest.raises(MissingPredict):
        posterior_summary(ps, "nope")


def test_mixed_int_float_predicts_summarized_as_real():
    ps = fake_particles([1, 2.5], np.log([1.0, 1.0]))
    ps.normalize()
    assert posterior_summary(ps, "x")["kind"] == "real"
