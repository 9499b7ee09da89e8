import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simppl import simzoo
from simppl.distributions import Normal, ScaledBeta, Uniform
from simppl.errors import (
    AddressFamilyMismatch,
    ConfigError,
    DimensionMismatch,
    DuplicatePredictName,
    ModelExecutionError,
    NestedScopeReuse,
    ParameterError,
    ScopeError,
    ScopeUnderflow,
)
from simppl.runtime import ExecutionContext, FixedProposal, Mode, run_model
from simppl.trace import obj_to_trace, trace_log_weight, trace_to_line

REJECTION = simzoo.get_model("rejection_demo").run
GAUSSIAN = simzoo.get_model("gaussian_unknown_mean").run

# rejection_demo iteration counts by seed, found by scanning the prior;
# frozen so the scope tests exercise known retry patterns
SEED_ONE_SHOT = 0
SEED_FOUR_ITERATIONS = 33


def latents(trace):
    return [e.value for e in trace.entries]


# ---------------------------------------------------------------------------
# modes


def test_guided_requires_observation():
    with pytest.raises(ConfigError):
        ExecutionContext(Mode.GUIDED, 1)


def test_mode_accepts_strings():
    ctx = ExecutionContext("prior", 1)
    assert ctx.mode is Mode.PRIOR


def test_prior_guided_same_seed_same_latents():
    # latent draws use their own child stream, so conditioning must not
    # perturb them when proposals coincide with the prior
    for seed in (1, 2, 3, SEED_FOUR_ITERATIONS):
        prior_tr = run_model(REJECTION, Mode.PRIOR, seed)
        guided_tr = run_model(REJECTION, Mode.GUIDED, seed, observation={"y": 0.3})
        assert latents(guided_tr) == latents(prior_tr)
        assert [e.log_q for e in guided_tr.entries] == [e.log_p for e in guided_tr.entries]


def test_record_commits_the_accepted_subsequence_of_prior():
    for seed in (SEED_ONE_SHOT, 2, 77, SEED_FOUR_ITERATIONS):
        prior_tr = run_model(REJECTION, Mode.PRIOR, seed)
        record_tr = run_model(REJECTION, Mode.RECORD, seed)
        accepted = [e.value for e in prior_tr.entries if e.accepted]
        assert latents(record_tr) == accepted


def test_prior_runs_are_deterministic():
    a = run_model(GAUSSIAN, Mode.PRIOR, 123)
    b = run_model(GAUSSIAN, Mode.PRIOR, 123)
    assert trace_to_line(a) == trace_to_line(b)


def test_gaussian_prior_trace_shape():
    tr = run_model(GAUSSIAN, Mode.PRIOR, 5)
    assert len(tr.entries) == 1
    assert len(tr.observes) == 1
    assert set(tr.predicts) == {"mu"}
    assert tr.length == 1


# ---------------------------------------------------------------------------
# observation plumbing


def test_observe_synthesizes_in_prior_mode():
    tr = run_model(GAUSSIAN, Mode.PRIOR, 5)
    assert tr.observes[0].value is not None
    assert math.isfinite(tr.observes[0].log_likelihood)


def test_observe_values_do_not_depend_on_latent_stream_order():
    # same seed, two models differing only in an extra latent draw: the
    # synthetic observation stream must be unaffected
    def one(ctx):
        ctx.sample("a", Normal(0, 1))
        ctx.observe("y", Normal(0, 1))

    def two(ctx):
        ctx.sample("a", Normal(0, 1))
        ctx.sample("b", Normal(0, 1))
        ctx.observe("y", Normal(0, 1))

    ya = run_model(one, Mode.PRIOR, 9).observes[0].value
    yb = run_model(two, Mode.PRIOR, 9).observes[0].value
    assert ya == yb


def test_guided_observe_without_value_fails():
    def model(ctx):
        ctx.observe("y", Normal(0, 1), ctx.observed("missing"))

    with pytest.raises(ConfigError):
        run_model(model, Mode.GUIDED, 1, observation={"y": 0.0})


def test_observed_returns_none_unconditioned():
    ctx = ExecutionContext(Mode.PRIOR, 1)
    assert ctx.observed("anything") is None


# ---------------------------------------------------------------------------
# rejection scopes


def test_record_trace_length_is_retry_invariant():
    for seed in (SEED_ONE_SHOT, 2, 77, SEED_FOUR_ITERATIONS):
        tr = run_model(REJECTION, Mode.RECORD, seed)
        assert tr.length == 2
        assert all(e.accepted for e in tr.entries)
        assert all(e.iteration == 0 for e in tr.entries)
        assert [e.address.instance for e in tr.entries] == [0, 0]


def test_guided_keeps_rejected_draws_with_flags():
    tr = run_model(REJECTION, Mode.GUIDED, SEED_FOUR_ITERATIONS, observation={"y": 0.3})
    assert len(tr.entries) == 8
    assert [e.accepted for e in tr.entries] == [False] * 6 + [True] * 2
    assert [e.iteration for e in tr.entries] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [e.scope_id for e in tr.entries] == ["disc"] * 8
    # instance counters keep advancing across retries outside record mode
    assert [e.address.instance for e in tr.entries] == [0, 0, 1, 1, 2, 2, 3, 3]


class CountingProposal:
    def __init__(self, mapping):
        self.inner = FixedProposal(mapping)
        self.calls = []

    def proposal_for(self, address, prev_value, prior):
        self.calls.append(address.rendered)
        return self.inner.proposal_for(address, prev_value, prior)


# seeds that retry when the draws come from the biased Beta proposals
# (the prior-mode retry seeds no longer apply once proposals change the draws)
SEED_BIASED_BOTH_RETRIES = 18
SEED_BIASED_U_RETRIES = 19


def test_guided_caches_proposals_across_retries():
    src = CountingProposal({
        "disc/u:Uniform": ScaledBeta(2.0, 2.0, -1.0, 1.0),
        "disc/v:Uniform": ScaledBeta(2.0, 2.0, -1.0, 1.0),
    })
    tr = run_model(REJECTION, Mode.GUIDED, SEED_BIASED_BOTH_RETRIES,
                   observation={"y": 0.3}, proposal_source=src)
    # two iterations executed, but the source is consulted only on the first
    assert len(tr.entries) == 4
    assert src.calls == ["disc/u:Uniform#0", "disc/v:Uniform#0"]


def test_all_draws_contribute_to_the_weight():
    src = FixedProposal({"disc/u:Uniform": ScaledBeta(2.0, 2.0, -1.0, 1.0)})
    tr = run_model(REJECTION, Mode.GUIDED, SEED_BIASED_U_RETRIES,
                   observation={"y": 0.3}, proposal_source=src)
    assert len(tr.entries) == 4
    manual = math.fsum([o.log_likelihood for o in tr.observes]
                       + [e.log_p - e.log_q for e in tr.entries])
    assert tr.log_weight == pytest.approx(manual, abs=1e-12)
    # the biased u draws, rejected ones included, carry nonzero ratios
    ratios = [e.log_p - e.log_q for e in tr.entries if not e.accepted]
    assert any(r != 0.0 for r in ratios)


def test_proposal_fallbacks_counted_per_address():
    src = FixedProposal({"disc/u:Uniform": ScaledBeta(2.0, 2.0, -1.0, 1.0)})
    tr = run_model(REJECTION, Mode.GUIDED, SEED_ONE_SHOT, observation={"y": 0.3},
                   proposal_source=src)
    # v has no entry in the mapping
    assert tr.proposal_fallbacks == 1


def test_scope_misuse_raises():
    def retry_outside(ctx):
        ctx.scope_retry()

    def end_without_begin(ctx):
        ctx.scope_end()

    def reuse_active_id(ctx):
        with ctx.rejection_scope("s"):
            with ctx.rejection_scope("s"):
                pass

    def left_open(ctx):
        ctx.scope_begin("s")

    with pytest.raises(ScopeUnderflow):
        run_model(retry_outside, Mode.PRIOR, 1)
    with pytest.raises(ScopeUnderflow):
        run_model(end_without_begin, Mode.PRIOR, 1)
    with pytest.raises(NestedScopeReuse):
        run_model(reuse_active_id, Mode.PRIOR, 1)
    with pytest.raises(ScopeError):
        run_model(left_open, Mode.PRIOR, 1)


def test_rejection_scope_closes_when_body_raises():
    ctx = ExecutionContext(Mode.PRIOR, 1)
    with pytest.raises(ValueError, match="inside the scope"):
        with ctx.rejection_scope("s"):
            ctx.sample("u", Uniform(0.0, 1.0))
            raise ValueError("inside the scope")
    assert ctx._scopes == []
    assert ctx._path == ()


def test_scope_id_reusable_sequentially():
    def model(ctx):
        for _ in range(2):
            with ctx.rejection_scope("s"):
                ctx.sample("x", Normal(0, 1))

    tr = run_model(model, Mode.PRIOR, 1)
    assert [e.address.rendered for e in tr.entries] == ["s/x:Normal#0", "s/x:Normal#1"]


def test_nested_distinct_scopes_extend_the_path():
    def model(ctx):
        with ctx.rejection_scope("outer"):
            with ctx.rejection_scope("inner"):
                ctx.sample("x", Normal(0, 1))

    tr = run_model(model, Mode.PRIOR, 1)
    assert tr.entries[0].address.rendered == "outer/inner/x:Normal#0"
    assert tr.entries[0].scope_id == "inner"


def test_record_rollback_restores_counters_of_inner_sites():
    # a site sampled before the scope keeps its count across rollbacks and
    # the retried site reuses instance 0 after the rollback
    def model(ctx):
        ctx.sample("pre", Normal(0, 1))
        with ctx.rejection_scope("s"):
            attempts = 0
            while True:
                ctx.sample("x", Normal(0, 1))
                attempts += 1
                if attempts < 3:
                    ctx.scope_retry()
                else:
                    break
        ctx.sample("post", Normal(0, 1))

    tr = run_model(model, Mode.RECORD, 3)
    rendered = [e.address.rendered for e in tr.entries]
    assert rendered == ["pre:Normal#0", "s/x:Normal#0", "post:Normal#0"]

    # the same program outside record mode keeps all three attempts
    tr = run_model(model, Mode.PRIOR, 3)
    rendered = [e.address.rendered for e in tr.entries]
    assert rendered == ["pre:Normal#0", "s/x:Normal#0", "s/x:Normal#1",
                        "s/x:Normal#2", "post:Normal#0"]


# Scope plans for the property test below: (scope_id, iterations), where every
# iteration is a body of site ids and inner plans, all but the last rejected.
# The scope id is the nesting depth, so siblings reuse an id and nests do not.
_PLAN_SITES = st.sampled_from(["a", "b"])


def _scope_plans(depth=0):
    item = _PLAN_SITES if depth == 2 else _PLAN_SITES | st.deferred(lambda: _scope_plans(depth + 1))
    body = st.lists(item, max_size=3)
    return st.tuples(st.just(f"s{depth}"), st.lists(body, min_size=1, max_size=3))


def _run_plan(ctx, body):
    for item in body:
        if isinstance(item, str):
            ctx.sample(item, Normal(0, 1))
            continue
        scope_id, iterations = item
        with ctx.rejection_scope(scope_id):
            for k, inner in enumerate(iterations):
                _run_plan(ctx, inner)
                if k < len(iterations) - 1:
                    ctx.scope_retry()


def _plan_executions(body, record):
    """(scope_id, retries) in exit order; record mode drops what ran inside
    rejected iterations."""
    out = []
    for item in body:
        if isinstance(item, str):
            continue
        scope_id, iterations = item
        kept = iterations[-1:] if record else iterations
        for inner in kept:
            out += _plan_executions(inner, record)
        out.append((scope_id, len(iterations) - 1))
    return out


@settings(max_examples=100, deadline=None)
@given(plan=st.lists(_PLAN_SITES | _scope_plans(), max_size=4), seed=st.integers(0, 2**32 - 1))
def test_scope_executions_match_the_program_in_every_mode(plan, seed):
    for mode in Mode:
        observation = {} if mode is Mode.GUIDED else None
        tr = run_model(lambda ctx: _run_plan(ctx, plan), mode, seed, observation=observation)
        want = _plan_executions(plan, mode is Mode.RECORD)
        assert tr.scope_executions == want
        assert obj_to_trace(json.loads(trace_to_line(tr))).scope_executions == want


# ---------------------------------------------------------------------------
# statement errors


def test_duplicate_predict_rejected():
    def model(ctx):
        ctx.predict("p", 1.0)
        ctx.predict("p", 2.0)

    with pytest.raises(DuplicatePredictName):
        run_model(model, Mode.PRIOR, 1)


def test_family_mismatch_detected_at_reused_slot():
    def model(ctx):
        ctx.sample("x", Normal(0, 1))
        ctx.sample("x", Uniform(0, 1))

    def batched(ctx):
        ctx.sample("x", Uniform(0, 1))
        ctx.observe_normal_many(["w", "x"], [0.0, 0.0], [1.0, 1.0])

    for m in (model, batched):
        with pytest.raises(AddressFamilyMismatch):
            run_model(m, Mode.PRIOR, 1)


def test_model_bug_wrapped_with_last_address():
    def model(ctx):
        ctx.sample("mu", Normal(0, 1))
        raise KeyError("simulated bug")

    with pytest.raises(ModelExecutionError) as err:
        run_model(model, Mode.PRIOR, 1)
    assert "mu:Normal#0" in str(err.value)


def test_model_bug_before_any_statement():
    def model(ctx):
        raise RuntimeError("early")

    with pytest.raises(ModelExecutionError):
        run_model(model, Mode.PRIOR, 1)


# ---------------------------------------------------------------------------
# fixed proposal sources


def test_fixed_proposal_callable_values():
    src = FixedProposal({"mu:Normal": lambda prior: Normal(prior.mu + 1.0, prior.sigma)})
    tr = run_model(GAUSSIAN, Mode.GUIDED, 4, observation={"y": 1.0}, proposal_source=src)
    e = tr.entries[0]
    assert e.log_q == pytest.approx(Normal(1.0, 1.0).log_prob(e.value))
    assert e.log_p == pytest.approx(Normal(0.0, 1.0).log_prob(e.value))


def test_finalized_weight_matches_arithmetic_on_gaussian():
    tr = run_model(GAUSSIAN, Mode.GUIDED, 4, observation={"y": 1.0})
    assert tr.log_weight == pytest.approx(tr.observes[0].log_likelihood)


# ---------------------------------------------------------------------------
# batched Normal observe

SITES = ["a", "b", "c", "d", "e"]
finite = st.floats(-1e3, 1e3)


def _observe_block(batched, pre, sites, mu, sigma, values):
    """Body observing `pre` with scalar observes, then `sites` either in one
    batched statement or in the equivalent loop of scalar observes."""

    def body(ctx):
        for s in pre:
            ctx.observe(s, Normal(0.5, 2.0), None if values is None else 1.25)
        if batched:
            ctx.observe_normal_many(sites, np.array(mu), np.array(sigma), values)
        else:
            for i, s in enumerate(sites):
                v = None if values is None else float(values[i])
                ctx.observe(s, Normal(mu[i], sigma[i]), v)

    return body


def _bits(x):
    return float(x).hex()


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["prior", "record", "guided"]),
    seed=st.integers(0, 2**32 - 1),
    sites=st.lists(st.sampled_from(SITES), max_size=6),
    pre=st.lists(st.sampled_from(SITES), max_size=3),
    retries=st.none() | st.integers(0, 2),
    data=st.data(),
)
def test_observe_normal_many_matches_scalar_loop(mode, seed, sites, pre, retries, data):
    # pre-occupied or repeated sites take extend's fallback; a record-mode
    # scope with retries rolls the batched slots back before the next pass
    n = len(sites)
    mu = data.draw(st.lists(finite, min_size=n, max_size=n))
    sigma = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    values = None
    if mode == "guided":
        values = data.draw(st.lists(finite | st.integers(-5, 5), min_size=n, max_size=n))

    def run(batched):
        ctx = ExecutionContext(mode, seed, observation={} if mode == "guided" else None)
        body = _observe_block(batched, pre, sites, mu, sigma, values)
        if retries is None:
            body(ctx)
        else:
            with ctx.rejection_scope("scope"):
                for _ in range(retries):
                    body(ctx)
                    ctx.scope_retry()
                body(ctx)
        return ctx

    want, got = run(False), run(True)
    rows = [[(o.address.rendered, _bits(o.log_likelihood), type(o.value), _bits(o.value))
             for o in ctx.trace.observes] for ctx in (want, got)]
    assert rows[1] == rows[0]
    assert _bits(trace_log_weight(got.trace)) == _bits(trace_log_weight(want.trace))
    assert got.counters.snapshot() == want.counters.snapshot()
    assert got.obs_rng.random() == want.obs_rng.random()
    if values is not None:
        # guided entries hold the observation's own float objects
        batch = got.trace.observes[-n:] if n else []
        for o, v in zip(batch, values):
            assert type(v) is not float or o.value is v


BAD_PARAMS = {
    "mu nan": ("mu", math.nan),
    "mu inf": ("mu", -math.inf),
    "sigma zero": ("sigma", 0.0),
    "sigma negative": ("sigma", -1.0),
    "sigma inf": ("sigma", math.inf),
    "sigma nan": ("sigma", math.nan),
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
    faults=st.lists(st.sampled_from(sorted(BAD_PARAMS)), min_size=1, max_size=3),
)
def test_observe_normal_many_names_first_bad_parameter(n, data, faults):
    sites = [f"s{i}" for i in range(n)]
    params = {"mu": [0.0] * n, "sigma": [1.0] * n}
    at = data.draw(st.lists(st.integers(0, n - 1), min_size=len(faults), max_size=len(faults)))
    for fault, i in zip(faults, at):
        name, value = BAD_PARAMS[fault]
        params[name][i] = value
    ctx = ExecutionContext(Mode.PRIOR, 1)
    with pytest.raises(ParameterError, match=f" at s{min(at)}:"):
        ctx.observe_normal_many(sites, params["mu"], params["sigma"])
    # the loop of scalar observes fails at the same site
    with pytest.raises(ParameterError):
        Normal(params["mu"][min(at)], params["sigma"][min(at)])


@pytest.mark.parametrize(
    "mu_len, sigma_len, values_len, named",
    [(2, 3, None, "s2"), (3, 1, None, "s1"), (3, 3, 0, "s0"), (3, 3, 4, "s2"), (4, 3, 3, "s2")],
)
def test_observe_normal_many_length_mismatch(mu_len, sigma_len, values_len, named):
    ctx = ExecutionContext(Mode.PRIOR, 1)
    values = None if values_len is None else [0.0] * values_len
    with pytest.raises(DimensionMismatch, match=f" at {named}:"):
        ctx.observe_normal_many(["s0", "s1", "s2"], [0.0] * mu_len, [1.0] * sigma_len, values)
    assert ctx.trace.observes == []


def test_observe_normal_many_guided_requires_values():
    ctx = ExecutionContext(Mode.GUIDED, 1, observation={})
    with pytest.raises(ConfigError, match="obs/c0:Normal#0"):
        with ctx.rejection_scope("obs"):
            ctx.observe_normal_many(["c0", "c1"], [0.0, 1.0], [1.0, 1.0])
