import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simppl import net, runtime, simzoo, sis
from simppl import trace as trace_mod
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
from simppl.runtime import (
    ExecutionContext,
    FixedProposal,
    Mode,
    derived_seed,
    run_batch,
    run_model,
)
from simppl.trace import column_list, obj_to_trace, trace_log_weight, trace_to_line

REJECTION = simzoo.get_model("rejection_demo").run
GAUSSIAN = simzoo.get_model("gaussian_unknown_mean").run
TAU_NET = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "benchmark", "inputs", "tau_net.json")

# rejection_demo iteration counts by seed, found by scanning the prior;
# frozen so the scope tests exercise known retry patterns
SEED_ONE_SHOT = 0
SEED_FOUR_ITERATIONS = 33
CHUNK = runtime._CHUNK


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
# seeded batches


def test_run_batch_seeds_run_i_from_the_key():
    batch = list(run_batch(REJECTION, Mode.RECORD, 5, 4, 2, 7))
    assert [t.trace_id for t in batch] == [0, 1, 2, 3]
    for i, trace in enumerate(batch):
        alone = run_model(REJECTION, Mode.RECORD, derived_seed(5, 2, 7, i))
        alone.trace_id = i
        assert trace_to_line(trace) == trace_to_line(alone)


def test_run_batch_runs_lazily():
    calls = []

    def model(ctx):
        calls.append(ctx.sample("x", Normal(0.0, 1.0)))

    batch = run_batch(model, Mode.PRIOR, 0, 1000)
    assert calls == []
    next(batch)
    assert len(calls) == 1


@pytest.mark.parametrize("master_seed, error, message", [
    # None would give every run fresh OS entropy, so two identical batches would differ
    (None, ConfigError, "master_seed must be a non-negative int or a sequence of them"),
    (-1, ConfigError, "master_seed must be .*, got -1$"),
    (1.5, ConfigError, "master_seed must be .*, got 1.5$"),
    ([3, -2], ConfigError, r"master_seed must be .*, got \[3, -2\]$"),
    (["5"], ConfigError, r"master_seed must be .*, got \['5'\]$"),  # SeedSequence parses it
    ("5", ConfigError, "master_seed must be .*, got '5'$"),
])
def test_run_batch_checks_the_master_seed_at_the_first_next(master_seed, error, message):
    batch = run_batch(GAUSSIAN, Mode.PRIOR, master_seed, 3)
    with pytest.raises(error, match=message):
        next(batch)


def test_batch_seeds_spawn_and_generate_the_state_of_the_seed_sequence_they_stand_for():
    def model(ctx):
        ctx.predict("states", [
            [child.bit_generator.state for child in rng.spawn(2) + rng.spawn(1)]
            + [rng.bit_generator.seed_seq.generate_state(8, np.uint32).tolist(),
               rng.bit_generator.seed_seq.generate_state(2).tolist(), rng.random()]
            for rng in (ctx.rng, ctx.obs_rng)])

    for mode in (Mode.PRIOR, Mode.GUIDED):
        batch = run_batch(model, mode, 2**33 + 7, CHUNK + 2, 4, observation={})
        want = [run_model(model, mode, derived_seed(2**33 + 7, 4, i), observation={})
                for i in range(CHUNK + 2)]
        assert [t.predicts for t in batch] == [t.predicts for t in want]


def test_run_batch_streams_are_the_children_of_derived_seed_across_chunks():
    states = []

    def model(ctx):
        states.append([ctx.rng.bit_generator.state, ctx.obs_rng.bit_generator.state])

    assert len(list(run_batch(model, Mode.PRIOR, 2**40 + 1, 2 * CHUNK + 1, 3))) == 2 * CHUNK + 1
    assert states == [[np.random.default_rng(s).bit_generator.state
                       for s in derived_seed(2**40 + 1, 3, i).spawn(2)]
                      for i in range(2 * CHUNK + 1)]


def test_one_seed_function_under_every_name():
    assert sis.particle_seed is derived_seed
    assert net._derived_seed is derived_seed
    assert derived_seed(3, 1, 4).spawn_key == (1, 4)


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

    with pytest.raises(ConfigError, match="observe at y:Normal#0 has no value"):
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


def _observe_block(how, pre, sites, mu, sigma, values):
    """Body observing `pre` with scalar observes, then `sites` in one batched
    statement ("many") or in the equivalent loop of scalar observes ("loop")."""

    def body(ctx):
        for s in pre:
            ctx.observe(s, Normal(0.5, 2.0), None if values is None else 1.25)
        if how == "many":
            ctx.observe_normal_many(sites, np.array(mu), np.array(sigma), values)
        else:
            for i, s in enumerate(sites):
                ctx.observe(s, Normal(mu[i], sigma[i]), None if values is None else values[i])

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

    def run(how):
        ctx = ExecutionContext(mode, seed, observation={} if mode == "guided" else None)
        body = _observe_block(how, pre, sites, mu, sigma, values)
        if retries is None:
            body(ctx)
        else:
            with ctx.rejection_scope("scope"):
                for _ in range(retries):
                    body(ctx)
                    ctx.scope_retry()
                body(ctx)
        return ctx

    want, got = run("loop"), run("many")
    rows = [[(o.address.rendered, _bits(o.log_likelihood), type(o.value), _bits(o.value))
             for o in ctx.trace.observes] for ctx in (want, got)]
    assert rows[1] == rows[0]
    assert _bits(trace_log_weight(got.trace)) == _bits(trace_log_weight(want.trace))
    assert got.counters.snapshot() == want.counters.snapshot()
    assert got._last_address == want._last_address
    assert got.obs_rng.random() == want.obs_rng.random()
    if values is not None:
        # guided blocks hold the observation's own list, ints as well as floats
        assert not n or got.trace.observe_blocks[-1][2] is values
        batch = got.trace.observes[-n:] if n else []
        for o, v in zip(batch, values):
            assert o.value is v


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
    # a chunk checks its (runs, cells) parameters once, naming the same site
    chunk = runtime._Chunk([np.random.SeedSequence(1)] * 2)
    with pytest.raises(ParameterError, match=f" at s{min(at)}:"):
        chunk.observe_normal_many(sites, [[0.0] * n, params["mu"]], [[1.0] * n, params["sigma"]])
    assert chunk.observes == []
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
    if values is None:  # a chunk takes no values; its rows are runs
        chunk = runtime._Chunk([np.random.SeedSequence(1)] * 2)
        with pytest.raises(DimensionMismatch, match=f" at {named}:"):
            chunk.observe_normal_many(["s0", "s1", "s2"], [[0.0] * mu_len] * 2,
                                      [[1.0] * sigma_len] * 2)
        assert chunk.observes == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    mu=st.lists(st.floats(-1e6, 1e6), max_size=300),
    data=st.data(),
)
def test_normal_cells_are_generator_normal_bit_for_bit(seed, mu, data):
    sigma = data.draw(st.lists(st.floats(1e-6, 1e6), min_size=len(mu), max_size=len(mu)))
    mu, sigma = np.array(mu), np.array(sigma)
    want = np.random.default_rng(seed).normal(mu, sigma)
    got = runtime.normal_cells([np.random.default_rng(seed)], mu[None], sigma[None])
    assert got.shape == (1, len(mu)) and got[0].tobytes() == want.tobytes()


def test_observe_normal_many_guided_requires_values():
    ctx = ExecutionContext(Mode.GUIDED, 1, observation={})
    with pytest.raises(ConfigError, match="observe at obs/c0:Normal#0 has no value"):
        with ctx.rejection_scope("obs"):
            ctx.observe_normal_many(["c0", "c1"], [0.0, 1.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# seed streams and columnar observe blocks


def test_reusing_a_seed_sequence_repeats_the_run():
    ss = np.random.SeedSequence(7)
    first = run_model(GAUSSIAN, Mode.PRIOR, ss)
    second = run_model(GAUSSIAN, Mode.PRIOR, ss)
    assert trace_to_line(second) == trace_to_line(first)
    assert second.observes[0].value == first.observes[0].value
    assert ss.n_children_spawned == 0


@pytest.mark.parametrize("seed", [0, 7, derived_seed(3, 1, 4)])
def test_streams_are_the_children_spawn_makes(seed):
    ctx = ExecutionContext(Mode.PRIOR, seed)
    fresh = np.random.SeedSequence(seed) if isinstance(seed, int) else derived_seed(3, 1, 4)
    latent, obs = (np.random.default_rng(s) for s in fresh.spawn(2))
    assert ctx.rng.random(4).tolist() == latent.random(4).tolist()
    assert ctx.obs_rng.random(4).tolist() == obs.random(4).tolist()


_WORD = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(
    master_seed=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64) | st.integers(2**64, 2**128)
    | st.integers(2**128, 2**200) | st.lists(_WORD | st.integers(2**64, 2**100), max_size=6),
    key=st.lists(_WORD, max_size=3),
    start=st.sampled_from([0, CHUNK, 3 * CHUNK, 2**32]).flatmap(
        lambda border: st.integers(max(0, border - CHUNK - 2), border + 2)),
    length=st.integers(1, CHUNK + 3),
)
@example(master_seed=5, key=[1], start=2**32 - 2, length=4)  # a range that crosses 2**32
def test_seed_words_are_the_words_seed_sequence_generates(master_seed, key, start, length):
    # the guard against a change in numpy's SeedSequence: run_batch seeds every run from
    # these words and never builds the SeedSequences they stand for
    words = runtime._seed_words(master_seed, tuple(key))(start, start + length)
    assert words.shape == (length, 2, 4)
    for r, i in enumerate(range(start, start + length)):
        for k in (0, 1):
            want = np.random.SeedSequence(master_seed, spawn_key=(*key, i, k))
            assert words[r, k].tolist() == want.generate_state(4, np.uint64).tolist()
            # PCG64 reads the row's buffer: a strided view of equal values seeds other states
            assert words[r, k].flags.c_contiguous
            run_seed = runtime._RunSeed(words[r], (master_seed, tuple(key)), i)
            got = np.random.default_rng(runtime._stream(run_seed, k))
            stream = runtime._stream(derived_seed(master_seed, *key, i), k)
            assert got.bit_generator.state == np.random.default_rng(stream).bit_generator.state


def test_a_guided_batch_builds_no_observation_stream(monkeypatch):
    built = []
    stream = runtime._stream

    def counted(seed, k):
        built.append(k)
        return stream(seed, k)

    spec = simzoo.get_model("tau_decay_toy")
    obs, _ = simzoo.make_observation("tau_decay_toy", 3)
    monkeypatch.setattr(runtime, "_stream", counted)
    assert len(list(run_batch(spec.run, Mode.GUIDED, 4, 5, observation=obs))) == 5
    assert built == [0] * 5
    built.clear()
    assert len(list(run_batch(spec.run, Mode.RECORD, 4, 5))) == 5
    assert built == [0] * 5 + [1] * 5


def test_guided_runs_build_no_observation_stream():
    obs, _ = simzoo.make_observation("tau_decay_toy", 3)
    ctx = ExecutionContext(Mode.GUIDED, 1, observation=obs)
    simzoo.get_model("tau_decay_toy").run(ctx)
    assert "obs_rng" not in vars(ctx)


def _count_observe_entries(monkeypatch):
    """Count ObserveEntry constructions; only the trace's observes view builds them."""
    built = [0]
    real = trace_mod.ObserveEntry

    def counting(*args, **kwargs):
        built[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(trace_mod, "ObserveEntry", counting)
    return built


def test_tau_runs_build_no_observe_entries(monkeypatch):
    spec = simzoo.get_model("tau_decay_toy")
    obs, _ = simzoo.make_observation("tau_decay_toy", 23)
    proposal = net.TrainedProposal(net.load_net(TAU_NET), spec.obs_to_vector(obs))
    built = _count_observe_entries(monkeypatch)
    guided = sis.sis_infer(spec.run, obs, 20, proposal_source=proposal, master_seed=3).traces
    record = list(run_batch(spec.run, Mode.RECORD, 4, 5))
    net._trace_obs_vector(record[0])
    assert built[0] == 0
    views = [trace.observes for trace in guided + record]
    assert built[0] == 196 * 25
    for trace, observes in zip(guided + record, views):
        terms = [o.log_likelihood for o in observes]
        terms += [e.log_p - e.log_q for e in trace.entries]
        assert trace.log_weight.hex() == math.fsum(terms).hex()
        assert net._trace_obs_vector(trace).tolist() == [o.value for o in observes]
    # guided entries hold the observation's own float objects
    assert all(o.value is v for o, v in zip(views[0], obs["cells"]))


CELLS = [f"c{i}" for i in range(196)]  # as many as a tau calorimeter image


def _batch_then(statement):
    """Model observing every cell in one batched statement, then `statement`:
    a rejection scope holding one sample, or a scalar observe."""

    def model(ctx):
        ctx.observe_normal_many(CELLS, [0.0] * 196, [1.0] * 196, ctx.observed("cells"))
        if statement == "scope":
            with ctx.rejection_scope("s"):
                ctx.sample("x", Uniform(0.0, 1.0))
        else:
            ctx.observe("y", Normal(0.0, 1.0), ctx.observed("y"))

    return model


@pytest.mark.parametrize("statement", ["scope", "observe"])
@pytest.mark.parametrize("mode", ["prior", "record", "guided"])
def test_statements_after_a_batched_observe_build_no_entries(monkeypatch, mode, statement):
    built = _count_observe_entries(monkeypatch)
    observation = {"cells": [0.5] * 196, "y": 0.25} if mode == "guided" else None
    trace = run_model(_batch_then(statement), mode, 1, observation=observation)
    assert built[0] == 0
    assert len(trace.observes) == 196 + (statement == "observe")


def _mixed_scope_model(plan, retries, read_at):
    """Record-mode body mixing scalar and batched observes around a rejection
    scope whose first `retries` iterations are rejected; with read_at set,
    it reads ctx.trace.observes before that statement of every iteration."""

    def body(ctx):
        ctx.observe_normal_many(["p0", "p1"], [0.0, 1.0], [1.0, 2.0])
        with ctx.rejection_scope("s"):
            for attempt in range(retries + 1):
                for i, kind in enumerate(plan + ["end"]):
                    if i == read_at:
                        assert len(ctx.trace.observes) >= 2
                    if kind == "scalar":
                        ctx.observe(f"o{i}", Normal(0.5, 1.5))
                    elif kind == "batch":
                        ctx.observe_normal_many([f"b{i}", f"c{i}"], [0.0, 1.0], [1.0, 0.5])
                ctx.sample("x", Uniform(0.0, 1.0))
                if attempt < retries:
                    ctx.scope_retry()
        ctx.observe("post", Normal(0.0, 1.0))

    return body


@settings(max_examples=80, deadline=None)
@given(
    plan=st.lists(st.sampled_from(["scalar", "batch"]), max_size=4),
    retries=st.integers(0, 2),
    read_at=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_reading_observes_mid_scope_commits_the_same_trace(plan, retries, read_at, seed):
    want = run_model(_mixed_scope_model(plan, retries, None), Mode.RECORD, seed)
    got = run_model(_mixed_scope_model(plan, retries, read_at), Mode.RECORD, seed)
    assert trace_to_line(got) == trace_to_line(want)
    assert [o.value for o in got.observes] == [o.value for o in want.observes]


# ---------------------------------------------------------------------------
# vectorised bodies in run_batch

ALT_TAU = simzoo.TauToyConfig(
    n_channels=2, channel_prior=(0.6, 0.4), grid=(2, 3, 5), momentum_scale=5.0,
    noise_sigma=0.5, depth_profiles=((0.8, 0.2), (0.3, 0.7)), channel_kinds=("em", "had"),
    theta_max=0.4, lever_arm=1.0, spot_sigma=0.8,
)


def _scalar(model):
    """model's scalar body alone: a plain callable carrying no vectorised body."""
    return lambda ctx: model(ctx)


def _with_many(model, many):
    """model carrying many as its vectorised body."""
    run = _scalar(model)
    run.many = many
    return run


def _exact(trace):
    """Every field of a trace, floats and arrays as their bytes."""
    entries = [(e.address, e.params, type(e.value), repr(e.value), repr(e.log_p), repr(e.log_q),
                e.scope_id, e.iteration, e.accepted) for e in trace.entries]
    blocks = [(addrs, np.asarray(ll).tobytes(), np.asarray(v).tobytes())
              for addrs, ll, v in trace.observe_blocks]
    return (entries, blocks, repr(sorted(trace.predicts.items())), trace.log_weight.hex(),
            trace.trace_id, trace.scope_executions, trace.proposal_fallbacks)


@settings(max_examples=30, deadline=None)
@given(
    master_seed=st.integers(0, 2**63),
    key=st.lists(st.integers(0, 2**32 - 1), max_size=2),
    n=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 3])
    | st.integers(1, 2 * CHUNK + 3),
    mode=st.sampled_from([Mode.PRIOR, Mode.RECORD]),
    config=st.sampled_from([None, ALT_TAU]),
)
def test_vectorised_tau_batches_equal_the_scalar_runs(master_seed, key, n, mode, config):
    spec = simzoo.get_model("tau_decay_toy", config)
    want = [_exact(t) for t in run_batch(_scalar(spec.run), mode, master_seed, n, *key)]
    got = [_exact(t) for t in run_batch(spec.run, mode, master_seed, n, *key)]
    assert got == want


@settings(max_examples=12, deadline=None)
@given(
    master_seed=st.integers(0, 2**63),
    n=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2]),
    steps=st.integers(0, 3),
    config=st.sampled_from([None, ALT_TAU]),
)
def test_training_from_chunk_columns_equals_training_from_scalar_traces(master_seed, n, steps,
                                                                         config):
    spec = simzoo.get_model("tau_decay_toy", config)
    scalar = dataclasses.replace(spec, run=_scalar(spec.run))

    def trained(spec):
        arch, std = net.discover_architecture(spec, master_seed, n_sims=max(n, 2))
        losses = []
        cfg = net.TrainingConfig(steps=steps, master_seed=master_seed, batch_size=n,
                                 learning_rate=3e-2)
        out = net.train(spec, cfg, arch, std, on_step=lambda step, loss: losses.append(loss))
        return (arch, std.mean.tobytes(), std.std.tobytes(), losses,
                {k: v.tobytes() for k, v in out.params.arrays.items()})

    assert trained(spec) == trained(scalar)


def _capped_uniform(ctx):
    x = ctx.sample("x", Uniform(0.0, 1.0))
    if x > 0.99:
        raise ValueError(f"x = {x} is too large")
    ctx.predict("x", x)


def _capped_uniform_many(chunk):
    xs = chunk.sample("x", Uniform(0.0, 1.0))
    if max(xs) > 0.99:
        raise ValueError("an x is too large")
    chunk.predict("x", xs)


def _failing_many(chunk):
    chunk.sample("x", Uniform(0.0, 1.0))
    raise RuntimeError("vectorised body failed")


def _drain(traces):
    """The JSONL lines of the traces yielded before the error, and the error."""
    lines = []
    try:
        for trace in traces:
            lines.append(trace_to_line(trace))
    except Exception as exc:
        return lines, exc
    return lines, None


def test_a_failing_vectorised_body_raises_the_scalar_error_after_the_same_traces():
    # seed 12: the first run over the cap is run 83, in the second chunk
    want_lines, want = _drain(run_batch(_capped_uniform, Mode.PRIOR, 12, 3 * CHUNK))
    got_lines, got = _drain(run_batch(_with_many(_capped_uniform, _capped_uniform_many),
                                      Mode.PRIOR, 12, 3 * CHUNK))
    assert len(want_lines) == 83
    assert got_lines == want_lines
    assert type(got) is type(want) is ModelExecutionError
    assert str(got) == str(want)
    assert got.address == want.address


def test_a_vectorised_body_failing_where_the_scalar_one_succeeds_raises_its_own_error():
    def model(ctx):
        ctx.predict("x", ctx.sample("x", Uniform(0.0, 1.0)))

    want_lines, _ = _drain(run_batch(model, Mode.RECORD, 4, 2 * CHUNK))
    got_lines, got = _drain(run_batch(_with_many(model, _failing_many), Mode.RECORD, 4,
                                      2 * CHUNK))
    assert got_lines == want_lines[:CHUNK]
    assert type(got) is RuntimeError and str(got) == "vectorised body failed"


def test_a_failed_chunk_runs_again_on_the_same_seeds_without_building_them(monkeypatch):
    def model(ctx):
        ctx.predict("x", ctx.sample("x", Uniform(0.0, 1.0)))
        ctx.observe_normal_many(["y"], [0.0], [1.0])

    chunks = []

    def second_chunk_fails(chunk):
        chunks.append(len(chunk))
        chunk.predict("x", chunk.sample("x", Uniform(0.0, 1.0)))
        chunk.observe_normal_many(["y"], [[0.0]] * len(chunk), [[1.0]] * len(chunk))
        if len(chunks) == 2:
            raise RuntimeError("vectorised body failed")

    want = [_exact(t) for t in run_batch(model, Mode.RECORD, 9, 3 * CHUNK, 2)]
    built = []
    monkeypatch.setattr(runtime, "derived_seed",
                        lambda *args: built.append(args) or derived_seed(*args))
    got = []
    with pytest.raises(RuntimeError, match="vectorised body failed"):
        for trace in run_batch(_with_many(model, second_chunk_fails), Mode.RECORD, 9,
                               3 * CHUNK, 2):
            got.append(_exact(trace))
    assert chunks == [CHUNK, CHUNK]
    assert got == want[:2 * CHUNK]
    assert built == [(9, 2)]  # the one check of the master seed


def test_training_on_a_failing_vectorised_body_raises_the_scalar_error():
    spec = simzoo.get_model("tau_decay_toy")
    arch, std = net.discover_architecture(spec, 1, n_sims=8)
    cfg = net.TrainingConfig(steps=2, master_seed=1, batch_size=8)

    def model(ctx):
        spec.run(ctx)
        if ctx.trace.predicts["channel"] == 1:
            raise ValueError("channel 1")

    def many(chunk):
        spec.run.many(chunk)
        if 1 in chunk.predicts["channel"]:
            raise ValueError("a channel 1")

    with pytest.raises(ModelExecutionError) as want:
        net.train(dataclasses.replace(spec, run=model), cfg, arch, std)
    with pytest.raises(ModelExecutionError) as got:
        net.train(dataclasses.replace(spec, run=_with_many(model, many)), cfg, arch, std)
    assert str(got.value) == str(want.value) and "channel 1" in str(got.value)
    with pytest.raises(RuntimeError, match="vectorised body failed"):
        net.train(dataclasses.replace(spec, run=_with_many(spec.run, _failing_many)), cfg, arch,
                  std)


def test_the_first_trace_of_a_long_batch_runs_one_chunk():
    spec = simzoo.get_model("tau_decay_toy")
    sizes = []

    def counted(chunk):
        sizes.append(len(chunk))
        spec.run.many(chunk)

    first = next(run_batch(_with_many(spec.run, counted), Mode.PRIOR, 1, 10**6))
    assert sizes == [CHUNK]
    assert _exact(first) == _exact(run_model(spec.run, Mode.PRIOR, derived_seed(1, 0)))


def test_guided_and_conditioned_batches_keep_the_scalar_body():
    spec = simzoo.get_model("tau_decay_toy")
    observation, _ = simzoo.make_observation("tau_decay_toy", 2)
    for mode in Mode:
        traces = run_batch(_with_many(spec.run, _failing_many), mode, 3, 2,
                           observation=observation)
        assert [_exact(t) for t in traces] == [
            _exact(t) for t in run_batch(_scalar(spec.run), mode, 3, 2, observation=observation)]


def test_a_model_without_a_vectorised_body_never_reaches_a_chunk(monkeypatch):
    spec = simzoo.get_model("tau_decay_toy")
    want = [_exact(t) for t in run_batch(spec.run, Mode.RECORD, 5, CHUNK + 1)]

    def no_chunks(*args):
        raise AssertionError("a model without model.many reached _run_chunks")

    monkeypatch.setattr(runtime, "_run_chunks", no_chunks)
    for mode in (Mode.PRIOR, Mode.RECORD):
        assert len(list(run_batch(REJECTION, mode, 5, CHUNK + 1))) == CHUNK + 1
    assert [_exact(t) for t in run_batch(_scalar(spec.run), Mode.RECORD, 5, CHUNK + 1)] == want


def test_sis_infer_on_the_tau_spec_keeps_the_scalar_body(monkeypatch):
    spec = simzoo.get_model("tau_decay_toy")
    observation, _ = simzoo.make_observation("tau_decay_toy", 2)
    source = net.TrainedProposal(net.load_net(TAU_NET), spec.obs_to_vector(observation))
    want = sis.sis_infer(_scalar(spec.run), observation, 8, source, master_seed=6)

    def no_chunks(*args):
        raise AssertionError("a guided batch reached _run_chunks")

    monkeypatch.setattr(runtime, "_run_chunks", no_chunks)
    got = sis.sis_infer(spec.run, observation, 8, source, master_seed=6)
    assert [_exact(t) for t in got.traces] == [_exact(t) for t in want.traces]
    assert got.log_weights.tobytes() == want.log_weights.tobytes()


# ---------------------------------------------------------------------------
# observe log-likelihoods and weights of unconditioned runs, computed on first read


def test_training_computes_no_observe_log_likelihood_or_weight(monkeypatch):
    calls = []
    for module, name in ((runtime, "normal_log_probs"), (runtime, "trace_log_weight"),
                         (trace_mod, "trace_log_weight")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    spec = simzoo.get_model("tau_decay_toy")
    net.train(spec, net.TrainingConfig(steps=2, master_seed=3, batch_size=8, learning_rate=1e-2))
    assert calls == []
    trace = next(run_batch(spec.run, Mode.RECORD, 3, 1))
    weight = trace.log_weight
    assert set(calls) == {"normal_log_probs", "trace_log_weight"}
    calls.clear()
    assert trace.log_weight == weight and trace.observes and calls == []


@settings(max_examples=25, deadline=None)
@given(
    master_seed=st.integers(0, 2**64),
    n=st.integers(1, 2 * CHUNK + 12),
    mode=st.sampled_from([Mode.PRIOR, Mode.RECORD]),
    weight_first=st.integers(0, 2**(2 * CHUNK + 12) - 1),
)
def test_deferred_log_likelihoods_and_weights_equal_eager_ones_read_in_any_order(
        master_seed, n, mode, weight_first):
    spec = simzoo.get_model("tau_decay_toy")
    with pytest.MonkeyPatch.context() as patch:  # the reference computes each block at its observe
        patch.setattr(runtime, "_NormalLogLiks", lambda row: runtime.normal_log_probs(*row))
        want = [_exact(t) for t in run_batch(_scalar(spec.run), mode, master_seed, n)]
    got = []
    for i, trace in enumerate(list(run_batch(spec.run, mode, master_seed, n))):
        weight = trace.log_weight.hex() if weight_first >> i & 1 else None  # before the blocks
        got.append(_exact(trace))
        assert weight in (None, got[-1][3])
    assert got == want


_FINITE_OR_MINUS_INF = st.floats(allow_nan=False, allow_infinity=False) | st.just(-math.inf)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["gaussian_unknown_mean", "rejection_demo", "tau_decay_toy"]),
    mode=st.sampled_from(list(Mode)),
    master_seed=st.integers(0, 2**64),
    n=st.integers(1, CHUNK + 2),
    data=st.data(),
)
def test_a_weight_is_computed_on_its_first_read_unless_set_and_survives_jsonl(
        name, mode, master_seed, n, data):
    spec = simzoo.get_model(name)
    observation = source = None
    if mode is Mode.GUIDED:
        observation, _ = simzoo.make_observation(name, 3)
        if name == "tau_decay_toy":  # entries then add log_p - log_q != 0
            source = net.TrainedProposal(net.load_net(TAU_NET), spec.obs_to_vector(observation))
    for trace in run_batch(spec.run, mode, master_seed, n, observation=observation,
                           proposal_source=source):
        set_weight = data.draw(st.none() | _FINITE_OR_MINUS_INF, label="set weight")
        if set_weight is not None:
            trace.log_weight = set_weight
        read_first = data.draw(st.integers(0, len(trace.observe_blocks)), label="blocks read first")
        for _, log_liks, _ in trace.observe_blocks[:read_first]:
            column_list(log_liks)
        weight = trace.log_weight
        computed = trace_log_weight(trace)
        assert weight.hex() == (computed if set_weight is None else set_weight).hex()
        back = obj_to_trace(json.loads(trace_to_line(trace)))
        assert back.log_weight.hex() == weight.hex()


def test_a_nan_mu_in_a_record_batch_raises_parameter_error_at_its_observe():
    reached = []

    def model(ctx):
        x = ctx.sample("x", Uniform(0.0, 1.0))
        ctx.observe_normal_many(["a", "b"], [0.0, math.nan if x > 0.9 else x], [1.0, 1.0])
        reached.append(x)

    def many(chunk):
        xs = chunk.sample("x", Uniform(0.0, 1.0))
        chunk.observe_normal_many(["a", "b"], [[0.0, math.nan if x > 0.9 else x] for x in xs],
                                  [[1.0, 1.0]] * len(chunk))
        reached.extend(xs)

    for body in (model, _with_many(model, many)):
        reached.clear()
        got = []
        with pytest.raises(ParameterError, match=r"observe at b: need finite mu .*mu=nan"):
            for trace in run_batch(body, Mode.RECORD, 5, CHUNK):
                got.append(trace.entries[0].value)
        assert 0 < len(got) < CHUNK and reached == got  # the run at fault stopped at the observe


def test_a_block_computes_from_the_parameters_its_observe_was_given():
    def model(ctx, edit):
        mu, sigma = np.zeros(3), np.ones(3)
        ctx.observe_normal_many(["a", "b", "c"], mu, sigma)
        if edit:
            mu += 5.0
            sigma *= 2.0

    assert (_exact(run_model(lambda ctx: model(ctx, True), Mode.RECORD, 4))
            == _exact(run_model(lambda ctx: model(ctx, False), Mode.RECORD, 4)))


def test_guided_runs_compute_their_log_likelihoods_and_weight_before_they_return(monkeypatch):
    spec = simzoo.get_model("tau_decay_toy")
    obs, _ = simzoo.make_observation("tau_decay_toy", 3)
    traces = list(run_batch(spec.run, Mode.GUIDED, 3, 2, observation=obs))

    def fail(*args):
        raise AssertionError("computed after the run returned")

    for module, name in ((runtime, "normal_log_probs"), (trace_mod, "trace_log_weight")):
        monkeypatch.setattr(module, name, fail)
    assert all(math.isfinite(t.log_weight) and len(t.observes) == 196 for t in traces)
