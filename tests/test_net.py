import functools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simppl import simzoo
from simppl.distributions import (
    Categorical,
    Exponential,
    Normal,
    Poisson,
    Uniform,
    from_params,
    proposal_from_params,
    proposal_nll_grad,
)
from simppl.errors import (
    ConfigError,
    DimensionMismatch,
    MalformedFile,
    NonFiniteLoss,
    SimpplError,
    UnknownHead,
    VersionMismatch,
)
from simppl.net import (
    HeadSpec,
    NetArchitecture,
    NetParams,
    ProposalNetwork,
    Standardization,
    TrainedProposal,
    TrainingConfig,
    _derived_seed,
    discover_architecture,
    glorot_init,
    ic_grad,
    ic_loss,
    load_net,
    save_net,
    train,
)
from simppl.runtime import Mode, run_model
from simppl.sis import particle_seed, sis_infer
from simppl.trace import Address, iter_traces, write_traces

INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmark", "inputs")
GAUSSIAN = simzoo.get_model("gaussian_unknown_mean")
TAU = simzoo.get_model("tau_decay_toy")


def gaussian_net(seed=13, n_sims=64):
    arch, std = discover_architecture(GAUSSIAN, seed, n_sims=n_sims)
    params = glorot_init(arch, _derived_seed(seed, 0))
    return ProposalNetwork(arch=arch, params=params, standardization=std)


def record_batch(spec, n, seed=1000):
    return [run_model(spec.run, Mode.RECORD, particle_seed(seed, i)) for i in range(n)]


# ---------------------------------------------------------------------------
# architecture discovery


def test_discover_tau_architecture():
    arch, std = discover_architecture(TAU, 3, n_sims=32)
    assert arch.obs_dim == 4 * 7 * 7
    heads = {k: (h.family, h.out_dim) for k, h in arch.heads.items()}
    assert heads == {
        "channel:Categorical": ("Categorical", 5),
        "pmag:Exponential": ("Exponential", 2),
        "theta:Uniform": ("Uniform", 2),
        "phi:Uniform": ("Uniform", 2),
    }
    assert std.mean.shape == (196,)
    assert (std.std >= 1e-6).all()


def test_discover_gaussian_architecture():
    arch, _ = discover_architecture(GAUSSIAN, 3, n_sims=16)
    assert arch.obs_dim == 1
    assert set(arch.heads) == {"mu:Normal"}


def test_standardization_floor_on_constant_observations():
    def model(ctx):
        from simppl.distributions import Normal
        ctx.sample("x", Normal(0, 1))
        ctx.observe("y", Normal(0.0, 1e-12))

    spec = simzoo.ModelSpec(
        name="const", run=model,
        obs_to_vector=lambda obs: np.asarray([obs["y"]], dtype=float),
        observation_from_values=lambda v: {"y": float(v[0])},
        config=None,
    )
    _, std = discover_architecture(spec, 1, n_sims=8)
    assert std.std[0] == 1e-6
    assert np.isfinite(std.apply(np.asarray([std.mean[0]]))).all()


def test_discovery_rejects_single_simulation():
    with pytest.raises(ConfigError):
        discover_architecture(GAUSSIAN, 1, n_sims=1)


def one_or_two_cells(ctx):
    n = ctx.sample("n", Categorical((0.5, 0.5)))
    for i in range(n + 1):
        ctx.observe(f"y{i}", Normal(0.0, 1.0), ctx.observed(f"y{i}"))


def test_discovery_rejects_a_model_observing_a_varying_number_of_cells():
    spec = simzoo.ModelSpec(name="varying", run=one_or_two_cells, obs_to_vector=None,
                            observation_from_values=None)
    with pytest.raises(ConfigError, match="varying observation layout"):
        discover_architecture(spec, 1, n_sims=16)


@pytest.mark.parametrize("arch", [
    lambda: NetArchitecture(obs_dim=0),
    lambda: NetArchitecture(obs_dim=1, heads={"mu:Normal": HeadSpec("Normal", 0)}),
], ids=["obs_dim", "head-out_dim"])
def test_architecture_rejects_a_zero_dimension(arch):
    with pytest.raises(ConfigError):
        arch()


# ---------------------------------------------------------------------------
# initialization


def test_glorot_bounds_and_zero_heads():
    net = gaussian_net()
    a = net.params.arrays
    lim_obs = math.sqrt(6.0 / (net.arch.obs_dim + net.arch.obs_embed_dim))
    assert np.abs(a["obs_W"]).max() <= lim_obs
    lim_trunk = math.sqrt(6.0 / (net.arch.trunk_in_dim + net.arch.hidden_dim))
    assert np.abs(a["trunk_W"]).max() <= lim_trunk
    assert (a["head_W::mu:Normal"] == 0).all()
    assert (a["head_b::mu:Normal"] == 0).all()
    assert (a["obs_b"] == 0).all()


def test_zero_heads_give_neutral_proposals():
    from simppl.distributions import Normal
    net = gaussian_net()
    raw = net.raw_from_encoding(net.encode_obs([2.0]), "mu:Normal", 0.0)
    assert raw == pytest.approx([0.0, 0.0])
    q = proposal_from_params(Normal(0, 1), raw)
    assert (q.mu, q.sigma) == (0.0, pytest.approx(math.log(2.0)))


def test_init_is_seed_deterministic():
    a = gaussian_net(seed=5).params.to_vector()
    b = gaussian_net(seed=5).params.to_vector()
    c = gaussian_net(seed=6).params.to_vector()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# forward / loss


def test_forward_unknown_head_raises():
    net = gaussian_net()
    with pytest.raises(UnknownHead):
        net.raw_from_encoding(net.encode_obs([1.0]), "nope:Normal", 0.0)


def test_encode_obs_checks_dimension():
    net = gaussian_net()
    with pytest.raises(DimensionMismatch):
        net.encode_obs(np.asarray([1.0, 2.0]))


def test_guided_tau_rejects_a_non_finite_cell_by_index():
    # before any particle runs, and not as an unaddressed ParameterError later
    with open(os.path.join(INPUTS, "tau_observations.json")) as fh:
        cells = json.load(fh)["observations"][0]["cells"]
    cells[17] = math.nan
    obs = {"cells": cells}
    # the spec names the key first; the vector goes in unchecked to reach encode_obs's own check
    with pytest.raises(ConfigError, match=r"observation cells\[17\] is not finite: nan"):
        TAU.obs_to_vector(obs)
    with pytest.raises(ConfigError, match=r"observation cell 17 is not finite: nan"):
        sis_infer(TAU.run, obs, 10,
                  TrainedProposal(load_net(os.path.join(INPUTS, "tau_net.json")),
                                  np.asarray(cells)))


@functools.cache
def _tau_net_and_cells():
    with open(os.path.join(INPUTS, "tau_observations.json")) as fh:
        observations = json.load(fh)["observations"]
    return load_net(os.path.join(INPUTS, "tau_net.json")), [o["cells"] for o in observations]


_TAU_HEADS = ["channel:Categorical", "pmag:Exponential", "theta:Uniform", "phi:Uniform"]
_PREV_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e6, -1e6]),
                         st.floats(max_value=0.0, allow_infinity=False),
                         st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(obs=st.integers(0, 4), calls=st.lists(st.tuples(st.sampled_from(_TAU_HEADS), _PREV_VALUES),
                                             min_size=1, max_size=12))
def test_a_trained_proposal_is_the_proposal_of_raw_from_encoding_bit_for_bit(obs, calls):
    # proposal_for writes each previous value into a trunk row cached per head; in any order
    # of heads and values it must build what a fresh row through raw_from_encoding gives
    net, cells = _tau_net_and_cells()
    assert sorted(net.arch.heads) == sorted(_TAU_HEADS)
    source = TrainedProposal(net, np.asarray(cells[obs]))
    h_obs = net.encode_obs(np.asarray(cells[obs]))
    priors = dict(simzoo.DEFAULT_TAU_CONFIG.priors)
    for key, prev in calls:
        site, family = key.split(":")
        got = source.proposal_for(Address((site,), family, 0), prev, priors[site])
        raw = net.raw_from_encoding(h_obs, key, prev)
        want = proposal_from_params(priors[site], raw)
        a = net.params.arrays  # the forward pass as written before rows were cached
        x = np.concatenate([h_obs, a[f"embed::{key}"], [prev / (1.0 + abs(prev))]])
        assert raw.tobytes() == (a[f"head_W::{key}"] @ np.tanh(a["trunk_W"] @ x + a["trunk_b"])
                                 + a[f"head_b::{key}"]).tobytes()
        assert type(got) is type(want)
        assert [v.hex() for v in got.params] == [v.hex() for v in want.params]


def test_loss_with_head_frozen_to_prior_equals_prior_nll():
    # zero every weight, then pin the head bias so q is exactly the prior
    # N(0, 1); the loss must equal the mean prior log-density of the draws
    net = gaussian_net()
    for name in net.params.names():
        net.params.arrays[name] = np.zeros_like(net.params.arrays[name])
    net.params.arrays["head_b::mu:Normal"] = np.asarray([0.0, math.log(math.e - 1.0)])
    batch = record_batch(GAUSSIAN, 16)
    expected = -sum(t.entries[0].log_p for t in batch) / len(batch)
    assert ic_loss(net, batch) == pytest.approx(expected, rel=1e-12)


def test_loss_decreases_under_its_own_gradient():
    net = gaussian_net()
    batch = record_batch(GAUSSIAN, 32)
    before = ic_loss(net, batch)
    grad = ic_grad(net, batch)
    net.params.add_scaled(grad, -0.05)
    assert ic_loss(net, batch) < before


def test_gradient_matches_finite_differences():
    net = gaussian_net()
    rng = np.random.default_rng(17)
    for name in net.params.names():
        net.params.arrays[name] = net.params.arrays[name] + rng.normal(
            0.0, 0.05, net.params.arrays[name].shape)
    batch = record_batch(GAUSSIAN, 8)
    grad = ic_grad(net, batch).to_vector()
    pvec = net.params.to_vector()
    h = 1e-5
    coords = rng.choice(pvec.size, size=48, replace=False)
    for c in coords:
        shifted = pvec.copy()
        shifted[c] += h
        net.params.from_vector(shifted)
        up = ic_loss(net, batch)
        shifted[c] -= 2 * h
        net.params.from_vector(shifted)
        dn = ic_loss(net, batch)
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[c]) <= 1e-4 * max(abs(fd), abs(grad[c]), 1e-6)
    net.params.from_vector(pvec)


# ---------------------------------------------------------------------------
# the batched step against a per-entry reference


def all_families(ctx):
    # every prior family; "u" repeats within a trace, and its Uniform bounds
    # depend on earlier draws, so prior parameters vary within one head
    k = ctx.sample("k", Categorical((0.2, 0.3, 0.5)))
    n = ctx.sample("n", Poisson(3.0))
    rate = ctx.sample("rate", Exponential(1.5))
    lo = ctx.sample("lo", Normal(0.0, 1.0))
    total = 0.0
    for _ in range(3):
        total += ctx.sample("u", Uniform(lo, lo + 1.0 + k))
    ctx.observe("y1", Normal(total + n, 1.0), ctx.observed("y1"))
    ctx.observe("y2", Normal(rate, 0.5), ctx.observed("y2"))


ALL_FAMILIES = simzoo.ModelSpec(name="all_families", run=all_families,
                                obs_to_vector=None, observation_from_values=None)


def perturbed_net(spec, seed, scale=0.3, n_sims=64):
    arch, std = discover_architecture(spec, seed, n_sims=n_sims)
    params = glorot_init(arch, _derived_seed(seed, 0))
    rng = np.random.default_rng(seed)
    for name in params.names():
        params.arrays[name] += rng.normal(0.0, scale, params.arrays[name].shape)
    return ProposalNetwork(arch=arch, params=params, standardization=std)


def reference_loss_and_grad(net, batch):
    """One entry at a time: -log q from proposal_from_params(...).log_prob,
    d(-log q)/d raw from proposal_nll_grad, backprop through each entry."""
    arch, a = net.arch, net.params.arrays
    e_dim = arch.obs_embed_dim
    grads = net.params.zeros_like().arrays
    total = 0.0
    for trace in batch:
        obs = net.standardization.apply(np.asarray([o.value for o in trace.observes]))
        h_obs = np.tanh(a["obs_W"] @ obs + a["obs_b"])
        d_h_obs = np.zeros_like(h_obs)
        prev = 0.0
        for entry in trace.entries:
            key = entry.address.head_key
            prior = from_params(entry.address.family_tag, entry.params)
            x = np.concatenate([h_obs, a[f"embed::{key}"], [prev / (1.0 + abs(prev))]])
            hidden = np.tanh(a["trunk_W"] @ x + a["trunk_b"])
            raw = a[f"head_W::{key}"] @ hidden + a[f"head_b::{key}"]
            total -= proposal_from_params(prior, raw).log_prob(entry.value)
            _, d_raw = proposal_nll_grad(prior, raw, entry.value)
            grads[f"head_W::{key}"] += np.outer(d_raw, hidden)
            grads[f"head_b::{key}"] += d_raw
            d_pre = (a[f"head_W::{key}"].T @ d_raw) * (1.0 - hidden * hidden)
            grads["trunk_W"] += np.outer(d_pre, x)
            grads["trunk_b"] += d_pre
            d_x = a["trunk_W"].T @ d_pre
            d_h_obs += d_x[:e_dim]
            grads[f"embed::{key}"] += d_x[e_dim:-1]
            prev = float(entry.value)
        d_pre_obs = d_h_obs * (1.0 - h_obs * h_obs)
        grads["obs_W"] += np.outer(d_pre_obs, obs)
        grads["obs_b"] += d_pre_obs
    n = len(batch)
    return total / n, NetParams({k: v / n for k, v in grads.items()})


@pytest.mark.parametrize("spec,size", [(ALL_FAMILIES, 16), (ALL_FAMILIES, 1), (TAU, 8),
                                       (simzoo.get_model("rejection_demo"), 16)])
def test_batched_step_matches_per_entry_reference(spec, size):
    for seed in range(3):
        net = perturbed_net(spec, seed)
        batch = record_batch(spec, size, seed=500 + seed)
        want_loss, want_grad = reference_loss_and_grad(net, batch)
        assert ic_loss(net, batch) == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        got = ic_grad(net, batch)
        for name in net.params.names():
            diff = np.abs(got.arrays[name] - want_grad.arrays[name]).max()
            assert diff <= 1e-12 * max(np.abs(want_grad.arrays[name]).max(), 1e-300), name


def test_all_families_model_exercises_every_head():
    arch, _ = discover_architecture(ALL_FAMILIES, 1, n_sims=8)
    assert {h.family for h in arch.heads.values()} == {
        "Categorical", "Poisson", "Exponential", "Normal", "Uniform"}
    batch = record_batch(ALL_FAMILIES, 8)
    keys = [e.address.head_key for e in batch[0].entries]
    assert keys.count("u:Uniform") == 3
    bounds = {e.params for t in batch for e in t.entries if e.address.head_key == "u:Uniform"}
    assert len(bounds) == 8


def test_batched_step_unknown_head_raises():
    net = perturbed_net(ALL_FAMILIES, 1)
    del net.arch.heads["n:Poisson"]
    with pytest.raises(UnknownHead, match="n:Poisson"):
        ic_grad(net, record_batch(ALL_FAMILIES, 4))


def test_ic_loss_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="batch must be non-empty"):
        ic_loss(gaussian_net(), [])


def categorical_model(k):
    def model(ctx):
        c = ctx.sample("c", Categorical((1.0 / k,) * k))
        ctx.observe("y", Normal(float(c), 1.0), ctx.observed("y"))
    return simzoo.ModelSpec(name=f"categorical{k}", run=model, obs_to_vector=None,
                            observation_from_values=None)


def test_batched_step_rejects_a_categorical_prior_wider_than_its_head():
    net = perturbed_net(categorical_model(2), 1, n_sims=8)
    with pytest.raises(DimensionMismatch, match="head 'c:Categorical' does not fit prior"):
        ic_loss(net, record_batch(categorical_model(3), 4))


def test_batched_step_rejects_observation_of_wrong_shape():
    net = perturbed_net(ALL_FAMILIES, 1)
    batch = record_batch(ALL_FAMILIES, 4)
    batch[2].observe_blocks.pop()  # its last observe, a one-cell block
    with pytest.raises(DimensionMismatch):
        ic_loss(net, batch)


def test_batched_step_needs_observe_values(tmp_path):
    # observe values are not part of the trace file schema
    net = perturbed_net(ALL_FAMILIES, 1)
    path = tmp_path / "traces.jsonl"
    write_traces(path, record_batch(ALL_FAMILIES, 2))
    with pytest.raises(SimpplError, match="no recorded observe values"):
        ic_loss(net, list(iter_traces(path)))


def on_the_bound(ctx):
    # no float lies strictly inside (1, 1 + ulp): every draw is on a bound,
    # outside the open support of the ScaledBeta proposal
    ctx.sample("u", Uniform(1.0, math.nextafter(1.0, 2.0)))
    ctx.observe("y", Normal(0.0, 1.0), ctx.observed("y"))


def test_value_outside_proposal_support_gives_nonfinite_loss():
    spec = simzoo.ModelSpec(name="bound", run=on_the_bound, obs_to_vector=None,
                            observation_from_values=None)
    net = perturbed_net(spec, 1, n_sims=8)
    assert ic_loss(net, record_batch(spec, 4)) == math.inf
    with pytest.raises(NonFiniteLoss):
        train(spec, TrainingConfig(steps=2, master_seed=1, batch_size=4))


# ---------------------------------------------------------------------------
# parameter containers


def test_params_vector_roundtrip():
    net = gaussian_net()
    vec = net.params.to_vector()
    clone = net.params.zeros_like()
    clone.from_vector(vec)
    for name in net.params.names():
        assert np.array_equal(clone.arrays[name], net.params.arrays[name])


def test_params_vector_rejects_wrong_size():
    net = gaussian_net()
    with pytest.raises(DimensionMismatch):
        net.params.from_vector(np.zeros(3))


def test_global_norm_and_scaling():
    p = NetParams({"a": np.asarray([3.0]), "b": np.asarray([4.0])})
    assert p.global_norm() == pytest.approx(5.0)
    p.scale(0.5)
    assert p.arrays["a"][0] == 1.5
    p.add_scaled(NetParams({"a": np.asarray([1.0]), "b": np.asarray([0.0])}), 2.0)
    assert p.arrays["a"][0] == 3.5
    assert p.all_finite()
    p.arrays["a"][0] = math.nan
    assert not p.all_finite()


# ---------------------------------------------------------------------------
# training


def test_training_is_deterministic():
    cfg = TrainingConfig(steps=20, master_seed=7, batch_size=8)
    a = train(GAUSSIAN, cfg).params.to_vector()
    b = train(GAUSSIAN, cfg).params.to_vector()
    assert np.array_equal(a, b)


def test_training_seed_changes_the_result():
    a = train(GAUSSIAN, TrainingConfig(steps=10, master_seed=1, batch_size=8))
    b = train(GAUSSIAN, TrainingConfig(steps=10, master_seed=2, batch_size=8))
    assert not np.array_equal(a.params.to_vector(), b.params.to_vector())


def test_training_telemetry_and_progress():
    losses = []
    cfg = TrainingConfig(steps=300, master_seed=7, batch_size=16, learning_rate=5e-3)
    train(GAUSSIAN, cfg, on_step=lambda step, loss: losses.append((step, loss)))
    assert [s for s, _ in losses] == list(range(300))
    assert all(math.isfinite(l) for _, l in losses)
    first = sum(l for _, l in losses[:50]) / 50
    last = sum(l for _, l in losses[-50:]) / 50
    assert last < first


def test_zero_steps_returns_initialization():
    cfg = TrainingConfig(steps=0, master_seed=7)
    net = train(GAUSSIAN, cfg)
    assert (net.params.arrays["head_W::mu:Normal"] == 0).all()


def test_divergent_learning_rate_raises_nonfinite():
    # one clipped step at this rate pushes the location parameter past 1e150,
    # so the next squared residual overflows; the guard must catch it rather
    # than let NaNs propagate into the parameters
    cfg = TrainingConfig(steps=5, master_seed=7, batch_size=4, learning_rate=1e160)
    with pytest.raises(NonFiniteLoss):
        train(GAUSSIAN, cfg)


def test_an_update_that_overflows_the_parameters_raises_nonfinite():
    # the loss and the clipped gradient of step 0 are finite; lr times the gradient is not,
    # and the update overflows without a RuntimeWarning (pytest makes one an error)
    cfg = TrainingConfig(steps=3, master_seed=3, batch_size=4, learning_rate=1e308)
    with pytest.raises(NonFiniteLoss, match="step 0: parameters became non-finite"):
        train(GAUSSIAN, cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainingConfig(steps=-1)
    with pytest.raises(ConfigError):
        TrainingConfig(steps=1, batch_size=0)
    with pytest.raises(ConfigError):
        TrainingConfig(steps=1, learning_rate=0.0)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip_is_exact(tmp_path):
    net = train(GAUSSIAN, TrainingConfig(steps=25, master_seed=3, batch_size=8))
    path = tmp_path / "net.json"
    save_net(net, path)
    back = load_net(path)
    assert back.arch == net.arch
    assert np.array_equal(back.standardization.mean, net.standardization.mean)
    assert np.array_equal(back.standardization.std, net.standardization.std)
    for name in net.params.names():
        assert np.array_equal(back.params.arrays[name], net.params.arrays[name])


def test_save_is_byte_deterministic(tmp_path):
    net = train(GAUSSIAN, TrainingConfig(steps=5, master_seed=3, batch_size=8))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_net(net, p1)
    save_net(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_version(tmp_path):
    net = gaussian_net()
    path = tmp_path / "net.json"
    save_net(net, path)
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(VersionMismatch):
        load_net(path)


def test_load_rejects_garbage_and_truncations(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("not json at all")
    with pytest.raises(MalformedFile):
        load_net(path)

    net = gaussian_net()
    save_net(net, path)
    obj = json.loads(path.read_text())
    del obj["params"]["trunk_W"]
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile):
        load_net(path)

    save_net(net, path)
    obj = json.loads(path.read_text())
    obj["params"]["obs_W"] = [[1.0, 2.0]]  # wrong shape
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile):
        load_net(path)

    path.write_text(json.dumps({"no_version": True}))
    with pytest.raises((MalformedFile, VersionMismatch)):
        load_net(path)

    for part in ("params", "heads"):  # a JSON list where an object belongs
        obj = saved_net_obj(path)
        (obj if part == "params" else obj["arch"])[part] = []
        path.write_text(json.dumps(obj))
        with pytest.raises(MalformedFile):
            load_net(path)


def saved_net_obj(path):
    save_net(gaussian_net(), path)
    return json.loads(path.read_text())


def test_load_rejects_a_standardization_shorter_than_obs_dim(tmp_path):
    path = tmp_path / "net.json"
    obj = saved_net_obj(path)
    obj["standardization"]["std"] = []
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile, match="standardization vectors do not match obs_dim"):
        load_net(path)


@pytest.mark.parametrize("part, key, value, message", [
    ("params", "trunk_b", math.inf, "array trunk_b is not finite"),
    ("params", "head_W::mu:Normal", math.nan, "array head_W::mu:Normal is not finite"),
    ("standardization", "mean", math.nan, "array standardization.mean is not finite"),
    ("standardization", "std", -1.0, "array standardization.std must be positive and finite"),
    ("standardization", "std", math.inf, "array standardization.std must be positive and finite"),
    ("standardization", "std", math.nan, "array standardization.std must be positive and finite"),
])
def test_load_rejects_a_non_finite_array_naming_the_file_and_array(
        tmp_path, part, key, value, message):
    path = tmp_path / "net.json"
    obj = saved_net_obj(path)
    cell = obj[part][key]
    while isinstance(cell[0], list):  # the first number of a nested list
        cell = cell[0]
    cell[0] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile) as err:
        load_net(path)
    assert str(err.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# proposal adapter


def test_trained_proposal_answers_known_heads_only():
    from simppl.distributions import Normal as NormalDist
    net = gaussian_net()
    prop = TrainedProposal(net, np.asarray([1.0]))
    addr_known = run_model(GAUSSIAN.run, Mode.PRIOR, 1).entries[0].address
    q = prop.proposal_for(addr_known, 0.0, NormalDist(0, 1))
    assert isinstance(q, NormalDist)
    addr_unknown = run_model(TAU.run, Mode.PRIOR, 1).entries[0].address
    assert prop.proposal_for(addr_unknown, 0.0, NormalDist(0, 1)) is None
