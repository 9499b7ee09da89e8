import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import norm

from simppl import simzoo
from simppl.errors import ConfigInvalid, UnsupportedModel
from simppl.runtime import Mode, run_model
from simppl.sis import particle_seed
from simppl.simzoo import (
    DEFAULT_TAU_CONFIG,
    TauToyConfig,
    deposit_image,
    get_model,
    make_observation,
    oracle_posterior,
)

SMALL_TAU = TauToyConfig(
    n_channels=2,
    channel_prior=(0.6, 0.4),
    grid=(2, 3, 3),
    momentum_scale=5.0,
    noise_sigma=0.5,
    depth_profiles=((0.8, 0.2), (0.3, 0.7)),
    channel_kinds=("em", "had"),
    theta_max=0.4,
    lever_arm=1.0,
    spot_sigma=0.8,
)


# ---------------------------------------------------------------------------
# registry


def test_model_names_registered():
    assert set(simzoo.MODEL_NAMES) == {
        "gaussian_unknown_mean", "rejection_demo", "tau_decay_toy",
    }
    for name in simzoo.MODEL_NAMES:
        assert get_model(name).name == name


def test_unknown_model_rejected():
    with pytest.raises(UnsupportedModel):
        get_model("nope")
    with pytest.raises(UnsupportedModel):
        get_model(["tau_decay_toy"])


def test_config_only_for_tau():
    with pytest.raises(ConfigInvalid, match="gaussian_unknown_mean takes no config"):
        get_model("gaussian_unknown_mean", {"x": 1})
    with pytest.raises(ConfigInvalid, match="rejection_demo takes no config"):
        get_model("rejection_demo", {})
    spec = get_model("tau_decay_toy", SMALL_TAU.to_dict())
    assert spec.config.grid == (2, 3, 3)


# ---------------------------------------------------------------------------
# tau config validation


def test_tau_config_roundtrip():
    assert TauToyConfig.from_dict(SMALL_TAU.to_dict()) == SMALL_TAU


@pytest.mark.parametrize(
    "patch",
    [
        {"channel_prior": (0.7, 0.4)},
        {"grid": (0, 3, 3)},
        {"momentum_scale": 0.0},
        {"noise_sigma": -1.0},
        {"depth_profiles": ((0.5, 0.5),)},
        {"depth_profiles": ((0.9, 0.2), (0.3, 0.7))},
        {"channel_kinds": ("em",)},
        {"channel_kinds": ("em", "nuclear")},
        # em channel leaking energy to the back half
        {"depth_profiles": ((0.5, 0.5), (0.3, 0.7))},
        # had channel peaking at the front
        {"depth_profiles": ((0.8, 0.2), (0.8, 0.2))},
        {"theta_max": 2.0},
        {"lever_arm": -0.1},
        {"spot_sigma": 0.0},
    ],
)
def test_tau_config_validation(patch):
    base = SMALL_TAU.to_dict()
    base.update({k: v for k, v in patch.items()})
    with pytest.raises(ConfigInvalid):
        TauToyConfig.from_dict(base)


# ---------------------------------------------------------------------------
# deposit model


@settings(max_examples=40, deadline=None)
@given(
    channel=st.integers(min_value=0, max_value=4),
    pmag=st.floats(min_value=1e-3, max_value=200.0, allow_nan=False),
    theta=st.floats(min_value=0.0, max_value=0.449, allow_nan=False),
    phi=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
)
def test_deposit_conserves_energy(channel, pmag, theta, phi):
    img = deposit_image(DEFAULT_TAU_CONFIG, [(channel, pmag, theta, phi)])[0]
    assert img.shape == DEFAULT_TAU_CONFIG.grid
    assert img.sum() == pytest.approx(pmag, rel=1e-12)
    assert (img >= 0).all()


def test_deposit_depth_split_follows_profile():
    img = deposit_image(DEFAULT_TAU_CONFIG, [(0, 10.0, 0.0, 0.0)])[0]
    per_layer = img.sum(axis=(1, 2))
    assert per_layer == pytest.approx(
        10.0 * np.asarray(DEFAULT_TAU_CONFIG.depth_profiles[0]), rel=1e-12)


def test_deposit_spot_moves_with_angle():
    head_on, tilted = deposit_image(DEFAULT_TAU_CONFIG, [(0, 10.0, 0.0, 0.0), (0, 10.0, 0.4, 0.0)])
    nx = DEFAULT_TAU_CONFIG.grid[1]
    xs = np.arange(nx)
    cx_head = (head_on.sum(axis=(0, 2)) * xs).sum() / 10.0
    cx_tilt = (tilted.sum(axis=(0, 2)) * xs).sum() / 10.0
    assert cx_tilt > cx_head + 0.2


def test_tau_trace_shape():
    spec = get_model("tau_decay_toy")
    tr = run_model(spec.run, Mode.PRIOR, 3)
    assert tr.length == 4
    assert len(tr.observes) == 4 * 7 * 7
    assert set(tr.predicts) == {"channel", "p_x", "p_y", "p_z"}
    assert isinstance(tr.predicts["channel"], int)
    p = tr.predicts
    pmag = next(e.value for e in tr.entries if e.address.head_key == "pmag:Exponential")
    assert math.hypot(p["p_x"], p["p_y"], p["p_z"]) == pytest.approx(pmag, rel=1e-12)


def test_tau_channel_frequencies_match_prior():
    spec = get_model("tau_decay_toy", SMALL_TAU)
    n = 4000
    counts = np.zeros(2)
    for i in range(n):
        tr = run_model(spec.run, Mode.PRIOR, particle_seed(77, i))
        counts[tr.predicts["channel"]] += 1
    for c, p in enumerate(SMALL_TAU.channel_prior):
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[c] / n - p) < 4 * se


# ---------------------------------------------------------------------------
# observation packing


def test_make_observation_deterministic():
    a, gta = make_observation("tau_decay_toy", 9)
    b, gtb = make_observation("tau_decay_toy", 9)
    assert a == b and gta == gtb
    assert len(a["cells"]) == 196


def test_obs_vector_matches_observe_order():
    spec = get_model("tau_decay_toy")
    obs, _ = make_observation("tau_decay_toy", 9)
    vec = spec.obs_to_vector(obs)
    assert vec.shape == (196,)
    assert vec.tolist() == list(obs["cells"])


def test_obs_vector_rejects_wrong_cell_count():
    spec = get_model("tau_decay_toy")
    with pytest.raises(ConfigInvalid):
        spec.obs_to_vector({"cells": [0.0, 1.0]})


def _cells_with(index, value):
    obs, _ = make_observation("tau_decay_toy", 9)
    obs["cells"][index] = value
    return obs


@pytest.mark.parametrize("name, obs, message", [
    ("gaussian_unknown_mean", {"y": "1.5"}, "observation y is not a number: '1.5'"),
    ("gaussian_unknown_mean", {"y": None}, "observation y is not a number: None"),
    ("rejection_demo", {"y": True}, "observation y is a boolean: True"),
    ("rejection_demo", {"y": math.nan}, "observation y is not finite: nan"),
    ("gaussian_unknown_mean", {"y": 10**309}, "observation y is not finite: 1000"),
    ("tau_decay_toy", _cells_with(3, "1.5"), "observation cells[3] is not a number: '1.5'"),
    ("tau_decay_toy", _cells_with(3, None), "observation cells[3] is not a number: None"),
    ("tau_decay_toy", _cells_with(3, False), "observation cells[3] is a boolean: False"),
    ("tau_decay_toy", _cells_with(3, -math.inf), "observation cells[3] is not finite: -inf"),
    ("tau_decay_toy", _cells_with(3, [0.5]), "observation cells[3] is not a number: [0.5]"),
], ids=["string", "null", "bool", "nan", "int beyond float", "cell string", "cell null",
        "cell bool", "cell inf", "nested cell"])
def test_obs_to_vector_names_a_value_that_is_not_a_finite_number(name, obs, message):
    with pytest.raises(ConfigInvalid) as exc:
        get_model(name).obs_to_vector(obs)
    assert str(exc.value).startswith(message)


def test_obs_to_vector_converts_ints_and_lets_unread_keys_hold_other_values():
    # a key the model does not read is checked only for booleans and non-finite floats
    vec = get_model("gaussian_unknown_mean").obs_to_vector(
        {"y": 2, "note": "x", "more": [None, [1], "2"]})
    assert vec.dtype == np.float64 and vec.tolist() == [2.0]


def test_scalar_models_pack_roundtrip():
    for name, key in (("gaussian_unknown_mean", "y"), ("rejection_demo", "y")):
        spec = get_model(name)
        obs, _ = make_observation(name, 4)
        assert set(obs) == {"model", key}
        assert spec.obs_to_vector(obs).shape == (1,)


# ---------------------------------------------------------------------------
# oracles


def test_gaussian_oracle_is_the_conjugate_posterior():
    o = oracle_posterior("gaussian_unknown_mean", {"y": 1.7})
    assert o["mu"]["mean"] == pytest.approx(0.85)
    assert o["mu"]["var"] == pytest.approx(0.5)


def test_rejection_oracle_against_one_dimensional_reduction():
    # integrate out v analytically: weight(u) = 2 sqrt(1-u^2) L(u)
    y = 0.5

    def weight(u):
        return 2.0 * math.sqrt(max(0.0, 1 - u * u)) * norm.pdf(y, loc=u, scale=0.1)

    z, _ = integrate.quad(weight, -1, 1)
    mean_u, _ = integrate.quad(lambda u: u * weight(u), -1, 1)
    mean_u /= z

    o = oracle_posterior("rejection_demo", {"y": y})
    assert o["u"]["mean"] == pytest.approx(mean_u, abs=2e-5)
    assert o["v"]["mean"] == pytest.approx(0.0, abs=1e-9)


def test_rejection_oracle_frozen_values():
    # 512x512 grid; values drift by < 1e-5 when the resolution doubles
    o = oracle_posterior("rejection_demo", {"y": 0.5})
    assert o["u"]["mean"] == pytest.approx(0.4930785960495851, abs=1e-12)
    assert o["u"]["var"] == pytest.approx(0.009761860533606774, abs=1e-12)


def _cell_loglik(cfg, cells, img):
    sig = cfg.noise_sigma * np.maximum(img, simzoo.ENERGY_FLOOR)
    return norm.logpdf(cells, loc=img, scale=sig).sum(axis=-1)


def _brute_force_tau(cfg, cells, n_p=600, n_t=32, n_f=64):
    """Single-box midpoint-rule posterior, written independently of the
    adaptive two-pass oracle. The deposit is linear in momentum, so one
    unit-momentum image per direction covers the whole momentum axis."""
    cells = np.asarray(cells, dtype=float)
    p_hi = 12.0 * cfg.momentum_scale
    ps = (np.arange(n_p) + 0.5) * p_hi / n_p
    ts = (np.arange(n_t) + 0.5) * cfg.theta_max / n_t
    fs = -math.pi + (np.arange(n_f) + 0.5) * 2 * math.pi / n_f
    p_prior = np.exp(-ps / cfg.momentum_scale)
    masses = []
    moments = []
    for channel in range(cfg.n_channels):
        m = 0.0
        mom = np.zeros(3)
        for t in ts:
            for f in fs:
                base = deposit_image(cfg, [(channel, 1.0, t, f)]).ravel()
                ll = _cell_loglik(cfg, cells, ps[:, None] * base[None, :])
                w = np.exp(ll - 700.0) * p_prior
                m += cfg.channel_prior[channel] * w.sum()
                direction = np.asarray([
                    math.sin(t) * math.cos(f),
                    math.sin(t) * math.sin(f),
                    math.cos(t),
                ])
                mom += cfg.channel_prior[channel] * (w * ps).sum() * direction
        masses.append(m)
        moments.append(mom)
    total = sum(masses)
    hist = [m / total for m in masses]
    mean = sum(moments) / total
    return hist, mean


def test_tau_oracle_against_independent_brute_force():
    obs, _ = make_observation("tau_decay_toy", 2, SMALL_TAU)
    o = oracle_posterior("tau_decay_toy", obs, resolution=48)
    hist, mean = _brute_force_tau(SMALL_TAU, obs["cells"])
    for c in range(2):
        assert o["channel"]["histogram"][c] == pytest.approx(hist[c], abs=2e-3)
    for i, k in enumerate(("p_x", "p_y", "p_z")):
        scale = max(1.0, abs(mean[i]))
        assert o[k]["mean"] == pytest.approx(mean[i], abs=0.01 * scale)


def test_tau_oracle_against_weighted_prior_monte_carlo():
    # prior draws reweighted by a likelihood recomputed here, then
    # self-normalized: an estimator sharing no integration code with the
    # oracle's quadrature
    obs, _ = make_observation("tau_decay_toy", 2, SMALL_TAU)
    cells = np.asarray(obs["cells"])
    o = oracle_posterior("tau_decay_toy", obs, resolution=48)
    spec = get_model("tau_decay_toy", SMALL_TAU)
    n = 20_000
    chans = np.zeros(n, dtype=int)
    moms = np.zeros((n, 3))
    logw = np.zeros(n)
    for i in range(n):
        tr = run_model(spec.run, Mode.PRIOR, particle_seed(123, i))
        lat = {e.address.head_key: e.value for e in tr.entries}
        img = deposit_image(SMALL_TAU, [(lat["channel:Categorical"], lat["pmag:Exponential"],
                                         lat["theta:Uniform"], lat["phi:Uniform"])]).ravel()
        logw[i] = _cell_loglik(SMALL_TAU, cells, img)
        chans[i] = tr.predicts["channel"]
        moms[i] = (tr.predicts["p_x"], tr.predicts["p_y"], tr.predicts["p_z"])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    ess = 1.0 / (w * w).sum()
    assert ess > 50  # otherwise the check below has no power
    for c in range(2):
        est = w[chans == c].sum()
        se = math.sqrt((w * w * ((chans == c) - est) ** 2).sum())
        assert abs(o["channel"]["histogram"][c] - est) < 5 * se + 1e-3
    for i, k in enumerate(("p_x", "p_y", "p_z")):
        est = (w * moms[:, i]).sum()
        se = math.sqrt((w * w * (moms[:, i] - est) ** 2).sum())
        assert abs(o[k]["mean"] - est) < 5 * se + 0.01


def test_tau_oracle_self_convergence_in_resolution():
    obs, _ = make_observation("tau_decay_toy", 2, SMALL_TAU)
    lo = oracle_posterior("tau_decay_toy", obs, resolution=32)
    hi = oracle_posterior("tau_decay_toy", obs, resolution=64)
    tv = 0.5 * sum(abs(lo["channel"]["histogram"][c] - hi["channel"]["histogram"][c])
                   for c in range(2))
    assert tv < 1e-3
    for k in ("p_x", "p_y", "p_z"):
        sd = math.sqrt(hi[k]["var"])
        assert abs(lo[k]["mean"] - hi[k]["mean"]) < 0.05 * max(sd, 1e-6)


def test_oracle_unknown_model_rejected():
    with pytest.raises(UnsupportedModel):
        oracle_posterior("nope", {})
    with pytest.raises(UnsupportedModel):
        oracle_posterior(["nope"], {})
