"""Output checks for the benchmark workloads.

None of these calls simppl to compute the quantity it judges: the tau log
joint, the rejection_demo grid posterior, flow counts and normalization are
recomputed here with numpy and the standard library from the models'
definitions, and the gradient is judged by finite differences of the loss.
Each check raises CheckFailed with the reason.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# tau_decay_toy gives cells whose expected energy is below this floor a fixed
# noise scale (noise_sigma * floor).
TAU_ENERGY_FLOOR = 0.1
TAU_PREDICTS = ("channel", "p_x", "p_y", "p_z")

# Mean number of disc-scope iterations of rejection_demo in prior mode: each
# attempt is accepted with probability pi/4 (disc area over square area).
DISC_ACCEPT = math.pi / 4.0


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# tau_decay_toy


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / _SQRT2)


def _spot_weights(n, center, sigma):
    cdf = [_normal_cdf((i - 0.5 - center) / sigma) for i in range(n + 1)]
    return np.array([cdf[i + 1] - cdf[i] for i in range(n)])


def tau_log_joint(cfg, channel, pmag, theta, phi, cells):
    """log p(channel, pmag, theta, phi, cells) of tau_decay_toy.

    Prior: channel ~ Categorical(channel_prior), pmag ~ Exponential(1 /
    momentum_scale), theta ~ Uniform(0, theta_max), phi ~ Uniform(-pi, pi).
    Each calorimeter cell (depth, x, y) is Normal around pmag times the
    channel's depth fraction times the cell's share of a Gaussian spot,
    centred at lever_arm * tan(theta) * (cos phi, sin phi) from the face
    centre, with scale noise_sigma * max(expected, floor).
    """
    depth, nx, ny = cfg.grid
    rate = 1.0 / cfg.momentum_scale
    if not (0 <= channel < len(cfg.channel_prior) and pmag >= 0
            and 0.0 <= theta <= cfg.theta_max and -math.pi <= phi <= math.pi):
        return -math.inf
    log_prior = (math.log(cfg.channel_prior[channel]) + math.log(rate) - rate * pmag
                 - math.log(cfg.theta_max) - math.log(2.0 * math.pi))
    offset = cfg.lever_arm * math.tan(theta)
    wx = _spot_weights(nx, (nx - 1) / 2.0 + offset * math.cos(phi), cfg.spot_sigma)
    wy = _spot_weights(ny, (ny - 1) / 2.0 + offset * math.sin(phi), cfg.spot_sigma)
    spot = np.outer(wx, wy)
    spot /= spot.sum()
    profile = np.asarray(cfg.depth_profiles[channel], dtype=float)
    expected = (pmag * profile[:, None, None] * spot[None, :, :]).ravel()
    sigma = cfg.noise_sigma * np.maximum(expected, TAU_ENERGY_FLOOR)
    z = (np.asarray(cells, dtype=float) - expected) / sigma
    log_lik = float(np.sum(-0.5 * z * z - np.log(sigma))) - 0.5 * _LOG_2PI * expected.size
    return log_prior + log_lik


def tau_latents(trace):
    values = {e.address.head_key: e.value for e in trace.entries}
    return (int(values["channel:Categorical"]), float(values["pmag:Exponential"]),
            float(values["theta:Uniform"]), float(values["phi:Uniform"]))


def check_tau_log_weight(cfg, trace, cells, tol=1e-7):
    """The particle's log_weight is the recomputed log p minus its log q."""
    require(len(trace.entries) == 4, f"tau trace has {len(trace.entries)} entries, not 4")
    log_q = math.fsum(e.log_q for e in trace.entries)
    expected = tau_log_joint(cfg, *tau_latents(trace), cells) - log_q
    got = trace.log_weight
    require(math.isfinite(got) and abs(got - expected) <= tol * max(1.0, abs(expected)),
            f"particle {trace.trace_id}: log_weight {got!r}, log p - log q = {expected!r}")


def check_normalized(weights, what="particle set"):
    w = np.asarray(weights, dtype=float)
    require(w.size > 0 and bool(np.all(np.isfinite(w))), f"{what}: non-finite weights")
    require(bool(np.all(w >= 0.0)), f"{what}: negative weights")
    total = math.fsum(w.tolist())
    require(abs(total - 1.0) <= 1e-9, f"{what}: weights sum to {total!r}")


def normalize_log_weights(log_weights):
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - lw[np.isfinite(lw)].max())
    return w / w.sum()


def check_tau_pooled(log_weights, predicts, oracle, what):
    """Pooled weighted posterior against the quadrature oracle: channel total
    variation within 0.05 and each momentum mean within 3 posterior sd."""
    w = normalize_log_weights(log_weights)
    check_normalized(w, what)
    channels = np.asarray(predicts["channel"])
    tv = 0.5 * sum(abs(float(w[channels == int(c)].sum()) - p)
                   for c, p in oracle["channel"].items())
    require(tv <= 0.05, f"{what}: channel posterior TV {tv:.4f} > 0.05")
    devs = {}
    for name in ("p_x", "p_y", "p_z"):
        mean = float(np.dot(w, np.asarray(predicts[name], dtype=float)))
        sd = math.sqrt(oracle[name]["var"])
        devs[name] = abs(mean - oracle[name]["mean"]) / sd
        require(devs[name] <= 3.0, f"{what}: {name} mean {mean:.4f} is {devs[name]:.2f} sd "
                                   f"from the oracle {oracle[name]['mean']:.4f}")
    return tv, max(devs.values())


def check_same_log_weights(a, b, what):
    require(np.array_equal(np.asarray(a), np.asarray(b)), f"{what}: log-weights differ")


# ---------------------------------------------------------------------------
# rejection_demo


def rejection_grid_posterior(y, obs_sigma=0.1, res=1024, rows=64):
    """Posterior moments of (u, v) given y ~ Normal(u, obs_sigma), (u, v)
    uniform on the unit disc: midpoint grid over the square, masked."""
    centers = -1.0 + (np.arange(res) + 0.5) * (2.0 / res)
    log_norm = -0.5 * ((y - centers) / obs_sigma) ** 2
    log_norm -= log_norm.max()
    sums = np.zeros(5)  # w, w u, w v, w u^2, w v^2
    v = centers[None, :]
    for start in range(0, res, rows):
        u = centers[start:start + rows, None]
        w = np.exp(log_norm[start:start + rows, None]) * ((u * u + v * v) <= 1.0)
        sums += [w.sum(), (w * u).sum(), (w * v).sum(), (w * u * u).sum(), (w * v * v).sum()]
    total = sums[0]
    mean_u, mean_v = sums[1] / total, sums[2] / total
    return {"u": {"mean": mean_u, "var": sums[3] / total - mean_u ** 2},
            "v": {"mean": mean_v, "var": sums[4] / total - mean_v ** 2}}


def check_rejection_summary(result, grid, n_particles, z=5.0, grid_err=1e-3):
    """CLI infer output against the grid posterior: each mean within z
    standard errors sqrt(var / ESS), plus the grid's own error."""
    require(result["n_particles"] == n_particles, "infer reported the wrong particle count")
    ess = result["ess"]
    require(math.isfinite(ess) and 1.0 <= ess <= n_particles, f"infer ESS {ess!r} out of range")
    for name in ("u", "v"):
        s = result["summaries"][name]
        se = math.sqrt(grid[name]["var"] / ess)
        dev = abs(s["mean"] - grid[name]["mean"])
        require(dev <= z * se + grid_err,
                f"infer mean {name} = {s['mean']:.5f}, grid {grid[name]['mean']:.5f} "
                f"(|dev| {dev:.5f} > {z} se {se:.5f})")
    return ess


def check_disc_traces(lines, n):
    """Parse generate's JSONL and check each trace of rejection_demo.

    Every disc attempt draws u then v; rejected attempts lie outside the
    unit disc and are marked unaccepted, the last attempt lies inside and
    is accepted, and the predicts are its (u, v). Returns the number of
    attempts per trace.
    """
    require(len(lines) == n, f"generate wrote {len(lines)} traces, not {n}")
    attempts = []
    for line in lines:
        obj = json.loads(line)
        entries = obj["entries"]
        require(len(entries) % 2 == 0 and entries, f"trace {obj['trace_id']}: odd entry count")
        k = len(entries) // 2
        for i in range(k):
            u, v = entries[2 * i], entries[2 * i + 1]
            require(u["addr"] == f"disc/u:Uniform#{i}" and v["addr"] == f"disc/v:Uniform#{i}",
                    f"trace {obj['trace_id']}: attempt {i} has addresses {u['addr']}, {v['addr']}")
            require(u["iteration"] == i and v["iteration"] == i and u["scope_id"] == "disc",
                    f"trace {obj['trace_id']}: attempt {i} mislabelled")
            inside = u["value"] * u["value"] + v["value"] * v["value"] <= 1.0
            last = i == k - 1
            require(inside == last and u["accepted"] == last and v["accepted"] == last,
                    f"trace {obj['trace_id']}: attempt {i} inside={inside} accepted={u['accepted']}")
        pred = obj["predicts"]
        require(pred["u"] == entries[-2]["value"] and pred["v"] == entries[-1]["value"],
                f"trace {obj['trace_id']}: predicts are not the accepted point")
        attempts.append(k)
    return attempts


def check_scope_iterations(total_attempts, n_traces, z=5.0):
    """Mean attempts per trace against the geometric mean 4/pi."""
    mean = total_attempts / n_traces
    se = math.sqrt((1.0 - DISC_ACCEPT) / DISC_ACCEPT ** 2 / n_traces)
    require(abs(mean - 1.0 / DISC_ACCEPT) <= z * se,
            f"mean scope iterations {mean:.5f}, expected {1.0 / DISC_ACCEPT:.5f} +- {z} * {se:.5f}")
    return mean


_DOT_EDGE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[label=(\d+)\];$')


def parse_dot_edges(text):
    edges = {}
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            edges[(m.group(1), m.group(2))] = int(m.group(3))
    return edges


def check_flow(edges, n):
    """Every interior node's in-flow equals its out-flow, and START sends
    and END receives exactly one traversal per trace."""
    inflow, outflow = {}, {}
    for (a, b), c in edges.items():
        outflow[a] = outflow.get(a, 0) + c
        inflow[b] = inflow.get(b, 0) + c
    require(outflow.get("START", 0) == n, f"START out-degree {outflow.get('START', 0)}, not {n}")
    require(inflow.get("END", 0) == n, f"END in-degree {inflow.get('END', 0)}, not {n}")
    for node in set(inflow) | set(outflow):
        if node not in ("START", "END"):
            require(inflow.get(node, 0) == outflow.get(node, 0), f"flow not conserved at {node}")


def check_disc_graph(edges, attempts):
    """The succession graph's counts follow from the attempts per trace."""
    n, total = len(attempts), sum(attempts)
    want = {("START", "disc/u:Uniform"): n, ("disc/u:Uniform", "disc/v:Uniform"): total,
            ("disc/v:Uniform", "disc/u:Uniform"): total - n, ("disc/v:Uniform", "END"): n}
    want = {k: v for k, v in want.items() if v}
    require(edges == want, f"succession graph {edges} != {want}")


# ---------------------------------------------------------------------------
# training


def check_gradient(loss_at, grad, x0, coords, h=1e-5, rtol=1e-4, atol=1e-7):
    """Central differences of loss_at(x) against grad at x0 on coords."""
    worst = 0.0
    for j in coords:
        x = x0.copy()
        x[j] += h
        hi = loss_at(x)
        x[j] -= 2 * h
        lo = loss_at(x)
        fd = (hi - lo) / (2 * h)
        err = abs(fd - grad[j])
        require(err <= rtol * max(abs(fd), abs(grad[j])) + atol,
                f"coordinate {j}: analytic {grad[j]!r}, finite difference {fd!r}")
        worst = max(worst, err / max(abs(fd), abs(grad[j]), 1e-12))
    return worst


def check_loss_fell(before, after, what):
    require(math.isfinite(after) and after < before,
            f"{what}: held-out loss {after!r} did not fall below its value at init {before!r}")
