"""Model execution: the three statements, modes, and rejection scopes.

A model is a callable taking an ExecutionContext and speaking through three
statements: ctx.sample draws a latent, ctx.observe conditions on data,
ctx.predict exports a named output; ctx.observe_normal_many is observe for
a vector of independent Normal observations. The context runs in one of
three modes:

  prior   unconditioned run; observe statements synthesize their own values
  record  like prior, but rejection scopes roll back discarded iterations so
          the committed trace looks like a single accepted pass (training data)
  guided  conditioned run; latents are drawn from proposal distributions and
          every draw contributes log_p - log_q to the trace weight

Every mode appends (scope_id, retries) to trace.scope_executions as each
rejection scope exits, inner scopes before the scope that holds them.

Latent draws consume RNG stream 0 of the execution seed and synthetic
observations stream 1, so prior and guided executions with the same seed see
identical latent randomness.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager

import numpy as np

from .distributions import normal_log_probs
from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicatePredictName,
    ModelExecutionError,
    NestedScopeReuse,
    ParameterError,
    ScopeError,
    ScopeUnderflow,
    SimpplError,
)
from .trace import AddressTable, ObserveEntry, Trace, TraceEntry


class Mode(str, enum.Enum):
    PRIOR = "prior"
    RECORD = "record"
    GUIDED = "guided"


class _ScopeState:
    __slots__ = (
        "scope_id",
        "iteration",
        "cached",
        "occ",
        "entry_mark",
        "observe_mark",
        "execution_mark",
        "counter_snapshot",
    )

    def __init__(self, scope_id, trace, counter_snapshot):
        self.scope_id = scope_id
        self.iteration = 0
        self.cached = {}
        self.occ = {}
        self.entry_mark = len(trace.entries)
        self.observe_mark = len(trace.observes)
        self.execution_mark = len(trace.scope_executions)
        self.counter_snapshot = counter_snapshot


class ExecutionContext:
    """State of one model execution; produces a Trace."""

    def __init__(self, mode, seed, observation=None, proposal_source=None):
        self.mode = Mode(mode)
        if self.mode is Mode.GUIDED and observation is None:
            raise ConfigError("guided mode requires an observation")
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        latent_ss, obs_ss = ss.spawn(2)
        self.rng = np.random.default_rng(latent_ss)
        self.obs_rng = np.random.default_rng(obs_ss)
        self.observation = observation
        self.proposal_source = proposal_source
        self.counters = AddressTable()
        self.trace = Trace()
        self.proposal_fallbacks = 0
        self._path = ()
        self._scopes = []
        self._last_address = None

    # -- statements ---------------------------------------------------------

    def sample(self, site_id, prior):
        addr = self.counters.extend(self._path, site_id, prior.family)
        self._last_address = addr
        scope = self._scopes[-1] if self._scopes else None
        entries = self.trace.entries
        if self.mode is Mode.GUIDED:
            proposal = None
            if scope is not None:
                key = addr.head_key
                occ = scope.occ.get(key, 0)
                scope.occ[key] = occ + 1
                cache_key = (key, occ)
                proposal = scope.cached.get(cache_key)
            if proposal is None:
                if self.proposal_source is not None:
                    prev = float(entries[-1].value) if entries else 0.0
                    proposal = self.proposal_source.proposal_for(addr, prev, prior)
                    if proposal is None:
                        self.proposal_fallbacks += 1
                        proposal = prior
                else:
                    proposal = prior
                if scope is not None and scope.iteration == 0:
                    scope.cached[cache_key] = proposal
            value = proposal.sample(self.rng)
            log_p = prior.log_prob(value)
            log_q = log_p if proposal is prior else proposal.log_prob(value)
            entries.append(
                TraceEntry(
                    addr,
                    prior.params,
                    value,
                    log_p,
                    log_q,
                    scope.scope_id if scope else None,
                    scope.iteration if scope else 0,
                )
            )
        else:
            value = prior.sample(self.rng)
            log_p = prior.log_prob(value)
            if self.mode is Mode.RECORD:
                # committed Record entries are rebased to iteration 0: after
                # rollback the trace reads as a single accepted pass
                iteration = 0
            else:
                iteration = scope.iteration if scope else 0
            entries.append(
                TraceEntry(
                    addr,
                    prior.params,
                    value,
                    log_p,
                    log_p,
                    scope.scope_id if scope else None,
                    iteration,
                )
            )
        return value

    def observe(self, site_id, dist, value=None):
        """Condition on a value; in prior/record mode a None value is drawn
        from dist itself (prior-predictive data generation)."""
        addr = self.counters.extend(self._path, site_id, dist.family)
        self._last_address = addr
        if value is None:
            if self.mode is Mode.GUIDED:
                raise ConfigError(
                    f"observe at {addr.rendered} has no value; "
                    "guided mode requires the observation to supply one"
                )
            value = dist.sample(self.obs_rng)
        self.trace.observes.append(ObserveEntry(addr, dist.log_prob(value), value))
        return value

    def observe_normal_many(self, site_ids, mu, sigma, values=None):
        """Batched observe of independent Normal(mu[i], sigma[i]) at site_ids[i].

        Same trace, weight and obs_rng state as calling
        observe(site_ids[i], Normal(mu[i], sigma[i]), values[i]) in order,
        with one draw for all sites when values is None (prior/record mode).
        Returns the list of observed values.
        """
        site_ids = tuple(site_ids)
        n = len(site_ids)
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        sizes = [len(a) if a.ndim == 1 else 0 for a in (mu, sigma)]
        if values is not None:
            sizes.append(len(values))
        if any(k != n for k in sizes):
            # the first site left without a parameter or value, else the last
            at = self._site_name(site_ids[min(min(sizes), n - 1)]) if n else "no sites"
            raise DimensionMismatch(
                f"observe_normal_many at {at}: {n} site ids, "
                f"lengths (mu, sigma{', values' if values is not None else ''}) = {sizes}"
            )
        bad = ~(np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0))
        if bad.any():
            i = int(bad.argmax())
            raise ParameterError(
                f"observe at {self._site_name(site_ids[i])}: need finite mu and positive "
                f"finite sigma, got mu={float(mu[i])!r}, sigma={float(sigma[i])!r}"
            )
        if not n:
            return []
        addrs = self.counters.extend_many(self._path, site_ids, "Normal")
        self._last_address = addrs[-1]
        if values is None:
            if self.mode is Mode.GUIDED:
                raise ConfigError(
                    f"observe at {addrs[0].rendered} has no value; "
                    "guided mode requires the observation to supply one"
                )
            x = self.obs_rng.normal(mu, sigma)
            values = x.tolist()
        else:
            # keep the caller's float objects, as float(v) does for a float
            values = [v if type(v) is float else float(v) for v in values]
            x = np.array(values)
        log_liks = normal_log_probs(x, mu, sigma).tolist()
        self.trace.observes.extend(map(ObserveEntry, addrs, log_liks, values))
        return values

    def _site_name(self, site_id):
        return "/".join(self._path + (site_id,))

    def observed(self, key):
        """Component of the supplied observation, or None when unconditioned."""
        if self.observation is None:
            return None
        return self.observation.get(key)

    def predict(self, name, value):
        if name in self.trace.predicts:
            raise DuplicatePredictName(f"predict {name!r} already set")
        self.trace.predicts[name] = value

    # -- rejection scopes ----------------------------------------------------

    def scope_begin(self, scope_id):
        if any(s.scope_id == scope_id for s in self._scopes):
            raise NestedScopeReuse(f"scope {scope_id!r} is already active")
        snapshot = self.counters.snapshot() if self.mode is Mode.RECORD else None
        self._scopes.append(_ScopeState(scope_id, self.trace, snapshot))
        self._path = self._path + (scope_id,)

    def scope_retry(self):
        if not self._scopes:
            raise ScopeUnderflow("scope_retry outside any scope")
        scope = self._scopes[-1]
        if self.mode is Mode.RECORD:
            # discard the rejected iteration entirely (its inner scope
            # executions too, but not this scope's retry count); counters roll
            # back so the next iteration reuses the same instance numbers
            del self.trace.entries[scope.entry_mark:]
            del self.trace.observes[scope.observe_mark:]
            del self.trace.scope_executions[scope.execution_mark:]
            self.counters.restore(scope.counter_snapshot)
        else:
            for entry in self.trace.entries[scope.entry_mark:]:
                entry.accepted = False
            scope.entry_mark = len(self.trace.entries)
            scope.observe_mark = len(self.trace.observes)
        scope.iteration += 1
        scope.occ.clear()

    def scope_end(self):
        if not self._scopes:
            raise ScopeUnderflow("scope_end without scope_begin")
        scope = self._scopes.pop()
        self.trace.scope_executions.append((scope.scope_id, scope.iteration))
        self._path = self._path[:-1]

    @contextmanager
    def rejection_scope(self, scope_id):
        self.scope_begin(scope_id)
        try:
            yield
        finally:
            self.scope_end()


class FixedProposal:
    """Proposal source with a static head-key -> distribution mapping.

    Values may be Distribution instances or callables taking the prior.
    Useful for tests and for forcing deliberately biased proposals.
    """

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def proposal_for(self, address, prev_value, prior):
        entry = self.mapping.get(address.head_key)
        if entry is None:
            return None
        return entry(prior) if callable(entry) else entry


def run_model(model, mode, seed, observation=None, proposal_source=None):
    """Execute a model once and return its finalized trace.

    Exceptions raised by the model body are wrapped in ModelExecutionError
    carrying the address of the last successful statement; instrumentation
    contract violations (scope misuse, duplicate predicts, bad addresses)
    propagate as themselves.
    """
    ctx = ExecutionContext(mode, seed, observation=observation, proposal_source=proposal_source)
    try:
        model(ctx)
    except SimpplError:
        raise
    except Exception as exc:
        raise ModelExecutionError(ctx._last_address, exc) from exc
    if ctx._scopes:
        open_ids = ", ".join(s.scope_id for s in ctx._scopes)
        raise ScopeError(f"model exited with open scope(s): {open_ids}")
    trace = ctx.trace
    trace.proposal_fallbacks = ctx.proposal_fallbacks
    return trace.finalize()
