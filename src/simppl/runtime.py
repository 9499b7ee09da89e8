"""Model execution: the three statements, modes, seeded batches, and
rejection scopes.

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

A sample statement draws from the prior unless guided and appends one
TraceEntry. Every mode appends (scope_id, retries) to trace.scope_executions
as each rejection scope exits, inner scopes before the scope that holds them.

run_model executes a model once. A guided trace's log_weight, the run's result,
is set before it returns; an unconditioned trace's log_weight and its batched
observe log-likelihoods are computed on their first read (the parameters are
checked at the statement), so training, which reads neither, computes neither.
run_batch yields n executions one at a time for inference, trace generation,
architecture discovery and training, and alone picks the body: model.many, a
vectorised body a model may carry, runs unconditioned ones a chunk at a time.
Latent draws use RNG stream 0 of the seed and synthetic observations stream 1
(built on the first such draw), its spawn(2) children without advancing its
spawn counter. Run i of a batch has the streams of derived_seed(master_seed,
*key, i), master_seed a non-negative int or a sequence of them, made a chunk of
runs at a time without that SeedSequence, which is built only when the model
spawns from a stream or asks it for other words; prior and guided runs on one
seed share latent randomness.
"""

from __future__ import annotations

import enum
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field

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
from .trace import AddressTable, Trace, TraceEntry, cached_attribute, trace_log_weight


class Mode(str, enum.Enum):
    PRIOR = "prior"
    RECORD = "record"
    GUIDED = "guided"


@dataclass(slots=True)
class _ScopeState:
    scope_id: str
    entry_mark: int
    observe_mark: int
    execution_mark: int
    snapshot: dict | None  # record mode only: the counters to restore on retry
    iteration: int = 0
    cached: dict = field(default_factory=dict)
    occ: dict = field(default_factory=dict)


class ExecutionContext:
    """State of one model execution; produces a Trace."""

    def __init__(self, mode, seed, observation=None, proposal_source=None):
        self.mode = Mode(mode)
        if self.mode is Mode.GUIDED and observation is None:
            raise ConfigError("guided mode requires an observation")
        if not isinstance(seed, (np.random.SeedSequence, _RunSeed)):
            seed = np.random.SeedSequence(seed)
        self._seed = seed
        self.rng = np.random.default_rng(_stream(seed, 0))
        self.observation = observation
        self.proposal_source = proposal_source
        self.counters = AddressTable()
        self.trace = Trace()
        self._path = ()
        self._scopes = []
        self._last_address = None

    @cached_attribute
    def obs_rng(self):
        """RNG stream 1, built on the first synthetic observation draw."""
        return np.random.default_rng(_stream(self._seed, 1))

    # -- statements ---------------------------------------------------------

    def sample(self, site_id, prior):
        addr = self.counters.extend(self._path, site_id, prior.family)
        self._last_address = addr
        scope = self._scopes[-1] if self._scopes else None
        proposal = self._proposal(addr, prior, scope) if self.mode is Mode.GUIDED else prior
        value = proposal.sample(self.rng)
        log_p = prior.log_prob(value)
        log_q = log_p if proposal is prior else proposal.log_prob(value)
        # committed Record entries are rebased to iteration 0: after rollback
        # the trace reads as a single accepted pass
        iteration = scope.iteration if scope and self.mode is not Mode.RECORD else 0
        self.trace.entries.append(
            TraceEntry(addr, prior.params, value, log_p, log_q,
                       scope.scope_id if scope else None, iteration)
        )
        return value

    def _proposal(self, addr, prior, scope):
        """Guided proposal at addr: inside a scope, the one chosen for the same
        (head key, occurrence) in its first iteration; otherwise the proposal
        source's, falling back to the prior when it has none."""
        if scope is not None:
            key = addr.head_key
            occ = scope.occ.get(key, 0)
            scope.occ[key] = occ + 1
            cache_key = (key, occ)
            cached = scope.cached.get(cache_key)
            if cached is not None:
                return cached
        proposal = prior
        if self.proposal_source is not None:
            entries = self.trace.entries
            prev = float(entries[-1].value) if entries else 0.0
            proposal = self.proposal_source.proposal_for(addr, prev, prior)
            if proposal is None:
                self.trace.proposal_fallbacks += 1
                proposal = prior
        if scope is not None and scope.iteration == 0:
            scope.cached[cache_key] = proposal
        return proposal

    def observe(self, site_id, dist, value=None):
        """Condition on a value; in prior/record mode a None value is drawn
        from dist itself (prior-predictive data generation)."""
        addr = self.counters.extend(self._path, site_id, dist.family)
        self._last_address = addr
        if value is None:
            self._check_unconditioned(addr)
            value = dist.sample(self.obs_rng)
        self.trace.observe_blocks.append(((addr,), (dist.log_prob(value),), (value,)))
        return value

    def observe_normal_many(self, site_ids, mu, sigma, values=None):
        """Batched observe of independent Normal(mu[i], sigma[i]) at site_ids[i]: the same
        trace, weight and obs_rng state as observe(site_ids[i], Normal(mu[i], sigma[i]),
        values[i]) in order, with one draw for all sites when values is None. The trace
        holds the values as given, by reference, or as drawn; returns a new list."""
        values, = observe_normal_batch([self], site_ids, np.asarray(mu, dtype=float)[None],
                                       np.asarray(sigma, dtype=float)[None],
                                       None if values is None else [values])
        return values.tolist() if isinstance(values, np.ndarray) else list(values)

    def _check_unconditioned(self, addr):
        """An observe at addr without a value is allowed outside guided mode."""
        if self.mode is Mode.GUIDED:
            raise ConfigError(f"observe at {addr.rendered} has no value; "
                              "guided mode requires the observation to supply one")

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
        t = self.trace
        snapshot = self.counters.snapshot() if self.mode is Mode.RECORD else None
        self._scopes.append(_ScopeState(scope_id, len(t.entries), len(t.observe_blocks),
                                        len(t.scope_executions), snapshot))
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
            del self.trace.observe_blocks[scope.observe_mark:]
            del self.trace.scope_executions[scope.execution_mark:]
            self.counters.restore(scope.snapshot)
        else:
            for entry in self.trace.entries[scope.entry_mark:]:
                entry.accepted = False
            scope.entry_mark = len(self.trace.entries)
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


def observe_normal_batch(ctxs, site_ids, mu, sigma, values=None):
    """observe_normal_many(site_ids, mu[r], sigma[r], values[r]) in each context ctxs[r], all
    values drawn when values is None; its one writer. One parameter check names the first
    site at fault (or the last if none is) before any context changes; a context's block
    computes its log-likelihoods on their first read. Returns each context's values as held."""
    site_ids = tuple(site_ids)
    n = len(site_ids)
    mu = np.array(mu, dtype=float)  # copies: a block computes from them after the caller's edits
    sigma = np.array(sigma, dtype=float)
    sizes = [a.shape[-1] if a.ndim and a.shape[:-1] == (len(ctxs),) else 0 for a in (mu, sigma)]
    if values is not None:
        sizes.extend(map(len, values))
    if any(k != n for k in sizes):
        at = ctxs[0]._site_name(site_ids[min(min(sizes), n - 1)]) if n else "no sites"
        raise DimensionMismatch(
            f"observe_normal_many at {at}: {n} site ids, "
            f"lengths (mu, sigma{', values' if values is not None else ''}) = {sizes}"
        )
    bad = ~(np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0))
    if bad.any():
        r, i = divmod(k := int(bad.argmax()), n)
        raise ParameterError(
            f"observe at {ctxs[r]._site_name(site_ids[i])}: need finite mu and positive "
            f"finite sigma, got mu={float(mu.flat[k])!r}, sigma={float(sigma.flat[k])!r}"
        )
    if not n:
        return [[] for _ in ctxs]
    addrs, drawn = [], []
    for r, ctx in enumerate(ctxs):
        addrs.append(ctx.counters.extend_many(ctx._path, site_ids, "Normal"))
        ctx._last_address = addrs[-1][-1]
        if values is None:
            ctx._check_unconditioned(addrs[-1][0])
            drawn.append(ctx.obs_rng.normal(mu[r], sigma[r]))
    values = drawn if values is None else values
    for ctx, a, v, *row in zip(ctxs, addrs, values, np.array(values, dtype=float), mu, sigma):
        ctx.trace.observe_blocks.append((a, _NormalLogLiks(row), v))
    return values


@dataclass(slots=True, eq=False)
class _NormalLogLiks:
    """A block's log-likelihoods, normal_log_probs(x, mu, sigma) computed on the first read."""

    cells: list  # [x, mu, sigma] until then, the row after (elementwise: a batch pass's bits)

    def __array__(self, dtype=None, copy=None):
        if type(self.cells) is list:
            self.cells = normal_log_probs(*self.cells)
        return np.array(self.cells, dtype, copy=copy)


def _stream(ss, k):
    """ss.spawn(2)[k] of a fresh ss, without advancing ss's spawn counter; a _RunSeed's words."""
    if isinstance(ss, _RunSeed):
        return _RunSeed(ss.words, ss.run, k)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size)


def derived_seed(master_seed, *key):
    """Seed of the RNG stream at `key` under master_seed."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


class _RunSeed(np.random.bit_generator.ISpawnableSeedSequence):
    """Seed of run i of a batch, run = (master_seed, key, i): words[k] is the PCG64 seed of
    its stream k, _stream(derived_seed(master_seed, *key, i), k).generate_state(4, np.uint64).
    Any other request, and spawn, go to that SeedSequence, built on first use."""

    def __init__(self, words, run, k=0):
        self.words, self.run, self.k = words, run, k

    @cached_attribute
    def seed_seq(self):
        master_seed, key, i = self.run
        return _stream(derived_seed(master_seed, *key, i), self.k)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # PCG64's request
            return self.words[self.k]
        return self.seed_seq.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seed_seq.spawn(n_children)


def _mix_in(pool, h, word):
    """numpy SeedSequence's mix of a word (int or uint64 array) into its 4-word pool: (pool, h)."""
    for d in range(4):  # hashmix: xor h in, then update it
        v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
        pool[d] = (r := (0xCA01F9DD * pool[d] - 0x4973F715 * (v ^ v >> 16)) & _M32) ^ r >> 16
    return pool, h


def _seed_words(master_seed, key):
    """Check master_seed and mix its words and key's once; return words(start, stop), whose
    [r, k] is the PCG64 seed of stream k of run start + r (below 2**64) of the batch at key."""
    def nwords(x):  # 32-bit words SeedSequence makes of x; n >= 4 words take 4n hashmixes
        return (sum(map(nwords, x)) if isinstance(x, (list, tuple, range, np.ndarray))
                else max(operator.index(x).bit_length() + 31, 32) // 32)

    try:  # nwords rejects non-ints and None (fresh OS entropy to SeedSequence); SeedSequence, < 0
        h0 = _INIT_A * pow(_MULT_A, 4 * (max(4, nwords(master_seed)) + nwords(key)), 2**32) & _M32
        pool0 = [int(w) for w in derived_seed(master_seed, *key).pool]
    except (TypeError, ValueError) as exc:
        raise ConfigError("master_seed must be a non-negative int or a sequence of them, "
                          f"got {master_seed!r}") from exc

    def words(start, stop):
        if start < 1 << 32 < stop:  # indices from 2**32 on are two words
            return np.concatenate([words(start, 1 << 32), words(1 << 32, stop)])
        i = np.arange(start, stop, dtype=np.uint64)
        pool, h = _mix_in(list(pool0), h0, i & _M32)
        if start >= 1 << 32:
            pool, h = _mix_in(pool, h, i >> 32)
        pool, hb = _mix_in(pool, h, np.array([[0], [1]], np.uint64))[0], _INIT_B  # k as rows
        out = np.zeros((stop - start, 2, 4), np.uint64)
        for j in range(8):  # generate_state: 8 words cycling over the pool, low word first
            v = (pool[j % 4] ^ hb) * (hb := hb * _MULT_B & _M32) & _M32
            out[..., j // 2] |= ((v ^ v >> 16) << 32 * (j % 2)).T
        return out

    return words


_CHUNK = 64  # runs per model.many call: small arrays, and the first trace waits for one chunk
_M32, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 2**32 - 1, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def run_batch(model, mode, master_seed, n, *key, observation=None, proposal_source=None):
    """Yield n executions in order, one at a time: run i carries trace_id i and the streams of
    derived_seed(master_seed, *key, i), computed _CHUNK runs at a time without building it;
    master_seed, a non-negative int or a sequence of them, is checked at the first next().

    model.many, a vectorised body over a list of contexts that a model may carry, runs prior
    and record batches without an observation _CHUNK runs at a time, with the scalar body's
    traces. A chunk it fails runs again through model: the run at fault raises its error,
    or else the vectorised body's error follows."""
    words = _seed_words(master_seed, key)  # run_batch is a generator: at the first next()
    chunks = ([_RunSeed(w, (master_seed, key, i))
               for i, w in enumerate(words(a, min(n, a + _CHUNK)), a)] for a in range(0, n, _CHUNK))
    if hasattr(model, "many") and observation is None and Mode(mode) is not Mode.GUIDED:
        traces = _run_chunks(model, mode, chunks)
    else:
        traces = (run_model(model, mode, s, observation=observation,
                            proposal_source=proposal_source) for chunk in chunks for s in chunk)
    for i, trace in enumerate(traces):
        trace.trace_id = i
        yield trace


def _run_chunks(model, mode, chunks):
    for chunk in chunks:
        ctxs = [ExecutionContext(mode, s) for s in chunk]
        try:
            model.many(ctxs)
            traces = [_finish(ctx) for ctx in ctxs]
        except Exception:
            for s in chunk:  # the scalar body raises the error of the run at fault, if any
                yield run_model(model, mode, s)
            raise
        yield from traces


def run_model(model, mode, seed, observation=None, proposal_source=None):
    """Execute a model once and return its trace, its log_weight set if guided.

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
    return _finish(ctx)


def _finish(ctx):
    """The context's trace, its log_weight set if guided; ScopeError for an open scope."""
    if ctx._scopes:
        open_ids = ", ".join(s.scope_id for s in ctx._scopes)
        raise ScopeError(f"model exited with open scope(s): {open_ids}")
    if ctx.mode is Mode.GUIDED:
        ctx.trace.log_weight = trace_log_weight(ctx.trace)
    return ctx.trace
