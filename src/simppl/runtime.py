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
is set before it returns; an unconditioned trace's is computed on its first read.
Each observe stores its log-likelihoods as it runs. run_batch yields n
executions one at a time. A model may carry a vectorised body, model.many(chunk),
that _run_chunks runs on up to _CHUNK unconditioned runs, each statement once for
all of them (see _Chunk). Every run takes the same statements, and the chunk must
match the scalar body bit for bit: run_batch builds traces from it, computing
each observe block's log-likelihoods for all runs in one pass, and training reads
its columns instead, computing none.
Latent draws use RNG stream 0 of the seed and synthetic observations stream 1
(built on the first such draw), its spawn(2) children without advancing its
spawn counter. Run i of a batch has the streams of derived_seed(master_seed,
*key, i), master_seed a non-negative int or a sequence of them: their PCG64
words come from one numpy pass per chunk of runs, and that SeedSequence is built
only when the model spawns from a stream or asks it for other words; prior and
guided runs on one seed share latent randomness.
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
        site_ids = tuple(site_ids)
        mu, sigma = _normal_params(self._site_name, site_ids, np.asarray(mu, dtype=float)[None],
                                   np.asarray(sigma, dtype=float)[None], 1, values)
        if not site_ids:
            return []
        addrs = self.counters.extend_many(self._path, site_ids, "Normal")
        self._last_address = addrs[-1]
        if values is None:
            self._check_unconditioned(addrs[0])
            values = normal_cells([self.obs_rng], mu, sigma)[0]
        self.trace.observe_blocks.append(
            (addrs, normal_log_probs(np.array(values, dtype=float), mu[0], sigma[0]), values))
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
        return None if self.observation is None else self.observation.get(key)

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
        return entry(prior) if callable(entry) else entry


def _normal_params(site_name, site_ids, mu, sigma, runs, values=None):
    """Checked (runs, cells) float copies of mu and sigma (a chunk reads them after the body
    returns); the error names the first site at fault (the last if none is) as site_name(site_id)."""
    n = len(site_ids)
    mu, sigma = np.array(mu, dtype=float), np.array(sigma, dtype=float)
    sizes = [a.shape[-1] if a.ndim and a.shape[:-1] == (runs,) else 0 for a in (mu, sigma)]
    if values is not None:
        sizes.append(len(values))
    if any(k != n for k in sizes):
        at = site_name(site_ids[min(min(sizes), n - 1)]) if n else "no sites"
        raise DimensionMismatch(
            f"observe_normal_many at {at}: {n} site ids, "
            f"lengths (mu, sigma{', values' if values is not None else ''}) = {sizes}"
        )
    bad = ~(np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0))
    if bad.any():
        k = int(bad.argmax())
        raise ParameterError(
            f"observe at {site_name(site_ids[k % n])}: need finite mu and positive "
            f"finite sigma, got mu={float(mu.flat[k])!r}, sigma={float(sigma.flat[k])!r}"
        )
    return mu, sigma


def normal_cells(rngs, mu, sigma):
    """Row i is rngs[i].normal(mu[i], sigma[i]) for (runs, cells) float mu and sigma, bit for
    bit: mu[i] + sigma[i] * z with z = rngs[i].standard_normal(cells), drawn into one array."""
    z = np.empty(mu.shape)
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return mu + sigma * z


def _stream(ss, k):
    """ss.spawn(2)[k] of a fresh ss, its spawn counter unmoved; of a _RunSeed, its run's k."""
    if isinstance(ss, _RunSeed):
        return ss if ss.k == k else _RunSeed(ss.words, ss.batch, ss.i, k)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size)


def derived_seed(master_seed, *key):
    """Seed of the RNG stream at `key` under master_seed."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


class _RunSeed(np.random.bit_generator.ISpawnableSeedSequence):
    """Seed of stream k of run i of the batch at batch = (master_seed, key): words[k] is its PCG64
    seed, derived_seed(master_seed, *key, i, k).generate_state(4, np.uint64), a C-contiguous row
    (PCG64 reads its buffer). Any other request, and spawn, go to that SeedSequence, built on
    first use. As the seed of a run it stands for the run; _stream gives its other stream."""

    def __init__(self, words, batch, i, k=0):
        self.words, self.batch, self.i, self.k = words, batch, i, k

    @cached_attribute
    def seed_seq(self):
        master_seed, key = self.batch
        return derived_seed(master_seed, *key, self.i, self.k)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # PCG64's request
            return self.words[self.k]
        return self.seed_seq.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seed_seq.spawn(n_children)


def _hashmix(word, h):
    """numpy SeedSequence's hashmix of word under each hash constant h[:-1], in uint32."""
    v = (word ^ h[:-1]) * h[1:]  # h[d + 1] is the constant after h[d]
    return v ^ v >> 16


def _mix(pool, word, h):
    """numpy SeedSequence's mix of word into its four pool words, hashmixed under h[:4]."""
    r = 0xCA01F9DD * pool - 0x4973F715 * _hashmix(word, h[:5])
    return r ^ r >> 16


def _seed_words(master_seed, key):
    """Check master_seed and mix its words and key's once; return words(start, stop), a
    C-contiguous array whose [r, k] is the PCG64 seed of stream k of run start + r (below 2**64)
    of the batch at key. The hash constants are a fixed sequence, so each word of i and k is
    one pass over (runs, streams, pool words), and generate_state's 8 words (low first) one."""
    def nwords(x):  # 32-bit words SeedSequence makes of x; n >= 4 words take 4n hashmixes
        return (sum(map(nwords, x)) if isinstance(x, (list, tuple, range, np.ndarray))
                else max(operator.index(x).bit_length() + 31, 32) // 32)

    try:  # nwords rejects non-ints and None (fresh OS entropy to SeedSequence); SeedSequence, < 0
        h0 = _INIT_A * pow(_MULT_A, 4 * (max(4, nwords(master_seed)) + nwords(key)), 2**32) & _M32
        pool0 = derived_seed(master_seed, *key).pool
    except (TypeError, ValueError) as exc:
        raise ConfigError("master_seed must be a non-negative int or a sequence of them, "
                          f"got {master_seed!r}") from exc
    ha = np.array([h0 * pow(_MULT_A, j, 2**32) & _M32 for j in range(13)], np.uint32)

    def words(start, stop):
        if start < 1 << 32 < stop:  # indices from 2**32 on are two words
            return np.concatenate([words(start, 1 << 32), words(1 << 32, stop)])
        i = np.arange(start, stop, dtype=np.uint64)[:, None, None]  # (runs, stream, pool word)
        pool, h = _mix(pool0, i.astype(np.uint32), ha), ha[4:]
        if start >= 1 << 32:
            pool, h = _mix(pool, (i >> 32).astype(np.uint32), h), h[4:]
        v = _hashmix(_mix(pool, _STREAMS, h)[..., [0, 1, 2, 3] * 2], _HASH_B)  # generate_state
        return np.ascontiguousarray(v[..., 1::2].astype(np.uint64) << 32 | v[..., ::2])

    return words


_CHUNK = 64  # runs per model.many call: small arrays, and the first trace waits for one chunk
_M32, _INIT_A, _MULT_A = 2**32 - 1, 0x43B0D7E5, 0x931E8875
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, j, 2**32) & _M32 for j in range(9)], np.uint32)
_STREAMS = np.array([[0], [1]], np.uint32)  # the word k of stream k, on the stream axis


def run_batch(model, mode, master_seed, n, *key, observation=None, proposal_source=None):
    """Yield n executions in order, one at a time: run i carries trace_id i and the streams of
    derived_seed(master_seed, *key, i), computed _CHUNK runs at a time without building it;
    master_seed, a non-negative int or a sequence of them, is checked at the first next().
    Unconditioned runs of a model carrying model.many go through _run_chunks."""
    if hasattr(model, "many") and observation is None and Mode(mode) is not Mode.GUIDED:
        traces = (trace for chunk in _run_chunks(model, mode, master_seed, n, *key)
                  for trace in chunk)
    else:
        traces = (run_model(model, mode, s, observation=observation,
                            proposal_source=proposal_source)
                  for seeds in _seed_chunks(master_seed, n, key) for s in seeds)
    for i, trace in enumerate(traces):
        trace.trace_id = i
        yield trace


def _seed_chunks(master_seed, n, key):
    """The seeds of n runs of the batch at key, a list of up to _CHUNK runs at a time."""
    words, batch = _seed_words(master_seed, key), (master_seed, key)
    return ([_RunSeed(w, batch, i) for i, w in enumerate(words(a, min(n, a + _CHUNK)), a)]
            for a in range(0, n, _CHUNK))


def _run_chunks(model, mode, master_seed, n, *key):
    """Yield each _Chunk of n unconditioned runs on run_batch's seeds after model.many ran it. A
    chunk the body fails runs again through model, each trace yielded in a list of one, until
    the run at fault raises its error; or else the body's error follows."""
    for seeds in _seed_chunks(master_seed, n, key):
        chunk = _Chunk(seeds)
        try:
            model.many(chunk)
        except Exception:
            for s in seeds:
                yield [run_model(model, mode, s)]
            raise
        yield chunk


class _Chunk:
    """Runs that a vectorised body executes one statement at a time for all, with one address
    sequence and no scopes, run i on its own streams. Iterating builds each run's Trace, run i
    taking row i of each observe's log-likelihoods; training reads samples, (address, prior,
    values), and observes, (addresses, values, mu, sigma)."""

    def __init__(self, seeds):
        self.seeds, self.counters = seeds, AddressTable()
        self.samples, self.observes, self.predicts = [], [], {}
        self.rngs, self.obs_rngs = ([np.random.Generator(np.random.PCG64(_stream(s, k)))
                                     for s in seeds] for k in (0, 1))

    def __len__(self):
        return len(self.seeds)

    def sample(self, site_id, prior):
        """The column of prior.sample(rng) on each run's stream 0, a tuple."""
        addr = self.counters.extend((), site_id, prior.family)
        values = tuple(map(prior.sample, self.rngs))
        self.samples.append((addr, prior, values))
        return values

    def observe_normal_many(self, site_ids, mu, sigma):
        """observe_normal_many(site_ids, mu[i], sigma[i]) in run i, for (runs, cells) mu and
        sigma checked once; returns the drawn (runs, cells) values, read-only."""
        site_ids = tuple(site_ids)
        mu, sigma = _normal_params(str, site_ids, mu, sigma, len(self))
        values = normal_cells(self.obs_rngs, mu, sigma)
        values.flags.writeable = False
        if site_ids:
            self.observes.append((self.counters.extend_many((), site_ids, "Normal"),
                                  values, mu, sigma))
        return values

    def predict(self, name, column):
        """Run i predicts column[i]."""
        if name in self.predicts:
            raise DuplicatePredictName(f"predict {name!r} already set")
        if len(column) != len(self):
            raise DimensionMismatch(f"predict {name!r}: {len(column)} values for {len(self)} runs")
        self.predicts[name] = column

    def __iter__(self):
        blocks = [(a, normal_log_probs(v, mu, sigma), v) for a, v, mu, sigma in self.observes]
        for i in range(len(self)):
            trace = Trace([TraceEntry(a, prior.params, v[i], lp, lp) for a, prior, v in self.samples
                           for lp in (prior.log_prob(v[i]),)],
                          {name: column[i] for name, column in self.predicts.items()})
            trace.observe_blocks += [(a, log_liks[i], v[i]) for a, log_liks, v in blocks]
            yield trace


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
    if ctx._scopes:
        open_ids = ", ".join(s.scope_id for s in ctx._scopes)
        raise ScopeError(f"model exited with open scope(s): {open_ids}")
    if ctx.mode is Mode.GUIDED:
        ctx.trace.log_weight = trace_log_weight(ctx.trace)
    return ctx.trace
