"""Execution-trace primitives: addresses, entry records, weights, JSONL io.

An address identifies one random-choice site structurally: the path of site
identifiers, the distribution family drawn there, and an instance counter that
disambiguates repeated visits within a single execution. The rendered form is

    path[0]/path[1]/...:FamilyTag#instance

Site identifiers may not contain "/", ":" or "#", which keeps the rendered
form parseable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

from .errors import AddressFamilyMismatch, MalformedTrace, ParameterError

_SITE_FORBIDDEN = frozenset("/:#")


class Address:
    __slots__ = ("path", "family_tag", "instance", "head_key", "rendered")

    def __init__(self, path, family_tag, instance):
        self.path = tuple(path)
        self.family_tag = family_tag
        self.instance = instance
        self.head_key = "/".join(self.path) + ":" + family_tag  # rendered without "#instance"
        self.rendered = self.head_key + "#" + str(instance)

    def __eq__(self, other):
        return isinstance(other, Address) and self.rendered == other.rendered

    def __hash__(self):
        return hash(self.rendered)

    def __repr__(self):
        return f"Address({self.rendered!r})"


# The same few hundred addresses recur across every trace of a model; interning
# keeps large particle sets from holding millions of identical objects. Callers
# pass (path tuple, family tag, instance) positionally, so equal addresses share
# one cache key.
intern_address = functools.cache(Address)


def parse_address(text):
    """Inverse of Address.rendered."""
    try:
        head, inst = text.rsplit("#", 1)
        prefix, family = head.rsplit(":", 1)
        instance = int(inst)
    except ValueError as exc:
        raise ValueError(f"unparseable address {text!r}") from exc
    return intern_address(tuple(prefix.split("/")), family, instance)


class AddressTable:
    """Per-execution counter table mapping structural slots to instances.

    Each slot (full path including the site id) is bound to a single family
    for the whole execution; revisiting it with another family is an
    instrumentation bug and raises AddressFamilyMismatch. A slot's state is
    an immutable (family, count) tuple, so snapshots are plain dict copies.
    """

    __slots__ = ("_slots",)

    def __init__(self):
        self._slots = {}

    def extend(self, parent_path, site_id, family_tag):
        _check_site_id(site_id)
        path = parent_path + (site_id,)
        slot = self._slots.get(path)
        if slot is None:
            self._slots[path] = (family_tag, 1)
            instance = 0
        else:
            family, instance = slot
            if family != family_tag:
                raise AddressFamilyMismatch(
                    f"site {'/'.join(path)} was {family}, now sampled as {family_tag}"
                )
            self._slots[path] = (family, instance + 1)
        return intern_address(path, family_tag, instance)

    def extend_many(self, parent_path, site_ids, family_tag):
        """Addresses of `extend` applied to each of a tuple of site ids in order.

        When none of the slots is taken yet, every address is instance 0 and
        the table is filled in one update from a per-(parent path, site ids,
        family) cache; otherwise each site goes through `extend`.
        """
        cached = _bulk_entry(parent_path, site_ids, family_tag)
        if cached and self._slots.keys().isdisjoint(cached[0].keys()):
            self._slots.update(cached[0])
            return cached[1]
        return tuple(self.extend(parent_path, s, family_tag) for s in site_ids)

    def snapshot(self):
        return dict(self._slots)

    def restore(self, snap):
        self._slots = dict(snap)


def _check_site_id(site_id):
    if not site_id or not _SITE_FORBIDDEN.isdisjoint(site_id):
        raise ParameterError(
            f"invalid site id {site_id!r}: must be non-empty without '/', ':', '#'"
        )


@functools.cache  # shared by every AddressTable, like intern_address
def _bulk_entry(parent_path, site_ids, family_tag):
    """({path: (family, 1)}, instance-0 addresses), or () when a site repeats."""
    for site_id in site_ids:
        _check_site_id(site_id)
    paths = [parent_path + (s,) for s in site_ids]
    if len(set(paths)) != len(paths):
        return ()  # a repeated site needs extend's instance counting
    fresh = dict.fromkeys(paths, (family_tag, 1))
    return fresh, tuple(intern_address(p, family_tag, 0) for p in paths)


@dataclass(slots=True)
class TraceEntry:
    """One executed sample statement.

    log_p is the prior density of the drawn value, log_q the density under
    the distribution it was actually drawn from; they are equal whenever the
    proposal is the prior.
    """

    address: Address
    params: tuple
    value: object
    log_p: float
    log_q: float
    scope_id: str | None = None
    iteration: int = 0
    accepted: bool = True


@dataclass(slots=True)
class ObserveEntry:
    """One observed cell as Trace.observes lists it; value is None when read from JSONL."""

    address: Address
    log_likelihood: float
    value: object = None


class cached_attribute:
    """A lock-free cached property: the first read stores func(obj) in obj.__dict__[name]."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


@dataclass(eq=False)
class Trace:
    """One model execution.

    scope_executions holds (scope_id, retries) per rejection-scope execution
    in exit order; in record mode it keeps the retry counts of the iterations
    it rolled back, but not the inner scope executions they contained.

    observe_blocks is the one observe store: one (addresses, log-likelihoods,
    values) block per observe statement; values is None when read from JSONL.
    A column is a list, a tuple or an array; read it through column_list.
    `observes` is a read-only view, a fresh ObserveEntry list on each read.
    log_weight, unless set first (guided runs and JSONL reads set it), is
    trace_log_weight computed on its first read. Equality is identity: blocks
    hold arrays.
    """

    entries: list = field(default_factory=list)
    predicts: dict = field(default_factory=dict)
    scope_executions: list = field(default_factory=list)
    trace_id: int = 0
    proposal_fallbacks: int = 0
    observe_blocks: list = field(default_factory=list, init=False, repr=False)

    @property
    def observes(self):
        out = []
        for addrs, log_liks, values in self.observe_blocks:
            values = [None] * len(addrs) if values is None else column_list(values)
            out += map(ObserveEntry, addrs, column_list(log_liks), values)
        return out

    @cached_attribute
    def log_weight(self):
        return trace_log_weight(self)

    @property
    def length(self):
        """Number of sample entries; observes do not count."""
        return len(self.entries)


def column_list(cells):
    """A block's column as a list or tuple: an array's tolist(), else the column itself."""
    return cells.tolist() if hasattr(cells, "tolist") else cells


def trace_log_weight(trace):
    """log w = sum of observe log-likelihoods + sum over entries of log_p - log_q.

    Entries' densities are finite by construction; observe likelihoods may be
    -inf, which propagates to a -inf weight (a zero-weight particle).
    """
    terms = []
    for _, log_liks, _ in trace.observe_blocks:
        terms += column_list(log_liks)
    terms.extend(e.log_p - e.log_q for e in trace.entries)
    if -math.inf in terms:
        return -math.inf
    return math.fsum(terms)


def trace_to_obj(trace):
    return {
        "trace_id": trace.trace_id,
        "entries": [
            {
                "addr": e.address.rendered,
                "family": e.address.family_tag,
                "params": list(e.params),
                "value": e.value,
                "log_p": e.log_p,
                "log_q": e.log_q,
                "scope_id": e.scope_id,
                "iteration": e.iteration,
                "accepted": e.accepted,
            }
            for e in trace.entries
        ],
        "observes": [
            {"addr": a.rendered, "log_likelihood": ll}
            for addrs, log_liks, _ in trace.observe_blocks
            for a, ll in zip(addrs, column_list(log_liks))
        ],
        "predicts": trace.predicts,
        "log_weight": trace.log_weight,
        "scopes": trace.scope_executions,
    }


_NUMBER = (lambda v: type(v) in (int, float), "a number")  # not bool; NaN, Infinity never decode
_COUNT = (lambda v: type(v) is int and v >= 0, "an int >= 0")
_FIELD_TYPES = {  # the JSONL fields obj_to_trace reads
    "trace_id": _COUNT, "iteration": _COUNT, "log_weight": _NUMBER, "value": _NUMBER,
    "log_p": _NUMBER, "log_q": _NUMBER, "log_likelihood": _NUMBER,
    "params": (lambda v: type(v) is list and all(map(_NUMBER[0], v)), "a list of numbers"),
    "scope_id": (lambda v: v is None or type(v) is str, "a string or null"),
    "accepted": (lambda v: type(v) is bool, "a bool"),
    "scopes": (lambda v: type(v) is list and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[0], str)
        and type(p[1]) is int and p[1] >= 0 for p in v), "a list of [scope_id, retries >= 0]"),
}
_ENTRY_FIELDS = ("value", "log_p", "log_q", "scope_id", "iteration", "accepted")


def _field(obj, key):
    """obj[key], or ValueError when it is not of the key's JSONL type."""
    value = obj[key]
    ok, what = _FIELD_TYPES[key]
    if not ok(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def obj_to_trace(obj):
    trace = Trace(
        predicts=dict(obj["predicts"]),
        scope_executions=[tuple(p) for p in _field(obj, "scopes")],
        trace_id=_field(obj, "trace_id"),
    )
    trace.log_weight = _field(obj, "log_weight")
    for e in obj["entries"]:
        addr = parse_address(e["addr"])
        if addr.family_tag != e["family"]:
            raise ValueError(f"family field {e['family']!r} disagrees with {e['addr']!r}")
        trace.entries.append(TraceEntry(addr, tuple(_field(e, "params")),
                                        *[_field(e, key) for key in _ENTRY_FIELDS]))
    cells = [(parse_address(o["addr"]), _field(o, "log_likelihood")) for o in obj["observes"]]
    trace.observe_blocks.append(([a for a, _ in cells], [ll for _, ll in cells], None))
    return trace


def trace_to_line(trace):
    return json.dumps(trace_to_obj(trace), separators=(",", ":"))


def write_traces(path, traces):
    """Write traces to path as JSONL, one object per line."""
    with open(path, "w") as fh:
        for t in traces:
            fh.write(trace_to_line(t) + "\n")


def _reject_constant(name):
    if name != "-Infinity":  # -Infinity is the log of a zero weight or likelihood
        raise ValueError(f"{name} is not a valid trace number")
    return -math.inf


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def iter_traces(path):
    """Yield traces from a UTF-8 JSONL file; raises MalformedTrace with the
    line number."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                # UnicodeDecodeError is a ValueError
                trace = obj_to_trace(_DECODER.decode(line.decode("utf-8")))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise MalformedTrace(line_no, str(exc)) from exc
            yield trace
