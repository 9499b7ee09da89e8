import json
import math

import pytest
from hypothesis import given, strategies as st

from simppl.errors import AddressFamilyMismatch, MalformedTrace, ParameterError
from simppl.trace import (
    Address,
    AddressTable,
    ObserveEntry,
    Trace,
    TraceEntry,
    intern_address,
    iter_traces,
    obj_to_trace,
    parse_address,
    trace_log_weight,
    trace_to_line,
    trace_to_obj,
    write_traces,
)


def make_entry(addr, value=0.0, log_p=-1.0, log_q=-1.0, **kw):
    return TraceEntry(address=addr, params=(0.0, 1.0), value=value,
                      log_p=log_p, log_q=log_q, **kw)


# ---------------------------------------------------------------------------
# addresses


def test_render_form():
    a = Address(("outer", "inner"), "Normal", 3)
    assert a.rendered == "outer/inner:Normal#3"
    assert a.head_key == "outer/inner:Normal"


def test_root_level_render():
    a = Address(("mu",), "Normal", 0)
    assert a.rendered == "mu:Normal#0"


def test_parse_roundtrip_simple():
    a = Address(("disc", "u"), "Uniform", 7)
    b = parse_address(a.rendered)
    assert b is intern_address(a.path, a.family_tag, a.instance)
    assert (b.path, b.family_tag, b.instance) == (("disc", "u"), "Uniform", 7)


# site ids may not contain the rendering separators, so any rendered string
# parses back unambiguously
_SITE = st.text(
    st.characters(codec="ascii", categories=("L", "N"), include_characters="_-."),
    min_size=1,
    max_size=8,
)


@given(
    path=st.lists(_SITE, min_size=1, max_size=4),
    family=st.sampled_from(["Normal", "Uniform", "Categorical", "Exponential", "Poisson"]),
    instance=st.integers(min_value=0, max_value=10**6),
)
def test_parse_roundtrip_property(path, family, instance):
    a = intern_address(tuple(path), family, instance)
    b = parse_address(a.rendered)
    assert b is a


def test_interning_returns_same_object():
    x = intern_address(("a", "b"), "Normal", 0)
    y = intern_address(("a", "b"), "Normal", 0)
    assert x is y


def test_equality_and_hash_follow_rendered_form():
    x = Address(("a",), "Normal", 1)
    y = Address(("a",), "Normal", 1)
    z = Address(("a",), "Normal", 2)
    assert x == y and hash(x) == hash(y)
    assert x != z


# ---------------------------------------------------------------------------
# counter table


def test_instance_counter_increments_per_occurrence():
    table = AddressTable()
    a0 = table.extend((), "x", "Normal")
    a1 = table.extend((), "x", "Normal")
    other = table.extend((), "y", "Normal")
    assert (a0.instance, a1.instance, other.instance) == (0, 1, 0)


def test_family_mismatch_at_same_slot():
    table = AddressTable()
    table.extend((), "A1", "Normal")
    with pytest.raises(AddressFamilyMismatch):
        table.extend((), "A1", "Categorical")


def test_separator_characters_rejected_in_site_ids():
    table = AddressTable()
    for bad in ("a/b", "a:b", "a#b", ""):
        with pytest.raises(ParameterError):
            table.extend((), bad, "Normal")


def test_snapshot_restore_rewinds_counters():
    table = AddressTable()
    table.extend((), "x", "Normal")
    snap = table.snapshot()
    table.extend((), "x", "Normal")
    table.extend((), "y", "Uniform")
    table.restore(snap)
    a = table.extend((), "x", "Normal")
    assert a.instance == 1


def test_extend_renders_the_parent_path():
    table = AddressTable()
    a = table.extend(("scope",), "s", "Exponential")
    assert a.rendered == "scope/s:Exponential#0"


# ---------------------------------------------------------------------------
# log-weight arithmetic


def test_log_weight_sums_likelihoods_and_ratios():
    a = intern_address(("m",), "Normal", 0)
    t = Trace()
    t.entries.append(make_entry(a, log_p=-0.5, log_q=-0.25))
    t.observes.append(ObserveEntry(address=a, log_likelihood=-2.0))
    assert trace_log_weight(t) == pytest.approx(-2.0 + (-0.5 - -0.25))


def test_log_weight_minus_infinity_short_circuits():
    a = intern_address(("m",), "Normal", 0)
    t = Trace()
    t.observes.append(ObserveEntry(address=a, log_likelihood=-math.inf))
    t.observes.append(ObserveEntry(address=a, log_likelihood=math.nan))
    assert trace_log_weight(t) == -math.inf


def test_log_weight_uses_compensated_summation():
    a = intern_address(("m",), "Normal", 0)
    t = Trace()
    # naive accumulation of these loses the tiny term entirely
    for ll in (1e16, 1.0, -1e16):
        t.observes.append(ObserveEntry(address=a, log_likelihood=ll))
    assert trace_log_weight(t) == 1.0


# ---------------------------------------------------------------------------
# serialization


def sample_trace():
    t = Trace(trace_id=5)
    a = intern_address(("disc", "u"), "Uniform", 0)
    t.entries.append(
        TraceEntry(address=a, params=(-1.0, 1.0), value=0.25, log_p=-0.69,
                   log_q=-0.7, scope_id="disc", iteration=1, accepted=False)
    )
    t.observes.append(ObserveEntry(address=intern_address(("y",), "Normal", 0),
                                   log_likelihood=-1.5, value=0.9))
    t.predicts["u"] = 0.25
    t.scope_executions = [("disc", 1)]
    t.log_weight = -1.49
    t.finalized = True
    return t


def test_serialized_fields_exact():
    obj = trace_to_obj(sample_trace())
    assert set(obj) == {"trace_id", "entries", "observes", "predicts", "log_weight", "scopes"}
    assert obj["scopes"] == [("disc", 1)]
    entry = obj["entries"][0]
    assert set(entry) == {"addr", "family", "params", "value", "log_p",
                          "log_q", "scope_id", "iteration", "accepted"}
    assert entry["addr"] == "disc/u:Uniform#0"
    assert entry["family"] == "Uniform"
    observe = obj["observes"][0]
    # observed data lives in the observation file, not in every trace
    assert set(observe) == {"addr", "log_likelihood"}


def test_roundtrip_preserves_structure():
    t = sample_trace()
    back = obj_to_trace(json.loads(trace_to_line(t)))
    assert back.trace_id == t.trace_id
    assert back.log_weight == t.log_weight
    assert back.entries[0].address is t.entries[0].address
    assert back.entries[0].accepted is False
    assert back.entries[0].iteration == 1
    assert back.predicts == {"u": 0.25}
    assert back.scope_executions == [("disc", 1)]


def test_write_then_iter_roundtrips(tmp_path):
    path = tmp_path / "traces.jsonl"
    traces = [sample_trace(), sample_trace()]
    traces[1].trace_id = 6
    write_traces(path, traces)
    got = list(iter_traces(path))
    assert [t.trace_id for t in got] == [5, 6]


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text(trace_to_line(sample_trace()) + "\n" + "not json\n")
    with pytest.raises(MalformedTrace) as err:
        list(iter_traces(path))
    assert err.value.line_no == 2


def test_missing_field_is_malformed(tmp_path):
    obj = trace_to_obj(sample_trace())
    del obj["log_weight"]
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedTrace):
        list(iter_traces(path))


@pytest.mark.parametrize("scopes", [None, [["disc", "1"]], [["disc", -1]], [["disc"]],
                                    [[3, 0]], ["ab"], {"disc": 1}])
def test_missing_or_malformed_scopes_are_malformed(tmp_path, scopes):
    # every key is required: scope executions are never rebuilt from entries
    obj = trace_to_obj(sample_trace())
    if scopes is None:
        del obj["scopes"]
    else:
        obj["scopes"] = scopes
    path = tmp_path / "traces.jsonl"
    path.write_text(trace_to_line(sample_trace()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(MalformedTrace) as err:
        list(iter_traces(path))
    assert err.value.line_no == 2
    assert "scopes" in str(err.value)


def test_address_of_the_wrong_type_is_malformed(tmp_path):
    obj = trace_to_obj(sample_trace())
    obj["entries"][0]["addr"] = 5
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedTrace):
        list(iter_traces(path))


def test_non_utf8_line_is_malformed(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_bytes(trace_to_line(sample_trace()).encode() + b"\n\xff\xfe{}\n")
    with pytest.raises(MalformedTrace) as err:
        list(iter_traces(path))
    assert err.value.line_no == 2


def test_serialization_is_deterministic():
    assert trace_to_line(sample_trace()) == trace_to_line(sample_trace())
