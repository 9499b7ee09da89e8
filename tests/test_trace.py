import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simppl.errors import AddressFamilyMismatch, MalformedTrace, ParameterError
from simppl.trace import (
    Address,
    AddressTable,
    Trace,
    TraceEntry,
    column_list,
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


@pytest.mark.parametrize("text", ["mu:Normal", "mu#0", "mu:Normal#x", ""])
def test_unparseable_address_is_a_value_error(text):
    with pytest.raises(ValueError, match="unparseable address"):
        parse_address(text)


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
    t.observe_blocks.append(((a,), (-2.0,), (None,)))
    assert trace_log_weight(t) == pytest.approx(-2.0 + (-0.5 - -0.25))


def test_a_hand_built_trace_computes_its_weight_on_first_read():
    t = Trace()
    t.entries.append(make_entry(intern_address(("m",), "Normal", 0), log_p=-0.5, log_q=-0.25))
    assert t.log_weight == -0.25
    t.entries.append(make_entry(intern_address(("m",), "Normal", 1), log_p=-1.0, log_q=0.0))
    assert t.log_weight == -0.25  # computed once, on the first read


def test_log_weight_is_not_a_constructor_field():
    assert "log_weight" not in {f.name for f in dataclasses.fields(Trace)}
    with pytest.raises(TypeError):
        Trace(log_weight=1.0)


def test_log_weight_minus_infinity_short_circuits():
    a = intern_address(("m",), "Normal", 0)
    t = Trace()
    t.observe_blocks.append(((a,), (-math.inf,), (None,)))
    t.observe_blocks.append(((a,), (math.nan,), (None,)))
    assert trace_log_weight(t) == -math.inf


def test_log_weight_uses_compensated_summation():
    a = intern_address(("m",), "Normal", 0)
    t = Trace()
    # naive accumulation of these loses the tiny term entirely
    for ll in (1e16, 1.0, -1e16):
        t.observe_blocks.append(((a,), (ll,), (None,)))
    assert trace_log_weight(t) == 1.0


# ---------------------------------------------------------------------------
# serialization


def sample_trace(log_likelihood=-1.5):
    t = Trace(trace_id=5)
    a = intern_address(("disc", "u"), "Uniform", 0)
    t.entries.append(
        TraceEntry(address=a, params=(-1.0, 1.0), value=0.25, log_p=-0.69,
                   log_q=-0.7, scope_id="disc", iteration=1, accepted=False)
    )
    t.observe_blocks.append(((intern_address(("y",), "Normal", 0),), (log_likelihood,), (0.9,)))
    t.predicts["u"] = 0.25
    t.scope_executions = [("disc", 1)]
    t.log_weight = -1.49
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


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "traces.jsonl"
    line = trace_to_line(sample_trace())
    path.write_text("\n" + line + "\n  \n\t\n" + line + "\n\n")
    assert [t.trace_id for t in iter_traces(path)] == [5, 5]


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


@pytest.mark.parametrize("field, value", [("trace_id", "Infinity"), ("log_weight", "NaN"),
                                          ("value", "Infinity"), ("trace_id", "-1"),
                                          ("trace_id", "1.0"), ("trace_id", "true")])
def test_non_finite_numbers_and_bad_trace_ids_are_malformed(tmp_path, field, value):
    obj = trace_to_obj(sample_trace())
    target = obj["entries"][0] if field == "value" else obj
    target[field] = "@"
    bad = json.dumps(obj).replace('"@"', value)
    path = tmp_path / "traces.jsonl"
    path.write_text(trace_to_line(sample_trace()) + "\n" + bad + "\n")
    with pytest.raises(MalformedTrace) as err:
        list(iter_traces(path))
    assert err.value.line_no == 2


def test_minus_infinity_log_weight_still_reads(tmp_path):
    t = sample_trace(log_likelihood=-math.inf)
    t.log_weight = -math.inf
    path = tmp_path / "traces.jsonl"
    write_traces(path, [t])
    (back,) = iter_traces(path)
    assert back.log_weight == -math.inf
    assert back.observes[0].log_likelihood == -math.inf


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


# one bad value per checked field: (where in the object, field, JSON text)
BAD_FIELDS = [
    ("trace", "log_weight", '"oops"'),
    ("entry", "value", '"oops"'),
    ("entry", "log_p", '"p"'),
    ("entry", "log_q", "null"),
    ("observe", "log_likelihood", "true"),
    ("entry", "params", '["a"]'),
    ("entry", "params", '{"lo": -1}'),
    ("entry", "scope_id", "7"),
    ("entry", "iteration", "-3"),
    ("entry", "iteration", "1.0"),
    ("entry", "accepted", '"yes"'),
    ("entry", "accepted", "1"),
]


@pytest.mark.parametrize("where, field, text", BAD_FIELDS,
                         ids=[f"{f}={t}" for _, f, t in BAD_FIELDS])
def test_fields_of_the_wrong_type_are_malformed(tmp_path, where, field, text):
    obj = trace_to_obj(sample_trace())
    target = {"trace": obj, "entry": obj["entries"][0], "observe": obj["observes"][0]}[where]
    target[field] = "@"
    path = tmp_path / "traces.jsonl"
    path.write_text(trace_to_line(sample_trace()) + "\n"
                    + json.dumps(obj).replace('"@"', text) + "\n")
    with pytest.raises(MalformedTrace) as err:
        list(iter_traces(path))
    assert err.value.line_no == 2
    assert f"{field} must be" in str(err.value)


@pytest.mark.parametrize("where, field", [("trace", "log_weight"), ("entry", "value"),
                                          ("entry", "log_p"), ("entry", "log_q"),
                                          ("observe", "log_likelihood")])
def test_minus_infinity_and_integers_are_numbers(tmp_path, where, field):
    for text in ("-Infinity", "-3"):
        obj = trace_to_obj(sample_trace())
        target = {"trace": obj, "entry": obj["entries"][0], "observe": obj["observes"][0]}[where]
        target[field] = "@"
        path = tmp_path / "traces.jsonl"
        path.write_text(json.dumps(obj).replace('"@"', text) + "\n")
        (back,) = iter_traces(path)
        got = {"trace": back, "entry": back.entries[0], "observe": back.observes[0]}[where]
        assert getattr(got, field) == float(text)


def test_null_scope_id_and_integer_params_read():
    obj = trace_to_obj(sample_trace())
    obj["entries"][0].update(scope_id=None, params=[-1, 1])
    back = obj_to_trace(obj)
    assert back.entries[0].scope_id is None
    assert back.entries[0].params == (-1, 1)


# ---------------------------------------------------------------------------
# columnar observe blocks


def _block_trace():
    t = Trace()
    t.observe_blocks.append(((intern_address(("a",), "Normal", 0),), (-0.5,), (1.0,)))
    addrs = tuple(intern_address((s,), "Normal", 0) for s in "bcd")
    t.observe_blocks.append((addrs, np.array([-1.0, -2.0, 1e16]), np.array([0.1, 0.2, 0.3])))
    t.observe_blocks.append((addrs[:1], np.array([-1e16]), [0.4]))
    return t


def test_blocks_are_built_in_order_on_first_read():
    t = _block_trace()
    assert [v for _, _, values in t.observe_blocks for v in column_list(values)] == [
        1.0, 0.1, 0.2, 0.3, 0.4]
    assert trace_log_weight(t) == math.fsum([-0.5, -1.0, -2.0, 1e16, -1e16])
    observes = t.observes
    assert [(o.address.rendered, o.log_likelihood, o.value) for o in observes] == [
        ("a:Normal#0", -0.5, 1.0), ("b:Normal#0", -1.0, 0.1), ("c:Normal#0", -2.0, 0.2),
        ("d:Normal#0", 1e16, 0.3), ("b:Normal#0", -1e16, 0.4)]
    assert all(type(o.log_likelihood) is float and type(o.value) is float for o in observes)
    assert [len(addrs) for addrs, _, _ in t.observe_blocks] == [1, 3, 1]
    assert trace_log_weight(t) == math.fsum([-0.5, -1.0, -2.0, 1e16, -1e16])


def test_observes_is_a_fresh_view_that_leaves_the_trace_unchanged():
    t = _block_trace()
    blocks = list(t.observe_blocks)
    observes = t.observes
    observes.pop()
    observes[0].log_likelihood = -math.inf
    assert t.observes is not observes
    assert len(t.observes) == 5 and t.observes[0].log_likelihood == -0.5
    assert t.observe_blocks == blocks
    assert trace_log_weight(t) == math.fsum([-0.5, -1.0, -2.0, 1e16, -1e16])


def test_a_trace_read_back_has_one_block_without_values():
    t = _block_trace()
    back = obj_to_trace(json.loads(trace_to_line(t)))
    ((addrs, log_liks, values),) = back.observe_blocks
    assert [a.rendered for a in addrs] == ["a:Normal#0", "b:Normal#0", "c:Normal#0",
                                          "d:Normal#0", "b:Normal#0"]
    assert log_liks == [-0.5, -1.0, -2.0, 1e16, -1e16] and values is None
    assert [o.value for o in back.observes] == [None] * 5
    assert trace_to_line(back) == trace_to_line(t)


def test_minus_infinity_in_a_block_short_circuits():
    t = _block_trace()
    t.observe_blocks.append(((intern_address(("e",), "Normal", 0),), np.array([-math.inf]), [0.5]))
    t.observe_blocks.append(((intern_address(("f",), "Normal", 0),), np.array([math.nan]), [0.6]))
    assert trace_log_weight(t) == -math.inf


def test_traces_compare_by_identity():
    assert sample_trace() != sample_trace()
    t = _block_trace()
    assert t == t
