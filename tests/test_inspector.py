import pytest
from hypothesis import given, settings, strategies as st

from simppl import simzoo
from simppl.distributions import Normal
from simppl.inspector import (
    END,
    START,
    SuccessionGraph,
    TraceStats,
    _simple_cycles,
    graph_to_dot,
    hotspot_report,
)
from simppl.runtime import Mode, run_model
from simppl.sis import particle_seed
from simppl.trace import Trace, TraceEntry, intern_address

REJECTION = simzoo.get_model("rejection_demo").run
GAUSSIAN = simzoo.get_model("gaussian_unknown_mean").run


def synthetic_trace(site_ids):
    t = Trace()
    for i, site in enumerate(site_ids):
        t.entries.append(TraceEntry(
            address=intern_address((site,), "Normal", i), params=(0.0, 1.0),
            value=0.0, log_p=-1.0, log_q=-1.0,
        ))
    return t


def prior_traces(model, n, seed=5):
    return [run_model(model, Mode.PRIOR, particle_seed(seed, i)) for i in range(n)]


def graph_of(traces):
    graph = SuccessionGraph()
    for trace in traces:
        graph.add_trace(trace)
    return graph


def stats_of(traces):
    stats = TraceStats()
    for trace in traces:
        stats.add_trace(trace)
    return stats


def scope_model(plan, between=False):
    """Run scope "s" once per entry of plan, retrying that many times; each
    iteration samples "x". With between, a top-level "mid" draw separates
    consecutive executions."""

    def model(ctx):
        for k, retries in enumerate(plan):
            if between and k:
                ctx.sample("mid", Normal(0, 1))
            with ctx.rejection_scope("s"):
                for attempt in range(retries + 1):
                    ctx.sample("x", Normal(0, 1))
                    if attempt < retries:
                        ctx.scope_retry()

    return model


def manual_graph(edges):
    g = SuccessionGraph()
    for a, b in edges:
        g.nodes.add(a)
        g.nodes.add(b)
        g.edges[(a, b)] = g.edges.get((a, b), 0) + 1
    return g


# ---------------------------------------------------------------------------
# succession graph


def test_empty_graph_has_only_sentinels():
    g = graph_of([])
    assert g.nodes == {START, END}
    assert g.edges == {}
    assert g.n_traces == 0


def test_single_trace_chain():
    g = graph_of([synthetic_trace(["a", "b"])])
    assert g.edges == {
        (START, "a:Normal"): 1,
        ("a:Normal", "b:Normal"): 1,
        ("b:Normal", END): 1,
    }


def test_instance_stripping_creates_cycles():
    # a, a, a within one trace collapses to a self-loop traversed twice
    g = graph_of([synthetic_trace(["x", "x", "x"])])
    assert g.edges[("x:Normal", "x:Normal")] == 2
    assert _simple_cycles(g) == [["x:Normal"]]


def test_flow_conservation_on_model_traces():
    traces = prior_traces(REJECTION, 300)
    g = graph_of(traces)
    assert g.out_degree(START) == 300
    assert g.in_degree(END) == 300
    for node in g.nodes - {START, END}:
        assert g.in_degree(node) == g.out_degree(node)


def test_edge_counts_sum_to_entries_plus_traces():
    traces = prior_traces(REJECTION, 100)
    g = graph_of(traces)
    total_entries = sum(len(t.entries) for t in traces)
    assert sum(g.edges.values()) == total_entries + 100


@settings(max_examples=30, deadline=None)
@given(split=st.integers(min_value=0, max_value=60))
def test_merge_matches_sequential_build(split):
    traces = prior_traces(GAUSSIAN, 30) + prior_traces(REJECTION, 30)
    left = graph_of(traces[:split])
    right = graph_of(traces[split:])
    merged = left.merge(right)
    whole = graph_of(traces)
    assert merged.nodes == whole.nodes
    assert merged.edges == whole.edges
    assert merged.n_traces == whole.n_traces


# ---------------------------------------------------------------------------
# DOT output


def test_dot_output_frozen_example():
    g = graph_of([synthetic_trace(["a"])])
    assert graph_to_dot(g) == (
        'digraph succession {\n'
        '  "END";\n'
        '  "START";\n'
        '  "a:Normal";\n'
        '  "START" -> "a:Normal" [label=1];\n'
        '  "a:Normal" -> "END" [label=1];\n'
        '}\n'
    )


def test_dot_is_order_independent():
    traces = prior_traces(REJECTION, 40)
    a = graph_to_dot(graph_of(traces))
    b = graph_to_dot(graph_of(list(reversed(traces))))
    assert a == b


def test_dot_quotes_special_characters():
    g = manual_graph([('wei"rd', "other")])
    dot = graph_to_dot(g)
    assert '"wei\\"rd"' in dot


# ---------------------------------------------------------------------------
# statistics


def test_stats_lengths_and_addresses():
    stats = stats_of([synthetic_trace(["a"]), synthetic_trace(["a", "b"])])
    assert stats.n_traces == 2
    assert (stats.length_min, stats.length_max) == (1, 2)
    assert stats.length_mean == pytest.approx(1.5)
    assert stats.length_hist == {1: 1, 2: 1}
    assert stats.address_counts == {"a:Normal#0": 2, "b:Normal#1": 1}


def test_stats_empty_obj_shape():
    obj = TraceStats().to_obj()
    assert obj == {
        "n_traces": 0,
        "length": {"min": None, "max": None, "mean": None, "hist": {}},
        "addresses": {},
        "scopes": {},
    }


def test_scope_retry_histogram_from_rejection_traces():
    traces = prior_traces(REJECTION, 500)
    stats = stats_of(traces)
    hist = stats.scope_retry_hist["disc"]
    # every trace runs the scope once; retry counts follow the acceptance
    # geometry (pi/4 per iteration), so 0 dominates and the tail decays
    assert sum(hist.values()) == 500
    assert hist[0] > hist.get(1, 0) > hist.get(2, 0)
    expected = {max(e.iteration for e in t.entries) for t in traces}
    assert set(hist) == expected


def test_two_sequential_scope_executions_counted_separately():
    # the first execution retries once, the second accepts at once
    stats = stats_of([run_model(scope_model([1, 0]), Mode.PRIOR, 1)])
    assert stats.scope_retry_hist == {"s": {1: 1, 0: 1}}


def test_scope_followed_by_toplevel_then_scope_again():
    t = run_model(scope_model([0, 0], between=True), Mode.PRIOR, 1)
    assert [e.scope_id for e in t.entries] == ["s", None, "s"]
    assert stats_of([t]).scope_retry_hist == {"s": {0: 2}}


@pytest.mark.parametrize("mode", list(Mode))
def test_back_to_back_scopes_accepting_at_once_are_two_executions(mode):
    t = run_model(scope_model([0, 0]), mode, 1, observation={})
    assert stats_of([t]).scope_retry_hist == {"s": {0: 2}}


@pytest.mark.parametrize("mode", list(Mode))
def test_immediate_accept_then_two_retries(mode):
    t = run_model(scope_model([0, 2]), mode, 1, observation={})
    assert stats_of([t]).scope_retry_hist == {"s": {0: 1, 2: 1}}


# ---------------------------------------------------------------------------
# cycles and hotspots


def test_cycle_enumeration_on_handcrafted_graphs():
    self_loop = manual_graph([("a", "a")])
    assert _simple_cycles(self_loop) == [["a"]]

    two_cycle = manual_graph([("a", "b"), ("b", "a")])
    assert _simple_cycles(two_cycle) == [["a", "b"]]

    disjoint = manual_graph([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    assert _simple_cycles(disjoint) == [["a", "b"], ["c", "d"]]

    # figure eight: two loops sharing node b
    fig8 = manual_graph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    assert sorted(_simple_cycles(fig8)) == [["a", "b"], ["b", "c"]]

    acyclic = manual_graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert _simple_cycles(acyclic) == []


def test_cycles_ignore_sentinel_backbone():
    g = graph_of(prior_traces(GAUSSIAN, 10))
    assert _simple_cycles(g) == []


def test_hotspot_report_flags_repeating_address():
    traces = [synthetic_trace(["x", "x", "x"]) for _ in range(4)]
    stats = stats_of(traces)
    g = graph_of(traces)
    report = hotspot_report(stats, g, threshold=1.5)
    assert report["hot_addresses"] == [
        {"address": "x:Normal", "mean_occurrences": pytest.approx(3.0)}
    ]
    assert report["cycles"] == [{"nodes": ["x:Normal"], "traversals": 8}]


def test_hotspot_threshold_validation():
    stats = stats_of([])
    g = graph_of([])
    with pytest.raises(ValueError):
        hotspot_report(stats, g, threshold=1.0)


def test_hotspot_cycles_ranked_by_bottleneck():
    edges = []
    for _ in range(5):
        edges += [("a", "b"), ("b", "a")]
    edges += [("c", "d"), ("d", "c")]
    g = manual_graph(edges)
    report = hotspot_report(stats_of([]), g)
    assert [c["nodes"] for c in report["cycles"]] == [["a", "b"], ["c", "d"]]
    assert [c["traversals"] for c in report["cycles"]] == [5, 1]
