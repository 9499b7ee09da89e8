"""Trace diagnostics: address succession graphs, stream statistics, hotspots.

The succession graph records which sample address follows which across a
stream of traces, with instance counters stripped so loops show up as cycles
instead of unrolled chains. START and END sentinels bracket every trace, so
each trace of length n contributes exactly n+1 edge traversals and flow is
conserved at every interior node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

START = "START"
END = "END"


class SuccessionGraph:
    def __init__(self):
        self.nodes = {START, END}
        self.edges = {}
        self.n_traces = 0

    def add_trace(self, trace):
        prev = START
        for entry in trace.entries:
            node = entry.address.head_key
            self.nodes.add(node)
            key = (prev, node)
            self.edges[key] = self.edges.get(key, 0) + 1
            prev = node
        key = (prev, END)
        self.edges[key] = self.edges.get(key, 0) + 1
        self.n_traces += 1

    def merge(self, other):
        """Associative combination; merging per-shard graphs equals the
        sequential build."""
        self.nodes |= other.nodes
        for key, count in other.edges.items():
            self.edges[key] = self.edges.get(key, 0) + count
        self.n_traces += other.n_traces
        return self

    def out_degree(self, node):
        return sum(c for (a, _), c in self.edges.items() if a == node)

    def in_degree(self, node):
        return sum(c for (_, b), c in self.edges.items() if b == node)

    def successors(self, node):
        return sorted(b for (a, b) in self.edges if a == node)


def _dot_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph):
    """Deterministic DOT rendering: nodes and edges in lexicographic order,
    edge labels carrying traversal counts."""
    lines = ["digraph succession {"]
    for node in sorted(graph.nodes):
        lines.append(f"  {_dot_quote(node)};")
    for (a, b) in sorted(graph.edges):
        count = graph.edges[(a, b)]
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)} [label={count}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class TraceStats:
    n_traces: int = 0
    length_min: int | None = None
    length_max: int | None = None
    length_sum: int = 0
    length_hist: dict = field(default_factory=dict)
    address_counts: dict = field(default_factory=dict)
    scope_retry_hist: dict = field(default_factory=dict)

    @property
    def length_mean(self):
        return self.length_sum / self.n_traces if self.n_traces else None

    def add_trace(self, trace):
        n = len(trace.entries)
        self.n_traces += 1
        self.length_sum += n
        self.length_min = n if self.length_min is None else min(self.length_min, n)
        self.length_max = n if self.length_max is None else max(self.length_max, n)
        self.length_hist[n] = self.length_hist.get(n, 0) + 1
        for entry in trace.entries:
            addr = entry.address.rendered
            self.address_counts[addr] = self.address_counts.get(addr, 0) + 1
        for scope_id, retries in trace.scope_executions:
            hist = self.scope_retry_hist.setdefault(scope_id, {})
            hist[retries] = hist.get(retries, 0) + 1

    def to_obj(self):
        return {
            "n_traces": self.n_traces,
            "length": {
                "min": self.length_min,
                "max": self.length_max,
                "mean": self.length_mean,
                "hist": {str(k): v for k, v in sorted(self.length_hist.items())},
            },
            "addresses": {k: self.address_counts[k] for k in sorted(self.address_counts)},
            "scopes": {
                scope: {str(k): v for k, v in sorted(hist.items())}
                for scope, hist in sorted(self.scope_retry_hist.items())
            },
        }


def _strip_instance(rendered):
    return rendered.rsplit("#", 1)[0]


def _simple_cycles(graph):
    """Enumerate simple cycles by DFS; each cycle is reported once, rooted at
    its lexicographically smallest node. Graphs here are small."""
    nodes = sorted(n for n in graph.nodes if n not in (START, END))
    succ = {n: [b for (a, b) in graph.edges if a == n and b not in (START, END)] for n in nodes}
    cycles = []

    def dfs(root, node, path, on_path):
        for nxt in sorted(succ.get(node, ())):
            if nxt == root:
                cycles.append(list(path))
            elif nxt > root and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                dfs(root, nxt, path, on_path)
                on_path.remove(nxt)
                path.pop()

    for root in nodes:
        dfs(root, root, [root], {root})
    return cycles


def hotspot_report(stats, graph, threshold=1.5):
    """Addresses that repeat within traces plus every cycle in the graph.

    An address is hot when its mean occurrences per trace (instances pooled)
    exceeds threshold; cycles are ranked by their bottleneck traversal count.
    """
    if not threshold > 1.0:
        raise ValueError("threshold must be > 1")
    pooled = {}
    for rendered, count in stats.address_counts.items():
        key = _strip_instance(rendered)
        pooled[key] = pooled.get(key, 0) + count
    hot = []
    if stats.n_traces:
        for key, count in pooled.items():
            mean = count / stats.n_traces
            if mean > threshold:
                hot.append({"address": key, "mean_occurrences": mean})
    hot.sort(key=lambda item: (-item["mean_occurrences"], item["address"]))
    cycles = []
    for cycle in _simple_cycles(graph):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        traversals = min(graph.edges.get(e, 0) for e in edges)
        cycles.append({"nodes": cycle, "traversals": traversals})
    cycles.sort(key=lambda item: (-item["traversals"], item["nodes"]))
    return {"hot_addresses": hot, "cycles": cycles}
