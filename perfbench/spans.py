"""Spans around the public entry points of each pltlcheck module.

`Tracer.install()` replaces every binding of a traced function, in every
pltlcheck module that imported it, with a wrapper that records a span:
(name, parent span, query id, start, end, counters).  Spans stay in
memory until `write()`.  `layer_metrics()` turns them into per-layer
self times and counts; a self time is the span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> layer metric that receives its self time.
LAYER_OF = {
    "cli.run": "cli.self_s",
    "formula.parse_formula": "formula.parse_s",
    "formula.to_nnf": "formula.parse_s",
    "formula.classify": "formula.parse_s",
    "markov.parse_chain": "markov.parse_s",
    "markov.bounded_reach_vector": "markov.bounded_s",
    "markov.bounded_reach_prob": "markov.bounded_s",
    "markov.unbounded_reach_vector": "markov.solve_s",
    "markov.unbounded_reach_prob": "markov.solve_s",
    "markov.transient_matrix": "markov.solve_s",
    "markov.scc_decompose": "markov.graph_s",
    "markov.reachable_states": "markov.graph_s",
    "markov.states_reaching": "markov.graph_s",
    "markov.distances_from": "markov.graph_s",
    "markov.all_pairs_distance": "markov.graph_s",
    "reach.min_val_pos": "reach.self_s",
    "reach.min_val_as1": "reach.self_s",
    "reach.min_val_geq": "reach.self_s",
    "reach.emptiness_geq": "reach.self_s",
    "reach.check_pos": "reach.self_s",
    "reach.check_as1": "reach.self_s",
    "reach.check_geq": "reach.self_s",
    "buchi.min_val_pos_buchi": "buchi.self_s",
    "buchi.min_val_as1_buchi": "buchi.self_s",
    "buchi.emptiness_pos_genbuchi": "buchi.self_s",
    "buchi.min_set_pos_genbuchi": "buchi.self_s",
    "buchi.min_set_as1_genbuchi": "buchi.self_s",
    "buchi.check_pos": "buchi.self_s",
    "buchi.check_as1": "buchi.self_s",
    "fx.emptiness_pos_fx": "fx.self_s",
    "fx.emptiness_as1_fx": "fx.self_s",
    "fx.min_set_fx": "fx.self_s",
    "diamond.DiamondChecker.__init__": "diamond.build_s",
    "diamond.DiamondChecker.check_pos": "diamond.pos_query_s",
    "diamond.DiamondChecker.check_as1": "diamond.as1_query_s",
    "valuation.bisection_min_set": "valuation.search_self_s",
}

CALLS_OF = {"reach": "reach.calls", "buchi": "buchi.calls", "fx": "fx.calls"}

# Per-layer metric names and units, in output order.
LAYER_METRICS = [
    ("cli.self_s", "s"),
    ("formula.parse_s", "s"),
    ("markov.parse_s", "s"),
    ("markov.bounded_s", "s"),
    ("markov.solve_s", "s"),
    ("markov.graph_s", "s"),
    ("reach.self_s", "s"),
    ("reach.calls", "count"),
    ("buchi.self_s", "s"),
    ("buchi.calls", "count"),
    ("fx.self_s", "s"),
    ("fx.calls", "count"),
    ("diamond.build_s", "s"),
    ("diamond.builds", "count"),
    ("diamond.g_states", "count"),
    ("diamond.g_edges", "count"),
    ("diamond.u_states", "count"),
    ("diamond.pos_query_s", "s"),
    ("diamond.as1_query_s", "s"),
    ("diamond.queries", "count"),
    ("diamond.product_nodes", "count"),
    ("diamond.nodes_per_query", "nodes/query"),
    ("diamond.node_cap_hits", "count"),
    ("valuation.search_self_s", "s"),
    ("valuation.oracle_calls", "count"),
    ("valuation.antichain_points", "count"),
    ("valuation.calls_per_point", "calls/point"),
    ("trace.queries_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
]

NAME, PARENT, QUERY, START, END, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def start_query(self, query):
        """Spans from here on belong to `query`.  The stack is reset
        because the time cap can interrupt a wrapper between its two
        bookkeeping steps."""
        self.query = query
        self.stack = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, self.query, time.perf_counter(), None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _wrap_init(self, name, fn):
        def traced(checker, *args, **kwargs):
            span = self._open(name)
            try:
                fn(checker, *args, **kwargs)
                span[COUNTS] = {
                    "g_states": len(checker.g.states),
                    "g_edges": sum(len(s) for s in checker.g.succ),
                    "u_states": checker.u.n,
                }
            finally:
                self._close(span)
        return traced

    def _wrap_query(self, name, fn, limit_error):
        def traced(checker, *args, **kwargs):
            span = self._open(name)
            before = checker.stats["product_nodes"]
            counts = span[COUNTS] = {"cap": 0}
            try:
                return fn(checker, *args, **kwargs)
            except limit_error:
                counts["cap"] = 1
                raise
            finally:
                counts["nodes"] = checker.stats["product_nodes"] - before
                self._close(span)
        return traced

    def _wrap_search(self, name, fn):
        def traced(oracle, *args, **kwargs):
            span = self._open(name)
            counts = span[COUNTS] = {"calls": 0}

            def counted(point):
                counts["calls"] += 1
                return oracle(point)
            try:
                result = fn(counted, *args, **kwargs)
                counts["points"] = len(result)
                return result
            finally:
                self._close(span)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function at each module that binds it."""
        from pltlcheck import diamond
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pltlcheck" or n.startswith("pltlcheck.")]
        checker = diamond.DiamondChecker
        for method in ("__init__", "check_pos", "check_as1"):
            name = "diamond.DiamondChecker." + method
            fn = checker.__dict__[method]
            if method == "__init__":
                wrapped = self._wrap_init(name, fn)
            else:
                wrapped = self._wrap_query(name, fn, diamond.ResourceLimitError)
            self._set(checker, method, wrapped)
        for name in LAYER_OF:
            module, _, attr = name.partition(".")
            if "." in attr:
                continue
            fn = getattr(sys.modules["pltlcheck." + module], attr)
            if name == "valuation.bisection_min_set":
                wrapped = self._wrap_search(name, fn)
            else:
                wrapped = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "query": s[QUERY], "start": s[START], "end": s[END],
                    "counts": s[COUNTS]}) + "\n")


def self_times(spans):
    """Self time of every span, in span order."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, capped_queries):
    """Per-layer totals.  Counts skip queries stopped by the time cap,
    whose counts depend on how far they got; times include them."""
    values = {name: 0 for name, _ in LAYER_METRICS}
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        values[LAYER_OF[name]] += own
        if span[QUERY] in capped_queries:
            continue
        module = name.split(".")[0]
        if module in CALLS_OF:
            values[CALLS_OF[module]] += 1
        counts = span[COUNTS] or {}
        if name == "diamond.DiamondChecker.__init__" and counts:
            values["diamond.builds"] += 1
            for key in ("g_states", "g_edges", "u_states"):
                values["diamond." + key] += counts[key]
        elif name.startswith("diamond.DiamondChecker.check_"):
            values["diamond.queries"] += 1
            values["diamond.product_nodes"] += counts["nodes"]
            values["diamond.node_cap_hits"] += counts["cap"]
        elif name == "valuation.bisection_min_set":
            values["valuation.oracle_calls"] += counts["calls"]
            values["valuation.antichain_points"] += counts.get("points", 0)
    if values["diamond.queries"]:
        values["diamond.nodes_per_query"] = (values["diamond.product_nodes"]
                                             / values["diamond.queries"])
    if values["valuation.antichain_points"]:
        values["valuation.calls_per_point"] = (
            values["valuation.oracle_calls"]
            / values["valuation.antichain_points"])
    return values


def query_counts(spans):
    """Per query: diamond queries, product nodes and search oracle calls.

    Unlike the CLI's own counters these are known for a query stopped by
    the time cap too (W1's call count, say)."""
    out = {}
    for span in spans:
        counts = span[COUNTS]
        if not counts:
            continue
        q = out.setdefault(span[QUERY], {"diamond.queries": 0,
                                         "diamond.product_nodes": 0,
                                         "valuation.oracle_calls": 0})
        if span[NAME].startswith("diamond.DiamondChecker.check_"):
            q["diamond.queries"] += 1
            q["diamond.product_nodes"] += counts["nodes"]
        elif span[NAME] == "valuation.bisection_min_set":
            q["valuation.oracle_calls"] += counts["calls"]
    return out


def span_cost(samples=20000):
    """Seconds one span adds, measured on an empty function."""
    tracer = Tracer()

    def empty():
        return None
    traced = tracer.wrap("calibration", empty)
    t0 = time.perf_counter()
    for _ in range(samples):
        empty()
    t1 = time.perf_counter()
    for _ in range(samples):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / samples)
