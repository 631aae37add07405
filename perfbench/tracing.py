"""Spans around the public functions of `bipgirth`, installed from outside.

Each wrapper is put on the module attribute its caller looks the function
up by (`bipgirth.cli.girth`, `bipgirth.search.girth`, ...), records a span
(name, start, end, parent, count) in memory and hands back the original
result.  Counts come from the values the functions return, so they repeat
exactly from run to run.  `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from operator import attrgetter

_edge_count = attrgetter("edge_count")
_nodes = attrgetter("nodes_explored")
_points = attrgetter("points_checked")

# (module, attribute, span name, count from the return value or None)
WRAPPED = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_edge_list", "io.parse", _edge_count),
    ("cli", "girth", "digraph.girth", None),
    ("search", "girth", "digraph.girth", None),
    ("audit", "girth", "digraph.girth", None),
    ("digraph", "shortest_cycle_length", "digraph.shortest_cycle", None),
    ("cli", "forward_layers", "digraph.layers", None),
    ("audit", "forward_layers", "digraph.layers", None),
    ("cli", "compliance_profile", "digraph.compliance", None),
    ("cli", "is_compliant", "digraph.compliance", None),
    ("audit", "is_compliant", "digraph.compliance", None),
    ("search", "is_compliant", "digraph.compliance", None),
    ("search", "random_compliant", "constructions.random_compliant", None),
    ("search", "find_counterexample", "search.find", _nodes),
    ("search", "canonical_code", "search.canonical", None),
    ("search", "automorphism_count", "search.automorphism", None),
    ("cli", "audit_bigset", "audit.bigset", None),
    ("lemmas", "fact_scan", "lemmas.fact_scan", _points),
    ("lemmas", "newineq_min_oracle", "lemmas.oracle", None),
    ("lemmas", "newineq_bound", "lemmas.bound", None),
    ("lemmas", "random_newineq_instance", "lemmas.instance", None),
    ("frontier", "classify", "frontier.classify", None),
]


class Tracer:
    """Installs the wrappers on `modules` (short name -> module object)."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []      # [name, start, end, parent index, count]
        self.fact_reports = []  # (fact_id, points_checked, grid_step)
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            if name == "lemmas.fact_scan":
                self.fact_reports.append(
                    (result.fact_id, result.points_checked, result.grid_step))
            return result

        return wrapper

    def install(self):
        for mod, attr, name, count in WRAPPED:
            module = self.modules[mod]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def restore(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def restored(self):
        """True when every wrapped attribute holds its original again."""
        return all(getattr(m, a) is o for m, a, o in self._originals)

    def totals(self, since=0):
        """Per span name: [calls, total s, self s, summed count], over the
        spans recorded from index `since` on."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for idx in range(since, len(spans)):
            name, start, end, parent, _ = spans[idx]
            if parent >= since:
                child_s[parent] += end - start
        out = {}
        for idx in range(since, len(spans)):
            name, start, end, _, count = spans[idx]
            t = out.setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_s[idx]
            t[3] += count
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def per_layer(t):
    """The per-layer metrics of one pass from its `Tracer.totals`."""
    def get(name, field):
        return t.get(name, [0, 0.0, 0.0, 0])[field]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    calls, total, self_s, count = 0, 1, 2, 3
    m = {
        "cli.calls": (get("cli.main", calls), "count"),
        "cli.self_s": (get("cli.main", self_s), "s"),
        "io.parse_calls": (get("io.parse", calls), "count"),
        "io.parse_s": (get("io.parse", total), "s"),
        "io.edges_parsed": (get("io.parse", count), "count"),
        "digraph.girth_calls": (get("digraph.girth", calls), "count"),
        "digraph.girth_s": (get("digraph.girth", total), "s"),
        "digraph.shortest_cycle_s": (get("digraph.shortest_cycle", total), "s"),
        "digraph.girth_witness_s": (get("digraph.girth", self_s), "s"),
        "digraph.layers_calls": (get("digraph.layers", calls), "count"),
        "digraph.layers_s": (get("digraph.layers", total), "s"),
        "digraph.compliance_s": (get("digraph.compliance", total), "s"),
        "constructions.random_compliant_calls":
            (get("constructions.random_compliant", calls), "count"),
        "constructions.random_compliant_s":
            (get("constructions.random_compliant", total), "s"),
        "search.runs": (get("search.find", calls), "count"),
        "search.nodes": (get("search.find", count), "count"),
        "search.find_s": (get("search.find", self_s), "s"),
        "search.canonical_calls": (get("search.canonical", calls), "count"),
        "search.canonical_s": (get("search.canonical", total), "s"),
        "search.automorphism_s": (get("search.automorphism", total), "s"),
        "lemmas.fact_points": (get("lemmas.fact_scan", count), "count"),
        "lemmas.fact_scan_s": (get("lemmas.fact_scan", total), "s"),
        "lemmas.oracle_calls": (get("lemmas.oracle", calls), "count"),
        "lemmas.oracle_s": (get("lemmas.oracle", total), "s"),
        "lemmas.bound_s": (get("lemmas.bound", total), "s"),
        "lemmas.instance_s": (get("lemmas.instance", total), "s"),
        "frontier.points_classified": (get("frontier.classify", calls), "count"),
        "frontier.classify_s": (get("frontier.classify", total), "s"),
        "audit.bigset_calls": (get("audit.bigset", calls), "count"),
        "audit.bigset_s": (get("audit.bigset", total), "s"),
    }
    m["io.edges_per_s"] = (rate(m["io.edges_parsed"][0], m["io.parse_s"][0]), "1/s")
    m["search.nodes_per_s"] = (rate(m["search.nodes"][0], m["search.find_s"][0]), "1/s")
    m["lemmas.fact_points_per_s"] = (
        rate(m["lemmas.fact_points"][0], m["lemmas.fact_scan_s"][0]), "1/s")
    m["frontier.points_per_s"] = (
        rate(m["frontier.points_classified"][0], m["frontier.classify_s"][0]), "1/s")
    return m
