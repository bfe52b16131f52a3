"""Spans around the layers' public functions, for the traced run.

``Tracer`` rebinds each function listed in ``WRAPPED`` to a recording
wrapper in every ``reconfig`` module namespace that holds it, so calls made
through module globals (``engine.component_diameter`` from
``max_component_diameter``) and through imported names (``read_graph`` in
``cli``) are both seen, with their nesting. Per-element helpers
(``encode_key``, ``decode_key``, ``is_independent``, ``neighbors``,
``is_prime``) are left alone. Spans are kept in memory and written out at
the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

WRAPPED = {
    "graph": ("read_graph", "write_graph"),
    "engine": ("independent_sets", "bfs_component", "enumerate_components",
               "component_adjacency", "component_diameter", "max_component_diameter",
               "distance", "shortest_sequence", "validate_sequence"),
    "search": ("nonisomorphic_masks", "mask_to_graph", "exhaustive_search", "random_search"),
    "constructions": ("complement_path", "circulant_ap_graph", "glue", "toll_booth_extend",
                      "iterate_toll", "triple_extend", "build_k3_extremal", "build_general",
                      "check_ring_properties"),
    "verify": ("is_63_free", "extract_63", "verify_upper_bound_mapping", "is_config_path",
               "saturate_to_path", "decide_k2_naive", "decide_k2_fast",
               "check_junction_windows", "check_circulant_structure"),
    "apsets": ("max_3ap_free", "odd_3ap_free", "greedy_3ap_free", "behrend_info", "behrend_set"),
    "cli": ("main",),
}

# per-layer metrics reported as the inclusive seconds per round of a function
TIMED = (
    "engine.max_component_diameter", "engine.component_diameter",
    "engine.component_adjacency", "engine.enumerate_components", "engine.independent_sets",
    "engine.distance", "engine.shortest_sequence",
    "search.exhaustive_search", "search.nonisomorphic_masks", "search.mask_to_graph",
    "constructions.build_k3_extremal", "constructions.glue", "constructions.circulant_ap_graph",
    "constructions.iterate_toll", "constructions.triple_extend", "constructions.complement_path",
    "verify.check_circulant_structure", "verify.extract_63", "verify.is_63_free",
    "verify.check_junction_windows", "verify.is_config_path", "verify.saturate_to_path",
    "verify.decide_k2_naive", "verify.decide_k2_fast",
    "apsets.odd_3ap_free", "apsets.max_3ap_free",
    "graph.read_graph", "graph.write_graph", "cli.main",
)
CALLS = ("engine.bfs_component", "engine.distance")


class Tracer:
    """Records spans in flat arrays: a list of span records would be
    traversed by every garbage collection and slow the traced run."""

    def __init__(self):
        from reconfig.graph import Graph

        self.graph_type = Graph
        self.names, self.jobs = [], []
        # span i: names[name[i]], start[i], end[i], parent[i] (-1 at top), jobs[job[i]]
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack = []
        self.adjacency_bytes = 0
        self.rebound = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "reconfig" or name.startswith("reconfig.")]
        for mod, names in WRAPPED.items():
            home = sys.modules[f"reconfig.{mod}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(f"{mod}.{name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self.rebound.append((m, attr, orig))

    def unwrap(self):
        for m, attr, orig in self.rebound:
            setattr(m, attr, orig)

    def start_job(self, name):
        """Spans opened from now on belong to the job ``name``."""
        self.jobs.append(name)

    def _wrap(self, name, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        stack, start, end = self.stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(len(self.jobs) - 1)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            self._observe(result)
            return result

        return traced

    def _observe(self, result):
        """Track the largest adjacency held: computed bytes of its rows."""
        g = result[0] if isinstance(result, tuple) and result else result
        if isinstance(g, self.graph_type):
            self.adjacency_bytes = max(self.adjacency_bytes,
                                       sum((r.bit_length() + 7) // 8 for r in g.adj))

    def totals(self):
        """Inclusive seconds (outermost call of a name only), self seconds and
        call counts, by function name."""
        incl, self_s, calls = {}, {}, {}
        name, parent = self.name, self.parent
        for i, (start, end) in enumerate(zip(self.start, self.end)):
            n, dur = self.names[name[i]], end - start
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + dur
            a = parent[i]
            if a >= 0:
                pn = self.names[name[a]]
                self_s[pn] = self_s.get(pn, 0.0) - dur
            while a >= 0 and name[a] != name[i]:
                a = parent[a]
            if a < 0:
                incl[n] = incl.get(n, 0.0) + dur
        return incl, self_s, calls

    def metrics(self, times, wants, rounds):
        """Per-layer metrics, per round of the job list."""
        incl, self_s, calls = self.totals()
        out = {f"{n}.s": (incl.get(n, 0.0) / rounds, "s") for n in TIMED}
        out.update({f"{n}.calls": (calls.get(n, 0) / rounds, "count") for n in CALLS})
        counted = [j for j, w in wants.items() if "nodes" in w]
        for key in ("nodes", "edges"):
            out[f"engine.config_{key}"] = (sum(wants[j][key] for j in counted), "count")
        out["engine.components"] = (sum(wants[j]["components"] for j in counted), "count")
        busy = sum(statistics.fmean(times[j]) for j in counted)
        out["engine.config_nodes_per_s"] = (
            out["engine.config_nodes"][0] / busy if busy else 0.0, "1/s")
        diam, search = (self.names.index(n) for n in
                        ("engine.max_component_diameter", "search.exhaustive_search"))
        out["search.class_diameter.s"] = (sum(
            self.end[i] - self.start[i] for i in range(len(self.start))
            if self.name[i] == diam and self.parent[i] >= 0
            and self.name[self.parent[i]] == search) / rounds, "s")
        out["search.classes"] = (sum(w.get("classes", 0) for w in wants.values()), "count")
        out["graph.adjacency_mb"] = (self.adjacency_bytes / 2**20, "MB")
        out["cli.overhead.s"] = (self_s.get("cli.main", 0.0) / rounds, "s")
        return out

    def dump(self, path, workload, times):
        t0 = self.start[0] if self.start else 0.0
        spans = [[self.names[self.name[i]], round(self.start[i] - t0, 7),
                  round(self.end[i] - t0, 7), self.parent[i], self.jobs[self.job[i]]]
                 for i in range(len(self.start))]
        with open(path, "w") as fh:
            json.dump({"workload": workload, "job_times_s": times,
                       "fields": ["name", "start_s", "end_s", "parent", "job"],
                       "spans": spans}, fh)
