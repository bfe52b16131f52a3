"""Expected values for the benchmark, computed apart from ``reconfig``.

Nothing here imports the package under test. Configuration graphs are
materialised explicitly: independent k-sets by backtracking over plain
neighbour sets, moves by grouping sets on the k-1 tokens they keep, and
diameters by all-pairs BFS in scipy. Small-graph maxima come from the
networkx graph atlas, which lists every graph on up to 7 vertices once.

    python3 bench/oracle.py --self-test
    python3 bench/oracle.py --workload diameter-sweep --seed 1

The first form checks the oracles on cases known by hand; the second prints
every expected value one workload's checks use for that seed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections import defaultdict, deque

TJ, TS = "tj", "ts"


def neighbour_sets(n, edges):
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def independent_sets(nbrs, k):
    """All independent k-sets as ascending tuples."""
    n = len(nbrs)
    out = []

    def extend(chosen, candidates):
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for i, v in enumerate(candidates):
            if len(chosen) + len(candidates) - i < k:
                break
            chosen.append(v)
            extend(chosen, [w for w in candidates[i + 1:] if w not in nbrs[v]])
            chosen.pop()

    extend([], list(range(n)))
    return out


class ConfigGraph:
    """The k-token configuration graph of a host graph, fully built."""

    def __init__(self, n, edges, k, rule=TJ):
        if rule not in (TJ, TS):
            raise ValueError(f"unknown rule {rule!r}")
        nbrs = neighbour_sets(n, edges)
        self.nodes = independent_sets(nbrs, k)
        self.index = {s: i for i, s in enumerate(self.nodes)}
        kept = defaultdict(list)
        for i, s in enumerate(self.nodes):
            for j in range(k):
                kept[s[:j] + s[j + 1:]].append((s[j], i))
        self.adj = [[] for _ in self.nodes]
        self.edges = 0
        for members in kept.values():
            for (u, a), (v, b) in itertools.combinations(members, 2):
                if rule == TJ or v in nbrs[u]:
                    self.adj[a].append(b)
                    self.adj[b].append(a)
                    self.edges += 1

    def distances_from(self, s):
        """BFS distances (node index -> steps) from the set ``s``."""
        src = self.index[tuple(sorted(s))]
        dist = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self.adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        return dist

    def distance(self, a, b):
        return self.distances_from(a).get(self.index[tuple(sorted(b))])

    def components(self):
        """(size, diameter) of each component."""
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components, shortest_path

        n = len(self.nodes)
        if n == 0:
            return []
        rows = [a for a in range(n) for _ in self.adj[a]]
        cols = [b for a in range(n) for b in self.adj[a]]
        mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        count, labels = connected_components(mat, directed=False)
        out = []
        for c in range(count):
            members = np.flatnonzero(labels == c)
            sub = mat[members][:, members]
            dist = shortest_path(sub, directed=False, unweighted=True)
            out.append((len(members), int(dist.max())))
        return out

    def summary(self):
        """Counts and the largest component diameter, as the checks use them."""
        comps = self.components()
        if not comps:
            return {"nodes": 0, "edges": 0, "components": 0, "diameter": None,
                    "sizes_at_diameter": []}
        best = max(d for _, d in comps)
        return {
            "nodes": len(self.nodes),
            "edges": self.edges,
            "components": len(comps),
            "diameter": best,
            "sizes_at_diameter": sorted({s for s, d in comps if d == best}),
        }

    def is_path(self):
        """True iff the whole configuration graph is one path."""
        degs = [len(a) for a in self.adj]
        if not degs or len(self.components()) != 1:
            return False
        return len(degs) == 1 or (max(degs) <= 2 and degs.count(1) == 2)


# -- host graphs with known answers ----------------------------------------


def complement_of_paths(order, cuts=()):
    """Edges of the complement of the path visiting ``order``, with the path
    cut after each position in ``cuts`` (so it becomes several paths)."""
    n = len(order)
    path = {frozenset((order[i], order[i + 1])) for i in range(n - 1) if i not in cuts}
    return [(u, v) for u, v in itertools.combinations(range(n), 2)
            if frozenset((u, v)) not in path]


def circulant_edges(p, diffs):
    """Clique on Z_p minus the pairs at distance s and 2s for s in ``diffs``,
    with residue 0 dropped; vertex r-1 carries residue r."""
    gone = {frozenset((r, (r + m) % p)) for s in diffs for m in (s, 2 * s) for r in range(p)}
    return [(u - 1, v - 1) for u, v in itertools.combinations(range(1, p), 2)
            if frozenset((u, v)) not in gone]


def complement_components(n, edges):
    """Component id of each vertex in the complement of the graph."""
    nbrs = neighbour_sets(n, edges)
    comp = [-1] * n
    unseen = set(range(n))
    c = 0
    while unseen:
        root = unseen.pop()
        comp[root] = c
        queue = [root]
        while queue:
            u = queue.pop()
            reach = unseen - nbrs[u]
            unseen -= reach
            for v in reach:
                comp[v] = c
            queue.extend(reach)
        c += 1
    return comp


def mask_edges(n, mask):
    """Edges of an edge bitmask: bit i is the i-th pair of combinations(range(n), 2)."""
    return [e for i, e in enumerate(itertools.combinations(range(n), 2)) if mask >> i & 1]


def distinct_classes(n, edge_lists):
    """True iff no two of the graphs on n vertices are isomorphic."""
    import networkx as nx

    graphs = []
    for edges in edge_lists:
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        graphs.append(g)
    return not any(nx.is_isomorphic(g, h) for g, h in itertools.combinations(graphs, 2))


def is_63_free(triples):
    """No 6 vertices hold 3 of the triples. Pairs of triples index the rest
    by vertex, so this does not scan all triples of triples."""
    by_vertex = defaultdict(set)
    for i, t in enumerate(triples):
        for v in t:
            by_vertex[v].add(i)
    for i, j in itertools.combinations(range(len(triples)), 2):
        union = set(triples[i]) | set(triples[j])
        room = 6 - len(union)
        # a third triple fits when it has at most ``room`` vertices outside
        # the union, so it shares at least 3 - room with it
        need = 3 - room
        hits = defaultdict(int)
        for v in union:
            for t in by_vertex[v]:
                if t != i and t != j:
                    hits[t] += 1
        if any(h >= need for h in hits.values()):
            return False
    return True


# -- the graph atlas -------------------------------------------------------


@functools.cache
def atlas_graphs():
    """Every graph on 0 to 7 vertices, one per isomorphism class."""
    import networkx as nx

    return nx.graph_atlas_g()


def atlas_maxima(n, k, rule):
    """Largest component diameter over all graphs on n vertices, from the
    networkx atlas: the class count, the maximum, the edge lists of the
    classes attaining it, and the summed configuration-graph counts."""
    graphs = [g for g in atlas_graphs() if g.number_of_nodes() == n]
    out = {"classes": len(graphs), "best_diameter": None, "best_graphs": [],
           "nodes": 0, "edges": 0, "components": 0}
    for g in graphs:
        edges = sorted(tuple(sorted(e)) for e in g.edges())
        s = ConfigGraph(n, edges, k, rule).summary()
        for key in ("nodes", "edges", "components"):
            out[key] += s[key]
        d = s["diameter"]
        if d is None or (out["best_diameter"] is not None and d < out["best_diameter"]):
            continue
        if d != out["best_diameter"]:
            out["best_diameter"], out["best_graphs"] = d, []
        out["best_graphs"].append(edges)
    return out


ATLAS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def self_test():
    """Check the oracles on cases known by hand; raise AssertionError if not."""
    import random

    import networkx as nx

    rng = random.Random(0)
    for n in range(4, 13):
        order = rng.sample(range(n), n)
        cg = ConfigGraph(n, complement_of_paths(order), 2, TJ)
        s = cg.summary()
        assert s["diameter"] == n - 2 and s["components"] == 1 and cg.is_path(), (n, s)
        ends = (order[:2], order[-2:])
        assert cg.distance(*ends) == n - 2
        comp = complement_components(n, complement_of_paths(order, cuts=(n // 2 - 1,)))
        assert len(set(comp)) == 2 and comp[order[0]] != comp[order[-1]]
    for p, diffs in ((17, (1,)), (41, (1, 5)), (101, (1, 5)), (131, (1, 5, 13))):
        comps = ConfigGraph(p - 1, circulant_edges(p, diffs), 3, TJ).components()
        assert len(comps) == len(diffs) and all(s == p - 3 and d == p - 4 for s, d in comps)
    counts = {n: 0 for n in ATLAS_COUNTS}
    for g in atlas_graphs():
        if g.number_of_nodes() in counts:
            counts[g.number_of_nodes()] += 1
    assert counts == ATLAS_COUNTS, counts
    for n in range(4, 8):
        assert atlas_maxima(n, 2, TJ)["best_diameter"] == n - 2
    assert is_63_free([(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    assert not is_63_free([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    # exhaustive cross-check of the pair-indexed (6,3) test
    for _ in range(200):
        ts = [tuple(sorted(rng.sample(range(8), 3))) for _ in range(rng.randint(0, 5))]
        ts = sorted(set(ts))
        brute = all(len(set(a) | set(b) | set(c)) > 6 for a, b, c in itertools.combinations(ts, 3))
        assert is_63_free(ts) == brute, ts
    for n in (5, 6, 7):
        for _ in range(20):
            m = rng.randrange(1 << (n * (n - 1) // 2))
            edges = mask_edges(n, m)
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            for k, rule in ((2, TJ), (2, TS), (3, TJ)):
                cg = ConfigGraph(n, edges, k, rule)
                brute = sum(1 for s in itertools.combinations(range(n), k)
                            if not any(g.has_edge(u, v) for u, v in itertools.combinations(s, 2)))
                assert len(cg.nodes) == brute
            # 2-token jump moves are the line graph of the complement
            lg = nx.line_graph(nx.complement(g))
            assert ConfigGraph(n, edges, 2, TJ).edges == lg.number_of_edges()
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload", help="print the expected values of this workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.self_test:
        self_test()
        print("oracle self-test passed")
    if args.workload:
        import tempfile
        from pathlib import Path

        import workloads

        out_dir = Path(__file__).resolve().parent.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            values = workloads.expected_values(args.workload, args.seed, tmp)
        print(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
