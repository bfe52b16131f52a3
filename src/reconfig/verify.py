"""Structural claim verifiers and the fast 2-token reachability decision.

Everything here double-checks a property by an independent route: sparse
triple systems extracted from shortest walks, the edge-to-intersection
injectivity behind the C(n, k-1) diameter cap, path-shape tests on whole
configuration graphs, edge saturation, and a linear-time 2-token decision
paired with its brute-force oracle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

from . import engine
from .constructions import circulant_ap_graph
from .engine import DEFAULT_NODE_CAP, TJ, NodeCapExceeded
from .graph import Graph, GraphError, is_independent

__all__ = [
    "Hypergraph3",
    "is_63_free",
    "extract_63",
    "verify_upper_bound_mapping",
    "is_config_path",
    "saturate_to_path",
    "decide_k2_naive",
    "decide_k2_fast",
    "check_junction_windows",
    "check_circulant_structure",
]


@dataclass(frozen=True)
class Hypergraph3:
    """3-uniform hypergraph: distinct sorted triples of vertices."""

    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if len(e) != 3 or len(set(e)) != 3:
                raise GraphError(f"hyperedge {e} is not a 3-set")
            if tuple(sorted(e)) != tuple(e):
                raise GraphError(f"hyperedge {e} is not sorted")
            if e in seen:
                raise GraphError(f"duplicate hyperedge {e}")
            seen.add(e)


def is_63_free(h: Hypergraph3) -> tuple[bool, Optional[tuple[int, ...]]]:
    """True iff no 6 vertices contain 3 or more hyperedges.

    Three distinct triples fit inside 6 vertices exactly when their union
    has size at most 6. For each pair A, B of hyperedges, in order, a third
    C after B fits when it shares at least |A ∪ B| - 3 vertices with A ∪ B,
    and the hyperedges through those vertices are the only candidates. On
    failure the witness is the union of the first such A, B, C in
    ``itertools.combinations`` order.
    """
    es = h.edges
    through: dict[int, list[int]] = {}  # vertex -> indices of its hyperedges
    for i, e in enumerate(es):
        for x in e:
            through.setdefault(x, []).append(i)
    for i, a in enumerate(es):
        for j in range(i + 1, len(es)):
            union = set(a).union(es[j])
            shared: dict[int, int] = {}
            for x in union:
                ids = through[x]
                for l in ids[bisect.bisect_right(ids, j) :]:
                    shared[l] = shared.get(l, 0) + 1
            fits = [l for l, count in shared.items() if count >= len(union) - 3]
            if fits:
                return False, tuple(sorted(union.union(es[min(fits)])))
    return True, None


def _require_shortest(
    g: Graph, seq: list[tuple[int, ...]], rule: str, node_cap: int
) -> None:
    engine.validate_sequence(g, seq, rule)
    k = len(seq[0])
    d = engine.distance(g, k, seq[0], seq[-1], rule, node_cap)
    if d != len(seq) - 1:
        raise GraphError(
            f"sequence of length {len(seq) - 1} is not shortest "
            f"(distance is {d})"
        )


def extract_63(
    g: Graph,
    seq: list[tuple[int, ...]],
    parity: str,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Hypergraph3:
    """Triple system formed by the even- (or odd-) position sets of a
    shortest 3-token walk. Shortestness is re-verified before extraction."""
    if parity not in ("even", "odd"):
        raise GraphError(f"parity must be 'even' or 'odd', got {parity!r}")
    if not seq or len(seq[0]) != 3:
        raise GraphError("extraction needs a sequence of 3-sets")
    _require_shortest(g, seq, rule, node_cap)
    offset = 0 if parity == "even" else 1
    edges = tuple(tuple(sorted(s)) for s in seq[offset::2])
    return Hypergraph3(edges)


def verify_upper_bound_mapping(
    g: Graph,
    seq: list[tuple[int, ...]],
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[bool, Optional[tuple[int, int, tuple[int, ...]]]]:
    """Check that consecutive-set intersections along a shortest walk are
    pairwise distinct (each step is determined by the k-1 kept tokens).

    Returns (True, None), or (False, (i, j, intersection)) naming the two
    colliding steps. Non-shortest input is refused. Under the jump rule a
    collision is impossible for genuinely shortest walks (three sets over
    the same k-1 kept tokens are pairwise adjacent, contradicting
    shortestness), so a False here flags an engine bug; under the slide
    rule those three sets need not be adjacent and collisions can be
    legitimate, so the check is diagnostic only.
    """
    _require_shortest(g, seq, rule, node_cap)
    seen: dict[tuple[int, ...], int] = {}
    for i, (s1, s2) in enumerate(zip(seq, seq[1:])):
        inter = tuple(sorted(set(s1) & set(s2)))
        if inter in seen:
            return False, (seen[inter], i, inter)
        seen[inter] = i
    return True, None


def is_config_path(
    g: Graph,
    k: int,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[bool, Optional[str]]:
    """True iff the whole k-token configuration graph is one path."""
    comps = engine.enumerate_components(g, k, rule, node_cap)
    if any(c.capped for c in comps):
        raise NodeCapExceeded("node cap reached while enumerating components")
    if not comps:
        return False, "empty"
    if len(comps) > 1:
        return False, f"disconnected ({len(comps)} components)"
    defect = _path_defect(comps[0])
    return defect is None, defect


def _path_defect(comp: engine.ConfigComponent) -> Optional[str]:
    """Why an uncapped component is not a path, or None when it is one;
    degrees come from the component's neighbour rows. A component is
    connected, so it is a path iff it is a tree with no degree above 2."""
    degs = comp.degrees().tolist()
    n_edges = sum(degs) // 2
    if n_edges != comp.size - 1:
        return f"{n_edges} edges on {comp.size} nodes"
    if max(degs) > 2:
        return "a node has degree > 2"
    return None


def saturate_to_path(
    g: Graph,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Graph:
    """Add edges greedily (lexicographic sweeps) while the largest component
    diameter of the 3-token configuration graph stays unchanged.

    At the fixpoint no edge can be added without losing diameter, and the
    configuration graph of the result is a single path of that diameter.
    Raises NodeCapExceeded when the cap cuts any diameter short.
    """

    def diameter(h: Graph) -> Optional[int]:
        rep = engine.max_component_diameter(h, 3, TJ, node_cap)
        return rep.exact("saturate_to_path", node_cap).diameter

    target = diameter(g)
    changed = True
    while changed:
        changed = False
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.adj[u] >> v & 1:
                    continue
                h = g.with_edge(u, v)
                if diameter(h) == target:
                    g = h
                    changed = True
    return g


# ---------------------------------------------------------------------------
# 2-token reachability


def _check_pair(g: Graph, s: Iterable[int], what: str) -> tuple[int, int]:
    t = tuple(sorted(s))
    if len(t) != 2 or t[0] == t[1]:
        raise GraphError(f"{what} must be two distinct vertices, got {t}")
    if not is_independent(g, t):
        raise GraphError(f"{what} {t} is not independent")
    return t


def decide_k2_naive(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Oracle decision: the two tokens of a can be walked to b iff a and b
    meet the same connected component of the complement graph: bitset BFS
    from a[0] in the complement, one frontier layer per round."""
    a = _check_pair(g, a, "endpoint a")
    b = _check_pair(g, b, "endpoint b")
    full, adj, goal = (1 << g.n) - 1, g.adj, b[0]
    visited = frontier = 1 << a[0]
    while frontier and not visited >> goal & 1:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            nxt |= full & ~(adj[u] | low)
        frontier = nxt & ~visited
        visited |= frontier
    return bool(visited >> goal & 1)


def decide_k2_fast(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Reachability for two tokens in time linear in the adjacency data.

    The tokens of a can be walked to b iff a and b meet the same component
    of the complement graph. One search of the complement keeps the set of
    unvisited vertices and never builds a complement row: popping u splits
    the unvisited set into u's neighbours in g, which stay unvisited, and
    its complement neighbours, which join the pending set. Each vertex is
    popped at most once, at the cost of O(n/w) word operations, so the search is
    linear in the n^2/w words of the rows (H. Ito and M. Yokoyama, IPL 66,
    1998).
    """
    a = _check_pair(g, a, "endpoint a")
    b = _check_pair(g, b, "endpoint b")
    if a[0] == b[0]:
        return True
    adj = g.adj
    goal = 1 << b[0]
    pending = 1 << a[0]
    unvisited = ((1 << g.n) - 1) ^ pending
    while pending:
        u = pending.bit_length() - 1  # the highest bit: O(1) to find
        hit = unvisited & adj[u]
        fresh = unvisited ^ hit  # u's complement neighbours, unvisited so far
        if fresh & goal:
            return True
        pending ^= 1 << u | fresh
        unvisited = hit
    return False


# ---------------------------------------------------------------------------
# construction property suites


def check_junction_windows(
    g: Graph,
    k: int,
    junctions: list[dict],
) -> tuple[bool, list[str]]:
    """Verify the junction structure of a glued graph.

    ``junctions`` are the records of a ``glue`` report's
    ``roles["junctions"]``, each ``{"index", "b_order", "a_order",
    "x_ids"}``. Every independent k-set touching a junction's fresh vertices
    must be a window of k consecutive positions of that junction's sequence,
    and sets containing an inner fresh vertex must have exactly two
    neighbors in the jump-rule configuration graph. An empty ``junctions``
    refuses, since there is then nothing to check.
    """
    if not junctions:
        raise GraphError("check_junction_windows needs at least one junction")
    failures: list[str] = []
    all_sets = engine.independent_sets(g, k)
    for rec in junctions:
        index, x_ids = rec["index"], rec["x_ids"]
        seq = rec["b_order"] + x_ids + rec["a_order"]
        windows = {
            tuple(sorted(seq[i : i + k])) for i in range(len(seq) - k + 1)
        }
        xset = set(x_ids)
        inner = set(x_ids[1:-1])
        for s in all_sets:
            touch = set(s) & xset
            if not touch:
                continue
            if s not in windows:
                failures.append(
                    f"junction {index}: {s} touches fresh vertices but is "
                    "not a window of consecutive positions"
                )
                continue
            if set(s) & inner:
                deg = len(engine.neighbors(g, s, TJ))
                if deg != 2:
                    failures.append(
                        f"junction {index}: window {s} has degree {deg}, "
                        "expected 2"
                    )
    return not failures, failures


def check_circulant_structure(
    p: int,
    s: Iterable[int],
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[bool, dict]:
    """Exhaustively verify the predicted 3-token structure of a circulant:
    the independent triples are exactly the predicted families, splitting
    into |S| induced paths of p-3 nodes with no cross edges."""
    g, report = circulant_ap_graph(p, s)
    components = report.roles["components"]
    predicted = {tuple(t) for rec in components for t in rec["path"]}
    actual = set(engine.independent_sets(g, 3))
    comps = engine.enumerate_components(g, 3, TJ, node_cap)
    if any(c.capped for c in comps):
        raise NodeCapExceeded("node cap reached while enumerating components")
    details = {
        "extra_triples": sorted(actual - predicted),
        "missing_triples": sorted(predicted - actual),
        "component_count": len(comps),
        "component_sizes": sorted(c.size for c in comps),
        "paths_ok": all(_path_defect(c) is None for c in comps),
    }
    ok = (
        not details["extra_triples"]
        and not details["missing_triples"]
        and details["component_count"] == len(components)
        and all(sz == p - 3 for sz in details["component_sizes"])
        and details["paths_ok"]
    )
    return ok, details
