"""Implicit exploration of the k-token configuration graph.

Nodes are independent sets of fixed size k; two sets are adjacent when one
token moves: to any vertex under the jump rule ("tj"), or only along an
edge of the host graph under the slide rule ("ts"). The configuration graph
is never materialized; one exploration core serves every query:

- ``_neighbor_keys`` turns a canonical key into its neighbours' keys by
  arithmetic on the 16-bit fields: drop the moved token's field, insert
  the new vertex's field at its rank.
- ``_bfs`` is the one single-source BFS, with the node cap, an optional
  goal key (checked before the cap) and optional neighbour rows.
  ``bfs_component`` and ``enumerate_components`` keep each node's row on
  the ``ConfigComponent``; ``distance`` runs it to the goal, and
  ``shortest_sequence`` runs it from the target and walks downhill from
  the source to the smallest neighbour key; neither keeps rows.

Exact diameters come from ``component_diameter``, which indexes the
component's nodes in ascending key order over the rows the BFS stored, so
no neighbour is generated twice, and takes one of two branches:

- Short components (the start node's eccentricity e0, the last distance
  of the enumeration BFS, below ``_BOUNDS_GATE``) run all sources at
  once: every source keeps a bit-parallel reach set, grown by one BFS
  layer per round by ORing neighbours' sets, until all sets are full. The
  round count is the diameter and the witness pair is read off the last
  round. Sources go in batches of ``_BATCH``, so a component of N nodes
  holds N x ``_BATCH`` bits of reach sets per round.
- Long components (e0 >= ``_BOUNDS_GATE``), such as the path-shaped
  extremal ones, whose N x D rounds cost O(N^2), are certified by
  eccentricity bounds (F. W. Takes and W. A. Kosters, "Determining the
  diameter of small world networks", CIKM 2011): each single-source BFS
  bounds every node's eccentricity from above and below, and a handful of
  them settle the diameter and the witness. After ``_BOUNDS_BUDGET`` BFS
  runs that did not, as on a cycle, the component goes to the rounds.

Both branches give the same witness pair: the smallest-key source of
largest eccentricity and its smallest-key farthest node.

All functions are pure and read-only on the host Graph, so separate
components can safely be processed by parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Optional

from .graph import Graph, GraphError, is_independent

# after .graph: imported first, numpy raised the peak RSS of `import
# reconfig.cli` by 0.5 MB
import numpy as np

__all__ = [
    "TJ",
    "TS",
    "RULES",
    "DEFAULT_NODE_CAP",
    "NodeCapExceeded",
    "encode_key",
    "decode_key",
    "neighbors",
    "independent_sets",
    "bfs_component",
    "ConfigComponent",
    "distance",
    "shortest_sequence",
    "validate_sequence",
    "component_adjacency",
    "component_diameter",
    "enumerate_components",
    "max_component_diameter",
    "DiameterReport",
]

TJ = "tj"
TS = "ts"
RULES = (TJ, TS)

DEFAULT_NODE_CAP = 5_000_000

# Canonical state key: vertices packed ascending into 16-bit fields.
# Numeric key order is the tie-break order used throughout.
KEY_BITS = 16
_KEY_MASK = (1 << KEY_BITS) - 1

# Sources per batch of component_diameter: a batch's reach sets hold at most
# N x _BATCH bits for a component of N nodes.
_BATCH = 2048

# component_diameter certifies a component by eccentricity bounds when its
# start node's eccentricity is at least _BOUNDS_GATE, and hands it to the
# bit-parallel rounds after _BOUNDS_BUDGET BFS runs that did not settle it.
# Path-shaped components settle in 2-4 runs. On C_128 under "ts", the
# shortest cycle at the gate, the spent budget added 3-19% to the rounds'
# time. No component of at most 64 nodes reaches the gate.
_BOUNDS_GATE = 64
_BOUNDS_BUDGET = 6


class NodeCapExceeded(RuntimeError):
    """BFS hit the node cap before it could produce an exact answer."""


def _check_rule(rule: str) -> None:
    if rule not in RULES:
        raise GraphError(f"unknown rule {rule!r}, expected one of {RULES}")


def _check_k(k: int) -> None:
    if k < 0:
        raise GraphError("k must be nonnegative")


def encode_key(vertices: Iterable[int]) -> int:
    key = 0
    prev = -1
    shift = 0
    for v in vertices:
        if v <= prev:
            raise GraphError("key encoding requires strictly increasing vertices")
        if v >= 1 << KEY_BITS:
            raise GraphError(f"vertex {v} exceeds key width")
        key |= v << shift
        shift += KEY_BITS
        prev = v
    return key


def decode_key(key: int, k: int) -> tuple[int, ...]:
    return tuple((key >> (KEY_BITS * i)) & _KEY_MASK for i in range(k))


def _checked_set(g: Graph, vertices: Iterable[int], k: Optional[int] = None) -> tuple[int, ...]:
    vs = tuple(sorted(vertices))
    if len(set(vs)) != len(vs):
        raise GraphError(f"duplicate vertices in {vs}")
    if k is not None and len(vs) != k:
        raise GraphError(f"expected {k} vertices, got {len(vs)}")
    if not is_independent(g, vs):
        raise GraphError(f"{vs} is not an independent set")
    return vs


def neighbors(g: Graph, vertices: Iterable[int], rule: str = TJ) -> list[tuple[int, ...]]:
    """All independent sets reachable in one move, ascending key order."""
    _check_rule(rule)
    vs = _checked_set(g, vertices)
    k = len(vs)
    return [decode_key(key, k) for key in sorted(_neighbor_keys(g, k, rule, encode_key(vs)))]


def _neighbor_keys(g: Graph, k: int, rule: str, key: int) -> Iterator[int]:
    """Keys of the sets one move away from the set of ``key``, token by
    token in ascending vertex order, each token's new vertices ascending.

    A neighbour's key is ``key`` with the moved token's field dropped and
    the new vertex's field inserted at its rank among the kept tokens, so
    no vertex tuple is built or sorted.
    """
    if g.n > 1 << KEY_BITS:
        raise GraphError(f"n={g.n} exceeds the {KEY_BITS}-bit key width")
    adj = g.adj
    vs = [(key >> (KEY_BITS * i)) & _KEY_MASK for i in range(k)]
    full = (1 << g.n) - 1
    occupied = 0
    for v in vs:
        occupied |= 1 << v
    for i, u in enumerate(vs):
        forb = occupied
        for j, w in enumerate(vs):
            if j != i:
                forb |= adj[w]
        cand = full & ~forb
        if rule == TS:
            cand &= adj[u]
        if not cand:
            continue
        shift = KEY_BITS * i
        rest = (key & ((1 << shift) - 1)) | (key >> (shift + KEY_BITS) << shift)
        # the new vertices below the r-th kept token (all that are left at
        # the sentinel g.n) land at rank r
        for r, bound in enumerate(vs[:i] + vs[i + 1 :] + [g.n]):
            part = cand & ((1 << bound) - 1)
            if not part:
                continue
            cand ^= part
            at = KEY_BITS * r
            base = (rest & ((1 << at) - 1)) | (rest >> at << (at + KEY_BITS))
            while part:
                low = part & -part
                part ^= low
                yield base | ((low.bit_length() - 1) << at)


def independent_sets(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All independent k-sets of g, ascending key order."""
    return [decode_key(key, k) for key in _independent_keys(g, k)]


def _independent_keys(g: Graph, k: int) -> list[int]:
    """Keys of all independent k-sets of g, ascending: the largest vertex,
    which fills the top 16-bit field, is chosen first, then the next
    largest below it, and so on."""
    _check_k(k)
    if k == 0:
        return [0]
    if g.n > 1 << KEY_BITS:
        raise GraphError(f"n={g.n} exceeds the {KEY_BITS}-bit key width")
    out: list[int] = []

    def rec(shift: int, key: int, allowed: int) -> None:
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if shift:
                rec(shift - KEY_BITS, key | v << shift, allowed & (low - 1) & ~g.adj[v])
            else:
                out.append(key | v)

    rec(KEY_BITS * (k - 1), 0, (1 << g.n) - 1)
    return out


@dataclass
class ConfigComponent:
    """One connected component of the configuration graph.

    ``dist`` maps canonical keys to BFS distance from the start node, in BFS
    order, and ``rows`` holds, in the same order, the neighbour keys of
    every node the BFS expanded. When ``capped`` is set the exploration was
    cut off at the node cap and the component is only partially known;
    exact queries refuse such inputs.
    """

    k: int
    dist: dict[int, int]
    capped: bool = False
    rows: list[list[int]] = field(default_factory=list, repr=False)

    @property
    def size(self) -> int:
        return len(self.dist)


def _bfs(
    g: Graph,
    k: int,
    rule: str,
    start: int,
    node_cap: int,
    goal: Optional[int] = None,
    rows: Optional[list[list[int]]] = None,
) -> tuple[dict[int, int], bool]:
    """BFS from the key ``start``: (distance by key in BFS order, capped).

    A new key equal to ``goal`` is recorded and ends the search; any other
    new key met when ``node_cap`` keys are already recorded caps it. The
    start always counts, so a component of s nodes is capped iff
    s > max(node_cap, 1). With ``rows``, each expanded node's neighbour
    keys are appended to it in BFS order.
    """
    dist = {start: 0}
    if start == goal:
        return dist, False
    queue = [start]
    for key in queue:  # the queue grows while it is read
        d = dist[key] + 1
        row = list(_neighbor_keys(g, k, rule, key))
        if rows is not None:
            rows.append(row)
        for nxt in row:
            if nxt in dist:
                continue
            if nxt == goal:
                dist[nxt] = d
                return dist, False
            if len(dist) >= node_cap:
                return dist, True
            dist[nxt] = d
            queue.append(nxt)
    return dist, False


def _component(g: Graph, k: int, rule: str, key: int, node_cap: int) -> ConfigComponent:
    rows: list[list[int]] = []
    dist, capped = _bfs(g, k, rule, key, node_cap, rows=rows)
    return ConfigComponent(k, dist, capped, rows)


def bfs_component(
    g: Graph,
    k: int,
    start: Iterable[int],
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConfigComponent:
    """Explore the component of ``start``; aborts cleanly at ``node_cap``.

    A capped result is explicit (``capped=True``), never a silent truncation.
    """
    _check_rule(rule)
    return _component(g, k, rule, encode_key(_checked_set(g, start, k)), node_cap)


def distance(
    g: Graph,
    k: int,
    frm: Iterable[int],
    to: Iterable[int],
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[int]:
    """Exact shortest-path length in the configuration graph, or None if
    the endpoints lie in different components."""
    _check_rule(rule)
    a = _checked_set(g, frm, k)
    b = _checked_set(g, to, k)
    bkey = encode_key(b)
    dist, capped = _bfs(g, k, rule, encode_key(a), node_cap, goal=bkey)
    if capped:
        raise NodeCapExceeded(f"node cap {node_cap} reached before {b} was found")
    return dist.get(bkey)


def shortest_sequence(
    g: Graph,
    k: int,
    frm: Iterable[int],
    to: Iterable[int],
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[list[tuple[int, ...]]]:
    """A shortest reconfiguration sequence from ``frm`` to ``to``.

    Length always equals ``distance(...) + 1`` in sets; ties are broken by
    stepping to the smallest successor key. None if unreachable.
    """
    _check_rule(rule)
    a = _checked_set(g, frm, k)
    b = _checked_set(g, to, k)
    akey = encode_key(a)
    # BFS from the target, then walk downhill from the source: every node
    # closer to the target than the source was recorded before it.
    dist, capped = _bfs(g, k, rule, encode_key(b), node_cap, goal=akey)
    if capped:
        raise NodeCapExceeded(f"node cap {node_cap} reached before {a} was found")
    if akey not in dist:
        return None
    seq = [a]
    cur = akey
    for d in range(dist[akey] - 1, -1, -1):
        cur = min(nxt for nxt in _neighbor_keys(g, k, rule, cur) if dist.get(nxt) == d)
        seq.append(decode_key(cur, k))
    return seq


def validate_sequence(g: Graph, seq: list[tuple[int, ...]], rule: str = TJ) -> None:
    """Raise GraphError unless seq is a valid reconfiguration sequence."""
    _check_rule(rule)
    if not seq:
        raise GraphError("empty sequence")
    k = len(seq[0])
    for s in seq:
        _checked_set(g, s, k)
    for prev, cur in zip(seq, seq[1:]):
        gone = set(prev) - set(cur)
        came = set(cur) - set(prev)
        if len(gone) != 1 or len(came) != 1:
            raise GraphError(f"step {prev} -> {cur} is not a single token move")
        if rule == TS:
            u, v = gone.pop(), came.pop()
            if not g.adj[u] >> v & 1:
                raise GraphError(f"slide {u} -> {v} is not along an edge")


def component_adjacency(comp: ConfigComponent) -> dict[int, list[int]]:
    """Materialized adjacency (key -> sorted neighbor keys) of a component.
    Refuses capped components."""
    if comp.capped:
        raise NodeCapExceeded("cannot list the adjacency of a capped component")
    return {key: sorted(row) for key, row in sorted(zip(comp.dist, comp.rows))}


def _batch_eccentricity(
    cols: list[list[int]], pos: list[int], order: list[int], lo: int, hi: int
) -> tuple[int, int, int]:
    """Largest eccentricity over the sources with key indices lo..hi-1, as
    (ecc, source, far) in key indices: the smallest source of that
    eccentricity and its smallest farthest node.

    ``reach[p]`` is the set of batch sources (bit s - lo for source s)
    within the current radius of the node at position p; by symmetry, bit
    s - lo over all positions is the reach set of s. A round ORs every
    entry with its neighbours' entries of the round before, so the number
    of rounds until every entry is full is the largest eccentricity. The
    witness is read off the state before the last round: its source is the
    lowest bit still missing somewhere, its far end the lowest key index
    missing that bit.
    """
    n = len(order)
    full = (1 << (hi - lo)) - 1
    reach = [0] * n
    for s in range(lo, hi):
        reach[pos[s]] = 1 << (s - lo)
    if reach.count(full) == n:  # a single-node component
        return 0, lo, lo
    rounds = 0
    while True:
        prev, reach = reach, reach[:]
        get = prev.__getitem__
        for col in cols:
            reach[: len(col)] = map(or_, reach, map(get, col))
        rounds += 1
        if reach.count(full) == n:
            break
    missing = full & ~reduce(and_, prev)
    bit = (missing & -missing).bit_length() - 1
    far = min(order[p] for p, m in enumerate(prev) if not m >> bit & 1)
    return rounds, lo + bit, far


def _rounds_diameter(comp: ConfigComponent, index: dict[int, int]) -> tuple[int, int, int]:
    """(diameter, source, far) in key indices by the bit-parallel rounds of
    ``_batch_eccentricity``, in batches of ``_BATCH`` sources: each round
    grows every reach set by one BFS layer, and the rounds until all are
    full give the batch's largest eccentricity. A later batch replaces the
    best only with a strictly larger one. For a component of N nodes a
    batch's reach sets hold N x ``_BATCH`` bits, two generations of them
    during a round."""
    # Positions order the nodes by descending degree, so the nodes with a
    # j-th neighbour form a prefix and a round ORs in one slice per j.
    nodes = sorted(zip(comp.dist, comp.rows), key=lambda node: -len(node[1]))
    order = [index[key] for key, _ in nodes]
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    cols: list[list[int]] = []
    for _, row in nodes:
        for j, u in enumerate(row):
            if j == len(cols):
                cols.append([])
            cols[j].append(pos[index[u]])
    best = (-1, 0, 0)
    for lo in range(0, len(order), _BATCH):
        found = _batch_eccentricity(cols, pos, order, lo, min(lo + _BATCH, len(order)))
        if found[0] > best[0]:
            best = found
    return best


def _sweep(adj: list[list[int]], src: int) -> list[int]:
    """Distances from key index ``src`` by key index: one level-synchronous
    BFS over the key-indexed rows ``adj`` of a connected component."""
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        layer = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    layer.append(w)
        frontier = layer
    return dist


def _bounds_diameter(
    comp: ConfigComponent, index: dict[int, int], e0: int
) -> Optional[tuple[int, int, int]]:
    """(diameter, source, far) in key indices by Takes-Kosters eccentricity
    bounds, or None once ``_BOUNDS_BUDGET`` BFS runs did not settle them.

    Every BFS from v, of eccentricity e, bounds each node w at distance d
    from v: ecc(w) <= e + d and ecc(w) >= max(d, e - d). The enumeration
    BFS of ``comp`` (eccentricity ``e0``) is the first; each further one
    starts at the node of largest upper bound, lowest key index first,
    until no upper bound exceeds the largest eccentricity seen, D. The
    witness source is then the first node in key order whose lower bound
    reaches D, a node whose upper bound is below D being skipped and any
    other one swept; the far end is its first node at distance D.
    """
    n = len(index)
    adj: list[list[int]] = [[]] * n
    get = index.__getitem__
    order = list(map(get, comp.dist))
    for i, row in zip(order, comp.rows):
        adj[i] = list(map(get, row))
    first = np.empty(n, np.int64)
    first[order] = list(comp.dist.values())
    lower = np.maximum(first, e0 - first)
    upper = e0 + first
    diameter = e0
    # the distances from the lowest-index swept node of eccentricity D,
    # the only one of them that can be the witness source
    held = (order[0], first)
    budget = _BOUNDS_BUDGET

    def sweep(v: int) -> Optional[int]:
        nonlocal diameter, held, budget
        if not budget:
            return None
        budget -= 1
        dist = np.array(_sweep(adj, v), np.int64)
        e = int(dist.max())
        np.maximum(lower, dist, out=lower)
        np.maximum(lower, e - dist, out=lower)
        np.minimum(upper, e + dist, out=upper)
        if e > diameter or (e == diameter and v < held[0]):
            diameter, held = e, (v, dist)
        return e

    while upper.max() > diameter:
        if sweep(int(upper.argmax())) is None:
            return None
    for src in np.flatnonzero(upper >= diameter).tolist():
        if lower[src] >= diameter:
            break
        if upper[src] >= diameter:
            e = sweep(src)
            if e is None:
                return None
            if e == diameter:
                break
    if held[0] != src and sweep(src) is None:
        return None
    return diameter, src, int(np.argmax(held[1] == diameter))


def component_diameter(
    comp: ConfigComponent,
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact diameter with a deterministic witness pair: the smallest-key
    source of largest eccentricity and its smallest-key farthest node.
    Refuses capped components.

    The branch is chosen by e0, the eccentricity of the component's start
    node: the last distance of the enumeration BFS. A component with
    e0 >= ``_BOUNDS_GATE`` (so more than ``_BOUNDS_GATE`` nodes) is first
    certified by Takes-Kosters eccentricity bounds (``_bounds_diameter``),
    which settle a path-shaped component in a handful of BFS runs. One
    they do not settle within ``_BOUNDS_BUDGET`` runs, such as a cycle,
    whose nodes share one eccentricity, goes to the bit-parallel rounds
    (``_rounds_diameter``) like every shorter component, so the bounds cost
    at most that budget on top. Both branches give the same witness pair.
    """
    if comp.capped:
        raise NodeCapExceeded("cannot compute an exact diameter of a capped component")
    keys = sorted(comp.dist)
    index = {key: i for i, key in enumerate(keys)}
    e0 = next(reversed(comp.dist.values()))
    found = _bounds_diameter(comp, index, e0) if e0 >= _BOUNDS_GATE else None
    if found is None:
        found = _rounds_diameter(comp, index)
    d, src, far = found
    return d, (decode_key(keys[src], comp.k), decode_key(keys[far], comp.k))


def enumerate_components(
    g: Graph,
    k: int,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[ConfigComponent]:
    """Partition all independent k-sets into components, smallest-key order.

    The cap bounds the total number of explored nodes; on overflow the
    in-progress component carries ``capped=True`` and enumeration stops, so
    a partial result is always flagged.
    """
    _check_rule(rule)
    comps: list[ConfigComponent] = []
    assigned: set[int] = set()
    budget = node_cap
    for key in _independent_keys(g, k):
        if key in assigned:
            continue
        comp = _component(g, k, rule, key, max(budget, 0))
        comps.append(comp)
        assigned.update(comp.dist)
        budget -= comp.size
        if comp.capped:
            break
    return comps


@dataclass
class DiameterReport:
    """Maximum component diameter of the configuration graph."""

    n: int
    k: int
    rule: str
    component_size: Optional[int]
    diameter: Optional[int]
    witness_from: Optional[tuple[int, ...]]
    witness_to: Optional[tuple[int, ...]]
    capped: bool
    reason: Optional[str] = None
    # configuration nodes reached over all components; not part of the JSON
    explored: int = 0

    def exact(self, caller: str, node_cap: int) -> "DiameterReport":
        """This report, or NodeCapExceeded naming ``caller`` when the node
        cap cut the exploration short, so that no lower bound passes for
        an exact diameter."""
        if self.capped:
            raise NodeCapExceeded(
                f"{caller}: node cap {node_cap} reached after {self.explored} "
                "configuration nodes"
            )
        return self

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "rule": self.rule,
            "component_size": self.component_size,
            "diameter": self.diameter,
            "witness_from": list(self.witness_from) if self.witness_from is not None else None,
            "witness_to": list(self.witness_to) if self.witness_to is not None else None,
            "capped": self.capped,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def max_component_diameter(
    g: Graph,
    k: int,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> DiameterReport:
    """Maximum, over all components, of the exact component diameter."""
    comps = enumerate_components(g, k, rule, node_cap)
    if not comps:
        return DiameterReport(
            g.n, k, rule, None, None, None, None, False, reason="no independent set"
        )
    capped = any(c.capped for c in comps)
    explored = sum(c.size for c in comps)
    best = None
    for comp in comps:
        if comp.capped:
            continue
        d, (u, v) = component_diameter(comp)
        if best is None or d > best[0]:
            best = (d, u, v, comp.size)
    if best is None:
        return DiameterReport(g.n, k, rule, None, None, None, None, True,
                              reason="all components capped", explored=explored)
    d, u, v, size = best
    return DiameterReport(g.n, k, rule, size, d, u, v, capped, explored=explored)
