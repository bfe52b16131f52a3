"""Implicit exploration of the k-token configuration graph.

Nodes are independent sets of fixed size k; two sets are adjacent when one
token moves: to any vertex under the jump rule ("tj"), or only along an
edge of the host graph under the slide rule ("ts"). Components are explored
by BFS over canonical integer keys without ever materializing the full
configuration graph.

Exact diameters come from one all-sources core, ``component_diameter``:
the component's nodes are indexed in ascending key order and every source
keeps a bit-parallel reach set, grown by one BFS layer per round by ORing
neighbours' sets, until all sets are full. The round count is the
diameter and the witness pair is read off the last round, so no single-
source search runs. Sources go in batches of ``_BATCH``, so a component of
N nodes holds N x ``_BATCH`` bits of reach sets per round.

All functions are pure and read-only on the host Graph, so separate
components can safely be processed by parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Optional

from .graph import Graph, GraphError, is_independent

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


class NodeCapExceeded(RuntimeError):
    """BFS hit the node cap before it could produce an exact answer."""


def _check_rule(rule: str) -> None:
    if rule not in RULES:
        raise GraphError(f"unknown rule {rule!r}, expected one of {RULES}")


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
    return sorted(_raw_neighbors(g, vs, rule), key=encode_key)


def _raw_neighbors(g: Graph, vs: tuple[int, ...], rule: str) -> Iterator[tuple[int, ...]]:
    full = (1 << g.n) - 1
    occupied = 0
    for v in vs:
        occupied |= 1 << v
    for i, u in enumerate(vs):
        forb = occupied
        for j, w in enumerate(vs):
            if j != i:
                forb |= g.adj[w]
        cand = full & ~forb
        if rule == TS:
            cand &= g.adj[u]
        rest = vs[:i] + vs[i + 1 :]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            yield tuple(sorted(rest + (v,)))
    return


def independent_sets(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All independent k-sets of g, ascending key order."""
    if k < 0:
        raise GraphError("k must be nonnegative")
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    full = (1 << g.n) - 1

    def rec(prefix: list[int], allowed: int) -> None:
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        rest = allowed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            prefix.append(v)
            higher = full & ~((1 << (v + 1)) - 1)
            rec(prefix, allowed & ~g.adj[v] & higher)
            prefix.pop()

    rec([], full)
    out.sort(key=encode_key)
    return out


@dataclass
class ConfigComponent:
    """One connected component of the configuration graph.

    ``dist`` maps canonical keys to BFS distance from ``start``. When
    ``capped`` is set the exploration was cut off at the node cap and the
    component is only partially known; exact queries refuse such inputs.
    """

    graph: Graph
    k: int
    rule: str
    start: tuple[int, ...]
    dist: dict[int, int]
    capped: bool = False
    _diameter: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default=None, repr=False
    )

    @property
    def size(self) -> int:
        return len(self.dist)

    def __contains__(self, key: int) -> bool:
        return key in self.dist


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
    vs = _checked_set(g, start, k)
    dist = {encode_key(vs): 0}
    queue = [vs]
    capped = False
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        d = dist[encode_key(cur)]
        for nxt in _raw_neighbors(g, cur, rule):
            key = encode_key(nxt)
            if key not in dist:
                if len(dist) >= node_cap:
                    capped = True
                    queue.clear()
                    break
                dist[key] = d + 1
                queue.append(nxt)
        if capped:
            break
    return ConfigComponent(g, k, rule, vs, dist, capped)


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
    target = encode_key(b)
    dist = {encode_key(a): 0}
    if target in dist:
        return 0
    queue = [a]
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        d = dist[encode_key(cur)]
        for nxt in _raw_neighbors(g, cur, rule):
            key = encode_key(nxt)
            if key in dist:
                continue
            if key == target:
                return d + 1
            if len(dist) >= node_cap:
                raise NodeCapExceeded(
                    f"node cap {node_cap} reached before {b} was found"
                )
            dist[key] = d + 1
            queue.append(nxt)
    return None


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
    akey, bkey = encode_key(a), encode_key(b)
    # BFS from the target, then walk downhill from the source.
    dist = {bkey: 0}
    queue = [b]
    head = 0
    found = akey == bkey
    while head < len(queue) and not found:
        cur = queue[head]
        head += 1
        d = dist[encode_key(cur)]
        for nxt in _raw_neighbors(g, cur, rule):
            key = encode_key(nxt)
            if key in dist:
                continue
            if len(dist) >= node_cap:
                raise NodeCapExceeded(
                    f"node cap {node_cap} reached before {a} was found"
                )
            dist[key] = d + 1
            queue.append(nxt)
            if key == akey:
                found = True
    if not found:
        return None
    seq = [a]
    cur = a
    d = dist[akey]
    while d > 0:
        step = min(
            (
                (encode_key(nxt), nxt)
                for nxt in _raw_neighbors(g, cur, rule)
                if dist.get(encode_key(nxt)) == d - 1
            ),
        )
        cur = step[1]
        seq.append(cur)
        d -= 1
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


def _indexed_adjacency(comp: ConfigComponent) -> tuple[list[int], list[list[int]]]:
    """The component's keys ascending, and for each key the ascending
    indices (into that list) of its neighbours inside the component."""
    keys = sorted(comp.dist)
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for key in keys:
        row = []
        for nxt in _raw_neighbors(comp.graph, decode_key(key, comp.k), comp.rule):
            j = index.get(encode_key(nxt))
            if j is not None:
                row.append(j)
        row.sort()
        rows.append(row)
    return keys, rows


def component_adjacency(comp: ConfigComponent) -> dict[int, list[int]]:
    """Materialized adjacency (key -> sorted neighbor keys) of a component."""
    keys, rows = _indexed_adjacency(comp)
    return {key: [keys[j] for j in row] for key, row in zip(keys, rows)}


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


def component_diameter(
    comp: ConfigComponent,
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact diameter with a deterministic witness pair: the smallest-key
    source of largest eccentricity and its smallest-key farthest node.
    Refuses capped components.

    All sources run at once as bit-parallel reach sets, in batches of
    ``_BATCH`` sources (see ``_batch_eccentricity``): each round grows
    every set by one BFS layer, and the rounds until all are full give the
    batch's largest eccentricity. A later batch replaces the best only
    with a strictly larger one. For a component of N nodes a batch's reach
    sets hold N x ``_BATCH`` bits, two generations of them during a round.
    """
    if comp.capped:
        raise NodeCapExceeded("cannot compute an exact diameter of a capped component")
    if comp._diameter is not None:
        d, u, v = comp._diameter
        return d, (u, v)
    keys, rows = _indexed_adjacency(comp)
    # Positions order the nodes by descending degree, so the nodes with a
    # j-th neighbour form a prefix and a round ORs in one slice per j.
    order = sorted(range(len(rows)), key=lambda i: -len(rows[i]))
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    cols: list[list[int]] = []
    for i in order:
        for j, u in enumerate(rows[i]):
            if j == len(cols):
                cols.append([])
            cols[j].append(pos[u])
    best = (-1, 0, 0)
    for lo in range(0, len(keys), _BATCH):
        found = _batch_eccentricity(cols, pos, order, lo, min(lo + _BATCH, len(keys)))
        if found[0] > best[0]:
            best = found
    d, src, far = best
    u = decode_key(keys[src], comp.k)
    v = decode_key(keys[far], comp.k)
    comp._diameter = (d, u, v)
    return d, (u, v)


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
    for vs in independent_sets(g, k):
        key = encode_key(vs)
        if key in assigned:
            continue
        comp = bfs_component(g, k, vs, rule, node_cap=max(budget, 0))
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
