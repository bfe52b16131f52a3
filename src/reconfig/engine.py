"""Implicit exploration of the k-token configuration graph.

Nodes are independent sets of fixed size k; two sets are adjacent when one
token moves: to any vertex under the jump rule ("tj"), or only along an
edge of the host graph under the slide rule ("ts"). The configuration graph
is never materialized. Queries take one of two routes, by what they need:

- Whole components (``enumerate_components``, ``bfs_component`` and,
  through them, every diameter) enumerate every independent k-set first
  and index them by the k - 1 tokens a set keeps when one token moves
  (``_ConfigIndex``): the sets one move away from a set are the members of
  its k groups. The BFS runs over set indices, and under "tj", where a
  group is a clique, it scans each group once. A component's neighbour
  rows are gathered from the index in numpy when first asked for, and only
  for an uncapped component, so the node cap bounds what is held.
- Goal-directed queries (``distance``, ``shortest_sequence``,
  ``neighbors``) may stop long before they meet every set, so they do not
  enumerate them. ``_neighbor_keys`` turns a canonical key into its
  neighbours' keys by arithmetic on the 16-bit fields, and ``_bfs`` runs
  to the goal key, which it checks before the node cap. ``shortest_sequence``
  runs it from the target and walks downhill from the source to the
  smallest neighbour key.

Both routes give a node's neighbours in the same order: token by token in
ascending vertex order, each token's new vertices ascending.

Exact diameters come from ``component_diameter``, over the component's
rows with its nodes at their positions in ascending key order, and take
one of two branches:

- Short components (the start node's eccentricity e0, the last distance
  of the enumeration BFS, below ``_BOUNDS_GATE``) run all sources at
  once, the multi-source BFS of M. Then et al., "The more the merrier:
  efficient multi-source graph traversal", VLDB 2014: every source keeps a
  bit in packed uint64 reach sets, grown by one BFS layer per round by
  ORing neighbours' sets, until all sets are full. The round count is the
  diameter and the witness pair is read off the last round. Sources go in
  batches of ``_BATCH``, so a component of N nodes holds N x ``_BATCH``
  bits of reach sets per round.
- Long components (e0 >= ``_BOUNDS_GATE``), such as the path-shaped
  extremal ones, whose N x D rounds cost O(N^2), are certified by
  eccentricity bounds (F. W. Takes and W. A. Kosters, "Determining the
  diameter of small world networks", CIKM 2011): each single-source BFS
  bounds every node's eccentricity from above and below, and a handful of
  them settle the diameter and the witness. After ``_BOUNDS_BUDGET`` BFS
  runs that did not, as on a cycle, the component goes to the rounds.

Both branches give the same witness pair: the smallest-key source of
largest eccentricity and its smallest-key farthest node.

All functions are read-only on the host Graph, and an index serves only
the call that built it, so separate calls can safely run in parallel
workers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .graph import Graph, GraphError, is_independent, packed_rows

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
_FULL_WORD = np.uint64(2**64 - 1)

# component_diameter certifies a component by eccentricity bounds when its
# start node's eccentricity is at least _BOUNDS_GATE, and hands it to the
# bit-parallel rounds after _BOUNDS_BUDGET BFS runs that did not settle it.
# Path-shaped components settle in 2-4 runs: on the paths of 17, 33 and 65
# nodes (complement of P_n, k = 2) the bounds took 80-140 us per call and
# the rounds 150-360 us (2 shared CPUs, numpy 2.4). A cycle, whose nodes
# share one eccentricity, spends the whole budget first: on C_32, C_64 and
# C_128 under "ts" that added about 80% to the rounds' time. No component
# of at most 16 nodes reaches the gate.
_BOUNDS_GATE = 16
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
                below = allowed & (low - 1) & ~g.adj[v]
                if below.bit_count() >= shift // KEY_BITS:  # room for the rest
                    rec(shift - KEY_BITS, key | v << shift, below)
            else:
                out.append(key | v)

    rec(KEY_BITS * (k - 1), 0, (1 << g.n) - 1)
    return out


class _ConfigIndex:
    """Every independent k-set of g, grouped on the k - 1 tokens it keeps
    when one token moves. An index serves one enumeration: it records
    which sets a BFS has reached.

    Set i, the i-th in ascending key order, has one entry per token j,
    ``i * k + j``. The entries whose sets keep the same (k - 1)-subset when
    their token moves form a group, and a group's sorted entries lie at
    ``bounds[g]`` to ``bounds[g + 1] - 1``. The sets one move away from set
    i are the members of its k groups, token by token, other than i itself;
    under "ts" only those whose new vertex is adjacent to the moved one.
    Members are in ascending key order, which for a fixed kept subset is
    ascending order of the new vertex, so a row comes out in
    ``_neighbor_keys`` order. Groups are told apart by vertex tuples, not
    by keys, which are wider than 64 bits for k > 4. Under "ts" the rows
    test adjacency in g's rows packed into n x n/8 bytes, made once.
    """

    def __init__(self, g: Graph, k: int, rule: str):
        self.g, self.k, self.rule = g, k, rule
        self.keys = _independent_keys(g, k)
        size = len(self.keys)
        verts = np.frombuffer(
            b"".join([key.to_bytes(2 * k, "little") for key in self.keys]), "<u2"
        ).reshape(size, k)
        # by entry: the vertex its token occupies, and the ones its set keeps
        self.vert = verts.ravel()
        others = [[c for c in range(k) if c != j] for j in range(k)]
        width = max(k - 1, 0)
        kept = verts[:, np.array(others, np.intp).reshape(k, width)].reshape(size * k, width).T
        by_group = np.lexsort((np.arange(size * k), *kept))
        kept = kept[:, by_group]
        first = np.ones(size * k, bool)
        first[1:] = (kept[:, 1:] != kept[:, :-1]).any(axis=0)
        self.bounds = np.flatnonzero(np.append(first, True))
        self.group = np.empty(size * k, np.intp)
        self.group[by_group] = np.cumsum(first) - 1
        # by sorted entry: its set, and the vertex its token occupies there
        self.member = by_group // max(k, 1)
        self.new_vert = self.vert[by_group]
        self.seen = bytearray(size)
        self._scanned = bytearray(len(self.bounds) - 1)
        self._lists = self.group.tolist(), self.bounds.tolist(), self.member.tolist()  # for the BFS
        # a component's position of each set, rewritten per component
        self._where = np.empty(size, np.intp)
        self._news: Optional[list[int]] = None
        self._adj_bits: Optional[np.ndarray] = None  # g's rows packed, under "ts"

    def component(self, start: int, node_cap: int) -> "ConfigComponent":
        """BFS from set ``start`` over the sets not seen before.

        Any new set met when ``node_cap`` sets are already recorded caps
        it; the start always counts, so a component of s nodes is capped
        iff s > max(node_cap, 1). Sets are met in the order of the
        expanded rows, as ``_bfs`` meets them.
        """
        k, seen, scanned = self.k, self.seen, self._scanned
        group, bounds, member = self._lists
        ts = self.rule == TS
        if ts:
            adj, vert = self.g.adj, self.vert.tolist()
            news = self._new_vertices()
        order, depth = [start], [0]
        seen[start] = 1
        for at, i in enumerate(order):  # the queue grows while it is read
            d = depth[at] + 1
            for e in range(i * k, i * k + k):
                grp = group[e]
                lo, hi = bounds[grp], bounds[grp + 1]
                if ts:
                    # the member of new vertex v is the one of rank
                    # |{new vertices below v}|
                    grp_news = news[grp]
                    cand = adj[vert[e]] & grp_news
                    new = []
                    while cand:
                        low = cand & -cand
                        cand ^= low
                        m = member[lo + (grp_news & (low - 1)).bit_count()]
                        if not seen[m]:
                            new.append(m)
                elif scanned[grp]:
                    # under "tj" a group is a clique: once one member was
                    # expanded, every member was recorded
                    continue
                else:
                    scanned[grp] = 1
                    new = [m for m in member[lo:hi] if not seen[m]]
                if not new:
                    continue
                room = node_cap - len(order)
                capped = len(new) > room
                if capped:
                    new = new[: max(room, 0)]
                for m in new:
                    seen[m] = 1
                order += new
                depth += [d] * len(new)
                if capped:
                    return ConfigComponent(k, self, order, depth, True)
        return ConfigComponent(k, self, order, depth)

    def _new_vertices(self) -> list[int]:
        """By group: the bitset of its members' new vertices."""
        if self._news is None:
            bits = [1 << v for v in self.new_vert.tolist()]
            ends = self.bounds.tolist()
            self._news = [sum(bits[lo:hi]) for lo, hi in zip(ends, ends[1:])]
        return self._news

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbours): the sets one move away from each of the
        sets ``nodes``, node p's at ``neighbours[indptr[p]:indptr[p + 1]]``
        in ``_neighbor_keys`` order."""
        k = self.k
        entries = (nodes[:, None] * k + np.arange(k)).ravel()
        grp = self.group[entries]
        lo = self.bounds[grp]
        sizes = self.bounds[grp + 1] - lo
        ends = np.cumsum(sizes)
        total = int(ends[-1]) if len(ends) else 0
        # the sorted entries lo .. lo + size - 1 of each entry's group, in turn
        at = np.arange(total) + np.repeat(lo + sizes - ends, sizes)
        owner = np.repeat(entries, sizes)
        keep = self.member[at] != owner // max(k, 1)
        if self.rule == TS:
            if self._adj_bits is None:
                self._adj_bits = packed_rows(self.g.adj, (self.g.n + 7) // 8)
            v = self.new_vert[at]
            keep &= (self._adj_bits[self.vert[owner], v >> 3] >> (v & 7) & 1).astype(bool)
        node_of = np.repeat(np.repeat(np.arange(len(nodes)), k), sizes)
        indptr = np.zeros(len(nodes) + 1, np.intp)
        np.cumsum(np.bincount(node_of[keep], minlength=len(nodes)), out=indptr[1:])
        return indptr, self.member[at[keep]]


@dataclass(eq=False)
class ConfigComponent:
    """One connected component of the configuration graph.

    ``order`` holds its nodes as indices into ``index.keys`` in BFS order
    from the start node, and ``depth`` their distances from it. When
    ``capped`` is set the exploration was cut off at the node cap and the
    component is only partially known; exact queries refuse such inputs.
    Its neighbour rows are built from the index when first asked for, so a
    capped component never holds any.
    """

    k: int
    index: _ConfigIndex = field(repr=False)
    order: list[int] = field(repr=False)
    depth: list[int] = field(repr=False)
    capped: bool = False
    _csr: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.order)

    @property
    def dist(self) -> dict[int, int]:
        """Distance from the start node by canonical key, in BFS order."""
        keys = self.index.keys
        return {keys[i]: d for i, d in zip(self.order, self.depth)}

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, indptr, cols): the index's set indices of the nodes,
        ascending, and the neighbours of the p-th node as positions in
        ``nodes``, ``cols[indptr[p]:indptr[p + 1]]`` in ``_neighbor_keys``
        order. Refuses capped components."""
        if self.capped:
            raise NodeCapExceeded("cannot list the rows of a capped component")
        if self._csr is None:
            nodes = np.sort(np.array(self.order, np.intp))
            indptr, nbrs = self.index.rows(nodes)
            where = self.index._where
            where[nodes] = np.arange(len(nodes))
            self._csr = nodes, indptr, where[nbrs]
        return self._csr

    def degrees(self) -> np.ndarray:
        """The nodes' degrees, in ascending key order."""
        return np.diff(self.csr()[1])


def _bfs(
    g: Graph,
    k: int,
    rule: str,
    start: int,
    node_cap: int,
    goal: Optional[int] = None,
) -> tuple[dict[int, int], bool]:
    """BFS from the key ``start``: (distance by key in BFS order, capped).

    A new key equal to ``goal`` is recorded and ends the search; any other
    new key met when ``node_cap`` keys are already recorded caps it. The
    start always counts, so a component of s nodes is capped iff
    s > max(node_cap, 1).
    """
    dist = {start: 0}
    if start == goal:
        return dist, False
    queue = [start]
    for key in queue:  # the queue grows while it is read
        d = dist[key] + 1
        for nxt in _neighbor_keys(g, k, rule, key):
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


def bfs_component(
    g: Graph,
    k: int,
    start: Iterable[int],
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConfigComponent:
    """Explore the component of ``start``; aborts cleanly at ``node_cap``.

    Every independent k-set of g is enumerated and indexed first; the BFS
    then runs over that index. A capped result is explicit
    (``capped=True``), never a silent truncation.
    """
    _check_rule(rule)
    key = encode_key(_checked_set(g, start, k))
    index = _ConfigIndex(g, k, rule)
    return index.component(bisect.bisect_left(index.keys, key), node_cap)


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
    nodes, indptr, cols = comp.csr()
    keys = list(map(comp.index.keys.__getitem__, nodes.tolist()))
    flat = list(map(keys.__getitem__, cols.tolist()))
    ends = indptr.tolist()
    return {key: sorted(flat[ends[p] : ends[p + 1]]) for p, key in enumerate(keys)}


def _batch_eccentricity(
    blocks: list[np.ndarray], rank: np.ndarray, order: np.ndarray, lo: int, hi: int
) -> tuple[int, int, int]:
    """Largest eccentricity over the sources lo..hi-1, as (ecc, source,
    far): the smallest source of that eccentricity and its smallest
    farthest node, all as positions in key order.

    ``reach[r]`` packs, in uint64 words, the set of batch sources (bit
    s - lo for source s) within the current radius of the node of degree
    rank r; by symmetry, bit s - lo over all ranks is the reach set of s.
    The bits past the batch are set from the start, so a full entry has
    every bit set. A round ORs every entry with its neighbours' entries of
    the round before, block by block of ``_rounds_diameter``, so the number
    of rounds until every entry is full is the largest eccentricity. The
    witness is read off the state before the last round: its source is the
    lowest bit still missing somewhere, its far end the lowest node missing
    that bit.
    """
    width = hi - lo
    reach = np.zeros((len(order), (width + 63) >> 6), np.uint64)
    if width & 63:
        reach[:, -1] = ~np.uint64(0) << np.uint64(width & 63)
    bit = np.arange(width, dtype=np.uint64)
    reach[rank[lo:hi], bit >> 6] |= np.uint64(1) << (bit & 63)
    rounds = 0
    while reach.min() != _FULL_WORD:
        prev = reach
        # every node of a component of two or more has a neighbour, so the
        # first block covers all ranks
        reach = prev | np.bitwise_or.reduce(prev.take(blocks[0], axis=0))
        for block in blocks[1:]:
            reach[: block.shape[1]] |= np.bitwise_or.reduce(prev.take(block, axis=0))
        rounds += 1
    missing = ~np.bitwise_and.reduce(prev)
    word = int(np.flatnonzero(missing)[0])
    low = int(missing[word])
    low = (low & -low).bit_length() - 1
    lacking = prev[:, word] & np.uint64(1 << low) == 0
    return rounds, lo + 64 * word + low, int(order[lacking].min())


def _rounds_diameter(indptr: np.ndarray, cols: np.ndarray) -> tuple[int, int, int]:
    """(diameter, source, far) as positions in key order, by the
    bit-parallel rounds of ``_batch_eccentricity``, in batches of
    ``_BATCH`` sources: each round grows every reach set by one BFS layer,
    and the rounds until all are full give the batch's largest
    eccentricity. A later batch replaces the best only with a strictly
    larger one. For a component of N nodes a batch's reach sets hold at
    most N x ``_BATCH`` bits, two generations of them during a round, and
    a round's gathers at most that much again."""
    n = len(indptr) - 1
    if n == 1:
        return 0, 0, 0
    # Ranks order the nodes by descending degree, so the nodes with a j-th
    # neighbour form a prefix. A block gathers the j-th neighbours for as
    # many j as fit the bound above, with a node's own rank standing in for
    # a neighbour it lacks: ORing in its own reach set changes nothing.
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    rank = np.argsort(order)
    heads, by_rank, nbrs = indptr[order], deg[order], rank[cols]
    top = int(by_rank[0])
    per = max(1, _BATCH // (64 * ((min(n, _BATCH) + 63) >> 6)))
    blocks = []
    for j in range(0, top, per):
        m = int(np.count_nonzero(by_rank > j))
        slots = np.arange(j, min(j + per, top))
        have = slots < by_rank[:m, None]
        at = np.where(have, heads[:m, None] + slots, 0)
        blocks.append(np.where(have, nbrs[at], np.arange(m)[:, None]).T.copy())
    best = (-1, 0, 0)
    for lo in range(0, n, _BATCH):
        found = _batch_eccentricity(blocks, rank, order, lo, min(lo + _BATCH, n))
        if found[0] > best[0]:
            best = found
    return best


def _sweep(adj: list[list[int]], src: int) -> list[int]:
    """Distances from ``src`` by position: one level-synchronous BFS over
    the rows ``adj`` of a connected component."""
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


def _bounds_diameter(comp: ConfigComponent, e0: int) -> Optional[tuple[int, int, int]]:
    """(diameter, source, far) as positions in key order, by Takes-Kosters
    eccentricity bounds, or None once ``_BOUNDS_BUDGET`` BFS runs did not
    settle them.

    Every BFS from v, of eccentricity e, bounds each node w at distance d
    from v: ecc(w) <= e + d and ecc(w) >= max(d, e - d). The enumeration
    BFS of ``comp`` (eccentricity ``e0``) is the first; each further one
    starts at the node of largest upper bound, lowest position first,
    until no upper bound exceeds the largest eccentricity seen, D. The
    witness source is then the first node in key order whose lower bound
    reaches D, a node whose upper bound is below D being skipped and any
    other one swept; the far end is its first node at distance D.
    """
    nodes, indptr, cols = comp.csr()
    flat, ends = cols.tolist(), indptr.tolist()
    adj = [flat[ends[p] : ends[p + 1]] for p in range(len(nodes))]
    bfs_order = np.searchsorted(nodes, comp.order)
    first = np.empty(len(nodes), np.int64)
    first[bfs_order] = comp.depth
    lower = np.maximum(first, e0 - first)
    upper = e0 + first
    diameter = e0
    # the distances from the lowest-position swept node of eccentricity D,
    # the only one of them that can be the witness source
    held = (int(bfs_order[0]), first)
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
    nodes, indptr, cols = comp.csr()
    e0 = comp.depth[-1]
    found = _bounds_diameter(comp, e0) if e0 >= _BOUNDS_GATE else None
    if found is None:
        found = _rounds_diameter(indptr, cols)
    d, src, far = found
    keys = comp.index.keys
    return d, (decode_key(keys[nodes[src]], comp.k), decode_key(keys[nodes[far]], comp.k))


def enumerate_components(
    g: Graph,
    k: int,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[ConfigComponent]:
    """Partition all independent k-sets into components, smallest-key order.

    One index of every independent k-set serves the BFS of every
    component. The cap bounds the total number of explored nodes; on
    overflow the in-progress component carries ``capped=True`` and
    enumeration stops, so a partial result is always flagged.
    """
    _check_rule(rule)
    index = _ConfigIndex(g, k, rule)
    comps: list[ConfigComponent] = []
    budget = node_cap
    start = index.seen.find(0)
    while start >= 0:
        comp = index.component(start, max(budget, 0))
        comps.append(comp)
        budget -= comp.size
        if comp.capped:
            break
        start = index.seen.find(0, start + 1)
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
        # only a strictly larger diameter replaces the best, and a component
        # has at most size - 1 and, through its start node, at most 2 e0
        if best is not None and min(comp.size - 1, 2 * comp.depth[-1]) <= best[0]:
            continue
        d, (u, v) = component_diameter(comp)
        if best is None or d > best[0]:
            best = (d, u, v, comp.size)
    if best is None:
        return DiameterReport(g.n, k, rule, None, None, None, None, True,
                              reason="all components capped", explored=explored)
    d, u, v, size = best
    return DiameterReport(g.n, k, rule, size, d, u, v, capped, explored=explored)
