"""Undirected simple graphs over dense bitset adjacency rows.

Vertices are 0-based ints. Each adjacency row is a Python int used as an
n-bit set, which keeps near-complete graphs compact and makes independence
tests single AND operations. An optional ``labels`` map carries external
integer names (e.g. residues) that survive vertex deletion and relabeling.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Iterable, Iterator, Optional, TextIO, Union

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "complement",
    "is_independent",
    "is_clique",
    "independence_number",
    "canonical_form",
    "pair_images",
    "parse_edge_list",
    "write_edge_list",
    "parse_graph6",
    "write_graph6",
    "read_graph",
    "write_graph",
]

# Full row validation is quadratic in n; beyond this size we trust the
# factory methods, which build symmetric rows by construction.
_VALIDATE_LIMIT = 4096


class GraphError(ValueError):
    """Invalid graph input (bad vertex, malformed file, broken invariant)."""


class Graph:
    """Immutable undirected simple graph.

    ``adj[v]`` is the neighbor bitset of ``v``; bit ``u`` set means edge uv.
    Rows are symmetric and irreflexive. Instances are safe to share across
    workers; all "mutators" return new graphs.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(
        self,
        n: int,
        adj: Iterable[int],
        labels: Optional[dict[int, int]] = None,
        _trusted: bool = False,
    ):
        rows = tuple(adj)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        if labels is not None:
            if set(labels) - set(range(n)):
                raise GraphError("label keys must be vertex ids")
            if len(set(labels.values())) != len(labels):
                raise GraphError("labels must be injective")
        if not _trusted and n <= _VALIDATE_LIMIT:
            for u in range(n):
                if rows[u].bit_length() > n or rows[u] < 0:
                    raise GraphError(f"row {u} has bits outside 0..{n - 1}")
                if rows[u] & (1 << u):
                    raise GraphError(f"self-loop at vertex {u}")
            for u in range(n):
                for v in _iter_bits(rows[u]):
                    if not rows[v] & (1 << u):
                        raise GraphError(f"asymmetric adjacency at ({u},{v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", rows)
        object.__setattr__(self, "labels", dict(labels) if labels else None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[dict[int, int]] = None,
    ) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:  # the first occurrence wins
                warnings.warn(f"duplicate edge {min(u, v), max(u, v)} ignored", stacklevel=2)
                continue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels, _trusted=True)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n, _trusted=True)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)], _trusted=True)

    # -- queries -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            while rest:
                low = rest & -rest
                yield u, u + low.bit_length()
                rest ^= low
        return

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge uv added (error on self-loop)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError("self-loop")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows, self.labels, _trusted=True)

    def relabeled(self, labels: dict[int, int]) -> "Graph":
        """Same graph, new labels map."""
        return Graph(self.n, self.adj, labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.adj == other.adj
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
    return


def complement(g: Graph) -> Graph:
    """Complement graph: edge uv iff g has no edge uv, u != v."""
    full = (1 << g.n) - 1
    rows = [full ^ g.adj[v] ^ (1 << v) for v in range(g.n)]
    return Graph(g.n, rows, g.labels, _trusted=True)


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no two of the given vertices are adjacent in g."""
    mask = 0
    vs = set(vertices)
    for v in vs:
        g._check_vertex(v)
        mask |= 1 << v
    return all(not (g.adj[v] & mask) for v in vs)


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    mask = 0
    for v in vs:
        g._check_vertex(v)
        mask |= 1 << v
    return all((g.adj[v] & mask) == mask ^ (1 << v) for v in vs)


def independence_number(g: Graph, limit: int = 64) -> int:
    """Exact maximum independent set size.

    Branch-and-bound (max clique on the complement) with a greedy-coloring
    bound. Exponential worst case, hence the size guard; raise ``limit``
    explicitly for trusted larger inputs.
    """
    if g.n > limit:
        raise GraphError(
            f"independence_number refused: n={g.n} exceeds limit {limit}"
        )
    if g.n == 0:
        return 0
    comp = complement(g)
    return _max_clique_size(comp.adj, g.n)


def _max_clique_size(rows: tuple[int, ...], n: int) -> int:
    best = 0

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # Greedy coloring; returns (vertex, color#) sorted by color, so the
        # color number is an upper bound on clique size within the prefix.
        order = []
        color = 0
        left = cand
        while left:
            color += 1
            avail = left
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append((v, color))
                left &= ~low
                avail &= ~(rows[v] | low)
        return order

    def expand(cand: int, size: int) -> None:
        nonlocal best
        order = color_bound(cand)
        for v, color in reversed(order):
            if size + color <= best:
                return
            cand &= ~(1 << v)
            if size + 1 > best:
                best = size + 1
            sub = cand & rows[v]
            if sub:
                expand(sub, size + 1)

    expand((1 << n) - 1, 0)
    return best


def pair_images(n: int) -> np.ndarray:
    """Image of every vertex pair under every vertex permutation.

    Entry ``[p, i]`` is the index, in ``itertools.combinations(range(n), 2)``
    order, of the image of pair i under the p-th permutation in
    ``itertools.permutations(range(n))`` order; shape (n!, n(n-1)/2), uint16,
    which keeps the temporaries small.
    """
    perms = np.zeros((1, 0), dtype=np.uint16)
    for m in range(1, n + 1):
        # the permutations of range(m) in lexicographic order: each first
        # entry f, followed by those of range(m) without f, in order
        perms = np.concatenate([
            np.column_stack((np.full(len(perms), f, np.uint16), perms + (perms >= f)))
            for f in range(m)
        ])
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp)
    us, vs = pairs.reshape(-1, 2).T
    pos = np.zeros(n * n, dtype=np.uint16)
    pos[us * n + vs] = pos[vs * n + us] = np.arange(len(us))
    return pos[perms[:, us] * n + perms[:, vs]]


def canonical_form(g: Graph, limit: int = 8) -> int:
    """Minimum edge bitmask over all vertex permutations.

    Bit i of the mask is pair i of ``itertools.combinations(range(n), 2)``.
    Factorial cost; intended for the small-n exhaustive search and
    isomorphism checks on witnesses.
    """
    if g.n > limit:
        raise GraphError(f"canonical_form refused: n={g.n} exceeds limit {limit}")
    bits = [
        i
        for i, (u, v) in enumerate(itertools.combinations(range(g.n), 2))
        if g.adj[u] >> v & 1
    ]
    if not bits:
        return 0
    images = pair_images(g.n)[:, bits].astype(np.int64)
    return int((np.int64(1) << images).sum(axis=1).min())


# -- serialization ---------------------------------------------------------
#
# Canonical edge-list format: first line "n m", then m lines "u v" with
# u < v, sorted lexicographically, 0-based, one trailing newline each.
# graph6 is accepted for interop; output defaults to edge-list.


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(lines)


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"malformed header {lines[0]!r}: expected integers")
    if n < 0 or m < 0:
        raise GraphError("negative n or m in header")
    if len(lines) - 1 != m:
        raise GraphError(f"header claims {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"malformed edge line {ln!r}")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def write_graph6(g: Graph) -> str:
    if g.n > 62:
        raise GraphError("graph6 writer supports n <= 62")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise GraphError("invalid graph6 character")
    if data[0] == 63:
        if len(data) > 1 and data[1] == 63:
            raise GraphError("graph6 8-byte size field (n >= 258048) is not supported")
        if len(data) < 4:
            raise GraphError("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise GraphError(
            f"graph6 bit vector has {len(data)} characters, expected "
            f"exactly {(need + 5) // 6} for n={n}"
        )
    bits = []
    for d in data:
        for shift in range(5, -1, -1):
            bits.append(d >> shift & 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)


def read_graph(source: Union[str, TextIO], fmt: str = "edge-list") -> Graph:
    """Read a graph from a path or open text stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    raise GraphError(f"unknown format {fmt!r}")


def write_graph(g: Graph, dest: Union[str, TextIO], fmt: str = "edge-list") -> None:
    if fmt == "edge-list":
        text = write_edge_list(g)
    elif fmt == "graph6":
        text = write_graph6(g) + "\n"
    else:
        raise GraphError(f"unknown format {fmt!r}")
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)
