"""Undirected simple graphs over dense bitset adjacency rows.

Vertices are 0-based ints. Each adjacency row is a Python int used as an
n-bit set, which keeps near-complete graphs compact and makes independence
tests single AND operations. Bit i of an edge mask is pair i of
``edge_pairs(n)``, the pairs u < v in lexicographic order.

Array code reads rows as little-endian bytes, bit v of a row at bit v & 7
of its byte v >> 3 (``packed_rows``). ``Graph(n, rows)`` checks untrusted
rows (range, self-loops, symmetry) on the packed n x ceil(n/8) bytes while
they fit in ``_CHECK_BYTES`` = 8 MiB, which is n <= 8192; larger rows are
taken unchecked. The edge-list writer reads the pairs u < v off the rows'
bytes above the diagonal, a block of rows at a time.
"""

from __future__ import annotations

import itertools
import operator
import re
import warnings
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "complement",
    "is_independent",
    "independence_number",
    "orbit_minima",
    "pair_images",
    "edge_pairs",
    "packed_rows",
    "mask_to_graph",
    "graph_to_mask",
    "MAX_EDGE_LIST_N",
    "parse_edge_list",
    "write_edge_list",
    "parse_graph6",
    "write_graph6",
    "read_graph",
    "write_graph",
]

# Graph.__init__ checks untrusted rows only while their packed form, n x
# ceil(n/8) bytes, fits in this budget (n <= 8192); above it the rows are
# taken unchecked.
_CHECK_BYTES = 8 << 20
# Bits of adjacency rows that the row check and the edge-list writer unpack,
# and that packed_rows joins, at a time.
_BLOCK_BITS = 1 << 16


class GraphError(ValueError):
    """Invalid graph input (bad vertex, malformed file, broken invariant)."""


class Graph:
    """Immutable undirected simple graph.

    ``adj[v]`` is the neighbor bitset of ``v``; bit ``u`` set means edge uv.
    Rows are symmetric and irreflexive. Instances are safe to share across
    workers; all "mutators" return new graphs.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int], *, _trusted: bool = False):
        """Graph on n vertices with adjacency rows ``adj``.

        Unless ``_trusted``, rows are checked for bits outside 0..n-1, then
        self-loops, then asymmetric pairs, and the first failure in row order
        raises GraphError, while the packed rows fit in ``_CHECK_BYTES``
        (n <= 8192). Rows of more vertices are not checked.
        """
        rows = tuple(adj)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        if not _trusted and n * ((n + 7) // 8) <= _CHECK_BYTES:
            _check_rows(n, rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
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
        return cls(n, rows, _trusted=True)

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
        return Graph(self.n, rows, _trusted=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def packed_rows(rows, width: int) -> np.ndarray:
    """Nonnegative ints below 2**(8 * width) as a (len(rows), width) uint8
    array, little-endian: bit v of row u is bit v & 7 of entry [u, v >> 3].
    Rows are joined _BLOCK_BITS at a time."""
    packed = np.empty((len(rows), width), dtype=np.uint8)
    span = max(1, _BLOCK_BITS // max(8 * width, 1))
    for lo in range(0, len(rows), span):
        block = rows[lo : lo + span]
        packed[lo : lo + len(block)] = np.frombuffer(
            b"".join([row.to_bytes(width, "little") for row in block]), np.uint8
        ).reshape(len(block), width)
    return packed


def _check_rows(n: int, rows: tuple[int, ...]) -> None:
    """Raise GraphError for the first row in order with bits outside 0..n-1
    or a self-loop, the range before the loop; else for the first (u, v) in
    row-major order with v in row u but not u in row v.

    The packed rows are n x ceil(n/8) bytes; each block of rows is compared
    with the matching block of columns, transposed.
    """
    bad = next((u for u, row in enumerate(rows) if row.bit_length() > n or row < 0), n)
    packed = packed_rows(rows[:bad], (n + 7) // 8)
    diagonal = np.arange(bad)
    loops = np.flatnonzero(packed[diagonal, diagonal >> 3] >> (diagonal & 7) & 1)
    if len(loops):
        raise GraphError(f"self-loop at vertex {loops[0]}")
    if bad < n:
        raise GraphError(f"row {bad} has bits outside 0..{n - 1}")
    span = max(8, _BLOCK_BITS // max(n, 1) & -8)  # a column block starts on a byte
    for lo in range(0, n, span):
        hi = min(n, lo + span)
        ahead = np.unpackbits(packed[lo:hi], axis=1, count=n, bitorder="little")
        behind = np.unpackbits(packed[:, lo >> 3 : (hi + 7) >> 3], axis=1, count=hi - lo, bitorder="little")
        odd = ahead > behind.T
        if odd.any():
            u, v = divmod(int(odd.argmax()), n)
            raise GraphError(f"asymmetric adjacency at ({lo + u},{v})")


def complement(g: Graph) -> Graph:
    """Complement graph: edge uv iff g has no edge uv, u != v."""
    full = (1 << g.n) - 1
    rows = [full ^ g.adj[v] ^ (1 << v) for v in range(g.n)]
    return Graph(g.n, rows, _trusted=True)


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no two of the given vertices are adjacent in g."""
    mask = 0
    vs = set(vertices)
    for v in vs:
        g._check_vertex(v)
        mask |= 1 << v
    return all(not (g.adj[v] & mask) for v in vs)


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


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs (u, v), u < v, in lexicographic order: bit i of an
    edge mask is pair i."""
    return list(itertools.combinations(range(n), 2))


def mask_to_graph(n: int, mask: int) -> Graph:
    rows = [0] * n
    for i, (u, v) in enumerate(edge_pairs(n)):
        if mask >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows, _trusted=True)


def graph_to_mask(g: Graph) -> int:
    mask = 0
    for i, (u, v) in enumerate(edge_pairs(g.n)):
        if g.adj[u] >> v & 1:
            mask |= 1 << i
    return mask


def pair_images(n: int) -> np.ndarray:
    """Image of every vertex pair under every vertex permutation.

    Entry ``[p, i]`` is the index, in ``edge_pairs(n)`` order, of the image
    of pair i under the p-th permutation in
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
    pairs = np.array(edge_pairs(n), dtype=np.intp)
    us, vs = pairs.reshape(-1, 2).T
    pos = np.zeros(n * n, dtype=np.uint16)
    pos[us * n + vs] = pos[vs * n + us] = np.arange(len(us))
    return pos[perms[:, us] * n + perms[:, vs]]


def orbit_minima(images: np.ndarray, masks) -> np.ndarray:
    """Minimum of each edge mask's orbit under the permutations whose pair
    images are the rows of ``images`` (see ``pair_images``), as int64.

    A mask's image under a permutation is the sum of ``2**image`` over its
    set pairs; for a block of masks all images come from one float64
    matrix product, which is exact because every partial sum is an integer
    below 2**53 (n <= 10). Only the pair columns some mask sets take part.
    """
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    bits = masks[:, None] >> np.arange(images.shape[1]) & 1
    used = np.flatnonzero(bits.any(axis=0))
    weights = (np.int64(1) << images[:, used]).T.astype(np.float64)
    bits = bits[:, used].astype(np.float64)
    # 16 masks a block keep the product at 5 MB for the 8! permutations
    blocks = [(bits[lo : lo + 16] @ weights).min(axis=1) for lo in range(0, len(bits), 16)]
    return np.concatenate([np.zeros(0), *blocks]).astype(np.int64)


# -- serialization ---------------------------------------------------------
#
# Canonical edge-list format: first line "n m", then m lines "u v" with
# u < v, sorted lexicographically, 0-based, one trailing newline each.
# graph6 is accepted for interop; files are written as edge lists.


def write_edge_list(g: Graph) -> str:
    return "".join(_edge_list_blocks(g))


def _edge_list_blocks(g: Graph) -> Iterator[str]:
    """The edge-list text of g: the header, then the lines of the pairs
    u < v in blocks of rows of about _BLOCK_BITS bits above the diagonal, so
    that every temporary is bounded by the block and none by the graph."""
    yield f"{g.n} {g.num_edges}\n"
    # the decimal text of every vertex id, padded with zero bytes, which no
    # line holds: a line is the text of u, a space, that of v and a newline,
    # with the zero bytes dropped
    names = np.arange(g.n).astype(f"S{len(str(max(g.n - 1, 0)))}")
    line = np.dtype([("u", names.dtype), ("space", "S1"), ("v", names.dtype), ("newline", "S1")])
    # bit j of adj[u] >> (u + 1) is the pair (u, u + 1 + j); these bits take
    # sizes[u] bytes, from byte starts[u] of all rows' bytes on, so sparse
    # rows take few bytes and no row pads another
    sizes = [(max(row.bit_length() - u, 0) + 7) // 8 for u, row in enumerate(g.adj, 1)]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    # the first row of each block; not np.unique, which imports numpy.ma
    # (about 1 MB of RSS)
    bounds = np.searchsorted(starts, np.arange(0, starts[-1], max(1, _BLOCK_BITS // 8)), side="right") - 1
    bounds = [*dict.fromkeys(bounds.tolist()), g.n]
    for lo, hi in zip(bounds, bounds[1:]):
        rest = zip(range(lo + 1, hi + 1), g.adj[lo:hi], sizes[lo:hi])
        data = np.frombuffer(b"".join([(row >> u).to_bytes(size, "little") for u, row, size in rest]), np.uint8)
        at = np.flatnonzero(data)  # the nonzero bytes, each unpacked alone
        byte, bit = np.nonzero(np.unpackbits(data[at, None], axis=1, bitorder="little"))
        at += starts[lo]
        rows = np.searchsorted(starts, at, side="right") - 1
        firsts = rows + 1 + 8 * (at - starts[rows])  # the vertex of each byte's bit 0
        text = np.empty(len(byte), line)
        text["u"], text["space"], text["v"], text["newline"] = names[rows[byte]], b" ", names[firsts[byte] + bit], b"\n"
        text = text.view(np.uint8)
        yield text[text != 0].tobytes().decode("ascii")


# The ASCII characters that str.split() treats as whitespace but
# str.splitlines() does not break at, and those it breaks at. The reader
# maps every byte to its kind: a space, a line boundary, a digit, a sign or
# any other byte. A token is a run of bytes of the last three kinds, whose
# codes share their two low bits, so that `kind & 3` tells the three kinds
# of run apart.
_SPACES = b" \t\x1f"
_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"
_SPACE, _BREAK, _DIGIT, _SIGN, _OTHER = 0, 1, 2, 6, 10
_KINDS = bytes(
    _SPACE if c in _SPACES else _BREAK if c in _BREAKS else _DIGIT if 48 <= c <= 57
    else _SIGN if c in b"+-" else _OTHER
    for c in range(256)
)
_LINE_BOUNDARY = re.compile(b"[" + _BREAKS + b"]")
# The grammar of a count or vertex id: that of int() less its underscores.
_INT_TOKEN = re.compile(rb"[+-]?[0-9]+")
# The edge-list reader works through slices of at least this many bytes, each
# ending at a line boundary, so that its temporaries stay small.
_SLICE_BYTES = 1 << 16
# Bytes of packed adjacency rows, and endpoint pairs, that _rows_from_pairs
# holds at a time.
_ROW_BLOCK_BYTES = 1 << 22
_PAIR_CHUNK = 1 << 14
# Largest vertex count an edge-list header may claim: whatever the edge
# count, building the rows takes a Python int and a few array entries for
# every vertex.
MAX_EDGE_LIST_N = 1 << 17


def parse_edge_list(text: str) -> Graph:
    """Graph from edge-list text; malformed input raises GraphError.

    The text must be ASCII, and every count and vertex id a decimal integer
    with an optional sign (no underscores). Blank lines are skipped; lines
    and tokens are split as ``str.splitlines`` and ``str.split`` split them.
    """
    if not text.isascii():
        at = re.search(r"[^\x00-\x7f]", text).start()
        row = text.count("\n", 0, at) + 1
        line = text[text.rfind("\n", 0, at) + 1 :].partition("\n")[0]
        raise GraphError(f"non-ASCII character {text[at]!r} in line {row} {line!r}")
    return _read_edge_list(text.encode("ascii"))


def _read_edge_list(data: bytes) -> Graph:
    """Graph from ASCII edge-list bytes.

    Refusals come in the order of a per-line reading, each with its text: the
    header, the edge count, the first malformed line, then the first pair out
    of range or a loop, after a warning for every repeat before it. Vectorised
    checks find each; only the line a message quotes is looked up.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    head = None  # (n, m)
    lines = 0  # non-blank lines after the header
    malformed = None  # the first malformed edge line
    bad = None  # (pair, endpoints) of the first pair out of range or a loop
    pairs = 0  # pairs read into u and v
    for lo, hi in _line_slices(data):
        mapped = data[lo:hi].translate(_KINDS)
        kind = np.frombuffer(mapped, dtype=np.uint8)
        # 0 for a space, 1 for a line boundary, 2 for a token byte
        solid = kind & 3
        inside = solid == _DIGIT
        flips = np.empty(len(kind) + 1, dtype=bool)
        flips[0], flips[-1] = inside[0], inside[-1]
        np.not_equal(inside[1:], inside[:-1], out=flips[1:-1])
        bounds = np.flatnonzero(flips)
        if not len(bounds):
            continue
        starts, ends = bounds[0::2], bounds[1::2]
        # a token opens a line when a line boundary lies between it and the
        # token before: the byte before it is one, or the gap holds a space
        # next to a boundary; a slice starts a line
        lead = solid[starts - 1] == _BREAK
        mixed = np.searchsorted(starts, np.flatnonzero(solid[1:] + solid[:-1] == _SPACE + _BREAK))
        lead[mixed[mixed < len(lead)]] = True
        lead[0] = True

        def line(t: int) -> str:  # the line of token t, as splitlines() gives it
            first = mapped.rfind(_BREAK, 0, starts[t]) + 1
            last = mapped.find(_BREAK, starts[t])
            return data[lo + first : lo + last if last >= 0 else hi].decode()

        def token(t: int) -> bytes:
            return data[lo + starts[t] : lo + ends[t]]

        if head is None:
            if len(starts) < 2 or lead[1] or (len(starts) > 2 and not lead[2]):
                raise GraphError(f"malformed header {line(0)!r}: expected 'n m'")
            if not (_INT_TOKEN.fullmatch(token(0)) and _INT_TOKEN.fullmatch(token(1))):
                raise GraphError(f"malformed header {line(0)!r}: expected integers")
            head = n, m = int(token(0)), int(token(1))
            if n < 0 or m < 0:
                raise GraphError("negative n or m in header")
            if n > MAX_EDGE_LIST_N:
                raise GraphError(f"header n={n} exceeds the edge-list limit {MAX_EDGE_LIST_N}")
            # an edge line takes three bytes and a line boundary at least
            u = np.empty(min(m, (len(data) - hi + 1) // 4 + len(starts)), dtype=np.int64)
            v = np.empty_like(u)
            starts, ends, lead = starts[2:], ends[2:], lead[2:]
        lines += np.count_nonzero(lead)
        if malformed is not None or not len(starts):
            continue
        # two tokens on every line, each an optional sign and then digits: a
        # byte other than a digit must be the sign that opens a longer token
        odd = np.flatnonzero(kind[starts[0] :] > _DIGIT) + starts[0]
        signed = np.searchsorted(starts, odd, side="right") - 1
        misfits = signed[(kind[odd] != _SIGN) | (starts[signed] != odd) | (ends[signed] == odd + 1)]
        if len(starts) % 2 or not lead[0::2].all() or lead[1::2].any() or len(misfits):
            opens = np.flatnonzero(lead)
            wrong = opens[np.diff(opens, append=len(starts)) != 2]
            malformed = line(np.concatenate((wrong, misfits)).min())
            continue
        if bad is not None:
            continue
        got = _token_values(raw[lo:hi], starts, ends, signed)
        off = got.view(np.uint64) >= n  # negative values too, read without sign
        off = off[0::2] | off[1::2] | (got[0::2] == got[1::2])
        if off.any():
            at = int(off.argmax())
            bad = pairs + at, int(token(2 * at)), int(token(2 * at + 1))
        if pairs + len(off) <= len(u):  # more pairs than the header claims fail below
            u[pairs : pairs + len(off)], v[pairs : pairs + len(off)] = got[0::2], got[1::2]
        pairs += len(off)
    if head is None:
        raise GraphError("empty edge-list input")
    n, m = head
    if lines != m:
        raise GraphError(f"header claims {m} edges, found {lines}")
    if malformed is not None:
        raise GraphError(f"malformed edge line {malformed!r}")
    if bad is not None:
        at, a, b = bad
        _warn_repeats(n, u[:at], v[:at])
        if a == b and 0 <= a < n:
            raise GraphError(f"self-loop at vertex {a}")
        raise GraphError(f"edge ({a},{b}) out of range for n={n}")
    return _rows_from_pairs(n, u, v)


def _line_slices(data: bytes) -> Iterator[tuple[int, int]]:
    """Bounds of consecutive slices of data of at least _SLICE_BYTES, each
    but the last ending just after a line boundary."""
    lo = 0
    while lo < len(data):
        cut = _LINE_BOUNDARY.search(data, lo + _SLICE_BYTES)
        hi = cut.end() if cut else len(data)
        yield lo, hi
        lo = hi


def _token_values(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """int64 values of the well-formed tokens of buf, of which those at the
    indices ``signed`` have a sign; -1 for a value beyond int64, which no
    vertex id can reach."""
    digits = ends - starts
    digits[signed] -= 1
    values = np.zeros(len(starts), dtype=np.int64)
    at = ends.copy()
    for d in range(min(int(digits.max()), 18)):  # the digit d places left of every token's end
        at -= 1
        column = buf.take(at) - np.uint8(48)
        column *= digits > d
        values += column * np.int64(10**d)
    values[signed[buf[starts[signed]] == 45]] *= -1
    for t in np.flatnonzero(digits > 18):
        value = int(buf[starts[t] : ends[t]].tobytes())
        values[t] = value if abs(value) < 2**63 else -1
    return values


def _warn_repeats(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Warn, in input order, of every pair that repeats an earlier one;
    return the indices of the repeats."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    repeats = np.sort(order[1:][keys[order[1:]] == keys[order[:-1]]])
    for i in repeats:
        warnings.warn(f"duplicate edge {int(lo[i]), int(hi[i])} ignored", stacklevel=2)
    return repeats


def _rows_from_pairs(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Trusted graph on n vertices with the edges u[i]v[i].

    The pairs must be in range and loop-free. A pair that repeats an earlier
    one, in either orientation, is kept once and warned of. Rows are packed
    little-endian into a buffer of _ROW_BLOCK_BYTES, a block of rows at a
    time, and each block adds in its bits from _PAIR_CHUNK pairs at a time,
    so the packing needs no temporary that grows like n² or with the number
    of pairs; only the repeat warnings sort all the pairs.
    """
    width = (n + 7) // 8
    span = max(1, _ROW_BLOCK_BYTES // max(width, 1))  # rows per block
    rows = []
    bits = 0
    chunks = []  # (u part, v part, lowest and highest vertex in them)
    for k in range(0, len(u), _PAIR_CHUNK):
        a, b = u[k : k + _PAIR_CHUNK], v[k : k + _PAIR_CHUNK]
        chunks.append((a, b, int(min(a.min(), b.min())), int(max(a.max(), b.max()))))
    block = np.zeros(min(span, n) * width, dtype=np.uint8)
    view = memoryview(block)
    for first in range(0, n, span):
        count = min(span, n - first)
        # each row is read from its lowest to its highest nonzero byte, which
        # spares scanning the zero bytes of wide sparse rows
        low = np.full(count, width, dtype=np.int64)
        high = np.zeros(count, dtype=np.int64)
        written = []  # the bytes to clear for the block of rows after this
        for a, b, least, most in chunks:
            if most < first or least >= first + count:
                continue
            for row, col in ((a, b), (b, a)):
                if least < first or most >= first + count:  # rows of other blocks too
                    held = (row >= first) & (row < first + count)
                    row, col = row[held], col[held]
                row = row - first
                byte = col >> 3
                np.minimum.at(low, row, byte)
                np.maximum.at(high, row, byte + 1)
                # adding a bit sets it while no pair repeats, and a repeat
                # shows in the bit count below
                at = row * width + byte
                np.add.at(block, at, np.left_shift(np.uint8(1), (col & 7).astype(np.uint8)))
                if first + count < n:
                    written.append(at)
        low = np.minimum(low, high)
        base = np.arange(count) * width
        spans = [
            int.from_bytes(view[lo:hi], "little")
            for lo, hi in zip((base + low).tolist(), (base + high).tolist())
        ]
        bits += sum(map(int.bit_count, spans))
        rows.extend(map(operator.lshift, spans, (8 * low).tolist()))
        for at in written:
            block[at] = 0
    if bits != 2 * len(u):
        # a repeat added a bit twice: pack the rows again without the repeats
        keep = np.ones(len(u), dtype=bool)
        keep[_warn_repeats(n, u, v)] = False
        return _rows_from_pairs(n, u[keep], v[keep])
    return Graph(n, rows, _trusted=True)


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
    # a character outside ASCII encodes to bytes of 128 and up, refused here too
    data = np.frombuffer(s.encode("utf-8", "surrogatepass"), dtype=np.uint8) - np.uint8(63)
    if (data > 63).any():
        raise GraphError("invalid graph6 character")
    if data[0] == 63:
        if len(data) > 1 and data[1] == 63:
            raise GraphError("graph6 8-byte size field (n >= 258048) is not supported")
        if len(data) < 4:
            raise GraphError("truncated graph6 size field")
        n = int(data[1]) << 12 | int(data[2]) << 6 | int(data[3])
        data = data[4:]
    else:
        n = int(data[0])
        data = data[1:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise GraphError(
            f"graph6 bit vector has {len(data)} characters, expected "
            f"exactly {(need + 5) // 6} for n={n}"
        )
    # bit i, six to a character and high bit first, is the pair (u, v) with
    # u < v in column order: v(v - 1)/2 + u = i
    bits = np.flatnonzero(np.unpackbits(data[:, None], axis=1)[:, 2:])
    bits = bits[bits < need]
    columns = np.arange(n, dtype=np.int64) * np.arange(-1, n - 1, dtype=np.int64) // 2
    v = np.searchsorted(columns, bits, side="right") - 1
    return _rows_from_pairs(n, bits - columns[v], v)


def read_graph(path: str, fmt: str = "edge-list") -> Graph:
    """Read a graph file in ``fmt`` ("edge-list" or "graph6"); the file must
    be ASCII."""
    if fmt not in ("edge-list", "graph6"):
        raise GraphError(f"unknown format {fmt!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        at = re.search(rb"[^\x00-\x7f]", data).start()
        raise GraphError(f"{path}: non-ASCII byte 0x{data[at]:02x} at byte offset {at}")
    if fmt == "edge-list":
        return _read_edge_list(data)
    return parse_graph6(data.decode("ascii"))


def write_graph(g: Graph, path: str) -> None:
    """Write ``g`` to ``path`` in the canonical edge-list format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_edge_list_blocks(g))
