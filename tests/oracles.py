"""Brute-force oracles, independent of the library's own search paths.

Everything here materializes the object under test explicitly (all subsets,
all k-sets, full adjacency dictionaries) so that the implicit engine, the
branch-and-bound routines and the constructions can be checked against
slow but obviously correct code.
"""

import functools
import itertools
from collections import deque

import numpy as np

from reconfig.engine import DEFAULT_NODE_CAP, TJ, TS, max_component_diameter
from reconfig.graph import Graph, GraphError, edge_pairs, mask_to_graph


def independent_ksets(g: Graph, k: int):
    """All independent k-sets by direct subset filtering."""
    out = []
    for comb in itertools.combinations(range(g.n), k):
        mask = 0
        ok = True
        for v in comb:
            if g.adj[v] & mask:
                ok = False
                break
            mask |= 1 << v
        if ok:
            out.append(comb)
    return out


def explicit_config_graph(g: Graph, k: int, rule: str = TJ):
    """Materialized configuration graph: (nodes, adjacency dict)."""
    nodes = independent_ksets(g, k)
    adj = {s: [] for s in nodes}
    for s1, s2 in itertools.combinations(nodes, 2):
        inter = set(s1) & set(s2)
        if len(inter) != k - 1:
            continue
        if rule == TS:
            (u,) = set(s1) - inter
            (v,) = set(s2) - inter
            if not g.adj[u] >> v & 1:
                continue
        adj[s1].append(s2)
        adj[s2].append(s1)
    return nodes, adj


def explicit_distance(g: Graph, k: int, a, b, rule: str = TJ):
    """BFS on the materialized configuration graph; None if unreachable."""
    a, b = tuple(sorted(a)), tuple(sorted(b))
    _, adj = explicit_config_graph(g, k, rule)
    if a not in adj or b not in adj:
        raise ValueError("endpoints are not independent k-sets")
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return dist[cur]
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return None


def explicit_components(g: Graph, k: int, rule: str = TJ):
    """Set of frozensets of node tuples, one per component."""
    nodes, adj = explicit_config_graph(g, k, rule)
    seen = set()
    comps = []
    for s in nodes:
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    queue.append(nxt)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def brute_independence_number(g: Graph) -> int:
    """Maximum independent set size over all 2^n subsets (n small)."""
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if g.adj[v] & mask:
                ok = False
                break
        if ok:
            best = size
    return best


def brute_is_clique(g: Graph, vertices) -> bool:
    """Whether every two of the given vertices are adjacent, pair by pair."""
    return all(g.has_edge(u, v) for u, v in itertools.combinations(set(vertices), 2))


def brute_max_3ap_free(n: int):
    """Largest 3-AP-free subset of [1, n] by exhaustive extension; returns
    (size, lexicographically smallest witness)."""
    best = (0, ())

    def rec(x, chosen):
        nonlocal best
        if len(chosen) + (n - x + 1) <= best[0]:
            return
        if x > n:
            if len(chosen) > best[0]:
                best = (len(chosen), tuple(chosen))
            return
        ok = True
        cs = set(chosen)
        for s in chosen:
            if 2 * s - x in cs or (x + s) % 2 == 0 and (x + s) // 2 in cs:
                ok = False
                break
        if ok:
            chosen.append(x)
            rec(x + 1, chosen)
            chosen.pop()
        rec(x + 1, chosen)

    rec(1, [])
    return best


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def config_key_order(s):
    """Sort key of a k-set in the engine's key order. Keys pack the
    ascending vertices into 16-bit fields, smallest vertex lowest, so
    numeric order compares the largest vertex first."""
    return tuple(reversed(s))


def brute_shortest_sequence(g: Graph, k: int, a, b, rule: str = TJ):
    """Shortest sequence from a to b, or None if unreachable: distances to
    b by BFS on the explicit configuration graph, then from a a walk
    downhill that always steps to the smallest-key neighbour one closer."""
    a, b = tuple(sorted(a)), tuple(sorted(b))
    _, adj = explicit_config_graph(g, k, rule)
    dist = {b: 0}
    queue = deque([b])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    if a not in dist:
        return None
    seq = [a]
    while seq[-1] != b:
        d = dist[seq[-1]] - 1
        seq.append(min((s for s in adj[seq[-1]] if dist.get(s) == d), key=config_key_order))
    return seq


def brute_component_diameters(g: Graph, k: int, rule: str = TJ):
    """(diameter, witness_from, witness_to) of the largest component
    diameter, or None without an independent k-set, by BFS from every node
    of the explicit configuration graph.

    Tie-break, as documented for the engine: components in order of their
    smallest key, the first of largest diameter; inside it, the
    smallest-key source of largest eccentricity and its smallest-key
    farthest node.
    """
    _, adj = explicit_config_graph(g, k, rule)
    best = None
    comps = sorted(explicit_components(g, k, rule),
                   key=lambda c: min(map(config_key_order, c)))
    for comp in comps:
        comp_best = None
        for src in sorted(comp, key=config_key_order):
            dist = {src: 0}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nxt in adj[cur]:
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            ecc = max(dist.values())
            far = min((s for s, d in dist.items() if d == ecc), key=config_key_order)
            if comp_best is None or ecc > comp_best[0]:
                comp_best = (ecc, src, far)
        if best is None or comp_best[0] > best[0]:
            best = comp_best
    return best


def brute_perm_byte_tables(n: int):
    """Per-permutation lookup tables mapping each byte of an edge mask to its
    permuted image, so one orbit element costs a few indexed ORs."""
    pairs = list(itertools.combinations(range(n), 2))
    nbits = len(pairs)
    pos = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    nbytes = (nbits + 7) // 8
    tabs = np.zeros((len(perms), nbytes, 256), dtype=np.uint32)
    for pi, perm in enumerate(perms):
        bitmap = [0] * nbits
        for i, (u, v) in enumerate(pairs):
            a, b = perm[u], perm[v]
            bitmap[i] = 1 << pos[(a, b) if a < b else (b, a)]
        for byi in range(nbytes):
            t = tabs[pi, byi]
            base = byi * 8
            for val in range(1, 256):
                low = val & -val
                bit = base + low.bit_length() - 1
                t[val] = t[val & (val - 1)] | (bitmap[bit] if bit < nbits else 0)
    return tabs, nbits, nbytes


@functools.cache
def census_masks(n: int) -> tuple[int, ...]:
    """One edge bitmask per isomorphism class of n-vertex graphs, the
    minimum of its orbit, ascending, by the class census: mark the whole
    orbit of the smallest unmarked mask in a map of all 2**C(n, 2) masks,
    orbits from ``brute_perm_byte_tables``, until none is left. The map and
    the tables grow with 2**C(n, 2) and n!, so this is for n <= 7; each n
    is built once per session (about 1.5 s at n = 7)."""
    tabs, nbits, nbytes = brute_perm_byte_tables(n)
    unvisited = np.ones(1 << nbits, dtype=bool)
    reps = []
    m = 0
    while True:
        reps.append(m)
        orbit = np.zeros(len(tabs), dtype=np.uint32)
        for b in range(nbytes):
            orbit |= tabs[:, b, (m >> (8 * b)) & 0xFF]
        unvisited[orbit] = False
        # the orbit holds m itself, so a zero step means nothing is left
        step = int(unvisited[m:].argmax())
        if step == 0:
            return tuple(reps)
        m += step


def brute_canonical_form(g: Graph) -> int:
    """Minimum edge bitmask, bit i for pair i of ``combinations(range(n),
    2)``, over all relabelings of g, each built edge by edge."""
    pos = {p: i for i, p in enumerate(itertools.combinations(range(g.n), 2))}
    edges = list(g.edges())
    return min(
        sum(1 << pos[tuple(sorted((perm[u], perm[v])))] for u, v in edges)
        for perm in itertools.permutations(range(g.n))
    )


def census_exhaustive_search(n: int, k: int, rule: str = TJ,
                             node_cap: int = DEFAULT_NODE_CAP) -> dict:
    """The JSON of an exhaustive search by the class census: the engine on
    every class of ``census_masks(n)`` in ascending order, so that the
    first class the node cap cuts short raises NodeCapExceeded."""
    reps = census_masks(n)
    found = {}
    for rep in reps:
        report = max_component_diameter(mask_to_graph(n, rep), k, rule, node_cap)
        d = report.exact("exhaustive_search", node_cap).diameter
        if d is not None:
            found[rep] = d
    best = max(found.values(), default=None)
    best_masks = [m for m, d in found.items() if d == best]
    witness = None
    if best_masks:
        witness = [list(e) for e in mask_to_graph(n, best_masks[0]).edges()]
    return {
        "n": n, "k": k, "rule": rule, "best_diameter": best,
        "witness_edges": witness, "exhaustive": True,
        "classes_examined": len(reps), "best_masks": best_masks,
        "trials": None, "seed": None,
    }


@functools.cache
def extension_candidates(n: int) -> np.ndarray:
    """Every one-vertex extension of maximum degree: each class of
    ``census_masks(n - 1)``, its bits moved to their n-vertex positions,
    gains a vertex n - 1 for every neighbourhood S with |S| >= deg(u) +
    [u in S] for every old vertex u. Every graph has a vertex of maximum
    degree, so the list covers every n-vertex class (n <= 8), most of them
    more than once (2,690 masks for the 1,044 classes of n = 7)."""
    if n <= 1:
        return np.zeros(1, dtype=np.int64)
    reps = np.array(census_masks(n - 1), dtype=np.int64)
    bit = {pair: b for b, pair in enumerate(edge_pairs(n))}
    old = edge_pairs(n - 1)
    has = reps[:, None] >> np.arange(len(old)) & 1
    base = (has << np.array([bit[p] for p in old], dtype=np.int64)).sum(axis=1)
    incidence = np.zeros((len(old), n - 1), dtype=np.int64)
    for b, (u, v) in enumerate(old):
        incidence[b, u] = incidence[b, v] = 1
    degree = has @ incidence
    member = np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1
    size = member.sum(axis=1)
    fits = (size[None, :, None] >= degree[:, None, :] + member).all(axis=2)
    new = member @ np.array([1 << bit[u, n - 1] for u in range(n - 1)], dtype=np.int64)
    cls, nbhd = np.nonzero(fits)
    masks = base[cls] | new[nbhd]
    masks.flags.writeable = False
    return masks


def brute_parse_edge_list(text: str) -> Graph:
    """The per-line edge-list reader: split every line, int() every token,
    and add the edges one by one through ``Graph.from_edges``."""
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


def brute_check_rows(n: int, rows) -> None:
    """The per-edge row check: range and sign, then a self-loop, row by row;
    then every set bit v of every row u against bit u of row v."""
    for u in range(n):
        if rows[u].bit_length() > n or rows[u] < 0:
            raise GraphError(f"row {u} has bits outside 0..{n - 1}")
        if rows[u] & (1 << u):
            raise GraphError(f"self-loop at vertex {u}")
    for u in range(n):
        rest = rows[u]
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not rows[v] & (1 << u):
                raise GraphError(f"asymmetric adjacency at ({u},{v})")
            rest ^= low


def brute_write_edge_list(g: Graph) -> str:
    """The per-edge writer: the header, then one formatted line per edge."""
    lines = [f"{g.n} {g.num_edges}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(lines)


def brute_is_63_free(edges):
    """(6,3)-freeness of a triple system by scanning every three triples:
    (True, None), or (False, union of the first failing three in
    ``itertools.combinations`` order)."""
    for i, j, l in itertools.combinations(range(len(edges)), 3):
        union = set(edges[i]) | set(edges[j]) | set(edges[l])
        if len(union) <= 6:
            return False, tuple(sorted(union))
    return True, None


def pairwise_ring_properties(triples, p: int, elems, labels) -> dict:
    """The +3 ring's label checks by the direct route: every pair of
    independent triples is compared, and each component's triples come from
    the residue formula {js, (j+1)s, (j+2)s} mod p, j = 1..p-3, with vertex
    id r - 1 for residue r."""
    consec = all(
        any({labels[v] % 8 for v in t} == {r % 8, (r + 1) % 8, (r + 2) % 8} for r in range(8))
        for t in triples
    )
    transition = True
    for i, t1 in enumerate(triples):
        s1 = set(t1)
        for t2 in triples[i + 1 :]:
            diff = s1 ^ set(t2)
            if len(diff) == 2:
                u, v = diff
                if (labels[u] - labels[v]) % 8 not in (3, 5):
                    transition = False
    zero_labels = {l for l in labels if l % 8 == 0}
    missing = {}
    for s in elems:
        covered = {labels[i * s % p - 1] for j in range(1, p - 2) for i in (j, j + 1, j + 2)}
        missing[s] = sorted(zero_labels - covered)
    return {"consecutive_mod8": consec, "transition_mod8": transition,
            "zero_mod8_missing": missing}
