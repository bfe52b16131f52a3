"""Search over n-vertex graphs for the largest configuration-graph diameter.

Exhaustive mode (n <= 8) sweeps every graph class by one-vertex extension,
and the classes themselves come from the same extension, one size at a
time; no external canonicalizer is involved. Each class of size n - 1,
one representative per class, gains a vertex n - 1 under the two rules of
canonical augmentation (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998): its neighbourhood is the smallest of its orbit under
the class's automorphisms, and it has the largest (degree, sum of
neighbour degrees) of all vertices. The candidates cover every n-vertex
class, a few more than once: 1,096 for the 1,044 classes of n = 7.
The representative of a class is the minimum mask of its orbit under the
full permutation action, so the classes of size n are the distinct orbit
minima of the candidates, and the recursion starts from the one class of
size 0 or 1. The search reduces to orbit minima only the candidates that
reach the maximum, or that the node cap may cut short, and Burnside's
lemma over the cycle types of S_n counts the classes.

The candidate diameters come from one batched array sweep, not from an
engine call per graph. Every n-vertex graph shares one node list, the
k-subsets of ``range(n)`` in key order, and one table of one-token moves
between subsets that differ in one vertex; the graph's edge mask only
switches them on. A subset is a node of the graph when no pair inside it
is an edge, and a move is an edge of its configuration graph when both
ends are nodes (under "ts" also the moved pair must be an edge). The
sweep holds every node's reach set in every graph and grows all of them
by one BFS layer per round, all graphs at once (multi-source BFS as in
``engine``'s rounds, after Then et al., VLDB 2014). The sets are
bit-sliced by graph: a uint64 word holds one (node, node) entry of 64
graphs, where packing a set by node would leave most of each word empty
below 64 nodes (21 of its bits at n = 7, k = 2). Under "ts" a round
gathers, for each of the k(n - k) moves, whole contiguous rows of the
neighbours' sets into one reused buffer. Under "tj" the subsets that keep
the same k - 1 tokens are pairwise adjacent, so a round ORs the rows of
each such group once and then each node's k group rows. The candidates go
in chunks of as many words as keep one reach array, and under "tj" one
array of group rows, within ``_SWEEP_BYTES``, and once at most half of a
chunk's words still grow, the words whose 64 graphs have all stopped are
dropped. After round r a reach set holds every node within distance r,
so a graph's largest component diameter is the last round in which one
of its sets grew; a graph with no independent k-set has none. The same
pass counts each graph's independent k-sets.

A class can only be cut short by the node cap when it has more independent
k-sets than the cap (the engine's budget rule caps a component of s nodes
only when s, plus the sizes of the components before it, exceeds the cap),
so exactly those classes are run through the engine, on their orbit
minima in ascending order, and its NodeCapExceeded carries the explored
count; at the default cap no class of n <= 8 (at most 70 nodes) is. The
winner is re-verified by the engine as an independent cross-check.

The tables that depend only on n or on (n, k), the candidates, the sweep
tables, the pair images for the orbit minima and the class count, are
built on first use and kept for the life of the process, read-only; the
candidates and pair images of every smaller size stay too, since the
classes are built from them: 0.28 MB for n = 7 and every k, 2.7 MB for
n = 8. No answer is kept: every search sweeps its candidates and
re-verifies its winner again.

Random mode samples Erdos-Renyi graphs at several densities plus
perturbations of the complement-of-path construction, with recorded
seeds, and computes each diameter with the engine.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .constructions import complement_path
from .engine import DEFAULT_NODE_CAP, TJ, TS
from .graph import (
    Graph,
    GraphError,
    edge_pairs,
    graph_to_mask,
    mask_to_graph,
    orbit_minima,
    pair_images,
)

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "SearchResult",
    "nonisomorphic_masks",
    "exhaustive_search",
    "random_search",
]

EXHAUSTIVE_LIMIT = 8

# Bytes of one reach array of the batched sweep, which sets how many
# 64-graph words a chunk takes: 83 at C(8, 2) = 28 nodes, 20 at C(8, 3) =
# 56 and 13 at C(8, 4) = 70. Sweeping every candidate of the n = 8 cells
# in one process (two runs; Python 3.11, numpy 2.4, 2 shared CPUs),
# 256 KiB read within 8% of 512 KiB, 1 MiB was 11-28% slower and 128 KiB
# 7-66% slower.
_SWEEP_BYTES = 1 << 19


@dataclass
class SearchResult:
    n: int
    k: int
    rule: str
    best_diameter: Optional[int]
    witness_edges: Optional[list[tuple[int, int]]]
    exhaustive: bool
    classes_examined: Optional[int] = None
    best_masks: Optional[list[int]] = None
    trials: Optional[int] = None
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "rule": self.rule,
            "best_diameter": self.best_diameter,
            "witness_edges": [list(e) for e in self.witness_edges]
            if self.witness_edges is not None
            else None,
            "exhaustive": self.exhaustive,
            "classes_examined": self.classes_examined,
            "best_masks": self.best_masks,
            "trials": self.trials,
            "seed": self.seed,
        }


def _check_n(n: int) -> None:
    """Refuse a vertex count the exhaustive routes cannot take, before any
    work is done."""
    if n > EXHAUSTIVE_LIMIT:
        raise GraphError(
            f"exhaustive search supports n <= {EXHAUSTIVE_LIMIT}, got {n}; "
            "use --random T instead"
        )
    if n < 0:
        raise GraphError("vertex count must be nonnegative")


def nonisomorphic_masks(n: int) -> list[int]:
    """One edge bitmask per isomorphism class of n-vertex graphs, each the
    minimum of its orbit, ascending (n <= 8): the distinct orbit minima of
    the ``_candidates``, which extend the classes of size n - 1."""
    _check_n(n)
    return np.unique(orbit_minima(_pair_images(n), _candidates(n))).tolist()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _pair_images(n: int) -> np.ndarray:
    """``pair_images(n)``, read-only, built once per process for the
    exhaustive search's n <= 8."""
    return _read_only(pair_images(n))


@functools.cache
def _sweep_tables(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The tables every n-vertex class shares for k tokens, read-only and
    built once per process.

    ``inner[i]`` is the mask, in ``edge_pairs`` bit order, of the pairs
    inside the i-th k-subset of ``range(n)`` in key order (colex, as the
    engine's keys sort). ``nbr[i, t]`` is the subset that the t-th
    one-token move from subset i reaches, and ``pair[i, t]`` the bit of the
    pair that token moves along. The subsets that keep the same k - 1
    tokens form a group, a clique under "tj" (the shared-(k - 1)-subset
    index of ``engine._ConfigIndex``): ``members[g]`` are the n - k + 1
    subsets of the g-th (k - 1)-subset in key order, and ``groups[i, t]``
    is the group of subset i without its t-th token.
    """
    subsets = sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
    index = {s: i for i, s in enumerate(subsets)}
    bit = {pair: b for b, pair in enumerate(edge_pairs(n))}
    inner = [sum(1 << bit[p] for p in itertools.combinations(s, 2)) for s in subsets]
    nbr, pair = [], []
    for s in subsets:
        moves = [(u, v) for u in s for v in range(n) if v not in s]
        nbr.append([index[tuple(sorted(set(s) - {u} | {v}))] for u, v in moves])
        pair.append([bit[min(u, v), max(u, v)] for u, v in moves])
    heads = sorted(itertools.combinations(range(n), k - 1), key=lambda s: s[::-1]) if k else []
    head = {s: g for g, s in enumerate(heads)}
    members = [[index[tuple(sorted((*s, v)))] for v in range(n) if v not in s] for s in heads]
    groups = [[head[s[:t] + s[t + 1 :]] for t in range(k)] for s in subsets]
    shape = (len(subsets), k * (n - k) if subsets else 0)
    return (
        _read_only(np.array(inner, dtype=np.int64)),
        _read_only(np.array(nbr, dtype=np.intp).reshape(shape)),
        _read_only(np.array(pair, dtype=np.int64).reshape(shape)),
        _read_only(np.array(members, dtype=np.intp).reshape(len(heads), max(n - k + 1, 0))),
        _read_only(np.array(groups, dtype=np.intp).reshape(len(subsets), k)),
    )


def _pack(bits: np.ndarray) -> np.ndarray:
    """The last axis of ``bits``, a multiple of 64 long, packed into uint64
    words: bit c of word w is entry 64 w + c."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view("<u8")


def _sweep(
    masks: np.ndarray, tables: tuple[np.ndarray, ...], rule: str
) -> tuple[np.ndarray, np.ndarray]:
    """Largest component diameter of every class in ``masks``, -1 for a
    class with no independent k-set, and its number of independent k-sets,
    by batched reach rounds over the ``_sweep_tables``.

    The masks are swept in chunks of 64-graph words, as many as keep one
    reach array of the chunk, and under "tj" one array of group rows, within
    ``_SWEEP_BYTES`` (at least one word); every temporary is built per
    chunk by ``_sweep_chunk``.
    """
    n = len(tables[0])
    # under "tj" the group arrays take C(n, k - 1) rows, more than the
    # C(n, k) of a reach array when k > (n + 1) / 2
    rows = max(n, len(tables[3]) if rule == TJ else 0, 1)
    step = 64 * max(1, _SWEEP_BYTES // (8 * rows * max(n, 1)))
    diameter = np.empty(len(masks), dtype=np.int64)
    nodes = np.empty(len(masks), dtype=np.int64)
    for lo in range(0, len(masks), step):
        part = slice(lo, lo + step)
        diameter[part], nodes[part] = _sweep_chunk(masks[part], tables, rule)
    return diameter, nodes


def _sweep_chunk(
    masks: np.ndarray, tables: tuple[np.ndarray, ...], rule: str
) -> tuple[np.ndarray, np.ndarray]:
    """``_sweep`` of one chunk, its reach sets bit-sliced by graph.

    Bit c of ``reach[i, w, j]`` says that node j is within the current
    radius of node i in graph 64 w + c of the chunk; ``keep[i, w]`` holds,
    packed the same way, the graphs in which subset i is a node, and under
    "ts" ``slide[t, i, w]`` those in which node i's t-th move runs along an
    edge. Bits past the last graph stay clear in ``keep``, so they never
    grow. The set of a subset that is no node is cleared once per round by
    ``keep``, so the empty sets it gathers add nothing.

    Under "ts" a round takes, move by move, the neighbours' rows into one
    reused buffer, masks them by ``slide`` and ORs them in. Under "tj" every
    two nodes of a group are adjacent, so a round ORs the rows of each
    group's members into ``group`` and then each node's k group rows into
    its own: 2 k C(n, k) rows, where the moves take k (n - k) C(n, k) (210
    against 420 at n = 7, k = 3). A graph grew in a round when its bit is
    set anywhere in ``grown ^ reach``. Once at most half of the words still
    grow, the words whose 64 graphs have all stopped are dropped.

    The words sit between the two node axes so that ``keep`` and ``slide``,
    one word per row and graph word, broadcast along the last axis, the n
    target nodes: on the n = 8, k = 3 and 4 cells that read 7-16% faster
    than words last, where numpy's inner loops are only the chunk's words
    long, and 4-8% slower on k = 2.
    """
    inner, nbr, pair, members, groups = tables
    n = len(inner)
    pad = ((0, 0), (0, -len(masks) % 64))
    indep = masks & inner[:, None] == 0
    nodes = indep.sum(axis=0)
    keep = _pack(np.pad(indep, pad))[:, :, None]
    slide = None
    if rule == TS:
        # edge[b, g] is bit b of mask g, unpacked from the masks' bytes so
        # that the temporaries take one byte, not eight, per pair and graph
        edge = masks.astype("<u8").view(np.uint8).reshape(-1, 8).T
        edge = np.unpackbits(edge, axis=0, bitorder="little")[: pair.max(initial=0) + 1]
        slide = _pack(np.pad(edge, pad))[pair.T][..., None]
    # with no move (k = 0, k >= n) a round only keeps each node's own set
    grouped = rule == TJ and nbr.shape[1] > 0
    node = np.arange(n)
    reach = np.zeros((n, keep.shape[1], n), dtype=np.uint64)
    reach[node, :, node] = keep[..., 0]
    grown, buf = np.empty_like(reach), np.empty_like(reach)
    if grouped:
        group = np.empty((len(members), *reach.shape[1:]), dtype=np.uint64)
        gbuf = np.empty_like(group)
    diameter = np.pad(np.where(nodes > 0, 0, -1), pad[1]).reshape(-1, 64)
    live = np.arange(len(diameter))
    rounds = 0
    while True:
        rounds += 1
        # "clip" never clips here; it spares np.take a buffered copy
        if grouped:
            np.take(reach, members[:, 0], axis=0, out=group, mode="clip")
            for t in range(1, members.shape[1]):
                np.take(reach, members[:, t], axis=0, out=gbuf, mode="clip")
                group |= gbuf
            np.take(group, groups[:, 0], axis=0, out=grown, mode="clip")
            for t in range(1, groups.shape[1]):
                np.take(group, groups[:, t], axis=0, out=buf, mode="clip")
                grown |= buf
        else:
            np.copyto(grown, reach)
            for t in range(nbr.shape[1]):
                np.take(reach, nbr[:, t], axis=0, out=buf, mode="clip")
                if slide is not None:
                    buf &= slide[t]
                grown |= buf
        grown &= keep
        reach ^= grown
        changed = np.bitwise_or.reduce(reach, axis=(0, 2))
        grows = changed != 0
        if not grows.any():
            return diameter.reshape(-1)[: len(masks)], nodes
        bits = np.unpackbits(changed.astype("<u8").view(np.uint8), bitorder="little")
        bits = bits.reshape(-1, 64)
        diameter[live] = np.where(bits == 1, rounds, diameter[live])
        if 2 * np.count_nonzero(grows) <= len(live):
            live, keep, grown = live[grows], keep[:, grows], grown[:, grows]
            if slide is not None:
                slide = slide[:, :, grows]
            reach, buf = np.empty_like(grown), np.empty_like(grown)
            if grouped:
                group = np.empty((len(members), *grown.shape[1:]), dtype=np.uint64)
                gbuf = np.empty_like(group)
        reach, grown = grown, reach


def _class_diameter(
    g: Graph, k: int, rule: str, node_cap: int, caller: str
) -> Optional[int]:
    rep = engine.max_component_diameter(g, k, rule, node_cap)
    return rep.exact(caller, node_cap).diameter


@functools.cache
def _class_count(n: int) -> int:
    """Number of isomorphism classes of n-vertex graphs, by Burnside's lemma.

    A permutation of cycle type lambda has c = sum(l // 2) + sum over pairs
    of cycles of gcd(l_i, l_j) cycles on the vertex pairs and so fixes 2**c
    edge masks; n! / z_lambda permutations have that type.
    """

    def partitions(rest: int, largest: int):
        if rest == 0:
            yield ()
        for first in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - first, first):
                yield (first, *tail)

    fixed = 0
    for lam in partitions(n, n):
        cycles = sum(l // 2 for l in lam)
        cycles += sum(math.gcd(a, b) for a, b in itertools.combinations(lam, 2))
        z = math.prod(l**m * math.factorial(m) for l, m in Counter(lam).items())
        fixed += math.factorial(n) // z << cycles
    return fixed // math.factorial(n)


@functools.cache
def _candidates(n: int) -> np.ndarray:
    """Edge masks that cover every n-vertex class, a few more than once,
    read-only and built once per process.

    Each (n - 1)-vertex class R, its bits moved to their n-vertex
    ``edge_pairs`` positions, gains a vertex n - 1 with neighbourhood S
    when two rules of canonical augmentation hold (McKay 1998):

    - lower: S is the smallest vertex set, as a bitmask, of its orbit under
      Aut(R), the permutations of ``_pair_images(n - 1)`` that fix R's
      mask. Each sigma in Aut(R) maps the extension by S onto the one by
      sigma(S), so the smallest stands for the whole orbit;
    - upper: vertex n - 1 has the largest (degree, sum of neighbour
      degrees) of all n vertices. In any graph, delete a vertex v that
      maximises this invariant: the class R of the rest, extended by the
      smallest Aut(R)-image of v's neighbourhood, is the graph again, with
      v as vertex n - 1. The rule also gives vertex n - 1 maximum degree.

    So every class appears: 159, 1,096 and 13,348 candidates stand for the
    156, 1,044 and 12,346 classes of n = 6, 7 and 8. The temporaries are
    built per block of 64 classes.
    """
    if n <= 1:
        return _read_only(np.zeros(1, dtype=np.int64))
    m = n - 1
    reps = np.array(nonisomorphic_masks(m), dtype=np.int64)
    bit = {pair: b for b, pair in enumerate(edge_pairs(n))}
    old = edge_pairs(m)
    us, vs = np.array(old, dtype=np.intp).reshape(-1, 2).T
    shift = np.array([bit[p] for p in old], dtype=np.int64)
    sets = np.arange(1 << m)
    member = sets[:, None] >> np.arange(m) & 1
    size = member.sum(axis=1)
    new = member @ np.array([1 << bit[u, m] for u in range(m)], dtype=np.int64)
    # image[p, s] is the vertex set s under the p-th permutation of
    # range(m), in the row order of _pair_images(m)
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.uint8).reshape(-1, m)
    image = np.left_shift(1, perms, dtype=np.uint8) @ member.T.astype(np.uint8)
    weights = (np.int64(1) << _pair_images(m)).T.astype(np.float64)
    parts = []
    for lo in range(0, len(reps), 64):
        rep = reps[lo : lo + 64]
        has = rep[:, None] >> np.arange(len(old)) & 1
        # each class's automorphisms, the identity among them, by the exact
        # float64 images of orbit_minima (a flat index: 2-d np.nonzero took
        # 6 times as long here)
        cls, perm = np.divmod(np.flatnonzero(has @ weights == rep[:, None]), len(image))
        first = np.flatnonzero(np.diff(cls, prepend=-1))
        lower = np.minimum.reduceat(image[perm], first, axis=0) == sets
        adj = np.zeros((len(rep), m, m), dtype=np.int64)
        adj[:, us, vs] = adj[:, vs, us] = has
        deg = adj.sum(axis=2)
        # the key n^2 degree + sum of neighbour degrees, which the extension
        # by S raises by n^2 + |S| at u in S and by |N(u) & S| at every u;
        # axes (class, S, old vertex u), and the new vertex's is new_key
        key = n * n * deg + (adj @ deg[..., None])[..., 0]
        old_key = key[:, None, :] + member * (n * n + size[:, None])
        old_key += np.bitwise_count((adj @ (1 << np.arange(m)))[:, None, :] & sets[:, None])
        new_key = n * n * size + deg @ member.T + size
        upper = new_key >= old_key.max(axis=2)
        cls, nbhd = np.nonzero(lower & upper)
        parts.append((has << shift).sum(axis=1)[cls] | new[nbhd])
    return _read_only(np.concatenate(parts))


def exhaustive_search(
    n: int,
    k: int,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """Best configuration-graph diameter over all n-vertex graphs (n <= 8).

    The graphs swept are the ``_candidates``, the classes of size n - 1
    extended by one vertex under the rules of canonical augmentation, all
    in one ``_sweep``; a few classes are swept more than once, which
    changes no maximum, and ``classes_examined`` is the exact class count
    of ``_class_count``.
    ``best_masks`` lists the orbit minima of the candidates achieving the
    optimum, ascending, so uniqueness up to isomorphism is checkable, and
    the first of them is re-verified by the engine before its edges are
    emitted. A class with more independent k-sets than ``node_cap`` runs
    through the engine instead, in ascending orbit-minimum order, so the
    first such class the cap cuts short raises the engine's
    NodeCapExceeded.
    """
    _check_n(n)
    engine._check_rule(rule)
    engine._check_k(k)
    masks = _candidates(n)
    tables = _sweep_tables(n, k)
    diameter, nodes = _sweep(masks, tables, rule)
    images = _pair_images(n)
    over = np.flatnonzero(nodes > max(node_cap, 0))
    if len(over):
        reps, which = np.unique(orbit_minima(images, masks[over]), return_inverse=True)
        found = [
            _class_diameter(mask_to_graph(n, rep), k, rule, node_cap, "exhaustive_search")
            for rep in reps.tolist()
        ]
        diameter[over] = np.array(found)[which]
    best: Optional[int] = None
    best_masks: list[int] = []
    witness = None
    if diameter.max() >= 0:
        best = int(diameter.max())
        best_masks = np.unique(orbit_minima(images, masks[diameter == best])).tolist()
        wg = mask_to_graph(n, best_masks[0])
        # re-verify the witness before emitting it
        if _class_diameter(wg, k, rule, node_cap, "exhaustive_search") != best:
            raise AssertionError("witness failed re-verification")
        witness = list(wg.edges())
    return SearchResult(
        n, k, rule, best, witness, True,
        classes_examined=_class_count(n), best_masks=best_masks,
    )


def _random_graph(rng: random.Random, n: int) -> Graph:
    style = rng.random()
    if style < 0.75 or n < 3:
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        edges = [e for e in edge_pairs(n) if rng.random() < p]
        return Graph.from_edges(n, edges)
    # perturbed extremal construction: flip a few pairs of the complement
    # of a path
    g, _ = complement_path(n)
    mask = graph_to_mask(g)
    nbits = n * (n - 1) // 2
    for _ in range(rng.randint(1, 3)):
        mask ^= 1 << rng.randrange(nbits)
    return mask_to_graph(n, mask)


def _random_trials(job) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """(diameter, edges) of the first best graph among trials lo..hi-1."""
    n, k, rule, seed, lo, hi, node_cap = job
    best = None
    for trial in range(lo, hi):
        g = _random_graph(random.Random(f"{seed}:{trial}"), n)
        d = _class_diameter(g, k, rule, node_cap, "random_search")
        if d is not None and (best is None or d > best[0]):
            best = (d, list(g.edges()))
    return best


def random_search(
    n: int,
    k: int,
    rule: str = TJ,
    trials: int = 100,
    seed: int = 0,
    node_cap: int = DEFAULT_NODE_CAP,
    workers: int = 1,
) -> SearchResult:
    """Sampled lower bound on the best diameter, deterministic per seed.

    Trial t draws its graph from its own RNG, seeded by ``(seed, t)``, and
    ties go to the lowest trial, so the result does not depend on
    ``workers``, the number of processes the trials are split over. Raises
    NodeCapExceeded when the cap cuts a trial short.
    """
    if trials < 0:
        raise GraphError(f"trials must be >= 0, got {trials}")
    workers = max(1, min(workers, trials))
    bounds = [trials * i // workers for i in range(workers + 1)]
    jobs = [(n, k, rule, seed, lo, hi, node_cap) for lo, hi in zip(bounds, bounds[1:])]
    if workers > 1:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(workers) as pool:
            parts = pool.map(_random_trials, jobs)
    else:
        parts = [_random_trials(job) for job in jobs]
    best = None
    for part in parts:  # ascending trials, so ties keep the lowest
        if part is not None and (best is None or part[0] > best[0]):
            best = part
    d, witness = best if best else (None, None)
    return SearchResult(n, k, rule, d, witness, False, trials=trials, seed=seed)
