"""Search over n-vertex graphs for the largest configuration-graph diameter.

Exhaustive mode enumerates one representative per isomorphism class (n <= 7)
by orbit-marking edge bitmasks under the full permutation action; no
external canonicalizer is involved, and the representative is the minimum
mask of its orbit. The action is held in per-byte permutation tables, each
filled by doubling from the ``1 << image`` weights of the byte's pairs under
every permutation, and the scan jumps from one representative to the next
unmarked mask by an array search.

The class diameters then come from one batched array sweep, not from an
engine call per class. Every n-vertex class shares one node list, the
k-subsets of ``range(n)`` in key order, and one table of one-token moves
between subsets that differ in one vertex; the class's edge mask only
switches them on. A subset is a node of the class when no pair inside it
is an edge, and a move is an edge of its configuration graph when both
ends are nodes (under "ts" also the moved pair must be an edge). For a
chunk of at most ``_CHUNK`` = 256 classes the sweep holds every node's
reach set, bit-packed, and grows all of them by one BFS layer per round,
all classes at once (multi-source BFS as in ``engine``'s rounds, after Then
et al., VLDB 2014). After round r a reach set holds every node within
distance r, so a class's largest component diameter is the last round in
which one of its sets grew; a class with no independent k-set has none.

A class can only be cut short by the node cap when it has more independent
k-sets than the cap (the engine's budget rule caps a component of s nodes
only when s, plus the sizes of the components before it, exceeds the cap),
so exactly those classes are run through the engine, whose NodeCapExceeded
carries the explored count; at the default cap no class of n <= 7 (at most
35 nodes) is. The winner is re-verified by the engine as an independent
cross-check.

Random mode samples Erdos-Renyi graphs at several densities plus
perturbations of the complement-of-path construction, with recorded
seeds, and computes each diameter with the engine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .constructions import complement_path
from .engine import DEFAULT_NODE_CAP, TJ, TS
from .graph import Graph, GraphError, edge_pairs, graph_to_mask, mask_to_graph, pair_images

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "SearchResult",
    "nonisomorphic_masks",
    "exhaustive_search",
    "random_search",
]

EXHAUSTIVE_LIMIT = 7

# Classes per chunk of the batched sweep. A process that ran the seven
# exhaustive-search benchmark jobs 20 times (Python 3.11, numpy 2.4, 2
# shared CPUs) peaked at 43.6-43.7 MB RSS with 256 classes (43.4-43.7
# with 64) and at 44.0-44.1 MB with 1,024; the per-class engine loop the
# sweep replaced peaked at 43.2-43.6 MB. 256 was also the fastest of the
# three.
_CHUNK = 256


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


def _perm_byte_tables(n: int) -> list[np.ndarray]:
    """Per-byte lookup tables of the permutation action on edge masks.

    ``tabs[b][v, p]`` is the image under the p-th permutation of the mask
    whose byte b is v and whose other bytes are 0, so one orbit element is
    the OR of one table entry per byte. The table of a byte holding w pair
    bits has 2**w rows, filled by doubling: the rows with bit j set are
    the rows below 2**j ORed with the ``1 << image`` weight of pair bit j.
    """
    images = pair_images(n)
    tabs = []
    for lo in range(0, images.shape[1], 8):
        weights = np.uint32(1) << images[:, lo : lo + 8].astype(np.uint32)
        w = weights.shape[1]
        tab = np.zeros((1 << w, len(weights)), dtype=np.uint32)
        for j in range(w):
            tab[1 << j : 2 << j] = tab[: 1 << j] | weights[:, j]
        tabs.append(tab)
    return tabs


def nonisomorphic_masks(n: int) -> list[int]:
    """One edge bitmask per isomorphism class of n-vertex graphs, each the
    minimum of its orbit, ascending."""
    if n > EXHAUSTIVE_LIMIT:
        raise GraphError(
            f"exhaustive search supports n <= {EXHAUSTIVE_LIMIT}, got {n}; "
            "use --random T instead"
        )
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n <= 1:
        return [0]
    tabs = _perm_byte_tables(n)
    unvisited = np.ones(1 << (n * (n - 1) // 2), dtype=bool)
    reps = []
    m = 0
    while True:
        reps.append(m)
        orbit = tabs[0][m & 0xFF].copy()
        for b in range(1, len(tabs)):
            orbit |= tabs[b][(m >> (8 * b)) & 0xFF]
        unvisited[orbit] = False
        # the orbit holds m itself, so a zero step means nothing is left
        step = int(unvisited[m:].argmax())
        if step == 0:
            return reps
        m += step


def _sweep_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables every n-vertex class shares for k tokens.

    ``inner[i]`` is the mask, in ``edge_pairs`` bit order, of the pairs
    inside the i-th k-subset of ``range(n)`` in key order (colex, as the
    engine's keys sort). ``nbr[i, t]`` is the subset that the t-th
    one-token move from subset i reaches, and ``pair[i, t]`` the bit of the
    pair that token moves along.
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
    shape = (len(subsets), k * (n - k) if subsets else 0)
    return (
        np.array(inner, dtype=np.int64),
        np.array(nbr, dtype=np.intp).reshape(shape),
        np.array(pair, dtype=np.int64).reshape(shape),
    )


def _sweep(
    masks: np.ndarray, tables: tuple[np.ndarray, np.ndarray, np.ndarray], rule: str
) -> np.ndarray:
    """Largest component diameter of every class in ``masks``, -1 for a
    class with no independent k-set, by batched reach rounds over the
    ``_sweep_tables``.

    ``reach[c, i]`` is the set of nodes within the current radius of node
    i in class c, packed 64 nodes to a uint64 word; a round ORs in the
    sets of the node's neighbours in the class's configuration graph.
    """
    inner, nbr, pair = tables
    n = len(inner)
    indep = masks[:, None] & inner == 0
    active = indep[:, :, None] & indep[:, nbr]
    if rule == TS:
        edge = masks[:, None] >> np.arange(pair.max(initial=0) + 1) & 1 == 1
        active &= edge[:, pair]
    node = np.arange(n)
    unit = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    unit[node, node // 64] = np.uint64(1) << (node % 64).astype(np.uint64)
    reach = np.where(indep[:, :, None], unit, np.uint64(0))
    diameter = np.where(indep.any(axis=1), 0, -1)
    rounds = 0
    while True:
        rounds += 1
        grown = reach.copy()
        for t in range(nbr.shape[1]):
            grown |= reach[:, nbr[:, t]] * active[:, :, t, None]
        changed = (grown != reach).any(axis=(1, 2))
        if not changed.any():
            return diameter
        diameter[changed] = rounds
        reach = grown


def _chunk_diameters(
    masks: list[int],
    n: int,
    k: int,
    rule: str,
    node_cap: int,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """The ``_sweep`` diameters of ``masks``, except that a class with more
    independent k-sets than ``node_cap`` takes the engine's, so that the
    first class in ``masks`` the cap cuts short raises NodeCapExceeded."""
    packed = np.array(masks, dtype=np.int64)
    diameter = _sweep(packed, tables, rule)
    count = (packed[:, None] & tables[0] == 0).sum(axis=1)
    for i in np.flatnonzero(count > max(node_cap, 0)).tolist():
        g = mask_to_graph(n, masks[i])
        diameter[i] = _class_diameter(g, k, rule, node_cap, "exhaustive_search")
    return diameter


def _class_diameter(
    g: Graph, k: int, rule: str, node_cap: int, caller: str
) -> Optional[int]:
    rep = engine.max_component_diameter(g, k, rule, node_cap)
    return rep.exact(caller, node_cap).diameter


def exhaustive_search(
    n: int,
    k: int,
    rule: str = TJ,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """Best configuration-graph diameter over all n-vertex graphs (n <= 7),
    one class per isomorphism class, each represented by the minimum edge
    mask of its orbit; every class is examined exactly once.

    The class diameters come from the batched sweep of ``_sweep``, in
    chunks of ``_CHUNK`` = 256 classes in representative order; at n = 7
    a chunk's arrays peak at 0.6 MB under ``tracemalloc``. ``best_masks``
    lists the representatives achieving the optimum, so uniqueness up to
    isomorphism is checkable, and the first of them is re-verified by the
    engine before its edges are emitted. A class with more independent
    k-sets than ``node_cap`` runs through the engine instead, so the first
    class the cap cuts short raises the engine's NodeCapExceeded.
    """
    reps = nonisomorphic_masks(n)
    engine._check_rule(rule)
    engine._check_k(k)
    tables = _sweep_tables(n, k)
    diameter = np.concatenate([
        _chunk_diameters(reps[lo : lo + _CHUNK], n, k, rule, node_cap, tables)
        for lo in range(0, len(reps), _CHUNK)
    ])
    best: Optional[int] = None
    best_masks: list[int] = []
    witness = None
    if diameter.max() >= 0:
        best = int(diameter.max())
        best_masks = [reps[i] for i in np.flatnonzero(diameter == best).tolist()]
        wg = mask_to_graph(n, best_masks[0])
        # re-verify the witness before emitting it
        if _class_diameter(wg, k, rule, node_cap, "exhaustive_search") != best:
            raise AssertionError("witness failed re-verification")
        witness = list(wg.edges())
    return SearchResult(
        n, k, rule, best, witness, True,
        classes_examined=len(reps), best_masks=best_masks,
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
