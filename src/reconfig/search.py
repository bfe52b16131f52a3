"""Search over n-vertex graphs for the largest configuration-graph diameter.

Exhaustive mode enumerates one representative per isomorphism class (n <= 7)
by orbit-marking edge bitmasks under the full permutation action; no
external canonicalizer is involved, and the representative is the minimum
mask of its orbit. The action is held in per-byte permutation tables, each
filled by doubling from the ``1 << image`` weights of the byte's pairs under
every permutation, and the scan jumps from one representative to the next
unmarked mask by an array search. Random mode samples Erdos-Renyi graphs at
several densities plus perturbations of the complement-of-path
construction, with recorded seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .constructions import complement_path
from .engine import DEFAULT_NODE_CAP, TJ
from .graph import Graph, GraphError, edge_pairs, graph_to_mask, mask_to_graph, pair_images

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "SearchResult",
    "nonisomorphic_masks",
    "exhaustive_search",
    "random_search",
]

EXHAUSTIVE_LIMIT = 7


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
    deduplicated by canonical form; every class is examined exactly once.

    ``best_masks`` lists the representatives achieving the optimum, so
    uniqueness up to isomorphism is checkable. Raises NodeCapExceeded when
    the cap cuts any class short.
    """
    reps = nonisomorphic_masks(n)
    best: Optional[int] = None
    best_masks: list[int] = []
    for mask in reps:
        d = _class_diameter(mask_to_graph(n, mask), k, rule, node_cap, "exhaustive_search")
        if d is None:
            continue
        if best is None or d > best:
            best = d
            best_masks = [mask]
        elif d == best:
            best_masks.append(mask)
    witness = None
    if best is not None:
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
