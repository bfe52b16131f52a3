"""Builders for graphs whose k-token configuration graphs have large diameter.

Each builder returns ``(Graph, BuildReport)``: the report names the special
vertices, states the claimed diameter lower bound with its formula, and
carries endpoint sets realizing the claim. Builders measure their own claims
where feasible under the node cap and refuse rather than under-deliver:
a measured value below the claimed bound raises instead of passing silently.

The +3 ring extension takes a prime 73 <= p <= 131: below 72 its difference
9 exceeds p/8, and from 136 on a second difference breaks the mod-8
transition property, so the ring keeps the single difference 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from . import engine
from .apsets import APSet, odd_3ap_free
from .engine import DEFAULT_NODE_CAP, TJ, NodeCapExceeded
from .graph import Graph, GraphError, independence_number, is_independent

__all__ = [
    "ConstructionError",
    "BuildReport",
    "is_prime",
    "complement_path",
    "circulant_ap_graph",
    "orient_endpoint",
    "glue",
    "toll_booth_extend",
    "iterate_toll",
    "triple_extend",
    "build_k3_extremal",
    "build_general",
]


# bound on the prime of the +3 ring extension: (p-8)//64 must stay 1, so the
# largest prime it takes is 131 (see triple_extend)
MAX_RING_P = 135


class ConstructionError(GraphError):
    """A builder precondition failed; the message names the condition."""


@dataclass
class BuildReport:
    """Audit trail of a construction.

    ``start``/``target`` are independent sets of the built graph realizing
    ``claimed_diameter_lb``; ``roles`` records which vertices play which
    special part; ``extra`` holds measured values and chained sub-claims.
    """

    name: str
    params: dict
    k: int
    claimed_diameter_lb: int
    formula: str
    start: tuple[int, ...]
    target: tuple[int, ...]
    roles: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "k": self.k,
            "claimed_diameter_lb": self.claimed_diameter_lb,
            "formula": self.formula,
            "start": list(self.start),
            "target": list(self.target),
            "roles": self.roles,
            "extra": self.extra,
        }


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _validate_endpoint(g: Graph, vs: Iterable[int], k: int, what: str) -> tuple[int, ...]:
    t = tuple(sorted(vs))
    if len(t) != k or len(set(t)) != k:
        raise ConstructionError(f"{what} must have exactly {k} distinct vertices")
    if not is_independent(g, t):
        raise ConstructionError(f"{what} {t} is not independent")
    return t


# ---------------------------------------------------------------------------
# complement of a path: the k=2 workhorse


def complement_path(n: int) -> tuple[Graph, BuildReport]:
    """Complement of the path 0-1-...-(n-1).

    Its 2-token configuration graph is the line graph of the path, a path on
    n-1 nodes, so the diameter is exactly n-2 between the first and last
    path edges.
    """
    if n < 3:
        raise ConstructionError(f"complement_path needs n >= 3, got {n}")
    g = Graph(n, _complement_path_rows(n), _trusted=True)
    report = BuildReport(
        name="comp-path",
        params={"n": n},
        k=2,
        claimed_diameter_lb=n - 2,
        formula="n-2 (exact: configuration graph is a path on n-1 nodes)",
        start=(0, 1),
        target=(n - 2, n - 1),
        roles={"path_order": "0..n-1"},
        extra={"claims_exact": True},
    )
    _validate_endpoint(g, report.start, 2, "report start")
    _validate_endpoint(g, report.target, 2, "report target")
    return g, report


def _complement_path_rows(n: int) -> list[int]:
    # row i is everything but i-1, i, i+1; the end rows lack one neighbour
    # (n >= 2: complement_path takes n >= 3 and the toll strip 6n + 2)
    full = (1 << n) - 1
    inner = [full ^ (7 << (i - 1)) for i in range(1, n - 1)]
    return [full ^ 3, *inner, full ^ (3 << (n - 2))]


# ---------------------------------------------------------------------------
# circulant construction: many disjoint path components in the 3-token graph


def circulant_ap_graph(p: int, s: "APSet | Iterable[int]") -> tuple[Graph, BuildReport]:
    """Near-complete graph on p-1 vertices whose 3-token configuration graph
    splits into |S| induced paths of p-3 nodes each.

    Start from a clique on Z_p, delete the edges (i, i+s) and (i, i+2s) for
    every s in S, then drop vertex 0, so vertex id v is residue v+1.

    The report's ``roles["components"]`` holds one record ``{"s", "path"}``
    per difference s, in the order of S: path node j (j = 1..p-3) is the
    sorted vertex-id triple of the residues {js, (j+1)s, (j+2)s} mod p; the
    three triples through the deleted vertex 0 are the ones skipped.
    """
    elems = tuple(s.elements) if isinstance(s, APSet) else tuple(sorted(set(s)))
    if not is_prime(p):
        raise ConstructionError(f"p not prime: {p}")
    if not elems:
        raise ConstructionError("S must be nonempty")
    for e in elems:
        if e % 4 != 1:
            raise ConstructionError(f"element {e} is not 1 mod 4")
    if 8 * max(elems) > p:
        raise ConstructionError(
            f"max element {max(elems)} exceeds p/8 = {p / 8:g}"
        )
    if not isinstance(s, APSet):
        try:
            APSet(elems, max(elems))
        except Exception:
            raise ConstructionError(f"S={elems} contains a 3-term progression")

    n = p - 1
    full = (1 << n) - 1
    rows = [full ^ (1 << v) for v in range(n)]
    for e in elems:
        for delta in (e, 2 * e):
            for r in range(1, p):
                r2 = (r + delta) % p
                if r2 == 0:
                    continue
                u, v = r - 1, r2 - 1
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
    g = Graph(n, rows)

    components = []
    for e in elems:
        ids = [i * e % p - 1 for i in range(p)]  # vertex id of residue i*e
        components.append({"s": e, "path": [sorted(ids[j : j + 3]) for j in range(1, p - 2)]})
    first = components[0]["path"]
    report = BuildReport(
        name="circulant",
        params={"p": p, "s": list(elems)},
        k=3,
        claimed_diameter_lb=p - 4,
        formula="p-4 per component (each component is a path on p-3 nodes)",
        start=tuple(first[0]),
        target=tuple(first[-1]),
        roles={"components": components},
        extra={"component_count": len(elems), "component_nodes": p - 3},
    )
    _validate_endpoint(g, report.start, 3, "report start")
    _validate_endpoint(g, report.target, 3, "report target")
    return g, report


def orient_endpoint(path: list[tuple[int, ...]], end: str) -> tuple[int, ...]:
    """Order an endpoint triple of a path component for use in a junction.

    For the far end ("b"): the vertex absent from the neighboring node comes
    first (it is the last token to arrive). For the near end ("a"): that
    vertex comes last (it is the first token to leave). Remaining vertices
    keep ascending order.
    """
    if len(path) < 2:
        raise ConstructionError("component path too short to orient")
    if end == "b":
        tip, inner = set(path[-1]), set(path[-2])
    elif end == "a":
        tip, inner = set(path[0]), set(path[1])
    else:
        raise ConstructionError(f"end must be 'a' or 'b', got {end!r}")
    moved = tip - inner
    if len(moved) != 1:
        raise ConstructionError("endpoint is not adjacent to its path neighbor")
    v = moved.pop()
    rest = tuple(sorted(tip - {v}))
    return (v,) + rest if end == "b" else rest + (v,)


# ---------------------------------------------------------------------------
# gluing: join path components through 3k-2 fresh vertices per junction


def glue(
    g: Graph,
    k: int,
    junctions: list[tuple[Iterable[int], Iterable[int]]],
    start: Iterable[int],
    target: Iterable[int],
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[Graph, BuildReport]:
    """Connect r = len(junctions)+1 components into one, adding 3k-2 fresh
    vertices per junction: those of junction i are the ids g.n + i(3k-2)
    onward.

    Junction i is a pair ``(b_order, a_order)``: ``b_order`` lists the
    outgoing endpoint set with its exit vertex first, ``a_order`` the
    incoming one with its entry vertex last (see ``orient_endpoint``). It
    arranges the 5k-2 positions b_1..b_k, x_1..x_{3k-2}, a_1..a_k in
    sequence; a pair involving at least one fresh vertex is non-adjacent
    exactly when its positions differ by at most k-1. Fresh vertices are
    complete to everything else (other junctions included), so any
    independent set touching them is a window of k consecutive positions,
    and the configuration graph gains a forced corridor of length 4k-2
    between the two endpoint sets, with one shortcut at each end. Claimed
    diameter: (4k-4)*(r-1) + sum of the measured endpoint distances d_i,
    under the jump rule.

    The report's ``roles["junctions"]`` holds one record per junction,
    ``{"index", "b_order", "a_order", "x_ids"}``, the form that
    ``verify.check_junction_windows`` reads.
    """
    if k < 3:
        raise ConstructionError(f"glue needs k >= 3, got {k}")
    if not junctions:
        raise ConstructionError("glue needs at least one junction")
    start = _validate_endpoint(g, start, k, "start endpoint")
    target = _validate_endpoint(g, target, k, "target endpoint")

    per = 3 * k - 2
    records = []
    for idx, (b_order, a_order) in enumerate(junctions):
        _validate_endpoint(g, b_order, k, f"junction {idx} B set")
        _validate_endpoint(g, a_order, k, f"junction {idx} A set")
        records.append({
            "index": idx,
            "b_order": list(b_order),
            "a_order": list(a_order),
            "x_ids": list(range(g.n + idx * per, g.n + (idx + 1) * per)),
        })

    n_new = g.n + per * len(records)

    # fresh vertices start complete to everything
    full = (1 << n_new) - 1
    fresh = full ^ ((1 << g.n) - 1)
    rows = [g.adj[v] | fresh for v in range(g.n)]
    rows += [full ^ (1 << x) for x in range(g.n, n_new)]
    # carve the position windows
    for rec in records:
        seq = rec["b_order"] + rec["x_ids"] + rec["a_order"]
        xset = set(rec["x_ids"])
        for i in range(len(seq)):
            for j in range(i + 1, min(i + k, len(seq))):
                u, v = seq[i], seq[j]
                if u in xset or v in xset:
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
    h = Graph(n_new, rows)

    # measured distances of the r component endpoint pairs in the host graph
    pairs = []
    a_side = start
    for rec in records:
        pairs.append((a_side, rec["b_order"]))
        a_side = rec["a_order"]
    pairs.append((a_side, target))
    dists = []
    for a, b in pairs:
        d = engine.distance(g, k, a, b, TJ, node_cap)
        if d is None:
            raise ConstructionError(
                f"endpoints {tuple(sorted(a))} and {tuple(sorted(b))} are not connected"
            )
        dists.append(d)

    r = len(records) + 1
    claimed = (4 * k - 4) * (r - 1) + sum(dists)
    report = BuildReport(
        name="glue",
        params={"k": k, "junctions": len(records)},
        k=k,
        claimed_diameter_lb=claimed,
        formula="(4k-4)*(r-1) + sum(d_i), d_i measured per component",
        start=tuple(sorted(start)),
        target=tuple(sorted(target)),
        roles={"junctions": records},
        extra={"component_distances": dists},
    )
    return h, report


# ---------------------------------------------------------------------------
# shared skeleton of the +2 and +3 extensions


def _host_distance(
    g: Graph, k: int, a: Iterable[int], b: Iterable[int], node_cap: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Validated endpoints a, b of the host g, after checking that its
    independence number is exactly k, and their measured distance."""
    a = _validate_endpoint(g, a, k, "endpoint a")
    b = _validate_endpoint(g, b, k, "endpoint b")
    alpha = independence_number(g, limit=max(64, g.n))
    if alpha != k:
        raise ConstructionError(f"independence number is {alpha}, expected {k}")
    d = engine.distance(g, k, a, b, TJ, node_cap)
    if d is None:
        raise ConstructionError("endpoints a and b are not connected")
    return a, b, d


def _block_host(rows: list[int], host_n: int, gate: int, keep: set[int]) -> None:
    """Make vertex ``gate`` adjacent to every host vertex outside ``keep``."""
    for v in range(host_n):
        if v not in keep:
            rows[gate] |= 1 << v
            rows[v] |= 1 << gate


def _self_measure(
    h: Graph,
    k: int,
    start: tuple[int, ...],
    target: tuple[int, ...],
    claimed: int,
    node_cap: int,
) -> dict:
    """The ``measured_distance``/``verified`` report fields: the start-target
    distance, or None when it does not fit under the node cap; a value
    below ``claimed`` raises."""
    try:
        measured = engine.distance(h, k, start, target, TJ, node_cap)
    except NodeCapExceeded:
        measured = None
    if measured is not None and measured < claimed:
        raise ConstructionError(
            f"measured distance {measured} fell below claimed {claimed}"
        )
    return {"measured_distance": measured, "verified": measured is not None}


# ---------------------------------------------------------------------------
# toll-booth extension: +2 tokens, distance multiplied by 2n


def toll_booth_extend(
    g: Graph,
    k: int,
    a: Iterable[int],
    b: Iterable[int],
    n: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[Graph, BuildReport]:
    """Append 6n+2 vertices inducing the complement of a path; the tokens on
    that strip can only advance past position 6l-3 (resp. 6l) when the k
    tokens inside g sit exactly on b (resp. a), forcing 2n full traversals
    between a and b.

    Requires the independence number of g to be exactly k; endpoints a, b
    must be connected in the k-token configuration graph. The claimed
    distance between A+{x_1,x_2} and A+{x_{6n+1},x_{6n+2}} is 2n(d+3) with
    d the measured a-b distance (the weaker 2dn variant is recorded too).
    """
    if n < 1:
        raise ConstructionError(f"toll_booth_extend needs n >= 1, got {n}")
    a, b, d = _host_distance(g, k, a, b, node_cap)

    nx = 6 * n + 2
    n_new = g.n + nx
    x = [g.n + t for t in range(nx)]  # x[t] is the paper-position t+1
    # strip induces the complement of a path: non-edges are consecutive pairs
    rows = list(g.adj) + [row << g.n for row in _complement_path_rows(nx)]
    aset, bset = set(a), set(b)
    for ell in range(1, n + 1):
        _block_host(rows, g.n, x[6 * ell - 3 - 1], bset)  # open only when g-tokens sit on b
        _block_host(rows, g.n, x[6 * ell - 1], aset)  # open only when g-tokens sit on a
    h = Graph(n_new, rows)

    start = tuple(sorted(a + (x[0], x[1])))
    target = tuple(sorted(a + (x[nx - 2], x[nx - 1])))
    claimed = 2 * n * (d + 3)
    extra = {
        "d": d,
        "statement_bound": 2 * d * n,
        **_self_measure(h, k + 2, start, target, claimed, node_cap),
    }
    report = BuildReport(
        name="toll-booth",
        params={"k": k, "n": n, "host_n": g.n},
        k=k + 2,
        claimed_diameter_lb=claimed,
        formula="2n(d+3), d measured between a and b",
        start=start,
        target=target,
        roles={"strip": x, "b_gates": [x[6 * l - 4] for l in range(1, n + 1)],
               "a_gates": [x[6 * l - 1] for l in range(1, n + 1)],
               "a": list(a), "b": list(b)},
        extra=extra,
    )
    return h, report


def iterate_toll(
    n_steps: int,
    per_step_n: int,
    base_path_n: int = 4,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[Graph, BuildReport]:
    """Chain toll-booth extensions starting from the complement of a path;
    every step adds two tokens and multiplies the measured distance."""
    if n_steps < 0:
        raise ConstructionError("n_steps must be nonnegative")
    g, rep = complement_path(base_path_n)
    k = 2
    a, b = rep.start, rep.target
    d = base_path_n - 2
    chain = [{"k": k, "n_vertices": g.n, "distance": d}]
    for _ in range(n_steps):
        g, rep = toll_booth_extend(g, k, a, b, per_step_n, node_cap)
        k += 2
        a, b = rep.start, rep.target
        d = rep.extra["measured_distance"]
        if d is None:
            raise ConstructionError("step distance not measurable under node cap")
        chain.append({"k": k, "n_vertices": g.n, "distance": d,
                      "claimed": rep.claimed_diameter_lb})
    report = BuildReport(
        name="iterate-toll",
        params={"n_steps": n_steps, "per_step_n": per_step_n,
                "base_path_n": base_path_n},
        k=k,
        claimed_diameter_lb=chain[-1].get("claimed", d),
        formula="2n(d+3) per step, chained on measured distances",
        start=a,
        target=b,
        roles={},
        extra={"chain": chain},
    )
    return g, report


# ---------------------------------------------------------------------------
# triple extension: +3 tokens via a circulant toll ring


def _consecutive_mod8(labels3: Iterable[int]) -> bool:
    rs = {l % 8 for l in labels3}
    return any({r, (r + 1) % 8, (r + 2) % 8} == rs for r in range(8))


def check_ring_properties(h: Graph, components: list[dict], labels: list[int]) -> dict:
    """Label-structure checks on a circulant ring used as a +3 toll stage,
    where ``components`` are the ring report's ``roles["components"]``
    records and ``labels[v]`` is the label of vertex v.

    Returns a dict with boolean ``consecutive_mod8`` (every independent
    triple spans three cyclically consecutive residues mod 8),
    ``transition_mod8`` (adjacent triples swap a token across a +-3 mod 8
    label difference) and per-component lists of 0-mod-8 labels missing
    from the component's triples (the weakened coverage actually needed:
    empty lists mean full coverage).
    """
    triples = engine.independent_sets(h, 3)
    consec = all(_consecutive_mod8(labels[v] for v in t) for t in triples)
    # adjacent triples keep a common pair: group the swapped-in tokens by it
    swapped: dict[tuple[int, ...], list[int]] = {}
    for t in triples:
        for i in range(3):
            swapped.setdefault(t[:i] + t[i + 1 :], []).append(t[i])
    transition = all(
        (labels[u] - labels[v]) % 8 in (3, 5)
        for vs in swapped.values() for u, v in combinations(vs, 2)
    )
    zero_labels = {l for l in labels if l % 8 == 0}
    missing = {
        rec["s"]: sorted(zero_labels - {labels[v] for t in rec["path"] for v in t})
        for rec in components
    }
    return {
        "consecutive_mod8": consec,
        "transition_mod8": transition,
        "zero_mod8_missing": missing,
    }


def triple_extend(
    g: Graph,
    k: int,
    a: Iterable[int],
    b: Iterable[int],
    p: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[Graph, BuildReport]:
    """Append a circulant ring on p-1 vertices and wire its 0-mod-8 labels
    against a and its 4-mod-8 labels against b, so walking the ring
    component end to end forces ~p/4 full a-b round trips inside g.

    The difference set is 8S'+1 for the largest 3-AP-free S' under
    (p-8)/64, which is S' = {1} for the primes 73 <= p <= 131 accepted
    here: the single difference 9, with labels relabelled to advance by 1
    mod 8 along the component. From p = 136 on, S' = {1, 2} would add the
    difference 17; along the component of 9 the labels then wrap past p,
    a move swaps labels differing by 27-p, which is even mod 8, and the
    ring fails its mod-8 transition check, so such p are refused.
    Requires maximum independent sets of g to have size exactly k.
    """
    a, b, d = _host_distance(g, k, a, b, node_cap)
    if p < 72:
        raise ConstructionError(f"p={p} too small: need (p-8)/64 >= 1, i.e. p >= 72")
    if p > MAX_RING_P:
        raise ConstructionError(
            f"p={p} too large: need (p-8)/64 < 2, i.e. p <= {MAX_RING_P}; a second "
            "ring difference breaks the +-3 mod 8 transition"
        )
    sprime, s = 1, 9

    # relabel so the component walks consecutive integers: vertex of residue
    # r gets label r * s^-1 mod p, turning every triple's labels into
    # {j, j+1, j+2} and making the mod-8 structure exact
    h, ring = circulant_ap_graph(p, (s,))
    s_inv = pow(s, -1, p)
    labels = [(v + 1) * s_inv % p for v in range(h.n)]
    props = check_ring_properties(h, ring.roles["components"], labels)
    if not props["consecutive_mod8"]:
        raise ConstructionError(
            "ring property failed: some independent triple lacks consecutive labels mod 8"
        )
    if not props["transition_mod8"]:
        raise ConstructionError(
            "ring property failed: some adjacent triples lack a +-3 mod 8 transition"
        )

    # assemble: g stays as-is, ring vertices shift up by g.n
    off = g.n
    n_new = g.n + h.n
    rows = list(g.adj) + [h.adj[u] << off for u in range(h.n)]
    aset, bset = set(a), set(b)
    for u in range(h.n):
        r8 = labels[u] % 8
        if r8 == 0:
            _block_host(rows, g.n, off + u, aset)
        elif r8 == 4:
            _block_host(rows, g.n, off + u, bset)
    gp = Graph(n_new, rows)

    # endpoint triples: first and last path nodes with residues {1,2,3}
    path = ring.roles["components"][0]["path"]

    def residues(t):
        return {labels[v] % 8 for v in t}

    def lift(t):
        return tuple(sorted(v + off for v in t))

    first = lift(next(t for t in path if residues(t) == {1, 2, 3}))
    last = lift(next(t for t in reversed(path) if residues(t) == {1, 2, 3}))
    start = tuple(sorted(a + first))
    target = tuple(sorted(a + last))
    _validate_endpoint(gp, start, k + 3, "ring start endpoint")
    _validate_endpoint(gp, target, k + 3, "ring target endpoint")

    claimed = 2 * d * (p // 8 - 1)
    extra = {
        "p": p,
        "d": d,
        "s_base": [sprime],
        "s": [s],
        "relabeled": True,
        "ring_properties": {
            "consecutive_mod8": props["consecutive_mod8"],
            "transition_mod8": props["transition_mod8"],
            "zero_mod8_missing": {str(k_): v for k_, v in props["zero_mod8_missing"].items()},
        },
        **_self_measure(gp, k + 3, start, target, claimed, node_cap),
    }
    report = BuildReport(
        name="triple-extend",
        params={"k": k, "p": p, "host_n": g.n},
        k=k + 3,
        claimed_diameter_lb=claimed,
        formula="2d(floor(p/8)-1) per component, d measured between a and b",
        start=start,
        target=target,
        roles={"ring_offset": off, "a": list(a), "b": list(b),
               "component_endpoints": [[list(first), list(last)]]},
        extra=extra,
    )
    return gp, report


# ---------------------------------------------------------------------------
# assembled extremal families


def build_k3_extremal(budget_n: int, node_cap: int = DEFAULT_NODE_CAP) -> tuple[Graph, BuildReport]:
    """Best 3-token construction within a vertex budget: the largest prime p
    such that the circulant on p-1 vertices plus 7 vertices per junction
    fits, with all its path components glued in sequence."""
    if budget_n < 17:
        raise ConstructionError(f"budget_n must be at least 17, got {budget_n}")
    chosen = None
    for p in range(budget_n + 1, 16, -1):
        if not is_prime(p):
            continue
        s = odd_3ap_free(p // 8, 4)
        cost = (p - 1) + 7 * (len(s) - 1)
        if cost <= budget_n:
            chosen = (p, s)
            break
    if chosen is None:
        raise ConstructionError(f"no feasible prime for budget {budget_n}")
    p, s = chosen
    g, rep = circulant_ap_graph(p, s)
    ordered = [rec["path"] for rec in rep.roles["components"]]
    params = {"budget_n": budget_n, "p": p, "s": list(s.elements)}
    if len(ordered) == 1:
        d = engine.distance(g, 3, rep.start, rep.target, TJ, node_cap)
        report = BuildReport(
            name="k3-extremal",
            params=params,
            k=3,
            claimed_diameter_lb=d,
            formula="single component path, measured end-to-end",
            start=rep.start,
            target=rep.target,
            roles=rep.roles,
            extra={"component_distances": [d], "junctions": 0},
        )
        return g, report
    junctions = [(orient_endpoint(out, "b"), orient_endpoint(into, "a"))
                 for out, into in zip(ordered, ordered[1:])]
    h, glue_rep = glue(g, 3, junctions, rep.start, ordered[-1][-1], node_cap)
    nominal = 8 * (len(s) - 1) + len(s) * (p - 3)
    report = BuildReport(
        name="k3-extremal",
        params=params,
        k=3,
        claimed_diameter_lb=glue_rep.claimed_diameter_lb,
        formula=glue_rep.formula,
        start=glue_rep.start,
        target=glue_rep.target,
        roles={**rep.roles, **glue_rep.roles},
        extra={
            **glue_rep.extra,
            "junctions": len(junctions),
            # node-count reading of the per-component claim; exceeds the
            # edge-count diameter by 1 per component, so it is recorded but
            # not claimed
            "nominal_bound": nominal,
        },
    )
    return h, report


def build_general(
    k_target: int,
    budget_n: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[Graph, BuildReport]:
    """Reach token count k_target by chaining +3 ring extensions over a small
    base chosen by k_target mod 3 (complement of a path, a circulant, or one
    toll-booth stage).

    Each ring gets an equal share of the budget still left and takes the
    largest prime p >= 73 up to that share + 1, clamped to ``MAX_RING_P``,
    so p <= 131: budget beyond about 135 vertices per ring goes unused, and
    ``build_general(5, 1000)`` builds the same 134-vertex graph, with the
    same claimed bound, as ``build_general(5, 200)``.
    """
    if k_target < 3:
        raise ConstructionError(f"k_target must be at least 3, got {k_target}")
    if k_target == 3:
        return build_k3_extremal(budget_n, node_cap)
    residue = k_target % 3
    chain = []
    if residue == 2:
        g, rep = complement_path(4)
        k, a, b = 2, rep.start, rep.target
    elif residue == 0:
        g, rep = build_k3_extremal(17, node_cap)
        k, a, b = 3, rep.start, rep.target
    else:
        base, base_rep = complement_path(4)
        g, rep = toll_booth_extend(base, 2, base_rep.start, base_rep.target, 1, node_cap)
        k, a, b = 4, rep.start, rep.target
    chain.append({"k": k, "n_vertices": g.n, "name": rep.name,
                  "claimed": rep.claimed_diameter_lb})
    steps = (k_target - k) // 3
    for step in range(steps):
        remaining = budget_n - g.n
        share = remaining // (steps - step)
        p = min(share + 1, MAX_RING_P)
        while p >= 73 and not is_prime(p):
            p -= 1
        if p < 73:
            raise ConstructionError(
                f"budget {budget_n} infeasible: step {step} has {remaining} vertices "
                f"left for {steps - step} ring(s), needs a prime p >= 73"
            )
        g, rep = triple_extend(g, k, a, b, p, node_cap)
        k += 3
        a, b = rep.start, rep.target
        chain.append({"k": k, "n_vertices": g.n, "name": rep.name, "p": p,
                      "claimed": rep.claimed_diameter_lb})
    report = BuildReport(
        name="general",
        params={"k_target": k_target, "budget_n": budget_n},
        k=k,
        claimed_diameter_lb=chain[-1]["claimed"],
        formula="chained ring extensions over the base stage",
        start=a,
        target=b,
        roles=rep.roles,
        extra={"chain": chain, **rep.extra},
    )
    return g, report
