import itertools
import random

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_is_63_free, explicit_distance, random_graph
from reconfig import engine as E
from reconfig import graph as graph_module
from reconfig import verify as V
from reconfig.constructions import complement_path
from reconfig.engine import TJ, NodeCapExceeded
from reconfig.graph import Graph, GraphError, complement
from reconfig.verify import Hypergraph3


def test_hypergraph_invariants():
    Hypergraph3(5, ((0, 1, 2), (2, 3, 4)))
    with pytest.raises(GraphError):
        Hypergraph3(5, ((0, 1, 1),))
    with pytest.raises(GraphError):
        Hypergraph3(5, ((2, 1, 0),))
    with pytest.raises(GraphError):
        Hypergraph3(3, ((1, 2, 3),))
    with pytest.raises(GraphError):
        Hypergraph3(5, ((0, 1, 2), (0, 1, 2)))


def test_is_63_free():
    ok, wit = V.is_63_free(Hypergraph3(6, ((1, 2, 3), (1, 2, 4), (1, 2, 5))))
    assert not ok and wit == (1, 2, 3, 4, 5)
    assert V.is_63_free(Hypergraph3(3, ((0, 1, 2),)))[0]
    # three triples on 7 vertices are fine
    assert V.is_63_free(Hypergraph3(7, ((0, 1, 2), (2, 3, 4), (4, 5, 6))))[0]


@st.composite
def triple_systems(draw):
    n = draw(st.integers(3, 14))
    triples = st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(lambda s: tuple(sorted(s)))
    return Hypergraph3(n, tuple(draw(st.lists(triples, max_size=16, unique=True))))


@given(triple_systems())
@settings(max_examples=250, deadline=None)
def test_is_63_free_matches_brute_oracle(h):
    assert V.is_63_free(h) == brute_is_63_free(h.edges)


def test_is_63_free_oracle_cases_both_ways():
    # seeded systems on 9..30 vertices: sparse ones are free, dense ones not
    rng = random.Random(63)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(9, 30)
        pool = list(itertools.combinations(range(n), 3))
        h = Hypergraph3(n, tuple(rng.sample(pool, rng.randint(2, min(14, n)))))
        want = brute_is_63_free(h.edges)
        assert V.is_63_free(h) == want
        outcomes.add(want[0])
    assert outcomes == {True, False}


def test_extract_63_circulant(circ17):
    g, rep = circ17
    seq = E.shortest_sequence(g, 3, rep.start, rep.target)
    even = V.extract_63(g, seq, "even")
    odd = V.extract_63(g, seq, "odd")
    assert len(even.edges) == 7 and len(odd.edges) == 7
    # both parities together cover the walk exactly once
    assert sorted(even.edges + odd.edges) == sorted(tuple(s) for s in seq)
    assert V.is_63_free(even)[0] and V.is_63_free(odd)[0]
    # even-position triples pairwise intersect in at most one vertex
    for e1, e2 in itertools.combinations(even.edges, 2):
        assert len(set(e1) & set(e2)) <= 1


def test_extract_63_single_element():
    g = Graph.empty(3)
    fam = V.extract_63(g, [(0, 1, 2)], "even")
    assert fam.edges == ((0, 1, 2),)
    assert V.extract_63(g, [(0, 1, 2)], "odd").edges == ()


def test_extract_63_refusals(circ17):
    g, rep = circ17
    seq = E.shortest_sequence(g, 3, rep.start, rep.target)
    with pytest.raises(GraphError):
        V.extract_63(g, seq, "sideways")
    with pytest.raises(GraphError):  # k != 3
        V.extract_63(Graph.empty(4), [(0, 1)], "even")
    # valid walk, but not shortest: detour and come back
    g4 = Graph.empty(4)
    walk = [(0, 1, 2), (0, 1, 3), (0, 1, 2)]
    with pytest.raises(GraphError, match="not shortest"):
        V.extract_63(g4, walk, "even")


def test_upper_bound_mapping(circ17):
    g, rep = circ17
    seq = E.shortest_sequence(g, 3, rep.start, rep.target)
    ok, collision = V.verify_upper_bound_mapping(g, seq)
    assert ok and collision is None
    # trivial sequences are vacuously fine
    assert V.verify_upper_bound_mapping(g, [rep.start])[0]
    # non-shortest input is refused at the precondition
    with pytest.raises(GraphError, match="not shortest"):
        V.verify_upper_bound_mapping(
            Graph.empty(4), [(0, 1), (1, 2), (0, 1)]
        )


def test_is_config_path():
    # includes the bare toll strip, a complement of a path on 6n+2 vertices
    for n in (4, 6, 8, 9):
        g, _ = complement_path(n)
        assert V.is_config_path(g, 2) == (True, None)
    ok, reason = V.is_config_path(Graph.complete(4), 2)
    assert not ok and reason == "empty"
    from reconfig.constructions import circulant_ap_graph

    g41, _ = circulant_ap_graph(41, [1, 5])
    ok, reason = V.is_config_path(g41, 3)
    assert not ok and "disconnected" in reason
    # a clique among triples is connected but not a path
    ok, reason = V.is_config_path(Graph.empty(4), 3)
    assert not ok and reason == "6 edges on 4 nodes"
    # one token sliding on a star: a tree with a node of degree 3
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert V.is_config_path(star, 1, "ts") == (False, "a node has degree > 2")


def test_saturate_empty4():
    g = V.saturate_to_path(Graph.empty(4))
    assert V.is_config_path(g, 3) == (True, None)
    assert E.max_component_diameter(g, 3).diameter == 1
    # oracle: among all one-edge extensions, none keeps the diameter
    for u, v in itertools.combinations(range(4), 2):
        if g.adj[u] >> v & 1:
            continue
        worse = E.max_component_diameter(g.with_edge(u, v), 3).diameter
        assert worse != 1


def test_saturate_refuses_at_cap():
    # Graph.empty(5) has C(5, 3) = 10 triples in one component
    with pytest.raises(NodeCapExceeded, match="saturate_to_path: node cap 6"):
        V.saturate_to_path(Graph.empty(5), node_cap=6)


def test_saturate_preserves_existing_path(glued47):
    from reconfig.constructions import build_k3_extremal

    g, rep = build_k3_extremal(17)
    sat = V.saturate_to_path(g)
    assert V.is_config_path(sat, 3) == (True, None)
    assert E.max_component_diameter(sat, 3).diameter == 13


# -- 2-token decisions -------------------------------------------------------


def test_decide_k2_basics():
    g5, rep = complement_path(5)
    assert V.decide_k2_fast(g5, (0, 1), (0, 1))
    assert V.decide_k2_fast(g5, rep.start, rep.target)
    assert V.decide_k2_naive(g5, rep.start, rep.target)
    seq = E.shortest_sequence(g5, 2, rep.start, rep.target)
    assert len(seq) == 4
    E.validate_sequence(g5, seq)


def test_decide_k2_disconnected():
    # complement splits into two cliques: no pair can cross
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not V.decide_k2_naive(g, (0, 1), (2, 3))
    assert not V.decide_k2_fast(g, (0, 1), (2, 3))
    assert E.shortest_sequence(g, 2, (0, 1), (2, 3)) is None


def test_decide_k2_two_triangles():
    # two disjoint triangles; pairs must use one vertex from each
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = Graph.from_edges(6, edges)
    a, b = (0, 3), (2, 5)
    assert V.decide_k2_fast(g, a, b) == V.decide_k2_naive(g, a, b) is True


def test_decide_k2_input_errors():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphError):
        V.decide_k2_fast(g, (0, 1), (0, 2))  # endpoint not independent
    with pytest.raises(GraphError):
        V.decide_k2_fast(g, (0,), (0, 2))
    with pytest.raises(GraphError):
        V.decide_k2_naive(g, (0, 1, 2), (0, 2))


def test_decide_k2_oracle_equivalence_random():
    rng = random.Random(123)
    trials = 0
    while trials < 300:
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.adj[u] >> v & 1
        ]
        if not pairs:
            continue
        a, b = rng.choice(pairs), rng.choice(pairs)
        fast = V.decide_k2_fast(g, a, b)
        naive = V.decide_k2_naive(g, a, b)
        engine_reach = E.distance(g, 2, a, b) is not None
        assert fast == naive == engine_reach
        trials += 1


def _decide(g, a, b):
    """decide_k2_fast's answer, after checking it against the oracle and
    the engine's distance."""
    fast = V.decide_k2_fast(g, a, b)
    assert fast == V.decide_k2_naive(g, a, b) == (E.distance(g, 2, a, b) is not None)
    return fast


@st.composite
def k2_instances(draw):
    """(g, a, b) with a and b independent pairs of g: a random graph, the
    empty graph, the two-vertex graph, a complete graph missing a few edges
    (the endpoints then come from the missing ones), or the join of two
    random parts, whose complement falls apart between them."""
    shape = draw(st.sampled_from(["random", "empty", "two", "near_complete", "join"]))
    if shape == "two":
        return Graph.empty(2), (0, 1), (0, 1)
    n = draw(st.integers(3, 9))
    pairs = list(itertools.combinations(range(n), 2))
    if shape == "empty":
        edges = []
    elif shape == "random":
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    elif shape == "near_complete":
        missing = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
        edges = [e for e in pairs if e not in missing]
    else:
        cut = draw(st.integers(1, n - 1))
        inside = [(u, v) for u, v in pairs if (u < cut) == (v < cut)]
        edges = [(u, v) for u, v in pairs if (u < cut) != (v < cut)]
        edges += draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
    # relabel, so that either part and either end of the vertex order can
    # hold the start
    perm = draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    free = [(u, v) for u, v in pairs if not g.adj[u] >> v & 1]
    assume(free)
    return g, draw(st.sampled_from(free)), draw(st.sampled_from(free))


@given(k2_instances())
@settings(max_examples=300, deadline=None)
def test_decide_k2_fast_matches_naive_and_explicit(instance):
    g, a, b = instance
    fast = V.decide_k2_fast(g, a, b)
    assert fast == V.decide_k2_naive(g, a, b) == (explicit_distance(g, 2, a, b) is not None)


def test_decide_k2_above_validate_limit():
    # past the size up to which Graph checks untrusted rows
    n = 8200
    assert n * ((n + 7) // 8) > graph_module._CHECK_BYTES
    g, _ = complement_path(n)
    cut = g.with_edge(n // 2 - 1, n // 2)  # the complement path splits in two
    lo, hi, upper = (0, 1), (n - 2, n - 1), (n // 2, n // 2 + 1)
    for a, b in ((lo, hi), (hi, lo), (hi, upper)):
        for h in (g, cut):
            fast = V.decide_k2_fast(h, a, b)
            assert fast == V.decide_k2_naive(h, a, b)
            assert fast == (h is g or b == upper)


def _contracted(g):
    """The vertices of degree below (n-1)/2, which pairwise share a
    non-neighbour and so lie in one complement component. The inputs below
    have none, all, or some of them, and a degree tie at the threshold."""
    return {v for v in range(g.n) if 2 * g.degree(v) < g.n - 1}


def test_decide_k2_nothing_contracted():
    g, rep = complement_path(40)
    assert not _contracted(g)
    assert _decide(g, rep.start, rep.target)
    cut = g.with_edge(19, 20)  # the complement path splits after vertex 19
    assert not _contracted(cut)
    assert not _decide(cut, (0, 1), (38, 39))
    assert _decide(cut, (20, 21), (38, 39))


def test_decide_k2_everything_contracted():
    g = Graph.from_edges(40, [(v, v + 1) for v in range(39)])
    assert _contracted(g) == set(range(40))
    assert _decide(g, (0, 2), (37, 39))
    assert _decide(g, (5, 7), (5, 7))


def test_decide_k2_mixed_contraction():
    # g joins H1 on 0..30 to H2 on 31..40, so their complements are apart.
    # In H1, 0..14 form a clique (degree 24) and 15..30 are isolated
    # (degree 10, below (n-1)/2); H2 is the complement of P_10.
    n = 41
    edges = [(u, v) for u in range(31) for v in range(31, n)]
    edges += [(u, v) for u in range(15) for v in range(u + 1, 15)]
    edges += [(u, v) for u in range(31, n) for v in range(u + 2, n)]
    g = Graph.from_edges(n, edges)
    assert _contracted(g) == set(range(15, 31))
    # high degree to high degree only through the low-degree vertices
    assert _decide(g, (0, 15), (1, 16))
    # one endpoint among the low-degree vertices
    assert _decide(g, (15, 16), (0, 17))
    assert _decide(g, (0, 17), (15, 16))
    assert not _decide(g, (15, 16), (31, 32))
    assert not _decide(g, (31, 32), (0, 15))
    assert _decide(g, (31, 32), (39, 40))


def test_decide_k2_degree_tie():
    # K_{20,21}: the 21 side has degree exactly (n-1)/2, not below it
    g = Graph.from_edges(41, [(u, v) for u in range(20) for v in range(20, 41)])
    assert not _contracted(g)
    assert not _decide(g, (0, 1), (20, 21))
    assert _decide(g, (20, 21), (39, 40))
    # K_{20,20}: degree n/2, just above (n-1)/2; the complement is two cliques
    g = Graph.from_edges(40, [(u, v) for u in range(20) for v in range(20, 40)])
    assert not _contracted(g)
    assert not _decide(g, (0, 1), (20, 21))
    assert _decide(g, (0, 1), (18, 19))


def test_claim_inter(glued47):
    g, rep = glued47
    ok, failures = V.check_junction_windows(g, 3, rep.roles["junctions"])
    assert ok, failures


def test_claim_inter_detects_damage(glued47):
    g, rep = glued47
    # cut a connector vertex loose from two adjacent host vertices: a
    # non-window independent triple appears and the check must catch it
    x1 = rep.roles["junctions"][0]["x_ids"][0]
    w, v = 19, 20  # adjacent-free circulant pair away from both endpoints
    assert not g.adj[w] >> v & 1
    rows = list(g.adj)
    for h in (w, v):
        rows[x1] &= ~(1 << h)
        rows[h] &= ~(1 << x1)
    damaged = Graph(g.n, rows, _trusted=True)
    ok, failures = V.check_junction_windows(damaged, 3, rep.roles["junctions"])
    assert not ok
    assert f"junction 0: {tuple(sorted((w, v, x1)))} touches fresh vertices but is " \
        "not a window of consecutive positions" in failures


def test_claim_inter_detects_degree_defect(glued47):
    g, rep = glued47
    # join x_3 and x_5: the window x_3 x_4 x_5 is no longer independent, so
    # the windows on either side of it keep a single corridor neighbor
    x = rep.roles["junctions"][0]["x_ids"]
    rows = list(g.adj)
    rows[x[2]] |= 1 << x[4]
    rows[x[4]] |= 1 << x[2]
    damaged = Graph(g.n, rows, _trusted=True)
    ok, failures = V.check_junction_windows(damaged, 3, rep.roles["junctions"])
    assert not ok
    assert failures == [
        f"junction 0: window {tuple(x[1:4])} has degree 1, expected 2",
        f"junction 0: window {tuple(x[3:6])} has degree 1, expected 2",
    ]


def test_circulant_structure_checks():
    for p, s in ((17, (1,)), (29, (1,)), (41, (1, 5))):
        ok, details = V.check_circulant_structure(p, s)
        assert ok, details
        assert details["component_sizes"] == [p - 3] * len(s)


def test_saturate_without_triples():
    # no 3-sets at all: every edge is addable and the result stays empty
    sat = V.saturate_to_path(Graph.complete(4))
    assert sat.num_edges == 6
    assert V.is_config_path(sat, 3) == (False, "empty")


def test_decide_k2_two_vertices():
    g = Graph.empty(2)
    assert V.decide_k2_fast(g, (0, 1), (0, 1))
    assert V.decide_k2_naive(g, (0, 1), (0, 1))
