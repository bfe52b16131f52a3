import itertools
import random

import pytest

from oracles import random_graph
from reconfig import engine as E
from reconfig import verify as V
from reconfig.constructions import JunctionSpec, complement_path
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
    assert not ok


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
    ok, seq = V.decide_k2_naive(g5, rep.start, rep.target, with_witness=True)
    assert ok and len(seq) == 4
    E.validate_sequence(g5, seq)


def test_decide_k2_disconnected():
    # complement splits into two cliques: no pair can cross
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not V.decide_k2_naive(g, (0, 1), (2, 3))
    assert not V.decide_k2_fast(g, (0, 1), (2, 3))
    ok, seq = V.decide_k2_naive(g, (0, 1), (2, 3), with_witness=True)
    assert not ok and seq is None


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


def test_claim_inter(glued47):
    g, rep = glued47
    specs = [
        JunctionSpec(j["index"], tuple(j["b_order"]), tuple(j["a_order"]),
                     tuple(j["x_ids"]))
        for j in rep.roles["junctions"]
    ]
    ok, failures = V.check_junction_windows(g, 3, specs)
    assert ok, failures


def test_claim_inter_detects_damage(glued47):
    g, rep = glued47
    specs = [
        JunctionSpec(j["index"], tuple(j["b_order"]), tuple(j["a_order"]),
                     tuple(j["x_ids"]))
        for j in rep.roles["junctions"]
    ]
    # cut a connector vertex loose from two adjacent host vertices: a
    # non-window independent triple appears and the check must catch it
    x1 = specs[0].x_ids[0]
    w, v = 19, 20  # adjacent-free circulant pair away from both endpoints
    assert not g.adj[w] >> v & 1
    rows = list(g.adj)
    for h in (w, v):
        rows[x1] &= ~(1 << h)
        rows[h] &= ~(1 << x1)
    damaged = Graph(g.n, rows, g.labels, _trusted=True)
    ok, failures = V.check_junction_windows(damaged, 3, specs)
    assert not ok and failures


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
