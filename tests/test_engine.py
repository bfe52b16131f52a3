import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_component_diameters,
    brute_shortest_sequence,
    config_key_order,
    explicit_components,
    explicit_config_graph,
    explicit_distance,
    independent_ksets,
    random_graph,
)
from reconfig import engine as E
from reconfig.constructions import circulant_ap_graph, complement_path
from reconfig.engine import TJ, TS, NodeCapExceeded
from reconfig.graph import Graph, GraphError, complement


@given(st.lists(st.integers(0, 2**16 - 1), max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
def test_key_roundtrip(vs):
    vs = sorted(vs)
    assert list(E.decode_key(E.encode_key(vs), len(vs))) == vs


def test_neighbors_empty_graph():
    g = Graph.empty(4)
    assert E.neighbors(g, (0, 1, 2)) == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_neighbors_k1_complete():
    k4 = Graph.complete(4)
    assert E.neighbors(k4, (0,), TJ) == [(1,), (2,), (3,)]
    assert E.neighbors(k4, (0,), TS) == [(1,), (2,), (3,)]


def test_neighbors_complement_p5():
    path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    g = complement(path)
    # brute force over all pairs: neighbors of {0,1} are the independent
    # pairs sharing exactly one vertex with it
    expected = sorted(
        s
        for s in independent_ksets(g, 2)
        if len(set(s) & {0, 1}) == 1
    )
    assert E.neighbors(g, (0, 1)) == expected


def test_neighbors_rejects_dependent_set():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(GraphError):
        E.neighbors(g, (0, 1))
    with pytest.raises(GraphError, match=r"duplicate vertices in \(0, 0\)"):
        E.neighbors(g, (0, 0))
    with pytest.raises(GraphError, match="expected 2 vertices, got 1"):
        E.distance(Graph.empty(3), 2, (0,), (1, 2))


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_neighbor_symmetry_and_ts_subset(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 7), rng.random())
    k = rng.randint(1, 3)
    sets = independent_ksets(g, k)
    if not sets:
        return
    s = rng.choice(sets)
    for rule in (TJ, TS):
        for nb in E.neighbors(g, s, rule):
            assert s in E.neighbors(g, nb, rule)
    assert set(E.neighbors(g, s, TS)) <= set(E.neighbors(g, s, TJ))


def test_bfs_component_sizes(circ17):
    g, rep = circ17
    comp = E.bfs_component(g, 3, rep.start)
    assert comp.size == 14 and not comp.capped

    assert E.bfs_component(Graph.empty(5), 2, (0, 1)).size == 10

    p6 = complement(Graph.from_edges(6, [(i, i + 1) for i in range(5)]))
    assert E.bfs_component(p6, 2, (0, 1)).size == 5


def test_bfs_component_cap_is_explicit():
    comp = E.bfs_component(Graph.empty(6), 2, (0, 1), node_cap=3)
    assert comp.capped and comp.size <= 3
    with pytest.raises(NodeCapExceeded):
        E.component_diameter(comp)


def test_distance_basics(circ41):
    g6, _ = complement_path(6)
    assert E.distance(g6, 2, (0, 1), (0, 1)) == 0
    assert E.distance(g6, 2, (0, 1), (4, 5)) == 4
    # two triples in distinct circulant components are unreachable
    g, rep = circ41
    comps = rep.roles["components"]
    t1 = tuple(comps[0]["path"][0])
    t2 = tuple(comps[1]["path"][0])
    assert E.distance(g, 3, t1, t2) is None


def test_distance_cap():
    with pytest.raises(NodeCapExceeded):
        E.distance(Graph.empty(8), 2, (0, 1), (6, 7), node_cap=3)


def test_shortest_sequence():
    g5, _ = complement_path(5)
    assert E.shortest_sequence(g5, 2, (0, 1), (0, 1)) == [(0, 1)]
    seq = E.shortest_sequence(g5, 2, (0, 1), (3, 4))
    assert len(seq) == 4
    E.validate_sequence(g5, seq)
    assert seq[0] == (0, 1) and seq[-1] == (3, 4)


def test_shortest_sequence_tiebreak_smallest_key():
    g = Graph.empty(4)
    seq = E.shortest_sequence(g, 2, (2, 3), (0, 1))
    # both (0,3)->... and (1,3)/(0,2) etc. are shortest; smallest successor
    # key must be chosen at each step
    assert seq == [(2, 3), (0, 2), (0, 1)]


def test_validate_sequence_rejects_bad_steps():
    g5, _ = complement_path(5)
    with pytest.raises(GraphError, match="empty sequence"):
        E.validate_sequence(g5, [])
    with pytest.raises(GraphError):
        E.validate_sequence(g5, [(0, 1), (2, 3)])  # two tokens moved
    # no edges at all: jumping works, sliding cannot
    g = Graph.empty(3)
    E.validate_sequence(g, [(0,), (1,)], TJ)
    with pytest.raises(GraphError):
        E.validate_sequence(g, [(0,), (1,)], TS)


def test_component_diameter(circ17):
    single = E.bfs_component(Graph.complete(3), 1, (0,), TS)
    # K3 under sliding: R_1 is a triangle, diameter 1
    assert E.component_diameter(single)[0] == 1

    g, rep = circ17
    comp = E.bfs_component(g, 3, rep.start)
    d, (u, v) = E.component_diameter(comp)
    assert d == 13
    assert {u, v} == {rep.start, rep.target}

    # path-shaped component with m nodes has diameter m-1
    g7, _ = complement_path(7)
    comp = E.bfs_component(g7, 2, (0, 1))
    assert E.component_diameter(comp)[0] == comp.size - 1 == 5


def test_enumerate_components(circ41):
    assert E.enumerate_components(Graph.complete(4), 2) == []
    g, _ = circ41
    comps = E.enumerate_components(g, 3)
    assert len(comps) == 2 and all(c.size == 38 for c in comps)
    assert len(E.enumerate_components(Graph.empty(5), 2)) == 1


def test_max_component_diameter_reports():
    g7, _ = complement_path(7)
    rep = E.max_component_diameter(g7, 2)
    assert rep.diameter == 5 and not rep.capped
    assert rep.to_json()["witness_from"] == [0, 1]

    none_rep = E.max_component_diameter(Graph.complete(5), 3)
    assert none_rep.diameter is None and none_rep.reason == "no independent set"

    ts_rep = E.max_component_diameter(g7, 2, TS)
    assert ts_rep.diameter >= rep.diameter


def test_degenerate_k0_k1():
    g = Graph.from_edges(3, [(0, 1)])
    assert E.independent_sets(g, 0) == [()]
    rep = E.max_component_diameter(g, 0)
    assert rep.diameter == 0 and rep.component_size == 1
    # one-token jumping connects everything in one step
    rep1 = E.max_component_diameter(g, 1, TJ)
    assert rep1.component_size == 3 and rep1.diameter == 1
    # one-token sliding is the graph itself: pair component plus isolated
    comps = E.enumerate_components(g, 1, TS)
    assert sorted(c.size for c in comps) == [1, 2]


def test_engine_matches_explicit_oracle():
    rng = random.Random(42)
    for trial in range(64):
        if trial < 60:
            n, k = rng.randint(2, 8), rng.randint(1, 3)
        else:
            n, k = rng.randint(9, 12), 4
        g = random_graph(rng, n, rng.random())
        sets = independent_ksets(g, k)
        assert E.independent_sets(g, k) == sorted(sets, key=E.encode_key)
        if not sets:
            continue
        a, b = rng.choice(sets), rng.choice(sets)
        assert E.distance(g, k, a, b) == explicit_distance(g, k, a, b)
        comps = E.enumerate_components(g, k)
        got = {frozenset(c.dist) for c in comps}
        want = {
            frozenset(E.encode_key(s) for s in comp)
            for comp in explicit_components(g, k)
        }
        assert got == want
        _assert_adjacency_matches_oracle(g, k, TJ, comps)


def test_engine_matches_explicit_oracle_ts():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.random())
        sets = independent_ksets(g, 2)
        if not sets:
            continue
        a, b = rng.choice(sets), rng.choice(sets)
        assert E.distance(g, 2, a, b, TS) == explicit_distance(g, 2, a, b, TS)
        _assert_adjacency_matches_oracle(g, 2, TS, E.enumerate_components(g, 2, TS))


def _assert_adjacency_matches_oracle(g, k, rule, comps):
    """Every component's adjacency, key by key in ascending order, is the
    materialized configuration graph's."""
    _, adj = explicit_config_graph(g, k, rule)
    want = {E.encode_key(s): sorted(map(E.encode_key, nbrs)) for s, nbrs in adj.items()}
    for comp in comps:
        got = E.component_adjacency(comp)
        assert list(got) == sorted(comp.dist)
        assert got == {key: want[key] for key in got}


def test_triangle_inequality_sampled():
    rng = random.Random(9)
    g, _ = circulant_ap_graph(17, [1])
    comp = E.bfs_component(g, 3, (0, 1, 2))
    keys = sorted(comp.dist)
    nodes = [E.decode_key(key, 3) for key in keys]
    for _ in range(30):
        x, y, z = (rng.choice(nodes) for _ in range(3))
        dxy = E.distance(g, 3, x, y)
        dyz = E.distance(g, 3, y, z)
        dxz = E.distance(g, 3, x, z)
        assert dxz <= dxy + dyz


def test_ts_distance_dominates_tj():
    rng = random.Random(17)
    done = 0
    while done < 40:
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.random())
        sets = independent_ksets(g, 2)
        if len(sets) < 2:
            continue
        a, b = rng.sample(sets, 2)
        d_tj = E.distance(g, 2, a, b, TJ)
        d_ts = E.distance(g, 2, a, b, TS)
        if d_ts is not None:
            assert d_tj is not None and d_ts >= d_tj
        done += 1


def test_enumerate_components_partial_is_flagged():
    # complement of three disjoint paths: R_2 is three 5-node paths, so a
    # cap of 7 cannot finish the enumeration
    path_edges = [
        (u, u + 1) for base in (0, 6, 12) for u in range(base, base + 5)
    ]
    h = complement(Graph.from_edges(18, path_edges))
    full = E.max_component_diameter(h, 2, TJ)
    assert not full.capped and full.diameter == 4
    comps = E.enumerate_components(h, 2, TJ)
    assert sorted(c.size for c in comps) == [5, 5, 5]

    capped = E.enumerate_components(h, 2, TJ, node_cap=7)
    assert capped[-1].capped
    assert sum(c.size for c in capped) < 15
    rep = E.max_component_diameter(h, 2, TJ, node_cap=7)
    assert rep.capped


def test_shortest_sequence_cap():
    with pytest.raises(NodeCapExceeded):
        E.shortest_sequence(Graph.empty(8), 2, (0, 1), (6, 7), node_cap=3)


def test_unknown_rule_rejected():
    with pytest.raises(GraphError):
        E.neighbors(Graph.empty(3), (0,), "tar")
    with pytest.raises(GraphError):
        E.distance(Graph.empty(3), 1, (0,), (1,), "walk")


@st.composite
def small_instances(draw, max_n=9):
    """(graph on at most ``max_n`` vertices, k in 1..3, rule)."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    return g, draw(st.sampled_from((1, 2, 3))), draw(st.sampled_from((TJ, TS)))


def _two_paths_complement():
    # R_2 is two 3-node paths of equal diameter: a tie between components
    return complement(Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]))


ORACLE_EXAMPLES = [
    (Graph.empty(1), 1, TJ),  # a single node
    (Graph.from_edges(3, [(0, 1)]), 1, TS),  # components of 2 nodes and 1 node
    (Graph.complete(4), 1, TS),  # one component, every pair adjacent
    (_two_paths_complement(), 2, TJ),
    (_two_paths_complement(), 2, TS),
    (Graph.complete(3), 2, TJ),  # no independent set
    # under the bounds branch, key indices 3 and 5 are swept for the upper
    # bounds, then the walk over candidate sources sweeps 1, of eccentricity
    # D = 3
    (Graph.from_edges(6, [(0, 1), (0, 4), (0, 5), (1, 4), (2, 3), (4, 5)]), 2, TS),
]


def _assert_matches_oracle(g, k, rule):
    rep = E.max_component_diameter(g, k, rule)
    want = brute_component_diameters(g, k, rule)
    got = None if rep.diameter is None else (rep.diameter, rep.witness_from, rep.witness_to)
    assert got == want


def _with_examples(test):
    for case in ORACLE_EXAMPLES:
        test = example(case)(test)
    return test


@_with_examples
@given(small_instances())
@settings(max_examples=150, deadline=None)
def test_diameters_match_brute_oracle(case):
    _assert_matches_oracle(*case)


@_with_examples
@given(small_instances())
@settings(max_examples=100, deadline=None)
def test_diameters_match_brute_oracle_small_batches(case):
    # several batches per component, uneven last batch: the merge of
    # batch results must keep the same witness
    with mock.patch.object(E, "_BATCH", 3):
        _assert_matches_oracle(*case)


@pytest.mark.parametrize("batch", [E._BATCH, 7])
def test_diameter_empty12_k3_matches_brute_oracle(batch):
    g = Graph.empty(12)
    with mock.patch.object(E, "_BATCH", batch):
        rep = E.max_component_diameter(g, 3)
        assert rep.component_size == 220
        _assert_matches_oracle(g, 3, TJ)


# (gate, budget) of component_diameter: bounds always, bounds with a budget
# small enough that some components are handed over, bit-parallel always
BRANCHES = {"bounds": (0, 10**9), "bounds-budget-2": (0, 2), "rounds": (10**9, 0)}


@pytest.mark.parametrize("branch", BRANCHES)
@_with_examples
@given(small_instances())
@settings(max_examples=80, deadline=None)
def test_diameters_match_brute_oracle_both_branches(branch, case):
    gate, budget = BRANCHES[branch]
    with mock.patch.object(E, "_BOUNDS_GATE", gate), \
            mock.patch.object(E, "_BOUNDS_BUDGET", budget):
        _assert_matches_oracle(*case)


def _relabelled(g, seed):
    perm = random.Random(seed).sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _grid(side):
    n = side * side
    rows = [(v, v + 1) for v in range(n) if (v + 1) % side]
    return Graph.from_edges(n, rows + [(v, v + side) for v in range(n - side)])


def _run_branch(comp, gate, budget):
    """(D, witness pair), BFS runs of the bounds and rounds hand-overs."""
    with mock.patch.object(E, "_BOUNDS_GATE", gate), \
            mock.patch.object(E, "_BOUNDS_BUDGET", budget), \
            mock.patch.object(E, "_sweep", wraps=E._sweep) as sweep, \
            mock.patch.object(E, "_rounds_diameter", wraps=E._rounds_diameter) as rounds:
        got = E.component_diameter(comp)
    return got, sweep.call_count, rounds.call_count


@pytest.mark.parametrize("name, g, k, rule", [
    ("comp_path_n300", _relabelled(complement_path(300)[0], 1), 2, TJ),
    ("circulant_p211", _relabelled(circulant_ap_graph(211, [1, 5])[0], 2), 3, TJ),
    ("cycle_200", _cycle(200), 1, TS),
    ("cycle_201", _cycle(201), 1, TS),
    ("grid_20x20", _grid(20), 1, TS),
])
def test_long_components_same_on_both_branches(name, g, k, rule):
    for comp in E.enumerate_components(g, k, rule):
        want, sweeps, rounds = _run_branch(comp, 10**9, E._BOUNDS_BUDGET)
        assert sweeps == 0 and rounds == 1
        got, sweeps, rounds = _run_branch(comp, 0, 10**9)
        assert got == want and rounds == 0
        if name.startswith("cycle"):
            # every node of a cycle has the same eccentricity, so no bound
            # settles another node: the budget runs out and the rounds run
            assert sweeps >= E._BOUNDS_BUDGET
            got, sweeps, rounds = _run_branch(comp, E._BOUNDS_GATE, E._BOUNDS_BUDGET)
            assert got == want and rounds == 1 and sweeps == E._BOUNDS_BUDGET
        elif name != "grid_20x20":
            # path-shaped: settled by the bounds at the shipped gate and budget
            got, sweeps, rounds = _run_branch(comp, E._BOUNDS_GATE, E._BOUNDS_BUDGET)
            assert got == want and rounds == 0 and 0 < sweeps <= E._BOUNDS_BUDGET


def _capped_sizes(comps, node_cap):
    """(size, capped) per component reported under the cap rule: with
    budget b left, a component of s nodes is capped iff s > max(b, 1),
    and then reports max(b, 1) nodes and ends the enumeration."""
    out, budget = [], node_cap
    for comp in comps:
        room = max(budget, 1)
        if len(comp) > room:
            out.append((room, True))
            break
        out.append((len(comp), False))
        budget -= len(comp)
    return out


@given(small_instances(max_n=8))
@settings(max_examples=60, deadline=None)
def test_enumerate_components_cap_rule(case):
    g, k, rule = case
    comps = sorted(explicit_components(g, k, rule),
                   key=lambda c: min(map(config_key_order, c)))
    total = sum(map(len, comps))
    for node_cap in range(total + 2):
        got = E.enumerate_components(g, k, rule, node_cap)
        assert [(c.size, c.capped) for c in got] == _capped_sizes(comps, node_cap)
        for c, want in zip(got, comps):
            if not c.capped:
                assert set(c.dist) == {E.encode_key(s) for s in want}


@given(small_instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_shortest_sequence_matches_brute_oracle(case, data):
    g, k, rule = case
    sets = independent_ksets(g, k)
    if not sets:
        return
    a, b = data.draw(st.sampled_from(sets)), data.draw(st.sampled_from(sets))
    seq = E.shortest_sequence(g, k, a, b, rule)
    assert seq == brute_shortest_sequence(g, k, a, b, rule)
    d = explicit_distance(g, k, a, b, rule)
    assert (seq is None) == (d is None)
    if seq is not None:
        assert len(seq) == d + 1


def test_shortest_sequence_source_found_after_cap():
    # the BFS from (0,) records (1,) and then meets the source (2,) as the
    # third node: a goal found is an answer, even one node past the cap
    g = Graph.empty(3)
    assert E.shortest_sequence(g, 1, (2,), (0,), node_cap=2) == [(2,), (0,)]
    assert E.distance(g, 1, (0,), (2,), node_cap=2) == 1
    with pytest.raises(NodeCapExceeded):
        E.shortest_sequence(g, 1, (2,), (0,), node_cap=1)


def test_key_width_refusal():
    # vertex 65536 does not fit a 16-bit key field; the refusal comes
    # before any array of the set index is made
    g = Graph.empty((1 << 16) + 1)
    with mock.patch.object(E.np, "frombuffer", side_effect=AssertionError("index built")):
        with pytest.raises(GraphError, match="key width"):
            E.bfs_component(g, 1, (0,))
        with pytest.raises(GraphError, match="key width"):
            E.enumerate_components(g, 1)
        with pytest.raises(GraphError, match="n=65537 exceeds the 16-bit key width"):
            E.neighbors(g, (0,))
    with pytest.raises(GraphError, match="vertex 65536 exceeds key width"):
        E.encode_key([1, 1 << 16])
    with pytest.raises(GraphError, match="strictly increasing"):
        E.encode_key([2, 1])


@given(st.integers(1, 9), st.integers(0, 5), st.sampled_from((TJ, TS)), st.data())
@settings(max_examples=120, deadline=None)
def test_index_rows_match_neighbor_keys(n, k, rule, data):
    # keys of k = 5 tokens are 80 bits wide: the index groups on vertex
    # tuples, not on keys
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    for comp in E.enumerate_components(g, k, rule):
        nodes, indptr, cols = comp.csr()
        keys = [comp.index.keys[i] for i in nodes.tolist()]
        assert keys == sorted(comp.dist)
        for p, key in enumerate(keys):
            row = [keys[c] for c in cols[indptr[p] : indptr[p + 1]].tolist()]
            assert row == list(E._neighbor_keys(g, k, rule, key))


def test_node_cap_bounds_held_rows():
    # C(40, 3) = 9880 independent triples, one component under "tj"
    comp = E.bfs_component(Graph.empty(40), 3, (0, 1, 2), node_cap=50)
    assert comp.capped and comp.size == 50 and comp._csr is None
    with pytest.raises(NodeCapExceeded):
        comp.csr()
    # three 5-node path components; a cap of 7 admits the first and 2 nodes
    # of the second, which holds no rows
    path_edges = [(u, u + 1) for base in (0, 6, 12) for u in range(base, base + 5)]
    comps = E.enumerate_components(complement(Graph.from_edges(18, path_edges)), 2, TJ, 7)
    assert [(c.size, c.capped) for c in comps] == [(5, False), (2, True)]
    assert len(comps[0].csr()[0]) == 5 and comps[1]._csr is None
    with pytest.raises(NodeCapExceeded):
        comps[1].degrees()
