import random
import re

import pytest

from reconfig import engine as E
from reconfig import constructions as C
from reconfig.constructions import ConstructionError
from reconfig.engine import TJ, NodeCapExceeded
from reconfig.graph import Graph, is_independent
from oracles import independent_ksets, pairwise_ring_properties


def endpoints_are_valid(g, report):
    assert len(report.start) == report.k == len(report.target)
    assert is_independent(g, report.start)
    assert is_independent(g, report.target)


def test_complement_path_measured():
    for n, want in ((4, 2), (7, 5), (3, 1)):
        g, rep = C.complement_path(n)
        endpoints_are_valid(g, rep)
        assert rep.claimed_diameter_lb == n - 2
        assert E.max_component_diameter(g, 2).diameter == want
    with pytest.raises(ConstructionError):
        C.complement_path(2)


def test_complement_path_rows_match_definition():
    # u and v are adjacent iff |u - v| >= 2
    for n in range(3, 71):
        g, _ = C.complement_path(n)
        want = tuple(
            sum(1 << v for v in range(n) if abs(u - v) >= 2) for u in range(n)
        )
        assert g.adj == want, n
    for n in (4096, 4097, 5000):
        g, _ = C.complement_path(n)
        for u in (0, 1, n // 2, n - 2, n - 1):
            assert g.adj[u].bit_length() <= n
            non_neighbors = [v for v in range(n) if not g.adj[u] >> v & 1]
            assert non_neighbors == [v for v in (u - 1, u, u + 1) if 0 <= v < n]


def test_circulant_17(circ17):
    g, rep = circ17
    assert g.n == 16
    endpoints_are_valid(g, rep)
    comps = E.enumerate_components(g, 3)
    assert len(comps) == 1 and comps[0].size == 14


def test_circulant_41(circ41):
    g, rep = circ41
    assert g.n == 40
    comps = E.enumerate_components(g, 3)
    assert len(comps) == 2 and all(c.size == 38 for c in comps)
    # predicted triples exactly cover the components
    predicted = {
        tuple(t)
        for comp in rep.roles["components"]
        for t in comp["path"]
    }
    actual = set(E.independent_sets(g, 3))
    assert predicted == actual


def test_circulant_refusals():
    with pytest.raises(ConstructionError, match="not 1 mod 4"):
        C.circulant_ap_graph(17, [2])
    with pytest.raises(ConstructionError, match="not prime"):
        C.circulant_ap_graph(40, [1])
    with pytest.raises(ConstructionError, match="exceeds p/8"):
        C.circulant_ap_graph(17, [5])
    with pytest.raises(ConstructionError, match="progression"):
        C.circulant_ap_graph(97, [1, 5, 9])
    with pytest.raises(ConstructionError, match="nonempty"):
        C.circulant_ap_graph(17, ())
    # -3 is 1 mod 4 in Python, so positivity is a condition of its own
    for p, s in ((97, (-3,)), (41, (-3, 1))):
        with pytest.raises(ConstructionError, match="element -3 is not positive"):
            C.circulant_ap_graph(p, s)


def test_validate_endpoint_refusals(comp_p4):
    g, _ = comp_p4
    for vs in ((0,), (0, 0), (0, 2, 3)):
        with pytest.raises(ConstructionError, match="x must have exactly 2 distinct vertices"):
            C._validate_endpoint(g, vs, 2, "x")


def test_distance_refusals(comp_p4):
    # alpha = 2, but the two non-edges {0, 1} and {2, 3} share no vertex
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ConstructionError,
                       match=r"endpoints \(0, 1\) and \(2, 3\) are not connected"):
        C._distance(g, 2, (1, 0), (2, 3), 100)
    # a self-measurement refuses too: None means only "over the node cap"
    with pytest.raises(ConstructionError, match="not connected"):
        C._self_measure(g, 2, (0, 1), (2, 3), 0, 100)
    p4, rep = comp_p4
    assert C._distance(p4, 2, rep.start, rep.target, 100) == 2
    with pytest.raises(NodeCapExceeded):
        C._distance(p4, 2, rep.start, rep.target, 1)


def test_orient_endpoint():
    path = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
    assert C.orient_endpoint(path, "b") == (4, 2, 3)
    assert C.orient_endpoint(path, "a") == (1, 2, 0)
    with pytest.raises(ConstructionError, match="too short"):
        C.orient_endpoint(path[:1], "a")
    with pytest.raises(ConstructionError, match="end must be 'a' or 'b', got 'c'"):
        C.orient_endpoint(path, "c")
    with pytest.raises(ConstructionError, match="not adjacent"):
        C.orient_endpoint([(0, 1, 2), (3, 4, 5)], "b")


def test_glue_corridor(glued47):
    g, rep = glued47
    assert g.n == 47 and rep.k == 3
    endpoints_are_valid(g, rep)
    assert rep.extra["component_distances"] == [37, 37]
    assert rep.claimed_diameter_lb == (4 * 3 - 4) * 1 + 37 + 37 == 82

    # the junction window walk is a valid corridor of length 4k-2 = 10
    spec = rep.roles["junctions"][0]
    seq = list(spec["b_order"]) + list(spec["x_ids"]) + list(spec["a_order"])
    windows = [tuple(sorted(seq[i : i + 3])) for i in range(len(seq) - 2)]
    assert len(windows) == 11
    E.validate_sequence(g, windows)


@pytest.mark.parametrize("budget", [47, 190])
def test_glue_matches_window_rule(budget):
    # a pair with a fresh vertex is non-adjacent iff both lie in one junction
    # sequence b_1..b_k, x_1..x_{3k-2}, a_1..a_k at most k-1 positions apart;
    # fresh vertices are complete to everything else
    h, rep = C.build_k3_extremal(budget)
    g, _ = C.circulant_ap_graph(rep.params["p"], rep.params["s"])
    junctions = rep.roles["junctions"]
    assert junctions and h.n == g.n + 7 * len(junctions)
    seq_of = {}
    for j in junctions:
        seq = j["b_order"] + j["x_ids"] + j["a_order"]
        for x in j["x_ids"]:
            seq_of[x] = seq
    rows = list(g.adj) + [0] * (h.n - g.n)
    for v in range(g.n, h.n):
        seq = seq_of[v]
        for u in range(v):
            if u in seq and abs(seq.index(u) - seq.index(v)) <= rep.k - 1:
                continue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    assert h.adj == tuple(rows)


def test_glue_validation(circ41):
    g, rep = circ41
    comps = rep.roles["components"]
    pa = [tuple(t) for t in comps[0]["path"]]
    pb = [tuple(t) for t in comps[1]["path"]]
    # residues {1,2,5}: the pair (1,5) differs by 4, an edge of the circulant
    not_indep = ((0, 1, 4), C.orient_endpoint(pb, "a"))
    with pytest.raises(ConstructionError, match="independent"):
        C.glue(g, 3, [not_indep], pa[0], pb[-1])
    with pytest.raises(ConstructionError, match="k >= 3"):
        C.glue(g, 2, [], pa[0], pb[-1])
    with pytest.raises(ConstructionError, match="at least one junction"):
        C.glue(g, 3, [], pa[0], pb[-1])
    # the second component runs from pb's start to a target on pa
    junction = (C.orient_endpoint(pa, "b"), C.orient_endpoint(pb, "a"))
    with pytest.raises(ConstructionError,
                       match=re.escape(f"endpoints {pb[0]} and {pa[-1]} are not connected")):
        C.glue(g, 3, [junction], pa[0], pa[-1])


def test_toll_booth_instances(comp_p4):
    g, rep = comp_p4
    h1, r1 = C.toll_booth_extend(g, 2, rep.start, rep.target, 1)
    assert h1.n == 12 and r1.k == 4
    endpoints_are_valid(h1, r1)
    assert r1.claimed_diameter_lb == 10 and r1.extra["statement_bound"] == 4
    assert r1.extra["measured_distance"] == 10

    h2, r2 = C.toll_booth_extend(g, 2, rep.start, rep.target, 2)
    assert h2.n == 18
    assert r2.claimed_diameter_lb == 20
    assert r2.extra["measured_distance"] == 20
    # measured distances re-checked through the engine
    assert E.distance(h2, 4, r2.start, r2.target) == 20


def test_toll_booth_refusals():
    # independence number 4 but k=2 demanded
    with pytest.raises(ConstructionError, match="independence number"):
        C.toll_booth_extend(Graph.empty(4), 2, (0, 1), (2, 3), 1)
    # two disjoint edges in the complement: alpha=2 but endpoints disconnected
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ConstructionError,
                       match=r"endpoints \(0, 1\) and \(2, 3\) are not connected"):
        C.toll_booth_extend(g, 2, (0, 1), (2, 3), 1)
    p4, rep = C.complement_path(4)
    with pytest.raises(ConstructionError, match="n >= 1, got 0"):
        C.toll_booth_extend(p4, 2, rep.start, rep.target, 0)


def test_iterate_toll_chain():
    g0, rep0 = C.iterate_toll(0, 1, base_path_n=5)
    assert rep0.k == 2 and g0.n == 5
    assert rep0.extra["chain"][0]["distance"] == 3

    g1, rep1 = C.iterate_toll(1, 1, base_path_n=4)
    assert g1.n == 12 and rep1.k == 4 and rep1.claimed_diameter_lb == 10

    g2, rep2 = C.iterate_toll(2, 1, base_path_n=4)
    assert g2.n == 20 and rep2.k == 6
    assert rep2.claimed_diameter_lb == 2 * (2 * (2 + 3) + 3) == 26
    assert rep2.extra["chain"][-1]["distance"] == 26


def test_iterate_toll_refusals():
    with pytest.raises(ConstructionError, match="nonnegative"):
        C.iterate_toll(-1, 1)
    # the host distance fits under the cap, the first step's does not
    with pytest.raises(ConstructionError, match="step distance not measurable under node cap"):
        C.iterate_toll(1, 1, node_cap=5)


def test_triple_extend_p73(comp_p4):
    g, rep = comp_p4
    gp, trep = C.triple_extend(g, 2, rep.start, rep.target, 73)
    assert gp.n == 4 + 72 and trep.k == 5
    endpoints_are_valid(gp, trep)
    props = trep.extra["ring_properties"]
    assert props["consecutive_mod8"] and props["transition_mod8"]
    assert all(not v for v in props["zero_mod8_missing"].values())
    assert trep.claimed_diameter_lb == 2 * 2 * (73 // 8 - 1) == 32
    assert trep.extra["measured_distance"] >= 32

    # ring vertices whose labels avoid 0 and 4 mod 8 have no edges into the
    # host graph; ring vertex v is residue v - 3, labelled residue / 9 mod p
    s_inv = pow(9, -1, 73)
    host = set(range(4))
    for v in range(4, gp.n):
        r = (v - 3) * s_inv % 73 % 8
        has_host_edge = any(gp.adj[v] >> u & 1 for u in host)
        assert has_host_edge == (r in (0, 4))


def test_triple_extend_refusals(comp_p4):
    from reconfig.graph import Graph

    g, rep = comp_p4
    with pytest.raises(ConstructionError, match="p=17 too small"):
        C.triple_extend(g, 2, rep.start, rep.target, 17)
    with pytest.raises(ConstructionError, match="independence number"):
        C.triple_extend(Graph.empty(4), 2, (0, 1), (2, 3), 73)


@pytest.mark.parametrize("failed, message", [
    ("consecutive_mod8", "some independent triple lacks consecutive labels mod 8"),
    ("transition_mod8", "some adjacent triples lack a \\+-3 mod 8 transition"),
])
def test_triple_extend_refuses_failed_ring_property(comp_p4, monkeypatch, failed, message):
    check = C.check_ring_properties
    monkeypatch.setattr(C, "check_ring_properties",
                        lambda *args: {**check(*args), failed: False})
    g, rep = comp_p4
    with pytest.raises(ConstructionError, match="ring property failed: " + message):
        C.triple_extend(g, 2, rep.start, rep.target, 73)


def test_self_measure_refuses_a_short_measurement(comp_p4, monkeypatch):
    # a measured start-target distance below the claim refuses the build
    distance = C._distance
    monkeypatch.setattr(C, "_distance",
                        lambda g, k, a, b, cap: distance(g, k, a, b, cap) - (k == 4))
    g, rep = comp_p4
    with pytest.raises(ConstructionError,
                       match="measured distance 9 fell below claimed 10"):
        C.toll_booth_extend(g, 2, rep.start, rep.target, 1)


def test_triple_extend_every_ring_prime(comp_p4):
    g, rep = comp_p4
    primes = [p for p in range(73, C.MAX_RING_P + 1) if C.is_prime(p)]
    assert primes[0] == 73 and primes[-1] == 131 and len(primes) == 12
    for p in primes:
        gp, trep = C.triple_extend(g, 2, rep.start, rep.target, p)
        assert trep.extra["s_base"] == [1] and trep.extra["s"] == [9]
        assert trep.extra["relabeled"]
        assert len(trep.roles["component_endpoints"]) == 1
        assert trep.extra["measured_distance"] >= trep.claimed_diameter_lb


def test_triple_extend_refuses_second_difference(comp_p4):
    # from p = 136 on (p-8)//64 = 2 and S' = {1, 2} gives S = {9, 17}; the
    # component of 9 wraps past p, where a move swaps labels 27-p apart,
    # which is even mod 8, so the ring cannot pass the transition check
    assert (C.MAX_RING_P - 8) // 64 == 1 and (C.MAX_RING_P + 1 - 8) // 64 == 2
    ring, ring_rep = C.circulant_ap_graph(137, (9, 17))
    props = C.check_ring_properties(ring, ring_rep.roles["components"],
                                    [v + 1 for v in range(ring.n)])
    assert not props["transition_mod8"]
    g, rep = comp_p4
    for p in (137, 139):
        with pytest.raises(ConstructionError, match=f"p={p} too large: .* p <= 135"):
            C.triple_extend(g, 2, rep.start, rep.target, p)


def _ring_labels(p, s):
    # triple_extend's relabelling: residue r gets label r * s^-1 mod p
    s_inv = pow(s, -1, p)
    return [(v + 1) * s_inv % p for v in range(p - 1)]


def test_ring_check_matches_pairwise_oracle():
    primes = [p for p in range(73, C.MAX_RING_P + 1) if C.is_prime(p)]
    cases = [(p, (9,), _ring_labels(p, 9)) for p in primes]
    cases.append((137, (9, 17), [v + 1 for v in range(136)]))
    # seeded label lists around the relabelling, the residues themselves and
    # uniform draws: shifts by multiples of 8 keep every residue, and a few
    # redrawn labels break some checks
    rng = random.Random(7)
    for p, elems in ((73, (9,)), (131, (9,)), (137, (9, 17)), (211, (9, 17)), (41, (1, 5))):
        for _ in range(8):
            base = rng.choice((_ring_labels(p, elems[0]), [v + 1 for v in range(p - 1)],
                               [rng.randrange(2 * p) for _ in range(p - 1)]))
            labels = [l + 8 * rng.randrange(4) for l in base]
            for _ in range(rng.randrange(3)):
                labels[rng.randrange(p - 1)] = rng.randrange(2 * p)
            cases.append((p, elems, labels))
    rings = {}
    outcomes = set()
    for p, elems, labels in cases:
        if (p, elems) not in rings:
            ring, rep = C.circulant_ap_graph(p, elems)
            rings[p, elems] = ring, rep, independent_ksets(ring, 3)
        ring, rep, triples = rings[p, elems]
        props = C.check_ring_properties(ring, rep.roles["components"], labels)
        assert props == pairwise_ring_properties(triples, p, elems, labels), (p, elems)
        if p <= C.MAX_RING_P and labels == _ring_labels(p, 9):
            assert props["consecutive_mod8"] and props["transition_mod8"], p
        outcomes.add((props["consecutive_mod8"], props["transition_mod8"]))
    assert {(True, True), (True, False), (False, False)} <= outcomes
    # a pair kept by three triples, which no ring has: tokens 2 and 3 differ
    # by 3 mod 8 and 3 and 4 by 3, but 2 and 4 by 6
    fan = Graph.from_edges(5, [(2, 3), (2, 4), (3, 4)])
    labels = [1, 2, 0, 3, 6]
    props = C.check_ring_properties(fan, [], labels)
    assert not props["transition_mod8"]
    assert props == pairwise_ring_properties(independent_ksets(fan, 3), 0, (), labels)


def test_build_general_clamps_ring_prime():
    g, rep = C.build_general(5, 200)
    assert rep.extra["chain"][-1]["p"] == 131
    assert g.n == 4 + 130 <= 200
    assert rep.extra["measured_distance"] >= rep.claimed_diameter_lb


def test_build_k3_extremal_47(glued47):
    g, rep = glued47
    assert rep.params["p"] == 41 and rep.params["s"] == [1, 5]
    measured = E.max_component_diameter(g, 3)
    assert measured.diameter == rep.claimed_diameter_lb == 82
    # the nominal node-count bound exceeds the claimed edge-count one
    assert rep.extra["nominal_bound"] == 84
    # never above the generic cap C(n, k-1)
    assert rep.claimed_diameter_lb <= g.n * (g.n - 1) // 2


def test_build_k3_extremal_17():
    g, rep = C.build_k3_extremal(17)
    assert g.n == 16 and rep.extra["junctions"] == 0
    assert rep.claimed_diameter_lb == 13
    assert E.max_component_diameter(g, 3).diameter == 13


def test_build_k3_budget_refusal():
    with pytest.raises(ConstructionError):
        C.build_k3_extremal(16)


def test_build_general_dispatch():
    g3, rep3 = C.build_general(3, 17)
    assert rep3.name == "k3-extremal"

    g5, rep5 = C.build_general(5, 90)
    assert rep5.k == 5 and g5.n <= 90
    assert rep5.extra["chain"][0]["k"] == 2
    assert rep5.extra["measured_distance"] >= rep5.claimed_diameter_lb

    g4, rep4 = C.build_general(4, 30)
    assert rep4.k == 4 and rep4.extra["chain"][0]["name"] == "toll-booth"

    g6, rep6 = C.build_general(6, 95)
    assert rep6.k == 6 and rep6.extra["verified"]
    assert rep6.extra["chain"][0]["name"] == "k3-extremal"
    assert is_independent(g6, rep6.start) and is_independent(g6, rep6.target)

    with pytest.raises(ConstructionError, match="infeasible"):
        C.build_general(5, 40)
    with pytest.raises(ConstructionError):
        C.build_general(2, 100)


def test_is_prime():
    assert [p for p in range(2, 30) if C.is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not C.is_prime(1) and not C.is_prime(0)


def test_glue_assigns_fresh_ids(circ41):
    # glue assigns the block above the host graph and records each
    # junction as check_junction_windows reads it
    g, rep = circ41
    comps = rep.roles["components"]
    pa = [tuple(t) for t in comps[0]["path"]]
    pb = [tuple(t) for t in comps[1]["path"]]
    b_order, a_order = C.orient_endpoint(pa, "b"), C.orient_endpoint(pb, "a")
    h, grep_ = C.glue(g, 3, [(b_order, a_order)], pa[0], pb[-1])
    assert h.n == 47 and grep_.claimed_diameter_lb == 82
    assert grep_.roles["junctions"] == [{
        "index": 0, "b_order": list(b_order), "a_order": list(a_order),
        "x_ids": list(range(40, 47)),
    }]


def test_unmeasured_report_under_node_cap(comp_p4):
    # the only unmeasured report: the self-measurement does not fit under
    # the node cap, so the claim stands unverified instead of passing as exact
    g, rep = comp_p4
    _, tr = C.triple_extend(g, 2, rep.start, rep.target, 73, node_cap=50)
    assert tr.extra["measured_distance"] is None and not tr.extra["verified"]
    assert tr.claimed_diameter_lb == 32
    _, tb = C.toll_booth_extend(g, 2, rep.start, rep.target, 1, node_cap=5)
    assert tb.extra["measured_distance"] is None and not tb.extra["verified"]
    assert tb.claimed_diameter_lb == 10


def test_lower_bounds_hold_under_sliding(circ17, glued47, comp_p4):
    # every corridor move in these builds swaps tokens across an edge, so
    # the slide-rule distances meet the same bounds as the jump rule
    from reconfig.engine import TS

    g17, _ = circ17
    assert E.max_component_diameter(g17, 3, TS).diameter == 13
    g47, r47 = glued47
    assert E.distance(g47, 3, r47.start, r47.target, TS) == 82
    g4, r4 = comp_p4
    h, tr = C.toll_booth_extend(g4, 2, r4.start, r4.target, 1)
    assert E.distance(h, 4, tr.start, tr.target, TS) == 10
