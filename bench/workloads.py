"""The benchmark's workloads: seeded job lists and the checks of their outputs.

A job is one CLI invocation (``argv`` for ``reconfig.cli.main``) or, where
the input is too large for a file, one call into the public API (``call``).
``expected`` computes, from the job's inputs alone, the oracle values its
``check`` compares the outcome against; ``check`` raises ``Mismatch`` on any
disagreement. Inputs come only from the seed, expected values only from
``oracle``, which does not import the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

WORKLOADS = ("diameter-sweep", "exhaustive-search", "construct-verify")


class Mismatch(AssertionError):
    """A job's output disagrees with the independent computation."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def nothing():
    return {}


@dataclass
class Job:
    name: str
    check: Callable  # (outcome, expected values) -> None, raises Mismatch
    argv: Optional[list] = None
    call: Optional[Callable] = None  # (constructions, verify, Graph) -> result
    expected: Callable[[], dict] = nothing
    # kept although the program answers it wrongly today: its failures are
    # counted, but do not make the run incorrect
    known_fault: bool = False


def write_edge_list(path, n, edges):
    """The program's edge-list format: 'n m', then sorted 'u v' lines, u < v."""
    lines = sorted((min(u, v), max(u, v)) for u, v in edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(lines)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in lines)


def read_edge_list(path):
    with open(path, encoding="ascii") as fh:
        head, *rest = fh.read().split("\n")
    return int(head.split()[0]), [tuple(map(int, ln.split())) for ln in rest if ln.strip()]


def relabel(edges, perm):
    return [(perm[u], perm[v]) for u, v in edges]


def gnm(rng, n, m):
    return rng.sample(list(itertools.combinations(range(n), 2)), m)


def non_edges(rng, n, edges, count):
    """``count`` seeded vertex pairs that are not edges: independent 2-sets."""
    taken = set(map(frozenset, edges))
    out = []
    while len(out) < count:
        pair = rng.sample(range(n), 2)
        if frozenset(pair) not in taken:
            out.append(pair)
    return out


def ints(vs):
    return ",".join(map(str, vs))


def config_graph(n, edges, k, rule="tj"):
    """A memoised oracle configuration graph, built on first use."""
    return functools.cache(lambda: oracle.ConfigGraph(n, edges, k, rule))


def diameter_cost(n, edges, k, rule):
    """Work of a BFS from every configuration node: the sum over components
    of nodes * (nodes + adjacency entries)."""
    cg = oracle.ConfigGraph(n, edges, k, rule)
    seen, cost = set(), 0
    for s in cg.nodes:
        if cg.index[s] in seen:
            continue
        comp = cg.distances_from(s)
        seen.update(comp)
        cost += len(comp) * (len(comp) + sum(len(cg.adj[v]) for v in comp))
    return cost


def ap_free_diffs(rng, p, size):
    """A seeded valid S for the circulant construction: ``size`` differences,
    each 1 mod 4 and at most p/8, with no 3-term progression."""
    pool = list(range(1, p // 8 + 1, 4))
    while True:
        s = sorted(rng.sample(pool, size))
        if not any(b - a == c - b for a, b, c in itertools.combinations(s, 3)):
            return tuple(s)


def outcome_json(outcome):
    code, text = outcome
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise Mismatch(f"exit {code} without a JSON line: {text[:200]!r}")


# -- diameter-sweep ----------------------------------------------------------

# (n, m, rule) of the random host graphs, k = 3. Each m gives about 300-450
# configuration nodes; tj moves give about 3(n-3) neighbours per node, ts
# moves a handful.
GNM_SLOTS = [(18, 45, "tj"), (20, 57, "tj"), (22, 80, "tj"), (24, 110, "tj"),
             (18, 45, "ts"), (20, 57, "ts"), (22, 80, "ts"), (24, 110, "ts")]
GNM_DRAWS = 5
COMP_PATH_NS = (300, 600)  # k = 2: one path component of n-1 nodes
CIRCULANTS = ((211, 2), (409, 3))  # (p, |S|), k = 3: |S| paths of p-3 nodes


def diameter_job(workdir, name, n, edges, k, rule, known=None):
    path = os.path.join(workdir, name + ".edges")
    write_edge_list(path, n, edges)
    cg = config_graph(n, edges, k, rule)

    def expected():
        return {**cg().summary(), "by_construction": known}

    def check(outcome, want):
        expect(outcome[0] == 0, f"exit {outcome[0]}")
        out = outcome_json(outcome)
        expect(not out["capped"], "capped")
        expect((out["n"], out["k"], out["rule"]) == (n, k, rule), "echoed parameters")
        expect(out["diameter"] == want["diameter"],
               f"diameter {out['diameter']} != oracle {want['diameter']}")
        expect(known is None or out["diameter"] == known,
               f"diameter {out['diameter']} != {known} by construction")
        expect(out["component_size"] in want["sizes_at_diameter"],
               f"component_size {out['component_size']} not in {want['sizes_at_diameter']}")
        d = cg().distance(out["witness_from"], out["witness_to"])
        expect(d == out["diameter"], f"witness pair at distance {d}")

    return Job(name, check, argv=["diameter", path, "--k", str(k), "--rule", rule],
               expected=expected)


def diameter_sweep(rng, workdir):
    jobs = []
    for i, (n, m, rule) in enumerate(GNM_SLOTS):
        # keep the median-cost graph of a few draws, so that the graphs of
        # one seed cost about what those of another do
        draws = sorted((diameter_cost(n, e, 3, rule), e)
                       for e in (gnm(rng, n, m) for _ in range(GNM_DRAWS)))
        jobs.append(diameter_job(workdir, f"gnm{i}_n{n}_{rule}", n,
                                 draws[GNM_DRAWS // 2][1], 3, rule))
    for n in COMP_PATH_NS:
        edges = oracle.complement_of_paths(rng.sample(range(n), n))
        jobs.append(diameter_job(workdir, f"comp_path_n{n}", n, edges, 2, "tj", known=n - 2))
    for p, size in CIRCULANTS:
        edges = relabel(oracle.circulant_edges(p, ap_free_diffs(rng, p, size)),
                        rng.sample(range(p - 1), p - 1))
        jobs.append(diameter_job(workdir, f"circulant_p{p}", p - 1, edges, 3, "tj", known=p - 4))
    warmup = ["diameter", os.path.join(workdir, f"comp_path_n{COMP_PATH_NS[0]}.edges"),
              "--k", "2"]
    return jobs, warmup


# -- exhaustive-search -------------------------------------------------------

SEARCHES = [(7, 2, "tj"), (7, 3, "tj"), (7, 2, "ts"), (6, 2, "tj"), (6, 3, "tj"), (6, 2, "ts")]


@functools.cache
def atlas(n, k, rule):
    return oracle.atlas_maxima(n, k, rule)


def search_job(n, k, rule, cap=None):
    def check(outcome, want):
        if cap is not None and outcome[0] == 3:
            return  # a refusal at the cap is an exact answer too
        expect(outcome[0] == 0, f"exit {outcome[0]}")
        out = outcome_json(outcome)
        expect(out["exhaustive"], "not marked exhaustive")
        expect(out["classes_examined"] == want["classes"],
               f"classes_examined {out['classes_examined']} != atlas {want['classes']}")
        best = want["best_diameter"]
        expect(out["best_diameter"] == best, f"best_diameter {out['best_diameter']} != atlas {best}")
        expect(not (k == 2 and rule == "tj") or best == n - 2, "D(n, 2) != n - 2")
        masks = [oracle.mask_edges(n, m) for m in out["best_masks"]]
        expect(len(masks) == len(want["best_graphs"]),
               f"{len(masks)} best masks, atlas has {len(want['best_graphs'])}")
        for edges in masks:
            d = oracle.ConfigGraph(n, edges, k, rule).summary()["diameter"]
            expect(d == best, f"best mask {edges} has diameter {d}")
        expect(oracle.distinct_classes(n, masks), "two best masks are isomorphic")
        expect(sorted(map(tuple, out["witness_edges"])) == masks[0],
               "witness is not the first best mask")

    argv = ["search", "--n", str(n), "--k", str(k), "--rule", rule, "--exhaustive"]
    name = f"search_n{n}_k{k}_{rule}"
    if cap is not None:
        argv, name = ["--cap", str(cap)] + argv, f"{name}_cap{cap}"
    return Job(name, check, argv=argv, expected=lambda: atlas(n, k, rule),
               known_fault=cap is not None)


def exhaustive_search(rng, workdir):
    jobs = [search_job(*s) for s in SEARCHES]
    # a cap of 4 nodes is below the 5-node component of the n = 6 optimum:
    # the search reports 3 as exhaustive today; see CHANGES.md
    jobs.append(search_job(6, 2, "tj", cap=4))
    rng.shuffle(jobs)
    return jobs, ["search", "--n", "5", "--k", "2", "--exhaustive"]


# -- construct-verify --------------------------------------------------------

# fixed sizes: the seed picks only vertex orders and difference sets, so
# that one seed's jobs cost what another's do
K3_BUDGET = 190
TRIPLE_PRIME = 107
DECIDE_API_NS = (10_000, 20_000, 40_000)


def built_job(name, argv, prefix):
    """A builder's report: start and target lie at least the claimed bound
    apart, by BFS over the independent sets of the graph it wrote."""
    def check(outcome, want):
        expect(outcome[0] == 0, f"exit {outcome[0]}")
        out = outcome_json(outcome)
        n, edges = read_edge_list(prefix + ".edges")
        with open(prefix + ".report.json") as fh:
            rep = json.load(fh)
        claimed = rep["claimed_diameter_lb"]
        expect(out["claimed_diameter_lb"] == claimed, "stdout and report disagree")
        d = oracle.ConfigGraph(n, edges, rep["k"]).distance(rep["start"], rep["target"])
        expect(d is not None and d >= claimed, f"distance {d} < claimed {claimed}")
        if rep["extra"].get("verified"):
            expect(rep["extra"]["measured_distance"] == d, "measured_distance != oracle")

    return Job(name, check, argv=argv + ["--out", prefix])


def verify_job(name, argv, want_pass, details=None, expected=nothing):
    def check(outcome, want):
        out = outcome_json(outcome)
        expect(out["pass"] is want_pass, f"pass is {out['pass']}, expected {want_pass}")
        expect(outcome[0] == (0 if want_pass else 1), f"exit {outcome[0]}")
        if details:
            details(out["witness"], want)

    return Job(name, check, argv=argv, expected=expected)


def circulant_structure_job(p, diffs):
    cg = config_graph(p - 1, oracle.circulant_edges(p, diffs), 3)

    def expected():
        comps = cg().components()
        return {**cg().summary(), "paths": all(d == s - 1 for s, d in comps),
                "sizes": sorted(s for s, _ in comps)}

    def details(w, want):
        expect(want["paths"] and want["sizes"] == [p - 3] * len(diffs),
               "oracle: not |S| paths of p-3 nodes")
        expect(w["component_count"] == want["components"], "component count")
        expect(w["component_sizes"] == want["sizes"], "component sizes")
        expect(w["paths_ok"] and not w["extra_triples"] and not w["missing_triples"],
               "reported structure")

    return verify_job("verify_circulant_structure",
                      ["verify", "circulant-structure", "--p", str(p), "--s", ints(diffs)],
                      True, details, expected)


def walk_63_job(p, diffs):
    def expected():
        # the walk runs along the first difference's component, a path, so
        # the shortest walk between its ends is that whole path
        cg = oracle.ConfigGraph(p - 1, oracle.circulant_edges(p, diffs), 3)
        s = diffs[0]
        dist = cg.distances_from(sorted(r * s % p - 1 for r in (1, 2, 3)))
        walk = [cg.nodes[i] for i in sorted(dist, key=dist.get)]
        return {parity: {"edges": len(walk[off::2]), "free": oracle.is_63_free(walk[off::2])}
                for parity, off in (("even", 0), ("odd", 1))}

    def details(w, want):
        for parity, v in want.items():
            expect(v["free"], f"oracle: {parity} triples are not (6,3)-free")
            expect(w[parity]["edges"] == v["edges"], f"{parity} edge count")

    return verify_job("verify_63_free", ["verify", "63-free", "--p", str(p), "--s", ints(diffs)],
                      True, details, expected)


def saturate_job(workdir, n, edges):
    src, dst = os.path.join(workdir, "saturate_in.edges"), os.path.join(workdir, "saturated.edges")
    write_edge_list(src, n, edges)

    def expected():
        return {"diameter": oracle.ConfigGraph(n, edges, 3).summary()["diameter"]}

    def details(w, want):
        expect(w["diameter_before"] == w["diameter_after"] == want["diameter"], "diameters")
        m, sat = read_edge_list(dst)
        expect(m == n and set(map(frozenset, edges)) <= set(map(frozenset, sat)),
               "the saturated graph lost an edge")
        cg = oracle.ConfigGraph(n, sat, 3)
        expect(cg.is_path() and cg.summary()["diameter"] == want["diameter"],
               "oracle: the saturated configuration graph is not a path of that diameter")

    return verify_job("verify_saturate", ["verify", "saturate", src, "--out", dst],
                      True, details, expected)


def config_path_job(workdir, name, n, edges, k, is_path):
    path = os.path.join(workdir, name + ".edges")
    write_edge_list(path, n, edges)
    cg = config_graph(n, edges, k)

    def details(w, want):
        expect(want["is_path"] is is_path, "oracle disagrees with the construction")

    return verify_job(f"verify_config_path_{name}",
                      ["verify", "config-path", path, "--k", str(k)], is_path, details,
                      lambda: {**cg().summary(), "is_path": cg().is_path()})


def decide2_job(workdir, name, n, edges, a, b):
    path = os.path.join(workdir, name + ".edges")
    write_edge_list(path, n, edges)
    a, b = sorted(a), sorted(b)

    def expected():
        comp = oracle.complement_components(n, edges)
        return {"reachable": comp[a[0]] == comp[b[0]]}

    def check(outcome, want):
        expect(outcome[0] == 0, f"exit {outcome[0]}")
        out = outcome_json(outcome)
        expect(out["agree"] and out["reachable"] == want["reachable"],
               f"reachable {out['reachable']} (fast {out['fast']}), oracle {want['reachable']}")

    argv = ["decide2", path, "--from", ints(a), "--to", ints(b), "--algo", "both"]
    return Job(name, check, argv=argv, expected=expected)


def decide_api_job(n, a, b, cut=None):
    """decide_k2_fast on the complement of P_n, which is connected; with the
    path cut after vertex ``cut``, a and b lie in different parts."""
    def call(constructions, verify, Graph):
        g, _ = constructions.complement_path(n)
        if cut is not None:
            rows = list(g.adj)
            rows[cut] |= 1 << (cut + 1)
            rows[cut + 1] |= 1 << cut
            g = Graph(n, rows)
        return verify.decide_k2_fast(g, a, b)

    def check(result, want):
        expect(result is want["reachable"], f"decide_k2_fast gave {result}")

    return Job(f"decide_k2_fast_{'cut' if cut is not None else 'path'}_n{n}", check,
               call=call, expected=lambda: {"reachable": cut is None})


def construct_verify(rng, workdir):
    w = functools.partial(os.path.join, workdir)
    order = rng.sample(range(4), 4)
    write_edge_list(w("base.edges"), 4, oracle.complement_of_paths(order))
    jobs = [
        built_job("construct_k3", ["construct", "k3", "--budget", str(K3_BUDGET)], w("k3")),
        built_job("construct_iterate_toll",
                  ["construct", "iterate-toll", "--steps", "2", "--per-step-n", "1"], w("toll")),
        built_job("construct_triple",
                  ["construct", "triple", w("base.edges"), "--k", "2",
                   "--from", ints(sorted(order[:2])), "--to", ints(sorted(order[2:])),
                   "--p", str(TRIPLE_PRIME)], w("triple")),
        verify_job("verify_claim_inter", ["verify", "claim-inter", "--budget", str(K3_BUDGET)], True),
        circulant_structure_job(409, ap_free_diffs(rng, 409, 3)),
        walk_63_job(211, ap_free_diffs(rng, 211, 3)),
        saturate_job(workdir, 40, relabel(oracle.circulant_edges(41, (1,)),
                                          rng.sample(range(40), 40))),
        config_path_job(workdir, "comp_path_n200", 200,
                        oracle.complement_of_paths(rng.sample(range(200), 200)), 2, True),
    ]
    for name, diffs in (("circulant_p101", (rng.choice((1, 5, 9)),)),
                        ("circulant_p101_two", ap_free_diffs(rng, 101, 2))):
        edges = relabel(oracle.circulant_edges(101, diffs), rng.sample(range(100), 100))
        jobs.append(config_path_job(workdir, name, 100, edges, 3, len(diffs) == 1))

    n = 300
    order = rng.sample(range(n), n)
    cut = rng.randrange(n // 3, 2 * n // 3)
    sparse = gnm(rng, n, n)
    jobs += [
        decide2_job(workdir, "decide2_path", n, oracle.complement_of_paths(order),
                    order[:2], order[-2:]),
        decide2_job(workdir, "decide2_cut", n, oracle.complement_of_paths(order, cuts=(cut,)),
                    order[:2], order[-2:]),
        decide2_job(workdir, "decide2_sparse", n, sparse, *non_edges(rng, n, sparse, 2)),
    ]
    for n in DECIDE_API_NS:
        # the first and last path edges, cut in the middle: the search from
        # either end costs the same, whichever the seed makes the source
        a, b = rng.sample([(0, 1), (n - 2, n - 1)], 2)
        jobs.append(decide_api_job(n, a, b))
        jobs.append(decide_api_job(n, a, b, cut=n // 2 - 1))
    return jobs, ["construct", "k3", "--budget", "47", "--out", w("warmup")]


BUILDERS = {
    "diameter-sweep": diameter_sweep,
    "exhaustive-search": exhaustive_search,
    "construct-verify": construct_verify,
}


def build(workload, seed, workdir):
    """(jobs, warm-up argv) of a workload, with its input files written to
    ``workdir``; the same seed gives the same jobs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


def expected_values(workload, seed, workdir):
    """The oracle values of every job of a workload, as its checks use them."""
    jobs, _ = build(workload, seed, workdir)
    return {job.name: job.expected() for job in jobs}
