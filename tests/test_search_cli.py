import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_canonical_form,
    brute_component_diameters,
    census_exhaustive_search,
    census_masks,
    extension_candidates,
)
import reconfig
from reconfig import cli
from reconfig import engine as E
from reconfig import search as S
from reconfig.constructions import complement_path
from reconfig.engine import TJ, TS, NodeCapExceeded
from reconfig.graph import Graph, GraphError, orbit_minima, pair_images, write_graph


def test_nonisomorphic_class_counts():
    # classical census of graphs up to isomorphism
    for n, count in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)):
        assert len(S.nonisomorphic_masks(n)) == count


def test_reps_are_canonical_minima():
    images = pair_images(5)
    for rep in S.nonisomorphic_masks(5)[:20]:
        g = S.mask_to_graph(5, rep)
        assert orbit_minima(images, S.graph_to_mask(g))[0] == rep
        assert S.graph_to_mask(g) == rep


def test_every_rep_is_its_orbit_minimum():
    census = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in census.items():
        reps = S.nonisomorphic_masks(n)
        assert len(reps) == count
        assert all(a < b for a, b in zip(reps, reps[1:]))
        images = pair_images(n)
        for rep in reps:
            assert orbit_minima(images, S.graph_to_mask(S.mask_to_graph(n, rep)))[0] == rep


def test_exhaustive_limit():
    with pytest.raises(
        GraphError,
        match=r"exhaustive search supports n <= 8, got 9; use --random T instead",
    ):
        S.nonisomorphic_masks(9)


def test_exhaustive_n5_k2(exhaustive_k2):
    res = exhaustive_k2[5]
    assert res.best_diameter == 3 and res.exhaustive
    assert res.classes_examined == 34
    cp, _ = complement_path(5)
    assert brute_canonical_form(cp) in res.best_masks
    assert res.witness_edges is not None


def test_exhaustive_no_independent_set():
    res = S.exhaustive_search(4, 5)
    assert res.best_diameter is None and res.witness_edges is None


def test_exhaustive_n6_k3_regression():
    res = S.exhaustive_search(6, 3)
    assert res.best_diameter == 3
    assert len(res.best_masks) == 19
    # independent ground truth: the networkx atlas lists each 6-vertex graph
    # once, and the brute oracle computes its diameter on the explicit
    # configuration graph
    import networkx as nx

    diameters = {}
    images = pair_images(6)
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 6:
            g = Graph.from_edges(6, list(h.edges()))
            found = brute_component_diameters(g, 3)
            rep = int(orbit_minima(images, S.graph_to_mask(g))[0])
            diameters[rep] = found[0] if found else None
    assert len(diameters) == 156
    best = max(d for d in diameters.values() if d is not None)
    assert best == 3
    assert sorted(m for m, d in diameters.items() if d == best) == res.best_masks


def _check_sweep(n, k, rule, masks):
    """The sweep, run on ``masks``, gives each class the engine's largest
    component diameter and its number of independent k-sets."""
    tables = S._sweep_tables(n, k)
    swept, nodes = S._sweep(np.array(masks, dtype=np.int64), tables, rule)
    want, want_nodes = [], []
    for mask in masks:
        g = S.mask_to_graph(n, mask)
        d = E.max_component_diameter(g, k, rule).diameter
        want.append(-1 if d is None else d)
        want_nodes.append(len(E.independent_sets(g, k)))
    assert swept.tolist() == want, (n, k, rule, masks)
    assert nodes.tolist() == want_nodes, (n, k, rule, masks)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_matches_engine(data):
    n = data.draw(st.integers(0, 8), label="n")
    k = data.draw(st.sampled_from((0, 1, 2, 3, 4, n + 1, n + 3)), label="k")
    rule = data.draw(st.sampled_from((TJ, TS)), label="rule")
    masks = data.draw(
        st.lists(st.integers(0, (1 << n * (n - 1) // 2) - 1), min_size=1, max_size=6),
        label="masks",
    )
    _check_sweep(n, k, rule, masks)


def test_sweep_matches_engine_on_every_5_vertex_class():
    for k in (2, 3):
        for rule in (TJ, TS):
            _check_sweep(5, k, rule, S.nonisomorphic_masks(5))


def test_sweep_matches_engine_past_one_word():
    # 63, 64, 65 and 129 graphs end a word short, on its end, one past it
    # and one past two words: the bits past the last graph never grow
    rng = np.random.default_rng(5)
    for count in (63, 64, 65, 129):
        masks = [0, (1 << 21) - 1, *rng.integers(0, 1 << 21, size=count - 2).tolist()]
        for k in (2, 3):
            for rule in (TJ, TS):
                _check_sweep(7, k, rule, masks)
    # C(8, 4) = 70 nodes, more than the 64 graphs of a word
    masks = [0, (1 << 28) - 1, *rng.integers(0, 1 << 28, size=6).tolist()]
    for rule in (TJ, TS):
        _check_sweep(8, 4, rule, masks)


def test_sweep_drops_converged_words(monkeypatch):
    # word w of a chunk grows in round r while r <= the largest diameter
    # of its 64 graphs; in one chunk of all 6 words of the 348 unpruned
    # n = 6 extensions, or in chunks of 2, some round leaves at most half
    # of the words growing, so the stopped ones are dropped from the arrays
    masks = extension_candidates(6).tolist()
    for k in (2, 3):
        word = 8 * math.comb(6, k) ** 2
        for rule in (TJ, TS):
            swept, _ = S._sweep(np.array(masks), S._sweep_tables(6, k), rule)
            last = np.pad(swept, (0, -len(swept) % 64), constant_values=-1)
            last = last.reshape(-1, 64).max(axis=1)
            for words in (2, len(last)):
                monkeypatch.setattr(S, "_SWEEP_BYTES", words * word)
                chunks = np.split(last, range(words, len(last), words))
                assert any(
                    0 < np.sum(c >= r) <= len(c) // 2 for c in chunks for r in range(1, c.max() + 1)
                ), (k, rule, words)
                _check_sweep(6, k, rule, masks)


def test_candidates_cover_every_class():
    # the classes listed by one-vertex extension against the reference
    # census, which marks every orbit in a map of all masks
    for n in range(8):
        assert S.nonisomorphic_masks(n) == list(census_masks(n)), n


def test_class_count_matches_census():
    for n in range(8):
        assert S._class_count(n) == len(S.nonisomorphic_masks(n)), n
    assert len(S.nonisomorphic_masks(8)) == S._class_count(8) == 12346


def _json_or_refusal(run):
    try:
        return run()
    except NodeCapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(7))
def test_exhaustive_search_matches_census_route(n):
    # the census route runs the engine on every class in ascending order,
    # so it also pins which capped class refuses first, and with what text
    for k in sorted({0, 1, 2, 3, n + 1}):
        for rule in (TJ, TS):
            for cap in (*range(13), E.DEFAULT_NODE_CAP):
                want = _json_or_refusal(lambda: census_exhaustive_search(n, k, rule, cap))
                got = _json_or_refusal(lambda: S.exhaustive_search(n, k, rule, cap).to_json())
                assert got == want, (n, k, rule, cap)


def test_candidates_are_pruned():
    # the two rules of canonical augmentation leave at most 8 candidates
    # per hundred classes beyond one each, where every extension of
    # maximum degree gives more than two per class
    for n, count, unpruned in ((6, 159, 348), (7, 1096, 2690), (8, 13348, 29755)):
        assert len(S._candidates(n)) == count, n
        assert len(extension_candidates(n)) == unpruned, n


@pytest.mark.parametrize("k", range(1, 5))
def test_exhaustive_search_same_as_unpruned(k, monkeypatch):
    # sweeping every extension of maximum degree instead gives the same
    # JSON, or the same refusal text, at and below the node cap
    for rule in (TJ, TS):
        for cap in (0, 4, 20, E.DEFAULT_NODE_CAP):
            got = _json_or_refusal(lambda: S.exhaustive_search(7, k, rule, cap).to_json())
            with monkeypatch.context() as m:
                m.setattr(S, "_candidates", extension_candidates)
                want = _json_or_refusal(lambda: S.exhaustive_search(7, k, rule, cap).to_json())
            assert got == want, (k, rule, cap)


# D(8, k) and the number of extremal classes, the first n the census of
# size n cannot reach
@pytest.mark.parametrize(
    "k, rule, best, classes",
    [(2, TJ, 6, 3), (2, TS, 10, 8), (3, TJ, 6, 39), (3, TS, 12, 4), (4, TJ, 5, 4)],
)
def test_exhaustive_n8(k, rule, best, classes):
    res = S.exhaustive_search(8, k, rule)
    assert res.classes_examined == 12346
    assert (res.best_diameter, len(res.best_masks)) == (best, classes)
    assert res.best_masks == sorted(set(res.best_masks))
    images = pair_images(8)
    for mask in res.best_masks:
        g = S.mask_to_graph(8, mask)
        # each entry is its class's orbit minimum, so no two are isomorphic
        assert orbit_minima(images, S.graph_to_mask(g))[0] == mask
        assert E.max_component_diameter(g, k, rule).diameter == best
    assert res.witness_edges == list(S.mask_to_graph(8, res.best_masks[0]).edges())


def test_exhaustive_search_independent_of_chunk_size(monkeypatch):
    # chunks of one word (64 graphs) mix classes without an independent
    # k-set (-1) with the rest; the budgets give chunks of 1 word, 2 words
    # and every candidate
    tables = S._sweep_tables(6, 3)
    swept, _ = S._sweep(S._candidates(6), tables, TJ)
    assert any(-1 in c and c.max() >= 0 for c in np.split(swept, range(64, len(swept), 64)))
    for n in range(7):
        words = -(-len(S._candidates(n)) // 64)
        for k in (1, 2, 3):
            word = 8 * max(math.comb(n, k), 1) ** 2
            for rule in (TJ, TS):
                outs = []
                for budget in (word, 2 * word, words * word):
                    monkeypatch.setattr(S, "_SWEEP_BYTES", budget)
                    outs.append(json.dumps(S.exhaustive_search(n, k, rule).to_json()))
                assert outs[0] == outs[1] == outs[2], (n, k, rule)


def test_capped_classes_run_in_ascending_order(monkeypatch):
    # with k = 0 every class has one node, above a cap of 0, and none is
    # cut short: the engine sees every class once, in ascending order,
    # then the winner again
    calls = []
    engine_diameter = S._class_diameter

    def record(g, *args):
        calls.append(S.graph_to_mask(g))
        return engine_diameter(g, *args)

    monkeypatch.setattr(S, "_class_diameter", record)
    res = S.exhaustive_search(6, 0, TJ, 0)
    assert calls == [*S.nonisomorphic_masks(6), res.best_masks[0]]


def test_exhaustive_search_refuses_at_cap():
    with pytest.raises(NodeCapExceeded) as exc:
        S.exhaustive_search(6, 2, node_cap=4)
    assert str(exc.value) == "exhaustive_search: node cap 4 reached after 4 configuration nodes"
    with pytest.raises(NodeCapExceeded) as exc:
        S.exhaustive_search(6, 1, node_cap=0)
    assert str(exc.value) == "exhaustive_search: node cap 0 reached after 1 configuration nodes"


def test_exhaustive_search_refusals_come_first(monkeypatch):
    def no_tables(n, k):
        raise AssertionError("tables built before the refusal")

    monkeypatch.setattr(S, "_sweep_tables", no_tables)
    with pytest.raises(GraphError) as exc:
        S.exhaustive_search(6, -1)
    assert str(exc.value) == "k must be nonnegative"
    with pytest.raises(GraphError) as exc:
        S.exhaustive_search(5, 2, rule="xx")
    assert str(exc.value) == "unknown rule 'xx', expected one of ('tj', 'ts')"
    with pytest.raises(GraphError) as exc:
        S.exhaustive_search(-1, 1)
    assert str(exc.value) == "vertex count must be nonnegative"


def test_exhaustive_search_refuses_n9_first(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the refusal")

    for name in ("_candidates", "_pair_images", "_sweep_tables"):
        monkeypatch.setattr(S, name, no_work)
    for search in (S.nonisomorphic_masks, lambda n: S.exhaustive_search(n, 2)):
        with pytest.raises(GraphError) as exc:
            search(9)
        assert str(exc.value) == "exhaustive search supports n <= 8, got 9; use --random T instead"
        with pytest.raises(GraphError) as exc:
            search(-1)
        assert str(exc.value) == "vertex count must be nonnegative"


def test_search_memos_are_read_only():
    S.exhaustive_search(6, 2, TS)
    tables = [S._candidates(6), *S._sweep_tables(6, 2), S._pair_images(6)]
    tables += [S._candidates(1), *S._sweep_tables(3, 5)]  # the small and empty ones
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def test_exhaustive_search_same_cold_and_warm():
    memos = (S._candidates, S._sweep_tables, S._pair_images, S._class_count)
    for n in range(7):
        for k in (1, 2, 3):
            for rule in (TJ, TS):
                for memo in memos:
                    memo.cache_clear()
                cold = json.dumps(S.exhaustive_search(n, k, rule).to_json())
                warm = json.dumps(S.exhaustive_search(n, k, rule).to_json())
                assert cold == warm, (n, k, rule)


def test_exhaustive_search_memoises_no_answer(monkeypatch):
    # the memos keep tables only: a repeated search sweeps and re-verifies
    # its winner again
    calls = Counter()
    sweep, class_diameter = S._sweep, S._class_diameter

    def count(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(S, "_sweep", count("sweep", sweep))
    monkeypatch.setattr(S, "_class_diameter", count("verify", class_diameter))
    first = S.exhaustive_search(6, 2).to_json()
    assert S.exhaustive_search(6, 2).to_json() == first
    assert calls == {"sweep": 2, "verify": 2}


def test_random_search_refuses_at_cap():
    with pytest.raises(NodeCapExceeded, match="random_search: node cap 2"):
        S.random_search(6, 2, trials=3, node_cap=2)


def test_random_search_refuses_negative_trials():
    with pytest.raises(GraphError, match="trials must be >= 0, got -5"):
        S.random_search(6, 2, trials=-5)


def test_random_search_deterministic():
    a = S.random_search(6, 2, trials=30, seed=7)
    b = S.random_search(6, 2, trials=30, seed=7)
    assert a.to_json() == b.to_json()
    assert a.best_diameter is not None


# -- command line ------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_construct_and_diameter(tmp_path, capsys):
    prefix = str(tmp_path / "p7")
    code, out, _ = run_cli(capsys, "construct", "comp-path", "--n", "7",
                           "--out", prefix)
    assert code == 0
    info = json.loads(out)
    assert info["claimed_diameter_lb"] == 5
    assert (tmp_path / "p7.edges").exists()
    report = json.loads((tmp_path / "p7.report.json").read_text())
    assert report["k"] == 2 and report["start"] == [0, 1]

    code, out, _ = run_cli(capsys, "diameter", prefix + ".edges", "--k", "2")
    assert code == 0
    assert json.loads(out)["diameter"] == 5

    code, out, _ = run_cli(capsys, "diameter", prefix + ".edges", "--k", "2",
                           "--rule", "ts")
    assert code == 0
    assert json.loads(out)["diameter"] >= 5


def test_cli_construct_refusal(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "construct", "circulant", "--p", "40",
                           "--s", "1")
    assert code == 2
    assert "not prime" in err
    # -3 is 1 mod 4 in Python; it is refused as nonpositive, not as a progression
    code, out, err = run_cli(capsys, "construct", "circulant", "--p", "41", "--s=-3")
    assert (code, out, err) == (2, "", "element -3 is not positive\n")


def test_cli_diameter_no_independent_set(tmp_path, capsys):
    from reconfig.graph import Graph

    path = str(tmp_path / "k5.edges")
    write_graph(Graph.complete(5), path)
    code, out, _ = run_cli(capsys, "diameter", path, "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["diameter"] is None and data["reason"] == "no independent set"


def test_cli_refuses_non_ascii_input(tmp_path, capsys):
    path = tmp_path / "nbsp.edges"
    path.write_bytes(b"3 1\n0 1\xc2\xa0\n")
    code, out, err = run_cli(capsys, "diameter", str(path), "--k", "1")
    assert code == cli.EX_REFUSED == 2
    assert out == ""
    assert err == f"{path}: non-ASCII byte 0xc2 at byte offset 7\n"


def test_cli_refuses_oversized_header(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    path.write_text("100000000 1\n5 99999999\n")
    code, out, err = run_cli(capsys, "diameter", str(path), "--k", "2")
    assert code == cli.EX_REFUSED
    assert out == ""
    assert err == "header n=100000000 exceeds the edge-list limit 131072\n"


def test_cli_diameter_capped(tmp_path, capsys):
    g, _ = complement_path(8)
    path = str(tmp_path / "p8.edges")
    write_graph(g, path)
    code, out, _ = run_cli(capsys, "--cap", "2", "diameter", path, "--k", "2")
    assert code == 3
    assert json.loads(out)["capped"] is True


def test_cli_decide2(tmp_path, capsys):
    g, _ = complement_path(5)
    path = str(tmp_path / "p5.edges")
    write_graph(g, path)
    code, out, _ = run_cli(capsys, "decide2", path, "--from", "0,1",
                           "--to", "3,4")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] and data["reachable"]
    # non-independent endpoint refused
    code, _, err = run_cli(capsys, "decide2", path, "--from", "0,2",
                           "--to", "3,4")
    assert code == 2
    code, out, err = run_cli(capsys, "decide2", path, "--from", "0,x", "--to", "3,4")
    assert (code, out) == (2, "")
    assert err == "expected comma-separated vertex ids, got '0,x'\n"


def test_cli_search(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "5", "--k", "2",
                           "--exhaustive")
    assert code == 0
    data = json.loads(out)
    assert data["best_diameter"] == 3 and data["exhaustive"]

    code, _, err = run_cli(capsys, "search", "--n", "9", "--k", "2",
                           "--exhaustive")
    assert code == 2
    assert "--random" in err

    code, out, err = run_cli(capsys, "--seed", "1", "search", "--n", "6",
                             "--k", "2", "--random", "-5")
    assert code == 2 and out == ""
    assert "trials must be >= 0, got -5" in err

    code, out, _ = run_cli(capsys, "--seed", "3", "search", "--n", "5",
                           "--k", "2", "--random", "10")
    assert code == 0
    assert json.loads(out)["exhaustive"] is False

    code, out, _ = run_cli(capsys, "search", "--n", "4", "--k", "5",
                           "--exhaustive")
    assert code == 0
    assert json.loads(out)["best_diameter"] is None


def test_cli_search_exhaustive_capped(capsys):
    # the n = 6 optimum lies in a 5-node component, beyond a cap of 4: the
    # search refuses instead of reporting a lower bound as exhaustive
    code, out, err = run_cli(capsys, "--cap", "4", "search", "--n", "6",
                             "--k", "2", "--exhaustive")
    message = "exhaustive_search: node cap 4 reached after 4 configuration nodes"
    assert code == 3
    assert out == json.dumps({"capped": True, "error": message}) + "\n"
    assert err == f"capped: {message}\n"

    code, out, err = run_cli(capsys, "search", "--n", "6", "--k", "-1", "--exhaustive")
    assert (code, out, err) == (2, "", "k must be nonnegative\n")


def test_cli_verify_saturate_capped(tmp_path, capsys):
    # the empty 5-vertex graph has C(5, 3) = 10 three-token configurations,
    # beyond a cap of 6: no capped diameter is compared as exact
    path = str(tmp_path / "e5.edges")
    write_graph(Graph.empty(5), path)
    code, out, err = run_cli(capsys, "--cap", "6", "verify", "saturate", path)
    assert code == 3
    assert json.loads(out)["capped"] is True
    assert "verify saturate: node cap 6" in err


def test_cli_search_ignores_cache_dir(tmp_path, capsys, monkeypatch):
    # RECONFIG_CACHE_DIR once memoized exhaustive results; no environment
    # variable may let a later run skip the node cap or write files
    monkeypatch.setenv("RECONFIG_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "search", "--n", "6", "--k", "2",
                         "--exhaustive")
    assert code == 0
    code, out, err = run_cli(capsys, "--cap", "7", "search", "--n", "6",
                             "--k", "2", "--exhaustive")
    assert code == 3
    assert json.loads(out)["capped"] is True
    assert "exhaustive_search: node cap 7" in err
    assert not list(tmp_path.iterdir())


def test_cli_file_errors_are_refusals(tmp_path, capsys):
    missing = str(tmp_path / "missing.edges")
    code, out, err = run_cli(capsys, "diameter", missing, "--k", "2")
    assert code == 2 and out == ""
    assert "No such file or directory" in err and missing in err

    code, out, err = run_cli(capsys, "diameter", str(tmp_path), "--k", "2")
    assert code == 2 and out == ""
    assert str(tmp_path) in err

    bad_out = str(tmp_path / "no-such-dir" / "x")
    code, out, err = run_cli(capsys, "construct", "comp-path", "--n", "5",
                             "--out", bad_out)
    assert code == 2 and out == ""
    assert "No such file or directory" in err and bad_out in err


def test_cli_verify(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "circulant-structure",
                           "--p", "17", "--s", "1")
    assert code == 0 and json.loads(out)["pass"]

    code, out, _ = run_cli(capsys, "verify", "63-free", "--p", "17", "--s", "1")
    assert code == 0 and json.loads(out)["pass"]

    g, _ = complement_path(6)
    path = str(tmp_path / "p6.edges")
    write_graph(g, path)
    code, out, _ = run_cli(capsys, "verify", "config-path", path, "--k", "2")
    assert code == 0 and json.loads(out)["pass"]

    code, out, _ = run_cli(capsys, "verify", "upper-bound-map", path,
                           "--k", "2", "--from", "0,1", "--to", "4,5")
    assert code == 0 and json.loads(out)["pass"]

    code, out, _ = run_cli(capsys, "verify", "claim-inter", "--budget", "47")
    assert code == 0 and json.loads(out)["pass"]

    out_path = str(tmp_path / "sat.edges")
    from reconfig.graph import Graph

    empty = str(tmp_path / "e4.edges")
    write_graph(Graph.empty(4), empty)
    code, out, _ = run_cli(capsys, "verify", "saturate", empty,
                           "--out", out_path)
    assert code == 0 and json.loads(out)["pass"]
    assert (tmp_path / "sat.edges").exists()


def test_cli_verify_refusals(capsys, tmp_path):
    g, _ = complement_path(6)
    path = str(tmp_path / "p6.edges")
    write_graph(g, path)
    # alpha = 2, but the non-edges {0, 1} and {2, 3} share no vertex
    split = str(tmp_path / "split.edges")
    write_graph(Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), split)
    code, out, err = run_cli(capsys, "verify", "upper-bound-map", split,
                             "--k", "2", "--from", "0,1", "--to", "2,3")
    assert (code, out, err) == (2, "", "endpoints are not connected\n")

    # 5 two-token sets on the complement of P_6, 14 triples at p = 17
    for argv in (("verify", "config-path", path, "--k", "2"),
                 ("verify", "circulant-structure", "--p", "17", "--s", "1")):
        code, out, err = run_cli(capsys, "--cap", "4", *argv)
        assert code == 3 and json.loads(out)["capped"] is True
        assert err == "capped: node cap reached while enumerating components\n"


def test_cli_apset(capsys):
    code, out, _ = run_cli(capsys, "apset", "odd", "--n", "9", "--mod", "8")
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == [1, 9] and data["size"] == 2

    code, out, _ = run_cli(capsys, "apset", "exact", "--n", "9")
    assert json.loads(out)["size"] == 5

    code, out, _ = run_cli(capsys, "apset", "behrend", "--n", "100")
    data = json.loads(out)
    assert data["method"] in ("behrend", "greedy")


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "not-a-check"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_cli_parser_reuse_keeps_no_state(tmp_path, capsys):
    # the second call of each pair, made through the parser the first call
    # built, gives what it gives through a fresh parser
    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    search = ["search", "--n", "6", "--k", "2"]
    prefix = str(tmp_path / "P")
    pairs = [
        (["--cap", "4", *search, "--exhaustive"], [*search, "--exhaustive"]),
        ([*search, "--random", "5"], [*search, "--exhaustive"]),
        ([*search, "--exhaustive", "--random", "5"], [*search, "--exhaustive"]),
        (["construct", "comp-path", "--n", "5", "--out", prefix],
         ["diameter", prefix + ".edges", "--k", "2"]),
    ]
    results = []
    for first, second in pairs:
        cli._build_parser.cache_clear()
        reused = [run(first), run(second)]
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        fresh = []
        for argv in (first, second):
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh, (first, second)
        results.append(reused)
    # a capped search, a random one, a usage error and a construction, each
    # followed by a call that succeeds; after --cap 4 the default cap holds
    assert [(a[0], b[0]) for a, b in results] == [(3, 0), (0, 0), (64, 0), (0, 0)]
    assert json.loads(results[0][1][1])["best_diameter"] == 4


def _declared_console_script(name):
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the line in the table
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        found = re.search(rf'^{name}\s*=\s*"([^"]+)"', table, re.M)
        return found.group(1) if found else None
    return tomllib.loads(text)["project"]["scripts"].get(name)


def test_console_script_installed():
    # The declared `reconfig` command runs as its own process and speaks the
    # CLI contract. Without an install there is no executable on PATH, so run
    # what the generated wrapper runs, in a fresh interpreter importing the
    # same checkout; where the executable is installed, it must agree.
    entry = _declared_console_script("reconfig")
    assert entry == "reconfig.cli:main"
    module, func = entry.split(":")
    src = str(Path(reconfig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = ["apset", "exact", "--n", "5"]
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 4

    installed = shutil.which("reconfig")
    if installed:
        inst = subprocess.run(
            [installed, *argv], capture_output=True, text=True,
        )
        assert inst.returncode == proc.returncode
        assert json.loads(inst.stdout) == json.loads(proc.stdout)


def test_cli_construct_toll_and_triple(tmp_path, capsys):
    base = str(tmp_path / "p4")
    run_cli(capsys, "construct", "comp-path", "--n", "4", "--out", base)

    code, out, _ = run_cli(capsys, "construct", "toll", base + ".edges",
                           "--k", "2", "--from", "0,1", "--to", "2,3",
                           "--n", "1", "--out", str(tmp_path / "toll"))
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 12 and info["claimed_diameter_lb"] == 10

    code, out, _ = run_cli(capsys, "construct", "triple", base + ".edges",
                           "--k", "2", "--from", "0,1", "--to", "2,3",
                           "--p", "73", "--out", str(tmp_path / "ring"))
    assert code == 0
    assert json.loads(out)["k"] == 5

    code, out, _ = run_cli(capsys, "construct", "iterate-toll", "--steps", "1",
                           "--per-step-n", "2",
                           "--out", str(tmp_path / "it"))
    assert code == 0
    assert json.loads(out)["claimed_diameter_lb"] == 20

    code, out, _ = run_cli(capsys, "construct", "k3", "--budget", "17",
                           "--out", str(tmp_path / "k3"))
    assert code == 0
    assert json.loads(out)["claimed_diameter_lb"] == 13

    code, out, _ = run_cli(capsys, "construct", "general", "--k", "4",
                           "--budget", "30", "--out", str(tmp_path / "g4"))
    assert code == 0
    assert json.loads(out)["k"] == 4


def test_cli_construct_general_largest_ring(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "general", "--k", "5",
                           "--budget", "200", "--out", str(tmp_path / "g5"))
    assert code == 0
    info = json.loads(out)
    assert info["k"] == 5 and info["n"] == 134


def test_cli_decide2_single_algos(tmp_path, capsys):
    g, _ = complement_path(5)
    path = str(tmp_path / "p5.edges")
    write_graph(g, path)
    for algo in ("fast", "naive"):
        code, out, _ = run_cli(capsys, "decide2", path, "--from", "0,1",
                               "--to", "3,4", "--algo", algo)
        assert code == 0 and json.loads(out)["reachable"]


def test_cli_random_search_threads(capsys):
    code, out, _ = run_cli(capsys, "--threads", "2", "--seed", "5", "search",
                           "--n", "6", "--k", "2", "--random", "8")
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 8 and not data["exhaustive"]


def test_cli_random_search_independent_of_threads(capsys):
    for seed in range(5):
        outs = []
        for threads in ("1", "3"):
            code, out, _ = run_cli(capsys, "--seed", str(seed), "--threads",
                                   threads, "search", "--n", "7", "--k", "2",
                                   "--random", "7")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def test_cli_apset_greedy(capsys):
    code, out, _ = run_cli(capsys, "apset", "greedy", "--n", "14")
    assert code == 0
    assert json.loads(out)["elements"] == [1, 2, 4, 5, 10, 11, 13, 14]


def test_cli_decide2_agreement_harness(tmp_path, capsys):
    # scripted sweep: both algorithms must agree (exit 0) on every instance
    import random

    from reconfig.graph import Graph

    rng = random.Random(200)
    path = str(tmp_path / "g.edges")
    done = 0
    while done < 200:
        n = rng.randint(3, 16)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice((0.25, 0.5, 0.75))
        ]
        g = Graph.from_edges(n, edges)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.adj[u] >> v & 1
        ]
        if not pairs:
            continue
        a, b = rng.choice(pairs), rng.choice(pairs)
        write_graph(g, path)
        code, out, _ = run_cli(
            capsys, "decide2", path,
            "--from", f"{a[0]},{a[1]}", "--to", f"{b[0]},{b[1]}",
        )
        assert code == 0 and json.loads(out)["agree"]
        done += 1
