import hashlib
import random
import tracemalloc
import warnings
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_canonical_form,
    brute_check_rows,
    brute_independence_number,
    brute_is_clique,
    brute_parse_edge_list,
    brute_write_edge_list,
    random_graph,
)
from reconfig import graph as graph_module
from reconfig.constructions import complement_path
from reconfig.graph import (
    Graph,
    GraphError,
    complement,
    graph_to_mask,
    independence_number,
    is_independent,
    orbit_minima,
    pair_images,
    parse_edge_list,
    parse_graph6,
    read_graph,
    write_edge_list,
    write_graph,
    write_graph6,
)


def test_complement_of_empty_is_complete():
    g = complement(Graph.empty(3))
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_complement_p4_is_self_complementary():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    comp = complement(p4)
    # the path 2-0-3-1
    assert sorted(comp.edges()) == [(0, 2), (0, 3), (1, 3)]


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_complement_involution(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 10, rng.random())
    assert complement(complement(g)) == g


def test_is_independent_basics():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_independent(triangle, [0, 1])
    assert is_independent(Graph.empty(5), [0, 2, 4])
    comp_p5 = complement(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    assert is_independent(comp_p5, [0, 1])


def test_is_independent_out_of_range():
    with pytest.raises(GraphError):
        is_independent(Graph.empty(3), [0, 5])


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_independent_iff_clique_in_complement(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 8, rng.random())
    vs = rng.sample(range(8), rng.randint(1, 4))
    assert is_independent(g, vs) == brute_is_clique(complement(g), vs)


def test_independence_number_known():
    assert independence_number(Graph.complete(5)) == 1
    assert independence_number(Graph.empty(6)) == 6
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert independence_number(complement(p4)) == 2
    assert independence_number(Graph.empty(0)) == 0


def test_independence_number_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        assert independence_number(g) == brute_independence_number(g)


def test_independence_number_limit():
    with pytest.raises(GraphError):
        independence_number(Graph.empty(70))
    assert independence_number(Graph.empty(70), limit=70) == 70


def test_graph_invariant_checks():
    with pytest.raises(GraphError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError, match="vertex count must be nonnegative"):
        Graph(-1, [])
    with pytest.raises(GraphError, match="expected 3 adjacency rows, got 2"):
        Graph(3, [0, 0])
    with pytest.raises(GraphError, match=r"row 0 has bits outside 0\.\.1"):
        Graph(2, [0b100, 0])
    with pytest.raises(TypeError):
        Graph(2, [0, 0], True)  # the trust flag is keyword-only
    # equality is by vertex count and rows, and only between graphs
    assert Graph(2, [0b10, 0b01]) == Graph.from_edges(2, [(0, 1)])
    assert Graph.empty(2) != (2, (0, 0))


def _refusal(check, n, rows):
    """The GraphError text of one row check, or None if it passes."""
    try:
        check(n, rows)
    except GraphError as exc:
        return str(exc)
    return None


@st.composite
def faulty_rows(draw):
    """Rows of a random graph with faults injected, several at once: bits
    outside 0..n-1, negative rows, self-loops and one-sided pairs. n runs
    over 0..70 and, now and then, sizes around the edge of the first row
    block (_BLOCK_BITS // n rows, a multiple of 8)."""
    n = draw(st.integers(0, 78))
    if n > 70:
        n = (248, 255, 256, 257, 263, 264, 265, 272)[n - 71]
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = list(random_graph(rng, n, draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))).adj)
    vertex = st.integers(0, max(n - 1, 0))
    for kind, u, v in draw(st.lists(st.tuples(st.sampled_from([0, 1, 2, 3, 3, 3]), vertex, vertex), max_size=4 if n else 0)):
        if kind == 0:
            rows[u] |= 1 << (n + v % 3)
        elif kind == 1:
            rows[u] = -1 - rows[u]
        elif kind == 2:
            rows[u] |= 1 << u
        elif u != v:
            rows[u] ^= 1 << v
    return n, rows


@given(faulty_rows(), st.sampled_from([1, 1000, graph_module._BLOCK_BITS]))
@example((3, [0b110, 0b101, 0b1011]), 1)  # faults in the last row: range,
@example((3, [0b110, 0b101, -4]), 1)  # sign,
@example((3, [0b110, 0b101, 0b111]), 1)  # self-loop
@example((3, [0b110, 0b101, 0b001]), 1)  # and a one-sided pair
@settings(max_examples=300, deadline=None)
def test_row_check_matches_per_edge_oracle(case, block_bits):
    # blocks of 8 rows and up, and joins of one row and up
    n, rows = case
    want = _refusal(brute_check_rows, n, rows)
    with mock.patch.object(graph_module, "_BLOCK_BITS", block_bits):
        assert _refusal(Graph, n, rows) == want
    if want is None:
        assert Graph(n, rows).adj == tuple(rows)


def test_row_check_above_4096_and_at_the_budget():
    # sparse rows at n = 5000, where the per-edge loop is cheap: a random
    # graph with two one-sided pairs, then also with a self-loop in a later
    # row, which the first pass over the rows finds first
    n = 5000
    rng = random.Random(5)
    rows = list(Graph.from_edges(n, {tuple(sorted(rng.sample(range(n), 2))) for _ in range(20000)}).adj)
    rows[4321] ^= 1 << 17
    rows[999] ^= 1 << 4998
    looped = rows[:3000] + [rows[3000] | 1 << 3000] + rows[3001:]
    for faulty, want in ((rows, "asymmetric adjacency at (999,4998)"), (looped, "self-loop at vertex 3000")):
        assert _refusal(brute_check_rows, n, faulty) == want
        assert _refusal(Graph, n, faulty) == want
    # dense rows with one edge dropped on one side: at the budget, n = 8192,
    # they are refused; one vertex more, they are taken unchecked
    for n, checked in ((8192, True), (8193, False)):
        assert (n * ((n + 7) // 8) <= graph_module._CHECK_BYTES) == checked
        rows = list(complement_path(n)[0].adj)
        rows[6000] ^= 1 << 100
        if checked:
            assert _refusal(Graph, n, rows) == "asymmetric adjacency at (100,6000)"
        else:
            assert Graph(n, rows).adj == tuple(rows)


def test_duplicate_edge_warns_and_dedups():
    with pytest.warns(UserWarning) as record:
        g = Graph.from_edges(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1
    assert [str(w.message) for w in record] == ["duplicate edge (0, 1) ignored"]
    assert record[0].filename == __file__  # stacklevel=2 names the caller
    with pytest.warns(UserWarning) as record:
        g = Graph.from_edges(4, [(2, 1), (1, 2), (0, 3), (2, 1)])
    assert sorted(g.edges()) == [(0, 3), (1, 2)]
    assert [str(w.message) for w in record] == ["duplicate edge (1, 2) ignored"] * 2


# -- serialization ----------------------------------------------------------


def test_parse_edge_list_path():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g.n == 3 and sorted(g.edges()) == [(0, 1), (1, 2)]


def test_edge_list_roundtrip_random():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 15), rng.random())
        text = write_edge_list(g)
        assert write_edge_list(parse_edge_list(text)) == text
        assert parse_edge_list(text) == g


@given(st.integers(0, 70) | st.sampled_from([358, 359, 360, 361]), st.integers(0, 2**32),
       st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.sampled_from([1, 1000, graph_module._BLOCK_BITS]))
@settings(max_examples=200, deadline=None)
def test_write_edge_list_matches_per_edge_writer(n, seed, p, block_bits):
    # blocks of one byte and up; on 359 vertices the complete graph's rows
    # take 8,190 bytes above the diagonal, one block of _BLOCK_BITS, and on
    # 360 vertices 8,235
    g = random_graph(random.Random(seed), n, p)
    with mock.patch.object(graph_module, "_BLOCK_BITS", block_bits):
        assert write_edge_list(g) == brute_write_edge_list(g)


def test_write_edge_list_digit_counts_and_sparse_rows():
    # ids of one to five digits, on both sides of each change in width; the
    # path's rows take one byte each above the diagonal, the random graph's
    # up to 1,250
    for n in (0, 1, 2, 10, 11, 100, 101):
        assert write_edge_list(Graph.complete(n)) == brute_write_edge_list(Graph.complete(n))
    rng = random.Random(2)
    for g in (
        complement_path(1001)[0],
        Graph.from_edges(10001, [(v, v + 1) for v in range(10000)]),
        Graph.from_edges(10001, {tuple(sorted(rng.sample(range(10001), 2))) for _ in range(10000)}),
    ):
        assert write_edge_list(g) == brute_write_edge_list(g)


def test_edge_list_is_canonical():
    # unsorted, but valid, input normalizes on write
    g = parse_edge_list("4 3\n2 3\n0 1\n1 3\n")
    assert write_edge_list(g) == "4 3\n0 1\n1 3\n2 3\n"


@pytest.mark.parametrize(
    "text",
    ["", "3\n", "x y\n", "3 1\n0 1\n1 2\n", "3 1\n0 5\n", "3 1\n1 1\n", "2 1\n0 1 2\n"],
)
def test_parse_edge_list_errors(text):
    with pytest.raises(GraphError):
        parse_edge_list(text)


def _outcome(parse, text):
    """(graph or GraphError text, warning texts) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except GraphError as exc:
            result = f"GraphError: {exc}"
    return result, [str(w.message) for w in caught]


def _token(draw, value, wild):
    forms = ["plain"] * 8 + ["zeros", "sign", "huge"] + ["junk", "drop", "extra"] * wild
    form = draw(st.sampled_from(forms))
    if form == "zeros":  # past 18 digits the reader takes another path
        return ("-" if value < 0 else "") + "0" * draw(st.integers(1, 24)) + str(abs(value))
    if form == "huge":  # 18 and 19 digits, and values at and beyond int64
        big = ["9" * 18, "-" + "9" * 18, "9" * 19, str(2**63 - 1), str(2**63), "-" + str(2**63), "9" * 30]
        return draw(st.sampled_from(big))
    if form == "sign":
        return ("+" if value >= 0 else "-") + ("0" if draw(st.booleans()) else "") + str(abs(value))
    if form == "junk":
        return draw(st.sampled_from(["x", "1.0", "--1", "+", "-", "+-2", "0x1", "1e3", "2a"]))
    if form == "drop":
        return ""
    if form == "extra":
        return f"{value} {draw(st.integers(-1, 9))}"
    return str(value)


@st.composite
def edge_list_texts(draw):
    """Edge lists with mutations: bad tokens and token counts, blank lines,
    every ASCII separator, signs, leading zeros, range faults, loops,
    repeats in both orientations and a wrong header count."""
    n = draw(st.integers(0, 7))
    vertex = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):  # repeats, either way round
        a, b = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([(a, b), (b, a)])))
    m = len(pairs) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    wild = draw(st.booleans())  # malformed tokens and token counts
    rows = [[str(n), str(m)]] + [[_token(draw, a, wild), _token(draw, b, wild)] for a, b in pairs]
    gap = st.sampled_from([" "] * 6 + ["\t", "  ", " \t ", "\x1f"])
    pad = st.sampled_from([""] * 6 + [" ", "\t", "\x1f "])
    end = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e"])
    text = []
    for row in rows:
        while draw(st.integers(0, 9)) == 9:  # blank and whitespace-only lines
            text.append(draw(pad) + draw(end))
        text.append(draw(pad) + draw(gap).join(row) + draw(pad) + draw(end))
    return "".join(text)[: len("".join(text)) - draw(st.sampled_from([0] * 5 + [1]))]


@given(edge_list_texts())
@settings(max_examples=600, deadline=None)
def test_parse_edge_list_matches_per_line_oracle(text):
    want = _outcome(brute_parse_edge_list, text)
    assert _outcome(parse_edge_list, text) == want
    # text slices, row blocks and pair chunks of a few bytes, rows and pairs
    with mock.patch.multiple(graph_module, _SLICE_BYTES=6, _ROW_BLOCK_BYTES=2, _PAIR_CHUNK=3):
        assert _outcome(parse_edge_list, text) == want


def test_parse_edge_list_tokens_of_every_length():
    # values are summed by digit columns up to 18 digits, longer tokens by int()
    for pad in range(30):
        z = "0" * pad
        for text in (f"9 2\n{z}3 +{z}8\n-{z}0 {z}2\n", f"9 1\n0 {'9' * (pad + 1)}\n"):
            assert _outcome(parse_edge_list, text) == _outcome(brute_parse_edge_list, text)


def _digest(g):
    h = hashlib.sha256(str(g.n).encode())
    for row in g.adj:
        h.update(row.to_bytes((g.n + 7) // 8, "little"))
    return h.hexdigest()


def test_parse_edge_list_large_inputs_match_oracle():
    # the complement of P_600 (179,101 edges), lines in reverse order
    g, _ = complement_path(600)
    lines = write_edge_list(g).splitlines(keepends=True)
    text = lines[0] + "".join(reversed(lines[1:]))
    assert parse_edge_list(text) == brute_parse_edge_list(text) == g
    # a path on 65,536 vertices, its rows compared by digest one at a time
    n = 65536
    text = f"{n} {n - 1}\n" + "".join(f"{v + 1} {v}\n" for v in range(n - 1))
    want = _digest(brute_parse_edge_list(text))
    got = parse_edge_list(text)
    assert _digest(got) == want
    assert got.adj[0] == 2 and got.adj[n - 1] == 1 << (n - 2)


def test_parse_edge_list_temporaries_bounded():
    # slices, row blocks and pair chunks keep what the reader allocates
    # beyond the graph it returns small, on a dense file and on a long one
    # (about 6 MiB each)
    g, _ = complement_path(600)
    n = 65536
    path = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    for text in (write_edge_list(g), path):
        tracemalloc.start()
        try:
            got = parse_edge_list(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.n in (600, n)
        assert peak - retained < 16 << 20


def test_row_check_and_writer_temporaries_bounded(tmp_path):
    # the check holds the packed rows, at most _CHECK_BYTES, and a block of
    # them unpacked; the file writer a block of rows and its lines, whatever
    # the size of the text (here about 9 MiB)
    budget = graph_module._CHECK_BYTES
    rows = list(complement_path(8192)[0].adj)
    g, _ = complement_path(1500)
    path = tmp_path / "g.edges"
    for call, bound in (
        (lambda: Graph(8192, rows), budget + (2 << 20)),
        (lambda: write_graph(g, str(path)), 4 << 20),
    ):
        tracemalloc.start()
        try:
            call()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained < bound
    assert path.read_text() == brute_write_edge_list(g)


@pytest.mark.parametrize(
    "text, message",
    [
        # int() accepts underscores between digits; the reader does not
        ("11 1\n0 1_0\n", "malformed edge line '0 1_0'"),
        ("1_0 0\n", "malformed header '1_0 0': expected integers"),
        # nor digits or spaces outside ASCII
        ("3 1\n0 \u0661\n", "non-ASCII character '\u0661' in line 2 '0 \u0661'"),
        ("3 1\n0 1\xa0\n", "non-ASCII character '\\xa0' in line 2 '0 1\\xa0'"),
    ],
)
def test_parse_edge_list_narrower_than_int(text, message):
    brute_parse_edge_list(text)  # the per-line reader took these
    with pytest.raises(GraphError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_edge_list_header_bound():
    # the rows take a Python int and a few array entries for every vertex
    # whatever the edge count, so a header past the bound is refused before
    # any of that
    n = graph_module.MAX_EDGE_LIST_N
    g = parse_edge_list(f"{n} 1\n5 {n - 1}\n")
    assert g.n == n and g.adj[5] == 1 << (n - 1)
    for big in (n + 1, 100_000_000):
        with pytest.raises(GraphError) as exc:
            parse_edge_list(f"{big} 1\n5 {big - 1}\n")
        assert str(exc.value) == f"header n={big} exceeds the edge-list limit {n}"


def test_read_graph_refuses_non_ascii_bytes(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"3 1\n0 1\xc2\xa0\n")
    with pytest.raises(GraphError) as exc:
        read_graph(str(path))
    assert str(exc.value) == f"{path}: non-ASCII byte 0xc2 at byte offset 7"
    path.write_bytes(b"\xffD?{")
    with pytest.raises(GraphError, match="non-ASCII byte 0xff at byte offset 0"):
        read_graph(str(path), fmt="graph6")


def test_read_graph_crlf_file_matches_text(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"4 3\r\n2 3\r\n\r\n0 1\r1 3\r\n")
    assert read_graph(str(path)) == parse_edge_list("4 3\n2 3\n0 1\n1 3\n")
    path.write_bytes(b"4 3\r\n2 3 1\r\n0 1\r\n1 3\r\n")
    with pytest.raises(GraphError) as exc:
        read_graph(str(path))
    assert str(exc.value) == "malformed edge line '2 3 1'"


def test_graph6_star():
    g = parse_graph6("D?{")
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    # roundtrip through edge-list
    assert parse_edge_list(write_edge_list(g)) == g


def test_graph6_against_networkx_decoder():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, 5, rng.random())
        s = write_graph6(g)
        theirs = nx.from_graph6_bytes(s.encode())
        assert sorted(theirs.edges()) == sorted(g.edges())
        assert parse_graph6(s) == g


def test_graph6_size_forms_against_networkx():
    # n = 63..70 take the 4-byte size field, which write_graph6 never emits
    rng = random.Random(12)
    for n in (63, 64, 70):
        theirs = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(1000))
        s = nx.to_graph6_bytes(theirs, header=False).decode().strip()
        assert parse_graph6(s) == Graph.from_edges(n, theirs.edges())


def test_graph6_n500_against_networkx():
    theirs = nx.gnp_random_graph(500, 0.3, seed=500)
    s = nx.to_graph6_bytes(theirs, header=False).decode().strip()
    assert parse_graph6(s) == Graph.from_edges(500, theirs.edges())


@pytest.mark.parametrize(
    "text, match",
    [
        ("B_ABC", "has 4 characters, expected exactly 1 for n=3"),
        ("~??~" + "?" * 700, "has 700 characters, expected exactly 326 for n=63"),
        ("D", "has 0 characters, expected exactly 2 for n=5"),
        ("~~???~??", "8-byte size field"),  # n = 258048, no bit vector
    ],
)
def test_graph6_malformed_refused(text, match):
    # networkx refuses each of these too
    with pytest.raises(nx.NetworkXError):
        nx.from_graph6_bytes(text.encode())
    with pytest.raises(GraphError, match=match):
        parse_graph6(text)


def test_read_write_files(tmp_path):
    g = Graph.from_edges(3, [(0, 2)])
    path = tmp_path / "g.edges"
    write_graph(g, str(path))
    assert path.read_text() == "3 1\n0 2\n"
    assert read_graph(str(path)) == g
    path6 = tmp_path / "g.g6"
    path6.write_text(write_graph6(g) + "\n")
    assert read_graph(str(path6), fmt="graph6") == g


def _orbit_minimum(g: Graph) -> int:
    return int(orbit_minima(pair_images(g.n), graph_to_mask(g))[0])


def test_canonical_form_permutation_invariant():
    # the canonical form of a graph is the minimum of its edge mask's orbit
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert _orbit_minimum(g) == _orbit_minimum(h) == brute_canonical_form(h)


def test_canonical_form_matches_brute_oracle():
    rng = random.Random(11)
    for n in (0, 1, 2, 3, 4, 5, 6, 7, 7, 8):
        g = random_graph(rng, n, rng.random())
        assert _orbit_minimum(g) == brute_canonical_form(g)
    assert _orbit_minimum(Graph.empty(0)) == _orbit_minimum(Graph.empty(1)) == 0


def test_with_edge_and_immutability():
    g = Graph.empty(3).with_edge(0, 2)
    assert g.has_edge(0, 2) and not g.has_edge(0, 1)
    with pytest.raises(GraphError):
        g.with_edge(1, 1)
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph6_header_prefix_and_limits():
    g = parse_graph6(">>graph6<<D?{")
    assert g.n == 5
    with pytest.raises(GraphError):
        write_graph6(Graph.empty(63))
    with pytest.raises(GraphError):
        parse_graph6("")
    with pytest.raises(GraphError):
        parse_graph6("D")  # truncated bit vector
    with pytest.raises(GraphError, match="invalid graph6 character"):
        parse_graph6("D?\x7f")
    with pytest.raises(GraphError, match="truncated graph6 size field"):
        parse_graph6("~??")


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "g.edges"
    write_graph(Graph.empty(2), str(path))
    with pytest.raises(GraphError, match="unknown format 'dot'"):
        read_graph(str(path), fmt="dot")
    # the format is refused before the file is opened or scanned
    with pytest.raises(GraphError, match="unknown format 'dot'"):
        read_graph(str(tmp_path / "missing.edges"), fmt="dot")
    path.write_bytes(b"2 0\n\xff\n")
    with pytest.raises(GraphError, match="unknown format 'dot'"):
        read_graph(str(path), fmt="dot")
