import pytest

from oracles import brute_max_3ap_free
from reconfig.apsets import (
    MAX_EXACT_N,
    APSet,
    APSetError,
    behrend_info,
    behrend_set,
    greedy_3ap_free,
    is_3ap_free,
    max_3ap_free,
    odd_3ap_free,
)


def test_is_3ap_free_basics():
    assert not is_3ap_free({1, 2, 3})
    assert is_3ap_free(set())
    assert is_3ap_free({7})
    # checked by scanning all pairs' extensions against membership
    assert is_3ap_free({1, 2, 4, 8, 9})
    assert not is_3ap_free({1, 5, 9})


def test_apset_invariants():
    with pytest.raises(APSetError):
        APSet((1, 2, 3))
    with pytest.raises(APSetError):
        APSet((2, 1))
    with pytest.raises(APSetError):
        APSet((0, 1))


def test_max_3ap_free_small():
    # n=3: all 8 subsets by hand: only {1,2,3} itself fails, so best is 2
    assert len(max_3ap_free(3)) == 2
    size9, wit9 = brute_max_3ap_free(9)
    assert len(max_3ap_free(9)) == size9
    assert max_3ap_free(9).elements == wit9  # lexicographically smallest
    assert is_3ap_free(max_3ap_free(9).elements)


def test_max_3ap_free_matches_bruteforce():
    for n in range(0, 15):
        size, wit = brute_max_3ap_free(n)
        got = max_3ap_free(n)
        assert len(got) == size
        assert got.elements == wit


def test_max_3ap_free_monotone():
    sizes = [len(max_3ap_free(n)) for n in range(0, 21)]
    for a, b in zip(sizes, sizes[1:]):
        assert a <= b <= a + 1


def test_max_3ap_free_limit():
    with pytest.raises(APSetError, match="n=41 exceeds limit 40"):
        max_3ap_free(41)


def test_greedy_prefix():
    # classical greedy: 1 + integers with only digits 0,1 in base 3
    assert greedy_3ap_free(14).elements == (1, 2, 4, 5, 10, 11, 13, 14)
    assert greedy_3ap_free(0).elements == ()
    assert is_3ap_free(greedy_3ap_free(200).elements)


def test_behrend_outputs():
    for n in (1, 17, 100, 1000):
        s = behrend_set(n)
        assert is_3ap_free(s.elements)
        assert all(1 <= x <= n for x in s.elements)
    # optimum dominates wherever both are computable
    for n in (10, 25, 40):
        assert len(behrend_set(n)) <= len(max_3ap_free(n))
    # deterministic floor
    assert len(behrend_set(1000)) >= len(greedy_3ap_free(1000))


def test_behrend_info_params():
    s, info = behrend_info(1000)
    assert info["method"] in ("behrend", "greedy")
    assert len(s) == 105  # frozen: greedy floor wins at this scale


def test_odd_3ap_free():
    assert odd_3ap_free(8, 4).elements == (1, 5)
    assert odd_3ap_free(9, 8).elements == (1, 9)
    for n, mod in ((30, 4), (50, 8), (3, 4)):
        s = odd_3ap_free(n, mod)
        assert all(x % mod == 1 for x in s.elements)
        assert is_3ap_free(s.elements)
        assert all(1 <= x <= n for x in s.elements)
    assert odd_3ap_free(0, 4).elements == ()
    # above MAX_EXACT_N base values the base is the greedy set
    for mod in (4, 8):
        s = odd_3ap_free(1000, mod)
        m = 999 // mod
        assert m + 1 > MAX_EXACT_N
        assert is_3ap_free(s.elements)
        assert all(x % mod == 1 for x in s.elements)
        assert s.elements == tuple(mod * (x - 1) + 1 for x in greedy_3ap_free(m + 1).elements)
    with pytest.raises(APSetError):
        odd_3ap_free(10, 5)


def test_odd_3ap_free_is_maximal_small():
    # exhaustive oracle over the residue-constrained candidates
    def brute(n, mod):
        cands = [x for x in range(1, n + 1) if x % mod == 1]
        best = 0
        for mask in range(1 << len(cands)):
            chosen = [c for i, c in enumerate(cands) if mask >> i & 1]
            if is_3ap_free(chosen):
                best = max(best, len(chosen))
        return best

    for n in (8, 9, 20, 33):
        for mod in (4, 8):
            assert len(odd_3ap_free(n, mod)) == brute(n, mod)
