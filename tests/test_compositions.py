"""Composition poset, chains, and the closed-form bound F(d,k).

The brute-force oracle here counts chains a third way: run over all subsets
of the poset and keep those that are totally ordered.  The DP and the DFS
enumeration inside the package must both match it.
"""

from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from orbit_betti.compositions import (
    ENUMERATION_LIMIT,
    POSET_LIMIT,
    Chain,
    Composition,
    CompositionError,
    chain_count,
    chain_report,
    chains,
    comp_kd,
    comp_max,
    paper_chain_bound,
    paper_maximal_chain_formula,
    precedes,
)


def brute_force_chain_count(k: int, d: int) -> int:
    """Oracle: subsets of comp_kd(k,d) that are nonempty and totally ordered."""
    elements = comp_kd(k, d)
    count = 0
    for size in range(1, len(elements) + 1):
        for subset in combinations(elements, size):
            if all(
                precedes(a, b) or precedes(b, a) for a, b in combinations(subset, 2)
            ):
                count += 1
    return count


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def test_parts_breakpoints_round_trip():
    assert Composition.from_parts((1, 2)).breakpoints == frozenset({1})
    assert Composition.from_parts((3,)).breakpoints == frozenset()
    assert Composition.from_parts((1, 3, 1)).breakpoints == frozenset({1, 4})
    assert Composition(5, frozenset({1, 4})).parts == (1, 3, 1)
    assert Composition(3, frozenset()).parts == (3,)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
def test_codec_round_trip_random(parts):
    c = Composition.from_parts(parts)
    assert c.parts == tuple(parts)
    assert c.k == sum(parts)
    assert c.length == len(parts)
    assert Composition(c.k, c.breakpoints).parts == tuple(parts)


def test_codec_rejections():
    with pytest.raises(CompositionError):
        Composition.from_parts((1, 0, 2))
    with pytest.raises(CompositionError):
        Composition(3, frozenset({3}))  # breakpoints live in 1..k-1
    with pytest.raises(CompositionError):
        Composition.from_parts(())


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def test_precedes_hasse_examples():
    c3 = Composition.from_parts((3,))
    c12 = Composition.from_parts((1, 2))
    c21 = Composition.from_parts((2, 1))
    c111 = Composition.from_parts((1, 1, 1))
    assert precedes(c3, c12)
    assert precedes(c12, c111)
    assert not precedes(c12, c21)
    assert not precedes(c21, c12)
    assert precedes(c12, c12)


def test_precedes_k_mismatch():
    with pytest.raises(CompositionError):
        precedes(Composition.from_parts((2,)), Composition.from_parts((3,)))


# ---------------------------------------------------------------------------
# comp_max / comp_kd
# ---------------------------------------------------------------------------


def test_comp_max_pinned_examples():
    assert [c.parts for c in comp_max(3, 2)] == [(1, 2)]
    assert sorted(c.parts for c in comp_max(5, 4)) == [(1, 1, 1, 2), (1, 2, 1, 1)]
    assert [c.parts for c in comp_max(4, 1)] == [(4,)]
    assert [c.parts for c in comp_max(3, 3)] == [(1, 1, 1)]
    assert [c.parts for c in comp_max(4, 3)] == [(1, 2, 1)]


def test_comp_max_cardinality_d4():
    # at length 4 the free positions are 2 and 4 with sum k-2, so k-3 choices
    for k in range(5, 12):
        assert len(comp_max(k, 4)) == k - 3


def test_comp_max_cardinality_closed_form():
    """Stars and bars: odd positions are pinned to 1 (there are ceil(d/2) of
    them), the floor(d/2) even positions are free positive integers summing
    to k - ceil(d/2), so the count is C(k - ceil(d/2) - 1, floor(d/2) - 1)."""
    for d in range(2, 9):
        for k in range(d, 15):
            expected = comb(k - (d + 1) // 2 - 1, d // 2 - 1)
            assert len(comp_max(k, d)) == expected, (k, d)


def test_comp_max_cardinality_vs_quoted_product():
    """The quoted product ∏_{i=1}^{⌊d/2⌋−1}(k−⌈d/2⌉−i) is a falling
    factorial, i.e. (⌊d/2⌋−1)! times the true cardinality.  The factorial is
    1 for d ≤ 5, so the product matches there (d = 4 is the case pinned by
    the worked examples) and overcounts from d = 6 on.  Keep both facts
    pinned so nobody "fixes" comp_max toward the product."""
    for d in range(2, 9):
        for k in range(d, 15):
            product = 1
            for i in range(1, d // 2):
                product *= k - (d + 1) // 2 - i
            assert product == factorial(max(d // 2 - 1, 0)) * len(comp_max(k, d)), (k, d)
    assert all(len(comp_max(k, 4)) == k - 3 for k in range(5, 15))
    # first genuine divergence: d = 6, k = 7
    assert len(comp_max(7, 6)) == 3
    assert (7 - 4) * (7 - 5) == 6


def test_comp_max_rejects_d_above_k():
    with pytest.raises(CompositionError):
        comp_max(3, 4)


def test_comp_kd_pinned_examples():
    assert sorted(c.parts for c in comp_kd(3, 2)) == [(1, 2), (3,)]
    assert len(comp_kd(3, 3)) == 4
    assert sorted(c.parts for c in comp_kd(5, 3)) == [(1, 3, 1), (1, 4), (4, 1), (5,)]
    # d > k: the whole composition set, 2^{k-1} of them
    assert len(comp_kd(3, 5)) == 4
    assert len(comp_kd(6, 7)) == 32


def test_comp_kd_is_a_cached_tuple():
    """comp_kd returns one tuple per (k, d); a poset over the limit raises on
    every call, since the cache keeps no exceptions."""
    assert comp_kd(5, 3) is comp_kd(5, 3)
    assert isinstance(comp_kd(5, 3), tuple)
    for _ in range(2):
        with pytest.raises(CompositionError):
            comp_kd(14, 14)


def test_comp_kd_downward_closed():
    for k, d in [(3, 2), (4, 3), (5, 3), (5, 4), (6, 4)]:
        elements = comp_kd(k, d)
        universe = {c.breakpoints for c in elements}
        for lam in elements:
            for mu in comp_kd(k, k):
                if precedes(mu, lam):
                    assert mu.breakpoints in universe


def test_all_compositions_count():
    """From d = k on, comp_kd is all of Comp(k): d' = min(k, d)."""
    for k in range(1, 8):
        assert len(comp_kd(k, k)) == 2 ** (k - 1)
        assert comp_kd(k, k + 1) == comp_kd(k, k + 2) == comp_kd(k, k)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_chains_3_3_matches_hand_list():
    """Comp(3) has 4 singletons, 5 nested pairs, 2 triples: 11 chains."""
    listed, count = chains(3, 3)
    assert count == 11
    by_length = {}
    for chain in listed:
        by_length.setdefault(len(chain), 0)
        by_length[len(chain)] += 1
    assert by_length == {1: 4, 2: 5, 3: 2}
    triples = sorted(
        tuple(c.parts for c in chain.elements) for chain in listed if len(chain) == 3
    )
    assert triples == [
        ((3,), (1, 2), (1, 1, 1)),
        ((3,), (2, 1), (1, 1, 1)),
    ]


def test_chains_3_2():
    listed, count = chains(3, 2)
    assert count == 3
    assert sorted(tuple(c.parts for c in ch.elements) for ch in listed) == [
        ((1, 2),),
        ((3,),),
        ((3,), (1, 2)),
    ]


def test_chains_5_3_is_11():
    _, count = chains(5, 3)
    assert count == 11


@pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (4, 4), (5, 4)])
def test_chain_count_matches_brute_force(k, d):
    assert chain_count(k, d) == brute_force_chain_count(k, d)
    listed, count = chains(k, d)
    assert len(listed) == count


def test_chain_dp_equals_enumeration_up_to_k7():
    for k in range(1, 8):
        for d in range(1, k + 1):
            listed, count = chains(k, d)
            assert len(listed) == count, (k, d)


def test_chain_validation():
    c3 = Composition.from_parts((3,))
    c12 = Composition.from_parts((1, 2))
    c21 = Composition.from_parts((2, 1))
    Chain((c3, c12))  # fine
    with pytest.raises(CompositionError):
        Chain((c12, c21))  # incomparable
    with pytest.raises(CompositionError):
        Chain((c12, c12))  # not strict
    with pytest.raises(CompositionError):
        Chain(())


# ---------------------------------------------------------------------------
# bounds and reports
# ---------------------------------------------------------------------------


def test_paper_chain_bound_values():
    # F(2,k) = 3: (2^2-1) with an empty product
    for k in range(2, 9):
        assert paper_chain_bound(k, 2) == 3
    # F(4,10) = 15 * (10-2-1) = 15*7
    assert paper_chain_bound(10, 4) == 105
    # F(3,5) = 7
    assert paper_chain_bound(5, 3) == 7
    # d > k branch: (2^k - 1)(k-1)!
    assert paper_chain_bound(3, 5) == (2**3 - 1) * factorial(2)


def test_chain_report_flags_known_discrepancy():
    """k=5, d=3: 11 chains exceed the quoted bound of 7, and the poset has
    two maximal chains where the quoted product formula gives 1.  The report
    must carry both numbers and raise the flags, never assert the formula."""
    report = chain_report(5, 3)
    assert report["chain_count"] == 11
    assert report["paper_chain_bound"] == 7
    assert report["bound_exceeded"] is True
    assert report["maximal_chain_count"] == 2
    assert report["paper_maximal_chain_formula"] == 1
    assert report["maximal_formula_mismatch"] is True


def test_chain_report_clean_case():
    report = chain_report(3, 2)
    assert report["chain_count"] == 3
    assert report["paper_chain_bound"] == 3
    assert report["bound_exceeded"] is False


def test_maximal_chains_5_3():
    maxima = brute_force_maximal_chains(5, 3)
    assert sorted(tuple(c.parts for c in m.elements) for m in maxima) == [
        ((5,), (1, 4), (1, 3, 1)),
        ((5,), (4, 1), (1, 3, 1)),
    ]
    assert chain_report(5, 3)["maximal_chain_count"] == 2


def brute_force_maximal_chains(k: int, d: int) -> list:
    """Oracle: chains to which no other poset element can be added."""
    elements = comp_kd(k, d)
    out = []
    for chain in chains(k, d)[0]:
        members = set(chain.elements)
        if not any(
            all(precedes(nu, c) or precedes(c, nu) for c in chain.elements)
            for nu in elements
            if nu not in members
        ):
            out.append(chain)
    return out


def test_maximal_chains_match_brute_force():
    """The closed-form maximal-chain count of chain_report, checked against
    the brute-force definition."""
    for k in range(1, 8):
        for d in range(1, k + 1):
            expected = len(brute_force_maximal_chains(k, d))
            assert chain_report(k, d)["maximal_chain_count"] == expected, (k, d)


def test_paper_maximal_chain_formula_values():
    assert paper_maximal_chain_formula(5, 3) == 1
    assert paper_maximal_chain_formula(10, 4) == 7


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=7), st.data())
def test_comp_kd_closed_under_meet(k, data):
    d = data.draw(st.integers(min_value=1, max_value=k))
    elements = comp_kd(k, d)
    universe = {c.breakpoints for c in elements}
    lam = data.draw(st.sampled_from(elements))
    mu = data.draw(st.sampled_from(elements))
    assert lam.breakpoints & mu.breakpoints in universe


@given(st.integers(min_value=1, max_value=8))
def test_full_poset_chain_count_by_inclusion_exclusion(k):
    """Closed-form oracle for chains of the full poset Comp(k).

    A strict chain S_1 ⊂ ... ⊂ S_j of subsets of an n-set (n = k-1) is the
    same as a map from the n points to levels {1, ..., j, never} in which
    each of the levels 2..j is hit at least once (level 1 may be empty, since
    the bottom subset can be empty).  Inclusion-exclusion over the missed
    levels counts those maps.
    """
    n = k - 1
    expected = 0
    for j in range(1, n + 2):
        for t in range(j):
            expected += (-1) ** t * comb(j - 1, t) * (j + 1 - t) ** n
    assert chain_count(k, k) == expected


def test_enumeration_limit_guard():
    with pytest.raises(CompositionError):
        chains(18, 18)


def test_poset_limit_is_checked_before_enumerating():
    assert len(comp_kd(13, 13)) == POSET_LIMIT
    # 2^13 and 2^39 subsets of one top, 10^7 tops, 2^14 compositions
    for k, d in [(14, 14), (40, 40), (40, 20), (15, 16)]:
        with pytest.raises(CompositionError):
            comp_kd(k, d)
    with pytest.raises(CompositionError):
        comp_max(40, 20)


def test_chains_are_listed_only_below_the_limit():
    assert chain_count(9, 9) > ENUMERATION_LIMIT
    with pytest.raises(CompositionError):
        chains(9, 9)
    report = chain_report(9, 9)
    assert report["chain_count"] == chain_count(9, 9)
    # comp_kd(9, 9) is all of Comp(9), subsets of 8 breakpoints: the
    # maximal chains add them one at a time in each of the 8! orders
    assert report["maximal_chain_count"] == factorial(8)
