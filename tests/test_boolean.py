import sys
from itertools import chain, combinations
from math import comb

import pytest

from boolprod.boolean import (
    _graded_subset_terms,
    boolean_product,
    ep_subset,
    subset_alphabet,
    total_boolean,
)
from boolprod.errors import CapacityError
from boolprod.polyring import (
    Alphabet,
    MonomialPoly,
    alphabet_product,
    graded_elementary,
    poly_product,
)
from boolprod.bialphabet import pjk_expand
from boolprod.derangements import bnm1_q
from boolprod.lascoux import lascoux_check
from boolprod.schur import m_to_schur, schur_to_m, to_mvector
from boolprod.tableaux import staircase
from oracles import expand_forms, mvector_expand


def test_subset_alphabet_forms():
    assert subset_alphabet(3, 2).forms == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert subset_alphabet(3, 3).forms == ((1, 1, 1),)
    assert subset_alphabet(4, 1).forms == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    with pytest.raises(ValueError):
        subset_alphabet(3, 4)
    with pytest.raises(ValueError):
        subset_alphabet(3, 0)


def test_ep_subset_known_values():
    assert ep_subset(3, 2, 0).terms == {(): 1}
    assert ep_subset(3, 2, 1).terms == {(1,): 2}
    assert ep_subset(3, 2, 2).terms == {(2,): 1, (1, 1): 2}
    assert ep_subset(3, 2, 3).terms == {(2, 1): 1}
    assert ep_subset(3, 2, 4).terms == {}
    with pytest.raises(ValueError):
        ep_subset(3, 2, -1)


def test_ep_subset_results_do_not_share_cached_state():
    first = ep_subset(4, 2, 3)
    expected = dict(first.terms)
    first.terms.clear()
    assert ep_subset(4, 2, 3).terms == expected


def test_ep_subset_large_golden():
    expected = {
        (6, 3, 1): 1,
        (6, 2, 2): 1,
        (6, 2, 1, 1): 1,
        (6, 1, 1, 1, 1): 1,
        (5, 4, 1): 2,
        (5, 3, 2): 4,
        (5, 3, 1, 1): 4,
        (5, 2, 2, 1): 4,
        (5, 2, 1, 1, 1): 4,
        (4, 4, 2): 3,
        (4, 4, 1, 1): 3,
        (4, 3, 3): 3,
        (4, 3, 2, 1): 9,
        (4, 3, 1, 1, 1): 6,
        (4, 2, 2, 2): 3,
        (4, 2, 2, 1, 1): 9,
        (3, 3, 3, 1): 3,
        (3, 3, 2, 2): 3,
        (3, 3, 2, 1, 1): 9,
        (3, 2, 2, 2, 1): 6,
    }
    assert ep_subset(5, 3, 10).terms == expected


def test_boolean_product_known_values():
    assert boolean_product(3, 2).terms == {(2, 1): 1}
    assert boolean_product(4, 4).terms == {(1,): 1}
    assert boolean_product(4, 3).terms == {
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
        (1, 1, 1, 1): 1,
    }


def test_boolean_product_is_top_elementary():
    for n in range(2, 5):
        for k in range(1, n + 1):
            top = comb(n, k)
            assert boolean_product(n, k).terms == ep_subset(n, k, top).terms


def test_pairs_product_is_staircase():
    for n in range(2, 7):
        assert boolean_product(n, 2).terms == {staircase(n - 1): 1}


def test_positivity_full_range():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for p in range(comb(n, k) + 1):
                v = ep_subset(n, k, p)
                assert v.is_nonnegative(), (n, k, p)
                assert all(sum(la) == p for la in v.terms)


def test_total_chern_consistency():
    # summing every elementary slice reproduces the product of (1 + X_S)
    for n, k in ((3, 2), (4, 2), (4, 3)):
        a = subset_alphabet(n, k)
        total = MonomialPoly(n)
        for piece in graded_elementary(a):
            total = total + piece
        ones = [MonomialPoly(n, {(0,) * n: 1, **expand_forms([f], n)}) for f in a.forms]
        assert total == poly_product(ones, n)


def test_total_boolean_small():
    assert total_boolean(1).terms == {(1,): 1}
    assert total_boolean(2).terms == {(2, 1): 1}


def test_total_boolean_two_routes():
    # direct form product vs product of the per-k Schur expansions
    direct = total_boolean(3)
    factor_polys = [
        alphabet_product(subset_alphabet(3, k)) for k in (1, 2, 3)
    ]
    via_schur = poly_product(factor_polys, 3)
    assert m_to_schur(to_mvector(via_schur)).terms == direct.terms
    # and the factors really are s_(1,1,1), s_(2,1), s_(1)
    assert m_to_schur(to_mvector(factor_polys[0])).terms == {(1, 1, 1): 1}
    assert m_to_schur(to_mvector(factor_polys[1])).terms == {(2, 1): 1}
    assert m_to_schur(to_mvector(factor_polys[2])).terms == {(1,): 1}


def test_total_boolean_degree_and_positivity():
    for n in range(1, 5):
        v = total_boolean(n)
        assert v.is_nonnegative()
        assert all(sum(la) == 2**n - 1 for la in v.terms)


def test_total_boolean_capacity():
    with pytest.raises(CapacityError):
        total_boolean(6)


def test_fold_ceiling_refuses_before_the_forms_are_built(monkeypatch):
    # 184,756 forms for (20,10): the alphabet stops at the form that takes
    # it past 1,000,000 coefficients, long before the rest are built
    def unreachable(*args):
        raise AssertionError("a product was folded past the ceiling")

    monkeypatch.setattr("boolprod.polyring._capped_fold", unreachable)
    past = r"reaches 1,000,020 coefficients at form 50,001, above the ceiling of 1,000,000"
    with pytest.raises(CapacityError, match=past):
        boolean_product(20, 10)
    with pytest.raises(CapacityError, match=past):
        ep_subset(20, 10, 1)
    # usage errors keep their messages and come first
    with pytest.raises(ValueError, match=r"need 1 <= k <= n, got k=21, n=20"):
        boolean_product(20, 21)
    with pytest.raises(ValueError, match=r"need 1 <= k <= n, got k=0, n=20"):
        ep_subset(20, 0, 1)
    with pytest.raises(ValueError, match="p must be nonnegative"):
        ep_subset(20, 10, -1)


def test_root_only_products_match_the_full_product():
    cases = [(n, k) for n in range(1, 7) for k in range(1, n + 1)] + [(7, 2), (7, 6)]
    for n, k in cases:
        full = m_to_schur(to_mvector(alphabet_product(subset_alphabet(n, k))))
        assert boolean_product(n, k).terms == full.terms, (n, k)
    for n in range(1, 5):
        subsets = chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
        full = m_to_schur(to_mvector(alphabet_product(Alphabet.from_subsets(n, subsets))))
        assert total_boolean(n).terms == full.terms, n


def test_root_only_slices_match_the_full_product():
    cases = [(n, k) for n in range(1, 6) for k in range(1, n + 1)] + [(6, 2), (6, 5)]
    for n, k in cases:
        for p, piece in enumerate(graded_elementary(subset_alphabet(n, k))):
            assert ep_subset(n, k, p).terms == m_to_schur(to_mvector(piece)).terms, (n, k, p)


def test_root_only_products_never_build_the_full_product(monkeypatch):
    import boolprod.boolean

    def refuse(*args, **kwargs):
        raise AssertionError("the full product was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("boolprod"):
            for attr in ("alphabet_product", "poly_product", "graded_elementary", "to_mvector"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    # a cached slice would skip the read-off
    boolprod.boolean._graded_subset_terms.cache_clear()
    assert boolean_product(5, 3).terms
    assert total_boolean(4).terms
    assert ep_subset(5, 3, 4).terms
    assert pjk_expand(3, 2, 2, 1).terms
    assert lascoux_check(4, "symmetric").equal
    assert bnm1_q(5).terms


def test_fold_ceiling(monkeypatch):
    # both counts are taken before either fold, so a fold that raises shows
    # what they admit: the slices of (n,k), which fold t + X_S in n + 1
    # variables, at (6,3) and (7,2), the (7,4) product and the total product
    # at n = 5
    class Folded(Exception):
        pass

    def fold(*args):
        raise Folded

    monkeypatch.setattr("boolprod.polyring._capped_fold", fold)
    _graded_subset_terms.cache_clear()
    for admitted in (
        lambda: ep_subset(6, 3, 1),
        lambda: ep_subset(7, 2, 1),
        lambda: boolean_product(7, 4),
        lambda: total_boolean(5),
    ):
        with pytest.raises(Folded):
            admitted()
    # (7,3)'s fold steps and dots pass the work ceiling, whatever p; the
    # larger fold of (8,3) may hold 4,860,434 monomials within its caps; the
    # fold steps of the total product at n = 6 pass the work ceiling alone
    for p in (0, 2, 35, 36):
        with pytest.raises(CapacityError, match=r"in all, above the ceiling of 65,000,000"):
            ep_subset(7, 3, p)
    with pytest.raises(CapacityError, match="4,860,434 monomials"):
        boolean_product(8, 3)
    with pytest.raises(CapacityError, match=r"fold steps weighing 118,767,724 and 0 or more"):
        total_boolean(6)


def test_schur_product_reconversion_route():
    # multiply two expansions in monomial space and reconvert: B_{3,1} * B_{3,2}
    left = alphabet_product(subset_alphabet(3, 1))
    right = alphabet_product(subset_alphabet(3, 2))
    product = poly_product([left, right], 3)
    combined = m_to_schur(to_mvector(product))
    expanded = MonomialPoly(3, mvector_expand(schur_to_m(combined).terms, 3))
    assert to_mvector(expanded).terms == to_mvector(product).terms
