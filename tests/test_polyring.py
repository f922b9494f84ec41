from math import comb

import pytest
from hypothesis import given, strategies as st

from boolprod.errors import ConsistencyError
from boolprod.polyring import (
    Alphabet,
    MonomialPoly,
    QPoly,
    alphabet_product,
    dominant_coefficients,
    graded_elementary,
    poly_product,
)
from boolprod.resonance import CharPoly
from oracles import elementary_of_forms, expand_forms, total_degree


def three_pairs():
    return Alphabet(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))


def test_alphabet_validates_lengths():
    with pytest.raises(ValueError):
        Alphabet(2, ((1, 1, 0),))


def test_frozen_records_compare_and_hash_by_value():
    a, b = three_pairs(), three_pairs()
    assert a == b and hash(a) == hash(b)
    assert a != Alphabet(3, ((1, 1, 0),))
    assert QPoly((1, 2, 0)) == QPoly((1, 2)) and hash(QPoly((1, 2, 0))) == hash(QPoly((1, 2)))
    assert QPoly((1, 2)) != QPoly((1, 3))
    assert QPoly((-1, 1)) != CharPoly((-1, 1)) and CharPoly((-1, 1)) == CharPoly((-1, 1))
    assert QPoly() != () and repr(QPoly((1, 2))) == "QPoly(coeffs=(1, 2))"
    for value, field in ((a, "forms"), (QPoly((1,)), "coeffs"), (CharPoly((-1, 1)), "coeffs")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())


def test_charpoly_checks_run_after_trimming():
    with pytest.raises(ConsistencyError, match="not monic"):
        CharPoly((0, -3, 2))
    assert CharPoly((2, -3, 1, 0)).coeffs == (2, -3, 1)


def test_alphabet_from_subsets_counts_multiplicity():
    a = Alphabet.from_subsets(3, [(0, 2), (1, 1), ()])
    assert a.forms == ((1, 0, 1), (0, 2, 0), (0, 0, 0))


def test_from_form_and_repr():
    p = MonomialPoly.from_form(2, (3, -1))
    assert p.terms == {(1, 0): 3, (0, 1): -1}


def test_single_form_product():
    assert alphabet_product(Alphabet(1, ((1,),))).terms == {(1,): 1}


def test_binomial_square():
    p = alphabet_product(Alphabet(2, ((1, 1), (1, 1))))
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_empty_alphabet_is_one():
    p = alphabet_product(Alphabet(3, ()))
    assert p.terms == {(0, 0, 0): 1}


def test_pair_product_monomials():
    # (x1+x2)(x1+x3)(x2+x3): the m-support of the smallest interesting case
    p = alphabet_product(three_pairs())
    assert p.terms[(2, 1, 0)] == 1
    assert p.terms[(1, 1, 1)] == 2
    assert (3, 0, 0) not in p.terms
    assert total_degree(p.terms) == 3


def test_elementary_known_values():
    a = three_pairs()
    assert graded_elementary(a, cap=0)[0].terms == {(0, 0, 0): 1}
    e1 = graded_elementary(a, cap=1)[1]
    assert e1.terms == {(1, 0, 0): 2, (0, 1, 0): 2, (0, 0, 1): 2}
    # no e_p past the alphabet size, whatever the cap
    assert len(graded_elementary(a, cap=4)) == 4


def test_graded_elementary_matches_slices():
    # the signed alphabet cancels x2 in e_1 and x1*x2 in e_2
    signed = Alphabet(3, ((1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 2)))
    for a in (three_pairs(), signed):
        for cap in (None, 2):
            grades = graded_elementary(a, cap)
            top = len(a) if cap is None else cap
            assert len(grades) == top + 1
            for p in range(top + 1):
                expected = MonomialPoly(3, elementary_of_forms(p, a.forms, 3))
                assert grades[p] == expected == graded_elementary(a, cap=p)[p]


def test_total_chern_identity():
    # sum_p e_p(A) equals the product of (1 + f) over all forms f
    a = three_pairs()
    total = MonomialPoly(3)
    for piece in graded_elementary(a):
        total = total + piece
    shifted = [
        MonomialPoly.constant(3, 1) + MonomialPoly.from_form(3, f) for f in a.forms
    ]
    assert total == poly_product(shifted, 3)


def test_dominant_coefficients_read_the_full_product():
    # signed forms: the fold of the first third and the rest must cancel alike
    forms = ((1, 1, 0), (1, -1, 0), (0, 2, 1), (1, 1, 1), (3, 0, 0), (0, 0, 1), (2, 1, 1))
    terms = expand_forms(forms, 3)
    # one block, and a one-variable block x1 before a block x2, x3
    for blocks in ([(3, None)], [(1, "t"), (2, None)], [(0, "x"), (3, "y")]):
        want = {}
        for exp, c in terms.items():
            key, lo = (), 0
            for size, _ in blocks:
                part = exp[lo : lo + size]
                if list(part) != sorted(part, reverse=True):
                    break
                key += (tuple(x for x in part if x),)
                lo += size
            else:
                want[key] = c
        assert dominant_coefficients(Alphabet(3, forms), blocks) == want, blocks
    assert dominant_coefficients(Alphabet(3, ()), [(3, None)]) == {((),): 1}
    assert dominant_coefficients(Alphabet(2, ((1, 1), (0, 0))), [(2, None)]) == {}
    with pytest.raises(ValueError, match="blocks cover"):
        dominant_coefficients(Alphabet(3, forms), [(2, None)])


def test_packed_fields_hold_a_degree_past_seven_bits():
    # degree 130 > 127: an exponent needs eight value bits and a guard bit
    power = dominant_coefficients(Alphabet(2, ((1, 1),) * 130), [(2, None)])
    assert power == {((130 - j, j) if j else (130,),): comb(130, j) for j in range(66)}


def test_poly_product_matches_left_fold():
    # (x1 + x2)(x1 - x2) cancels x1*x2 in the middle of the product
    forms = [(1, 0, 1), (1, 1, 0), (1, -1, 0), (0, 2, 1), (1, 1, 1), (3, 0, 0)]
    polys = [MonomialPoly.from_form(3, f) for f in forms]
    assert poly_product(polys, 3).terms == expand_forms(forms, 3)
    with pytest.raises(ValueError, match="mixed variable counts"):
        poly_product([polys[0], MonomialPoly.from_form(2, (1, 1))], 3)


def test_scale_and_zero_purge():
    p = MonomialPoly.from_form(2, (1, 1))
    assert (p + p.scale(-1)).terms == {}
    assert not (p + p.scale(-1))
    assert p.scale(0).terms == {}
    # the x1*x2 terms of (x1 + x2)(x1 - x2) cancel inside the product
    assert (p * MonomialPoly.from_form(2, (1, -1))).terms == {(2, 0): 1, (0, 2): -1}


@st.composite
def form_list(draw, low=0):
    count = draw(st.integers(min_value=1, max_value=5))
    return [
        tuple(draw(st.integers(min_value=low, max_value=2)) for _ in range(3))
        for _ in range(count)
    ]


@given(form_list(low=-2))
def test_product_tree_order_independent(forms):
    polys = [MonomialPoly.from_form(3, f) for f in forms]
    assert poly_product(polys, 3).terms == expand_forms(forms, 3)
    assert poly_product(polys[::-1], 3).terms == expand_forms(forms, 3)


@given(form_list())
def test_degree_additive_for_nonzero_forms(forms):
    polys = [MonomialPoly.from_form(3, f) for f in forms]
    product = poly_product(polys, 3)
    if all(polys):
        # nonnegative coefficients cannot cancel, so degree is exactly |A|
        assert total_degree(product.terms) == len(polys)
    else:
        assert product.terms == {}
