from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from boolprod.errors import CapacityError, ConsistencyError
from boolprod.polyring import (
    COUNT_MAX,
    Alphabet,
    MonomialPoly,
    QPoly,
    _capped_fold,
    _dominant_keys,
    _fold_bound,
    _hall_caps,
    alphabet_product,
    block_cuts,
    capped_comb,
    dominant_coefficients,
    figure,
    graded_elementary,
    poly_product,
)
from boolprod.resonance import CharPoly
from boolprod.tableaux import partitions_up_to
from oracles import elementary_of_forms, expand_forms, total_degree


def form_poly(n, form):
    """The linear form as a MonomialPoly in n variables."""
    return MonomialPoly(n, expand_forms([form], n))


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


def test_monomial_poly_repr():
    assert repr(form_poly(2, (3, -1))) == "MonomialPoly(3*x1 + -1*x2)"
    assert repr(MonomialPoly(2, {(2, 1): 1, (0, 0): 7})) == "MonomialPoly(1*x1^2*x2 + 7)"
    assert repr(MonomialPoly(2)) == "MonomialPoly(0)"


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
    shifted = [MonomialPoly(3, {(0, 0, 0): 1}) + form_poly(3, f) for f in a.forms]
    assert total == poly_product(shifted, 3)


def dominant_terms(terms, blocks):
    """The terms of a full expansion whose exponent vector is weakly
    decreasing in every block, keyed by one partition per block."""
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
    return want


def test_dominant_coefficients_read_the_full_product():
    # signed forms: the fold of the first third and the rest must cancel alike
    forms = ((1, 1, 0), (1, -1, 0), (0, 2, 1), (1, 1, 1), (3, 0, 0), (0, 0, 1), (2, 1, 1))
    terms = expand_forms(forms, 3)
    # one block, and a one-variable block x1 before a block x2, x3
    for blocks in ([(3, None)], [(1, "t"), (2, None)], [(0, "x"), (3, "y")]):
        want = dominant_terms(terms, blocks)
        assert dominant_coefficients(Alphabet(3, forms), blocks) == want, blocks
    assert dominant_coefficients(Alphabet(3, ()), [(3, None)]) == {((),): 1}
    assert dominant_coefficients(Alphabet(2, ((1, 1), (0, 0))), [(2, None)]) == {}
    with pytest.raises(ValueError, match="blocks cover"):
        dominant_coefficients(Alphabet(3, forms), [(2, None)])


@settings(deadline=None)
@given(st.data())
def test_dominant_coefficients_of_drawn_forms_read_the_full_product(data):
    # forms drawn from a small pool repeat; zero, negative and sparse forms
    # leave the caps of the first variables of a block below the degree
    n = data.draw(st.integers(min_value=1, max_value=4))
    coeff = st.integers(min_value=-2, max_value=2)
    pool = data.draw(st.lists(st.tuples(*[coeff] * n), min_size=1, max_size=4))
    forms = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=6)))
    first = data.draw(st.integers(min_value=0, max_value=n))
    blocks = data.draw(st.sampled_from([[(n, None)], [(first, "x"), (n - first, "y")]]))
    want = dominant_terms(expand_forms(forms, n), blocks)
    assert dominant_coefficients(Alphabet(n, forms), blocks) == want


def test_dominant_keys_meet_the_caps():
    # (7,2): x1 lies in 6 of the 21 pair forms, x1 or x2 in 11, and so on, so
    # 59 of the 436 partitions of 21 in at most 7 parts can occur
    a = Alphabet.from_subsets(7, combinations(range(7), 2))
    width, cuts = len(a).bit_length() + 1, block_cuts([(7, None)], 7)
    keys = list(_dominant_keys(_hall_caps(a, cuts), cuts, len(a), width))
    assert len(partitions_up_to(21, 7)) == 436 and len(keys) == 59
    assert all(key[0][0] <= 6 and sum(key[0][:2]) <= 11 for key, _ in keys)
    # a zero form touches no variable: the one-variable block x1 and the
    # block x2, x3 each meet two of the four forms, so each holds degree 2
    a = Alphabet(3, ((1, 0, 0), (0, 0, 0), (1, 1, 0), (0, 1, 1)))
    cuts = block_cuts([(1, "t"), (2, None)], 3)
    keys = _dominant_keys(_hall_caps(a, cuts), cuts, len(a), 4)
    assert [key for key, _ in keys] == [((2,), (2,)), ((2,), (1, 1))]


@settings(deadline=None)
@given(st.data())
def test_dominant_keys_are_the_capped_partitions_of_each_block(data):
    # the reference lists every partition of each degree in a block's size
    # parts at most, keeps those whose prefix sums meet the block's caps and
    # packs each from the block's first field
    sizes = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    n = sum(sizes)
    coeff = st.integers(min_value=-1, max_value=2)
    forms = tuple(data.draw(st.lists(st.tuples(*[coeff] * n), max_size=6)))
    a = Alphabet(n, forms)
    width = len(forms).bit_length() + 1
    # (key, packed mu, degree) over the blocks so far
    want = [((), 0, 0)]
    lo = 0
    for size in sizes:
        caps = [sum(any(f[lo : lo + j]) for f in forms) for j in range(1, size + 1)]
        parts = [
            (mu, sum(part << width * i for i, part in enumerate(mu, lo)), e)
            for e in range(len(forms) + 1)
            for mu in partitions_up_to(e, size)
            if all(sum(mu[:j]) <= cap for j, cap in enumerate(caps, 1))
        ]
        want = [(key + (mu,), top + packed, d + e) for key, top, d in want for mu, packed, e in parts]
        lo += size
    want = {(key, packed) for key, packed, d in want if d == len(forms)}
    cuts = block_cuts([(size, None) for size in sizes], n)
    got = list(_dominant_keys(_hall_caps(a, cuts), cuts, len(forms), width))
    assert len(got) == len(set(got)) and set(got) == want


def test_packed_fields_hold_a_degree_past_seven_bits():
    # degree 130 > 127: an exponent needs eight value bits and a guard bit
    power = dominant_coefficients(Alphabet(2, ((1, 1),) * 130), [(2, None)])
    assert power == {((130 - j, j) if j else (130,),): comb(130, j) for j in range(66)}


def test_packed_fields_hold_a_degree_that_fills_them():
    # degree 8 needs all four bits of its field; with three, x1^8 would
    # carry into x2's field
    x1_4 = MonomialPoly(2, {(4, 0): 1})
    assert poly_product([x1_4, x1_4], 2).terms == {(8, 0): 1}
    eight = Alphabet(2, ((1, 0),) * 8)
    assert alphabet_product(eight).terms == {(8, 0): 1}
    grades = graded_elementary(eight, cap=8)
    assert [p.terms for p in grades] == [{(p, 0): comb(8, p)} for p in range(9)]


def test_a_running_fold_past_the_ceiling_is_refused(monkeypatch):
    # (x1 + x2)^p holds p + 1 monomials: the third factor takes it past 3
    monkeypatch.setattr("boolprod.polyring.FOLD_MAX_MONOMIALS", 3)
    assert alphabet_product(Alphabet(2, ((1, 1),) * 2)).terms == {
        (2, 0): 1, (1, 1): 2, (0, 2): 1
    }
    with pytest.raises(CapacityError, match="4 monomials after 3 factors"):
        alphabet_product(Alphabet(2, ((1, 1),) * 5))


def test_poly_product_matches_left_fold():
    # (x1 + x2)(x1 - x2) cancels x1*x2 in the middle of the product
    forms = [(1, 0, 1), (1, 1, 0), (1, -1, 0), (0, 2, 1), (1, 1, 1), (3, 0, 0)]
    polys = [form_poly(3, f) for f in forms]
    assert poly_product(polys, 3).terms == expand_forms(forms, 3)
    with pytest.raises(ValueError, match="mixed variable counts"):
        poly_product([polys[0], form_poly(2, (1, 1))], 3)


def test_sums_and_products_purge_zeros():
    p = form_poly(2, (1, 1))
    assert (p + form_poly(2, (-1, -1))).terms == {}
    assert not (p + form_poly(2, (-1, -1)))
    assert MonomialPoly(2, {(1, 0): 0, (0, 1): 0}).terms == {}
    # the x1*x2 terms of (x1 + x2)(x1 - x2) cancel inside the product
    assert poly_product([p, form_poly(2, (1, -1))], 2).terms == {(2, 0): 1, (0, 2): -1}


@st.composite
def form_list(draw, low=0):
    count = draw(st.integers(min_value=1, max_value=5))
    return [
        tuple(draw(st.integers(min_value=low, max_value=2)) for _ in range(3))
        for _ in range(count)
    ]


@given(form_list(low=-2))
def test_product_tree_order_independent(forms):
    polys = [form_poly(3, f) for f in forms]
    assert poly_product(polys, 3).terms == expand_forms(forms, 3)
    assert poly_product(polys[::-1], 3).terms == expand_forms(forms, 3)


@given(form_list())
def test_degree_additive_for_nonzero_forms(forms):
    polys = [form_poly(3, f) for f in forms]
    product = poly_product(polys, 3)
    if all(polys):
        # nonnegative coefficients cannot cancel, so degree is exactly |A|
        assert total_degree(product.terms) == len(polys)
    else:
        assert product.terms == {}


def test_counts_are_exact_up_to_count_max_and_cut_short_past_it():
    for n in range(130):
        for k in range(n + 1):
            got = capped_comb(n, k)
            assert got == comb(n, k) if comb(n, k) <= COUNT_MAX else got > COUNT_MAX
    # C(120,60), about 9.7 * 10^34, stops short of itself; a count this
    # large stops at once
    assert COUNT_MAX < capped_comb(120, 60) < comb(120, 60)
    assert COUNT_MAX < capped_comb(10**1000, 10**999) < 10**2000
    assert figure(COUNT_MAX) == "1,000,000,000,000,000,000,000,000,000,000"
    assert figure(COUNT_MAX + 1) == figure(10**5000) == "more than 10^30"
    assert figure(123_456) == "123,456"
    # the fold message prints the exact count up to 10^30: (x1 + ... + x4)^318
    # folds its last 212 forms within the caps 318, 159, 106 and 79 into at
    # most 1,005,245 monomials
    with pytest.raises(CapacityError, match="into 1,005,245 monomials, above the ceiling"):
        dominant_coefficients(Alphabet(4, ((1, 1, 1, 1),) * 318), [(4, None)])
    with pytest.raises(CapacityError, match="more than 10.30 variables reaches more than 10.30 co"):
        Alphabet.from_subsets(10**40, [(0,)])


def vectors_within(bounds, degree):
    """The exponent vectors of the given degree with x_i <= bounds[i], counted
    by plain recursion over the variables."""

    @cache
    def count(i, left):
        if i == len(bounds):
            return int(left == 0)
        return sum(count(i + 1, left - x) for x in range(min(bounds[i], left) + 1))

    return count(0, degree)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_capping_changes_no_coefficient(data):
    # the reference expands the whole product and keeps the monomials that
    # are partitions in each block; forms drawn from a small pool repeat, and
    # zero and negative coefficients leave some caps below the degree
    sizes = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).filter(any)
    )
    n = sum(sizes)
    coeff = st.integers(min_value=-2, max_value=2)
    pool = data.draw(st.lists(st.tuples(*[coeff] * n), min_size=1, max_size=4))
    forms = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=7)))
    a = Alphabet(n, forms)
    blocks = [(size, None) for size in sizes]
    cuts = block_cuts(blocks, n)
    want = {}
    for e, c in alphabet_product(a).terms.items():
        parts = [e[lo:hi] for lo, hi, _ in cuts]
        if all(list(part) == sorted(part, reverse=True) for part in parts):
            want[tuple(tuple(x for x in part if x) for part in parts)] = c
    assert dominant_coefficients(a, blocks) == want
    # each part's count is the vectors of one degree within the caps and the
    # forms that touch each variable; no step of its capped fold passes it,
    # and the fold's steps, monomials times variables of the next form, do
    # not pass their count
    caps = [hall[j] // (j + 1) for hall in _hall_caps(a, cuts) for j in range(len(hall))]
    width = len(forms).bit_length() + 1
    for part in (forms[: len(forms) // 3], forms[len(forms) // 3 :]):
        bounds = [min(cap, sum(1 for f in part if f[i])) for i, cap in enumerate(caps)]
        bound, steps = _fold_bound(part, caps)
        assert bound == vectors_within(bounds, min(len(part), sum(bounds) // 2))
        sizes = [len(_capped_fold(part[:k], width, caps)) for k in range(len(part) + 1)]
        assert max(sizes) <= bound
        assert sum(size * sum(map(bool, f)) for size, f in zip(sizes, part)) <= steps
