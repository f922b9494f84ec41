from collections import Counter
from itertools import permutations, product
from math import prod
from operator import sub

import pytest
from hypothesis import assume, given, settings, strategies as st

from boolprod.bialphabet import BiSchurVector, pjk_expand
from boolprod.boolean import boolean_product, ep_subset, subset_alphabet
from boolprod.derangements import alternating_expansion, bnm1_q
from boolprod.errors import AsymmetryError, CapacityError, ConsistencyError
from boolprod.lascoux import lascoux_check
from boolprod.polyring import Alphabet, MonomialPoly, alphabet_product, block_cuts
from boolprod.polyring import graded_elementary, poly_product
from boolprod import schur
from boolprod.schur import (
    MVector,
    SchurVector,
    _m_product,
    _shape,
    _splits,
    check_principal,
    check_schur_at_capacity,
    m_to_schur,
    schur_at_alphabet,
    schur_from_dominant,
    schur_of_graded_product,
    schur_of_product,
    schur_to_m,
    to_mvector,
)
from boolprod.tableaux import conjugate, kostka, partitions_up_to
from oracles import expand_forms, mvector_expand, schur_poly_direct, ssyt_fillings


def block_schur(poly, blocks):
    """The read-off of a full polynomial symmetric in each block: its
    symmetry checked, its dominant terms picked, then schur_from_dominant."""
    cuts = block_cuts(blocks, poly.var_count)
    schur._check_symmetric(poly.terms, cuts)
    return schur_from_dominant(schur._pick_dominant(poly.terms, cuts), blocks)


def expanded(v):
    """The MVector v as the full polynomial it stands for."""
    return MonomialPoly(v.var_count, mvector_expand(v.terms, v.var_count))


def test_to_mvector_known_values():
    p = MonomialPoly(2, {(2, 0): 1, (0, 2): 1, (1, 1): 3})
    assert to_mvector(p).terms == {(2,): 1, (1, 1): 3}
    assert to_mvector(MonomialPoly(3, {(0, 0, 0): 7})).terms == {(): 7}


def test_to_mvector_witness():
    p = MonomialPoly(2, {(2, 0): 1, (0, 1): 1})
    with pytest.raises(AsymmetryError) as err:
        to_mvector(p)
    a, b = err.value.witness
    assert sorted((a, b)) in ([(0, 1), (1, 0)], [(0, 2), (2, 0)])


def test_to_mvector_rejects_an_incomplete_orbit():
    with pytest.raises(AsymmetryError) as err:
        to_mvector(MonomialPoly(2, {(1, 0): 1}))
    assert err.value.witness == ((1, 0), (0, 1))


def test_schur_from_poly_rejects_an_incomplete_orbit():
    # x1^2*x2 + 5*x1*x2*x3 passes every sorted-representative comparison
    p = MonomialPoly(3, {(2, 1, 0): 1, (1, 1, 1): 5})
    with pytest.raises(AsymmetryError) as err:
        m_to_schur(to_mvector(p))
    present, absent = err.value.witness
    assert present in p.terms and absent not in p.terms
    assert sorted(present) == sorted(absent)


@pytest.mark.parametrize(
    "terms",
    [
        # x1 + x2: invariant under the swap of x1, x2 only
        {(1, 0, 0): 1, (0, 1, 0): 1},
        # x1^2*x2 + x2^2*x3 + x3^2*x1: invariant under the cycle only
        {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1},
    ],
)
def test_schur_from_poly_rejects_a_one_generator_invariant(terms):
    p = MonomialPoly(3, terms)
    with pytest.raises(AsymmetryError) as err:
        m_to_schur(to_mvector(p))
    assert err.value.block is None
    present, image = err.value.witness
    assert present in p.terms
    assert sorted(present) == sorted(image)


def test_schur_vector_sum_drops_cancelled_terms():
    a = SchurVector(2, {(2,): 1, (1, 1): 2})
    assert (a + SchurVector(2, {(1, 1): -2})).terms == {(2,): 1}


def test_mvector_expand_inverts_extraction():
    v = MVector(3, {(2, 1): 4, (1, 1, 1): 7, (): 2})
    assert to_mvector(expanded(v)).terms == v.terms


def test_m_to_schur_known_values():
    assert m_to_schur(MVector(3, {(2,): 1, (1, 1): 3})).terms == {(2,): 1, (1, 1): 2}
    assert m_to_schur(MVector(3, {(1, 1, 1): 1})).terms == {(1, 1, 1): 1}
    assert m_to_schur(MVector(3, {(1,): 5})).terms == {(1,): 5}


def test_schur_to_m_known_values():
    assert schur_to_m(SchurVector(2, {(2,): 1})).terms == {(2,): 1, (1, 1): 1}
    assert schur_to_m(SchurVector(2, {(1, 1): 1})).terms == {(1, 1): 1}
    assert schur_to_m(SchurVector(2, {(): 1})).terms == {(): 1}


def test_term_vectors_compare_by_value_and_are_unhashable():
    v = SchurVector(2, {(2,): 1, (1, 1): 0})
    assert v.terms == {(2,): 1}
    assert v == SchurVector(2, {(2,): 1}) and v != SchurVector(3, {(2,): 1})
    assert v != MVector(2, {(2,): 1}) and MVector(2, {(2,): 1}) == MVector(2, {(2,): 1})
    assert repr(v) == "SchurVector(var_count=2, terms={(2,): 1})"
    empty = SchurVector(2)
    assert empty.terms == {} and empty.terms is not SchurVector(2).terms
    assert empty and not MonomialPoly(2)
    with pytest.raises(TypeError):
        hash(v)
    with pytest.raises(TypeError):
        hash(MVector(1))
    # each class with its other fields, a smaller and a larger key, and a
    # key that fits every class's key check
    cases = [
        (MonomialPoly, (2,), (0, 1), (1, 0)),
        (MVector, (2,), (1,), (2,)),
        (SchurVector, (2,), (1,), (2,)),
        (BiSchurVector, (1, 1), ((), (1,)), ((1,), ())),
    ]
    for cls, fields, low, high in cases:
        v = cls(*fields, {low: 2, high: 0})
        assert v.terms == {low: 2} and cls(*fields).terms == {}
        assert v == cls(*fields, {low: 2}) and v != cls(*fields, {low: 1})
        with pytest.raises(TypeError):
            hash(v)
        w = cls(*fields, {low: -2, high: 5})
        total = v + w
        assert type(total) is cls and total == cls(*fields, {high: 5})
        assert (v + cls(*fields, {low: -2})).terms == {}
        assert w.items_sorted() == [(high, 5), (low, -2)]
        assert v.is_nonnegative() and total.is_nonnegative() and not w.is_nonnegative()
        with pytest.raises(ValueError, match="mixed variable counts"):
            v + cls(*(x + 1 for x in fields))
        for other_cls, other_fields, other_low, _ in cases:
            if other_cls is not cls:
                u = other_cls(*other_fields, {other_low: 1})
                assert v != u
                with pytest.raises(TypeError):
                    v + u
    with pytest.raises(ValueError, match="mixed variable counts"):
        BiSchurVector(1, 1) + BiSchurVector(1, 2)
    with pytest.raises(ValueError, match="2 entries, expected 3"):
        MonomialPoly(3, {(1, 0): 1})


def test_length_cap_rejected():
    with pytest.raises(ValueError):
        SchurVector(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        MVector(1, {(1, 1): 1})


def test_round_trip_all_small_partitions():
    # both directions, every partition of size <= 8, every var count <= 5
    for var_count in range(1, 6):
        for d in range(9):
            for la in partitions_up_to(d, var_count):
                v = SchurVector(var_count, {la: 1})
                assert m_to_schur(schur_to_m(v)).terms == v.terms
                w = MVector(var_count, {la: 1})
                assert schur_to_m(m_to_schur(w)).terms == w.terms
                # the Kostka route against s_la's tableau enumeration
                direct = MonomialPoly(var_count, schur_poly_direct(la, var_count))
                assert to_mvector(direct).terms == schur_to_m(v).terms


def brute_signed_orbit(mu, n):
    """Sum of the sort's sign at sort(alpha+delta) - delta over every distinct
    rearrangement alpha of mu whose alpha+delta has distinct entries."""
    out = {}
    for alpha in set(permutations(mu + (0,) * (n - len(mu)))):
        shifted = [a + n - 1 - i for i, a in enumerate(alpha)]
        if len(set(shifted)) < n:
            continue
        inversions = sum(
            shifted[i] < shifted[j] for i in range(n) for j in range(i + 1, n)
        )
        la = tuple(x - (n - 1 - i) for i, x in enumerate(sorted(shifted, reverse=True)))
        la = tuple(x for x in la if x)
        out[la] = out.get(la, 0) + (-1) ** inversions
    return {la: c for la, c in out.items() if c}


def test_the_forward_pass_matches_brute_force():
    for n in range(1, 5):
        for d in range(8):
            for mu in partitions_up_to(d, n):
                got = schur_from_dominant({(mu,): 1}, [(n, None)])
                assert got == {(la,): c for la, c in brute_signed_orbit(mu, n).items()}


def brute_sum(combo, n):
    """The sum of c times brute_signed_orbit(mu, n) over the pairs mu, c."""
    out = {}
    for mu, c in combo.items():
        for la, e in brute_signed_orbit(mu, n).items():
            out[la] = out.get(la, 0) + c * e
    return {la: c for la, c in out.items() if c}


def test_the_forward_pass_merges_the_placements_of_many_terms():
    # integer combinations of several mu of one degree, whose partial
    # placements meet and are merged, against sums and products of the
    # brute-force orbits, in one block, two blocks, and beside an empty block
    combos = [
        (4, {(4,): 2, (3, 1): -1, (2, 2): 3, (2, 1, 1): 5, (1, 1, 1, 1): -2}),
        (3, {(3,): 1, (2, 1): -4, (1, 1, 1): 7}),
        (3, {(5,): 1, (4, 1): 1, (3, 2): -2, (3, 1, 1): 4, (2, 2, 1): -3}),
        # m_2 + m_11 = s_2 in two variables: the coefficient of s_11 cancels
        (2, {(2,): 1, (1, 1): 1}),
    ]
    y_combo = {(2,): 3, (1, 1): -1}
    y_want = brute_sum(y_combo, 2)
    for n, combo in combos:
        want = brute_sum(combo, n)
        one = schur_from_dominant({(mu,): c for mu, c in combo.items()}, [(n, None)])
        assert one == {(la,): c for la, c in want.items()}
        two = {(mu, nu): c * e for mu, c in combo.items() for nu, e in y_combo.items()}
        assert schur_from_dominant(two, [(n, "x"), (2, "y")]) == {
            (la, ka): c * e for la, c in want.items() for ka, e in y_want.items()
        }
        assert schur_from_dominant(
            {((), mu): c for mu, c in combo.items()}, [(0, "x"), (n, "y")]
        ) == {((), la): c for la, c in want.items()}
        assert schur_from_dominant(
            {(mu, ()): c for mu, c in combo.items()}, [(n, "x"), (0, "y")]
        ) == {(la, ()): c for la, c in want.items()}
    assert brute_sum({(2,): 1, (1, 1): 1}, 2) == {(2,): 1}
    # a partition with more parts than its block has no arrangement
    assert schur_from_dominant({((1, 1, 1),): 5, ((2, 1, 1),): 1}, [(2, None)]) == {}


def test_an_empty_block_has_one_empty_arrangement():
    assert _shape(0, 0) == ()
    assert schur_from_dominant({((), (1, 1)): 1}, [(0, "x"), (2, "y")]) == {((), (1, 1)): 1}


def brute_blocks(dominant, sizes):
    """The read-off of a dominant dict over blocks of the given sizes, by
    brute_signed_orbit in each block; a part list longer than its block has
    no arrangement."""
    out = {}
    for key, c in dominant.items():
        orbits = [brute_signed_orbit(mu, s) if len(mu) <= s else {} for mu, s in zip(key, sizes)]
        for combo in product(*(orbit.items() for orbit in orbits)):
            la = tuple(shape for shape, _ in combo)
            out[la] = out.get(la, 0) + c * prod(e for _, e in combo)
    return {la: c for la, c in out.items() if c}


# sizes 0 and 1 alone and beside larger blocks, three blocks, and sizes past
# which a drawn partition can run
LAYOUTS = [(0,), (1,), (2,), (4,), (0, 2), (2, 0), (1, 3), (3, 1), (2, 1, 2), (1, 0, 3), (3, 2, 1)]


@st.composite
def dominant_dicts(draw):
    sizes = draw(st.sampled_from(LAYOUTS))
    part = st.lists(st.integers(1, 4), max_size=max(sizes) + 1).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )
    keys = st.tuples(*(part for _ in sizes))
    return sizes, draw(st.dictionaries(keys, st.integers(-3, 3), max_size=8))


@settings(deadline=None, max_examples=300)
@given(dominant_dicts())
def test_the_walk_matches_brute_antisymmetrisation(case):
    sizes, dominant = case
    blocks = [(s, f"b{i}") for i, s in enumerate(sizes)]
    assert schur_from_dominant(dominant, blocks) == brute_blocks(dominant, sizes)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(LAYOUTS), st.data())
def test_the_walk_cancels_a_schur_combination_back_to_itself(sizes, data):
    # the m-expansion of a combination of Schur products: every other shape
    # it meets must cancel to exactly nothing
    shapes = [
        st.sampled_from([la for d in range(5) for la in partitions_up_to(d, s)]) for s in sizes
    ]
    want = data.draw(st.dictionaries(st.tuples(*shapes), st.integers(-3, 3).filter(bool)))
    dominant = {}
    for key, c in want.items():
        ms = [schur_to_m(SchurVector(s, {la: 1})).terms for la, s in zip(key, sizes)]
        for combo in product(*(m.items() for m in ms)):
            mu = tuple(m for m, _ in combo)
            dominant[mu] = dominant.get(mu, 0) + c * prod(k for _, k in combo)
    blocks = [(s, None) for s in sizes]
    assert schur_from_dominant(dominant, blocks) == want


def bit_scan_shape(mask, n):
    """_shape by a scan of every bit below the top one."""
    bits = [b for b in range(mask.bit_length())[::-1] if mask >> b & 1]
    return tuple(b - n + 1 + i for i, b in enumerate(bits) if b + i >= n)


def test_the_shape_read_by_set_bits_matches_a_scan_of_every_bit():
    for n in range(8):
        for mask in range(1 << 12):
            assert _shape(mask, n) == bit_scan_shape(mask, n), (mask, n)


def fresh_steps(rest):
    return [
        (1 << (v + len(rest) - 1), rest[:i] + rest[i + 1 :])
        for i, v in enumerate(rest)
        if not i or rest[i - 1] != v
    ]


def test_every_stored_move_equals_a_fresh_one():
    boolean_product(5, 2)
    pjk_expand(2, 3, 1, 2)
    schur_of_graded_product(subset_alphabet(4, 2))
    # each rest is stored once, under the id that indexes it
    assert len(schur._RESTS) == len(schur._REST_IDS) == len(schur._STEPS)
    assert all(schur._REST_IDS[rest] == rid for rid, rest in enumerate(schur._RESTS))
    assert any(schur._STEPS)
    for rest, steps in zip(schur._RESTS, schur._STEPS):
        if steps is None:
            continue
        assert [(bit, schur._RESTS[left]) for bit, left in steps] == fresh_steps(rest)


def test_the_shared_tables_do_not_change_results_in_either_order():
    products = [
        lambda: schur_of_product(subset_alphabet(5, 2), [(5, None)]),
        lambda: schur_of_product(subset_alphabet(4, 3), [(4, None)]),
        lambda: schur_of_graded_product(subset_alphabet(4, 2)),
        lambda: schur_of_graded_product(subset_alphabet(3, 1)),
        lambda: pjk_expand(2, 3, 1, 2),
        lambda: pjk_expand(3, 2, 2, 1),
        lambda: m_to_schur(MVector(4, {(3, 1): 2, (2, 2): -1, (2, 1, 1): 5})),
        lambda: schur_at_alphabet((2, 2, 1), subset_alphabet(4, 2)),
        lambda: alternating_expansion(6),
    ]

    def clear():
        schur._REST_IDS.clear()
        schur._RESTS.clear()
        schur._STEPS.clear()
        schur._splits.cache_clear()
        schur._SPLIT_PARTS.clear()

    clear()
    forward = [product() for product in products]
    clear()
    backward = [product() for product in reversed(products)]
    assert forward == backward[::-1]


def test_schur_polynomial_matches_ssyt_sum():
    # s_lambda in plain variables, checked against direct tableau enumeration
    for var_count in (2, 3):
        singletons = Alphabet(
            var_count,
            tuple(
                tuple(1 if i == j else 0 for j in range(var_count))
                for i in range(var_count)
            ),
        )
        # |la| = 8 fills the four-bit fields of the packed determinant
        for d in (1, 2, 3, 4, 5, 8):
            for la in partitions_up_to(d, var_count):
                got = schur_at_alphabet(la, singletons)
                assert got.terms == {la: 1}
                direct = schur_poly_direct(la, var_count)
                assert mvector_expand(schur_to_m(got).terms, var_count) == direct


def test_schur_at_alphabet_example():
    pairs = Alphabet(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    assert schur_at_alphabet((2, 1), pairs).terms == {(3,): 2, (2, 1): 5, (1, 1, 1): 4}
    assert schur_at_alphabet((1,), pairs).terms == {(1,): 2}
    assert schur_at_alphabet((), pairs).terms == {(): 1}


@pytest.mark.parametrize(
    "seeds", [((1, -1),), ((1, -1, 0),), ((2, 1, 0),), ((-2, 1, 1), (2, 0, 0)), ((1, 1, 1), (0, -2, 1))]
)
def test_schur_at_alphabet_of_signed_forms_matches_the_tableau_sum(seeds):
    # s_la(A) is the sum over semistandard tableaux T of shape la, entries
    # at most |A|, of the product of f_T(c) over the cells c.  The alphabet,
    # every permutation of the seed forms, is symmetric; its signs and
    # coefficients past 1 make the determinant's terms cancel.
    forms = sorted({form for seed in seeds for form in permutations(seed)})
    n = len(seeds[0])
    a = Alphabet(n, tuple(forms))
    for d in range(1, 5):
        for la in partitions_up_to(d, d):
            terms = {}
            for filling in ssyt_fillings(la, len(forms)):
                cells = [forms[v - 1] for row in filling for v in row]
                for e, c in expand_forms(cells, n).items():
                    terms[e] = terms.get(e, 0) + c
            assert schur_at_alphabet(la, a) == m_to_schur(to_mvector(MonomialPoly(n, terms))), la


@settings(deadline=None)
@given(st.data())
def test_the_m_basis_product_matches_the_full_product(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    dp, dq = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    coeff = st.integers(min_value=-3, max_value=3)
    p = {mu: data.draw(coeff) for mu in partitions_up_to(dp, n)}
    q = {mu: data.draw(coeff) for mu in partitions_up_to(dq, n)}
    full = poly_product([expanded(MVector(n, p)), expanded(MVector(n, q))], n)
    assert MVector(n, _m_product(p, dp, q, dq, n)).terms == to_mvector(full).terms


def composition_splits(mu, e):
    """_splits by its definition: every composition alpha <= mu, part by part."""
    return Counter(
        (tuple(sorted(filter(None, alpha), reverse=True)),
         tuple(sorted(filter(None, map(sub, mu, alpha)), reverse=True)))
        for alpha in product(*(range(m + 1) for m in mu))
        if sum(alpha) == e
    )


def test_splits_by_part_multiplicity_match_the_composition_walk():
    checked = 0
    for d in range(11):
        for mu in partitions_up_to(d, 7):
            for e in range(-1, d + 2):
                assert {(a, b): c for a, b, c in _splits(mu, e)} == composition_splits(mu, e), (mu, e)
                checked += 1
    assert checked == 1436


def test_schur_at_ceilings_sit_at_the_measured_limits():
    # the largest fold allowed at (7,3), 35 forms times C(22,6), and one past it
    check_schur_at_capacity((16,), 7, 35)
    with pytest.raises(CapacityError, match="= 3,533,145, above"):
        check_schur_at_capacity((17,), 7, 35)
    # 364 partitions of 20 in at most 7 parts, 436 of 21; 377 of 25 in at
    # most 5, 427 of 26
    for la, n, forms in (((10, 10), 7, 35), ((13, 12), 5, 10)):
        check_schur_at_capacity(la, n, forms)
        with pytest.raises(CapacityError, match="more than 400 partitions"):
            check_schur_at_capacity((la[0] + 1,) + la[1:], n, forms)
    # in two variables, a size this large is refused without counting its
    # partitions
    with pytest.raises(CapacityError, match="of 1200 in at most 2"):
        check_schur_at_capacity((400, 400, 400), 2, 3)
    # an empty shape, or one longer than the alphabet, is read off with no work
    check_schur_at_capacity((), 50, 10**9)
    check_schur_at_capacity((1,) * 5, 50, 4)


def test_schur_at_refuses_long_first_rows_and_large_determinants():
    # one variable holds one partition of any size, so only la_1, the
    # determinant's order, bounds it
    check_schur_at_capacity((400,), 1, 1)
    with pytest.raises(CapacityError, match=r"^s\[401\] has a determinant of 401 rows, above"):
        check_schur_at_capacity((401,), 1, 1)
    with pytest.raises(CapacityError, match="of 1,000,000,000 rows"):
        check_schur_at_capacity((10**9, 10**9), 2, 2)
    # la_1 rows times the e_p read, up to p = h, times the partitions of |la|:
    # 223 * 2 * 112 = 49,952 and 224 * 2 * 113 = 50,624
    check_schur_at_capacity((223,), 2, 2)
    with pytest.raises(CapacityError) as refused:
        check_schur_at_capacity((224,), 2, 2)
    assert str(refused.value) == (
        "s[224] of 2 forms in 2 variables has a determinant of 224 rows reading e_p up "
        "to p = 2, over 113 partitions of 224: 224 times 2 times 113 = 50,624, above "
        "the ceiling of 50,000"
    )
    # the largest allowed cases above sit below it: 13 * 10 * 377 = 49,010,
    # 10 * 11 * 364 = 40,040 and 16 * 16 * 164 = 41,984
    check_schur_at_capacity((13, 12), 5, 10)
    check_schur_at_capacity((10, 10), 7, 35)
    check_schur_at_capacity((16,), 7, 35)
    with pytest.raises(CapacityError, match="= 94,250, above the ceiling of 50,000"):
        check_schur_at_capacity((25,), 5, 10)
    # the determinant of the longest row allowed recurses once per row, well
    # inside the recursion limit: s_(400) of the one form x_1 is x_1^400
    base = [1 - i for i in range(400)]
    assert schur._poly_det([{(): 1}, {(1,): 1}], base, 1) == {(400,): 1}


def dense_schur_at(la, a):
    """s_la(A) by the dual Jacobi-Trudi determinant expanded over every
    permutation, on graded_elementary's full polynomials, read off through
    the m basis."""
    n, laconj = a.var_count, conjugate(la)
    es = graded_elementary(a)
    total = MonomialPoly(n)
    for perm in permutations(range(len(laconj))):
        inversions = sum(x > y for i, x in enumerate(perm) for y in perm[i + 1 :])
        factors = [MonomialPoly(n, {(0,) * n: (-1) ** inversions})]
        for i, j in enumerate(perm):
            p = laconj[i] - i + j
            factors.append(es[p] if 0 <= p < len(es) else MonomialPoly(n))
        total = total + poly_product(factors, n)
    return m_to_schur(to_mvector(total))


def test_schur_at_alphabet_matches_the_dense_determinant():
    cases = [((4, 3, 2, 1), subset_alphabet(6, 3))]
    for n in range(1, 6):
        for k in range(1, n + 1):
            a = subset_alphabet(n, k)
            cases += [(la, a) for d in range(6) for la in partitions_up_to(d, d)]
    for la, a in cases:
        assert schur_at_alphabet(la, a) == dense_schur_at(la, a), (la, a)


def test_a_non_invariant_alphabet_is_refused_with_a_form_witness(monkeypatch):
    # (2x1, x2, x2): e_1 = 2x1 + 2x2 is symmetric, e_2 = 4x1x2 + x2^2 is not;
    # the forms are checked, so s_1, which reads only e_1, is refused too
    a = Alphabet(2, ((2, 0), (0, 1), (0, 1)))
    for la in ((1,), (2,)):
        with pytest.raises(AsymmetryError, match="alphabet") as err:
            schur_at_alphabet(la, a)
        assert err.value.witness == ((2, 0), (0, 2))
    # one check of the forms, none of the e_p it reads
    pairs = subset_alphabet(4, 2)
    want = dense_schur_at((3, 1), pairs)
    checks = []
    honest = schur._check_symmetric
    monkeypatch.setattr(
        schur, "_check_symmetric", lambda *args, **kw: checks.append(kw) or honest(*args, **kw)
    )
    assert schur_at_alphabet((3, 1), pairs) == want
    assert checks == [{"forms": True}]


def test_schur_at_and_the_alternating_sum_build_no_full_polynomial(monkeypatch):
    want = {n: alternating_expansion(n) for n in range(1, 8)}
    dense = dense_schur_at((3, 1), subset_alphabet(4, 2))

    def refuse(*args):
        raise AssertionError("a full polynomial was read off")

    monkeypatch.setattr(schur, "to_mvector", refuse)
    assert schur_at_alphabet((2, 1), subset_alphabet(3, 2)).terms == {
        (3,): 2, (2, 1): 5, (1, 1, 1): 4
    }
    assert schur_at_alphabet((3, 1), subset_alphabet(4, 2)) == dense
    assert {n: alternating_expansion(n) for n in want} == want


def test_the_schur_at_self_check_catches_a_changed_coefficient(monkeypatch):
    honest = schur.m_to_schur
    a, la = subset_alphabet(4, 2), (2, 1)
    for key in schur_at_alphabet(la, a).terms:

        def off_by_one(v, key=key):
            out = honest(v)
            out.terms[key] += 1
            return out

        monkeypatch.setattr(schur, "m_to_schur", off_by_one)
        with pytest.raises(ConsistencyError, match="self-check"):
            schur_at_alphabet(la, a)


def test_schur_at_alphabet_too_long_is_zero():
    pairs = Alphabet(2, ((1, 1), (1, 0)))
    assert schur_at_alphabet((1, 1, 1), pairs).terms == {}


def test_production_paths_leave_the_kostka_memo_empty():
    # Kostka numbers serve only the Schur -> m direction
    kostka.cache_clear()
    boolean_product(5, 3)
    pjk_expand(3, 3, 2, 1)
    bnm1_q(5)
    lascoux_check(4, "exterior")
    assert kostka.cache_info().currsize == 0


def test_schur_from_poly_inhomogeneous():
    p = MonomialPoly(2, {(0, 0): 3, (1, 0): 2, (0, 1): 2, (1, 1): 1})
    assert m_to_schur(to_mvector(p)).terms == {(): 3, (1,): 2, (1, 1): 1}


@st.composite
def mvector_strategy(draw, min_vars=1):
    var_count = draw(st.integers(min_value=min_vars, max_value=4))
    size = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for la in partitions_up_to(size, var_count):
        c = draw(st.integers(min_value=-3, max_value=3))
        if c:
            terms[la] = c
    return MVector(var_count, terms)


@settings(deadline=None)
@given(mvector_strategy())
def test_round_trip_property(v):
    assert schur_to_m(m_to_schur(v)).terms == v.terms
    assert schur_to_m(m_to_schur(to_mvector(expanded(v)))).terms == v.terms


def test_an_asymmetric_alphabet_is_refused():
    # (x1 + x2)(x1 + x3) is symmetric in x2, x3 only
    a = Alphabet(3, ((1, 1, 0), (1, 0, 1)))
    with pytest.raises(AsymmetryError, match="alphabet") as err:
        schur_of_product(a, [(3, None)])
    form, image = err.value.witness
    assert form in ((1, 1, 0), (1, 0, 1))
    assert sorted(form) == sorted(image) and image != form
    assert schur_of_product(a, [(1, "x"), (2, "y")]) == {
        ((2,), ()): 1,
        ((1,), (1,)): 1,
        ((), (1, 1)): 1,
    }
    # a form repeated unevenly breaks the multiset, not the set
    with pytest.raises(AsymmetryError):
        schur_of_product(Alphabet(2, ((1, 0), (0, 1), (1, 0))), [(2, None)])
    # the y block: x1 + y1 alone
    with pytest.raises(AsymmetryError) as err:
        schur_of_product(Alphabet(3, ((1, 1, 0),)), [(1, "x"), (2, "y")])
    assert err.value.block == "y"


def tampered(terms, key, move_to=None):
    """terms with one more at key, or with key's coefficient moved to move_to."""
    out = dict(terms)
    if move_to is None:
        out[key] += 1
    else:
        out[move_to] = out.get(move_to, 0) + out.pop(key)
    return out


def test_the_self_check_catches_a_changed_coefficient():
    a = subset_alphabet(4, 2)
    blocks = [(4, None)]
    terms = schur_of_product(a, blocks)
    check_principal(terms, a, blocks)
    for key in terms:
        with pytest.raises(ConsistencyError, match="self-check"):
            check_principal(tampered(terms, key), a, blocks)
    with pytest.raises(ConsistencyError):
        check_principal({**terms, ((2, 2, 2),): 1}, a, blocks)


def test_the_two_block_self_check_catches_a_changed_coefficient():
    # every X_S + Y_T, |S| = 2 of 3, |T| = 1 of 2
    a = Alphabet.from_subsets(5, [s + (t,) for s in ((0, 1), (0, 2), (1, 2)) for t in (3, 4)])
    blocks = [(3, "x"), (2, "y")]
    terms = schur_of_product(a, blocks)
    assert terms == block_schur(alphabet_product(a), blocks)
    for key in terms:
        with pytest.raises(ConsistencyError, match="self-check"):
            check_principal(tampered(terms, key), a, blocks)
    # a term swapped between the blocks, when its shapes are not equal
    for la, mu in terms:
        if la != mu and len(la) <= 2 and len(mu) <= 3 and (mu, la) not in terms:
            with pytest.raises(ConsistencyError):
                check_principal(tampered(terms, (la, mu), (mu, la)), a, blocks)


def graded_terms(a):
    """The read-off of prod (t + f) behind schur_of_graded_product."""
    n = a.var_count
    homogenised = Alphabet(n + 1, tuple((1,) + f for f in a.forms))
    blocks = [(1, "t"), (n, None)]
    return homogenised, blocks, schur_of_product(homogenised, blocks)


def test_the_graded_self_check_catches_a_coefficient_moved_between_slices():
    # a one-variable block at x_i = q^(i-1) would specialise to 1 and hide a
    # move from t^(d-p) s_mu to t^(d-p-1) s_mu; the block's scale must not
    a = subset_alphabet(4, 2)
    homogenised, blocks, terms = graded_terms(a)
    check_principal(terms, homogenised, blocks)
    assert {la: c for (_, la), c in terms.items()} == schur_of_graded_product(a).terms
    moved = 0
    for key in terms:
        with pytest.raises(ConsistencyError, match="self-check"):
            check_principal(tampered(terms, key), homogenised, blocks)
        t, mu = key
        if t:
            # from slice p = |mu| to slice p + 1, x shape unchanged
            lower = ((t[0] - 1,) if t[0] > 1 else (), mu)
            with pytest.raises(ConsistencyError, match="self-check"):
                check_principal(tampered(terms, key, lower), homogenised, blocks)
            moved += 1
    assert moved == len(terms) - 1


def test_a_tampered_read_off_fails_every_caller(monkeypatch):
    import boolprod.boolean
    import boolprod.schur

    honest = boolprod.schur.schur_from_dominant

    def off_by_one(dominant, blocks):
        out = honest(dominant, blocks)
        out[max(out)] += 1
        return out

    monkeypatch.setattr(boolprod.schur, "schur_from_dominant", off_by_one)
    # a cached slice would skip the read-off
    boolprod.boolean._graded_subset_terms.cache_clear()
    with pytest.raises(ConsistencyError, match="self-check"):
        ep_subset(4, 2, 3)
    with pytest.raises(ConsistencyError, match="self-check"):
        pjk_expand(2, 2, 1, 1)
    with pytest.raises(ConsistencyError, match="self-check"):
        lascoux_check(3, "exterior")
    with pytest.raises(ConsistencyError, match="self-check"):
        boolean_product(4, 2)


@st.composite
def symmetric_alphabet(draw):
    """One or two blocks of at most 4 variables in all, and a union of orbits
    of small random forms under the blocks' symmetric groups, at most 12
    forms."""
    sizes = draw(
        st.lists(st.integers(0, 4), min_size=1, max_size=2).filter(lambda s: 1 <= sum(s) <= 4)
    )
    n = sum(sizes)
    forms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        base = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        orbits, lo = [], 0
        for size in sizes:
            orbits.append(set(permutations(base[lo : lo + size])))
            lo += size
        forms += sorted(sum(parts, ()) for parts in product(*orbits))
    assume(len(forms) <= 12)
    return Alphabet(n, tuple(forms)), [(size, str(i)) for i, size in enumerate(sizes)]


@settings(deadline=None)
@given(symmetric_alphabet())
def test_root_only_matches_the_full_product(case):
    a, blocks = case
    assert schur_of_product(a, blocks) == block_schur(alphabet_product(a), blocks)


@settings(deadline=None)
@given(mvector_strategy())
def test_expand_then_extract(v):
    assert to_mvector(expanded(v)).terms == v.terms


@settings(deadline=None)
@given(mvector_strategy(min_vars=2), st.data())
def test_a_changed_coefficient_is_rejected(v, data):
    terms = mvector_expand(v.terms, v.var_count)
    fresh = st.lists(
        st.integers(min_value=0, max_value=3), min_size=v.var_count, max_size=v.var_count
    ).map(tuple)
    moved = sorted(exp for exp in terms if len(set(exp)) > 1)
    where = st.sampled_from(moved) | fresh if moved else fresh
    exp = data.draw(where.filter(lambda e: len(set(e)) > 1))
    terms[exp] = terms.get(exp, 0) + data.draw(st.integers(-3, 3).filter(bool))
    with pytest.raises(AsymmetryError):
        to_mvector(MonomialPoly(v.var_count, terms))
