from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from boolprod.bialphabet import pjk_expand
from boolprod.boolean import boolean_product, ep_subset, subset_alphabet
from boolprod.derangements import bnm1_q
from boolprod.errors import AsymmetryError, ConsistencyError
from boolprod.lascoux import lascoux_check
from boolprod.polyring import Alphabet, MonomialPoly, alphabet_product
from boolprod.schur import (
    MVector,
    SchurVector,
    _shape,
    _signed_orbit,
    block_schur,
    check_principal,
    m_to_schur,
    mvector_expand,
    schur_at_alphabet,
    schur_from_dominant,
    schur_from_poly,
    schur_of_graded_product,
    schur_of_product,
    schur_to_m,
    to_mvector,
)
from boolprod.tableaux import kostka, partitions_up_to
from oracles import schur_poly_direct


def test_to_mvector_known_values():
    p = MonomialPoly(2, {(2, 0): 1, (0, 2): 1, (1, 1): 3})
    assert to_mvector(p).terms == {(2,): 1, (1, 1): 3}
    assert to_mvector(MonomialPoly.constant(3, 7)).terms == {(): 7}


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
        schur_from_poly(p)
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
        schur_from_poly(p)
    assert err.value.block is None
    present, image = err.value.witness
    assert present in p.terms
    assert sorted(present) == sorted(image)


def test_schur_vector_sum_drops_cancelled_terms():
    a = SchurVector(2, {(2,): 1, (1, 1): 2})
    assert (a + SchurVector(2, {(1, 1): -2})).terms == {(2,): 1}


def test_mvector_expand_inverts_extraction():
    v = MVector(3, {(2, 1): 4, (1, 1, 1): 7, (): 2})
    assert to_mvector(mvector_expand(v)).terms == v.terms


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
    with pytest.raises(TypeError):
        hash(v)
    with pytest.raises(TypeError):
        hash(MVector(1))


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


def test_the_signed_orbit_walk_matches_brute_force():
    for n in range(1, 5):
        for d in range(8):
            for mu in partitions_up_to(d, n):
                walked = _signed_orbit(mu, n)
                assert len(dict(walked)) == len(walked)
                assert {_shape(mask, n): c for mask, c in walked} == brute_signed_orbit(mu, n)


def test_an_empty_block_has_one_empty_arrangement():
    assert _signed_orbit((), 0) == [(0, 1)] and _shape(0, 0) == ()
    assert _signed_orbit((1,), 0) == []
    assert schur_from_dominant({((), (1, 1)): 1}, [(0, "x"), (2, "y")]) == {((), (1, 1)): 1}


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
        for d in range(1, 6):
            for la in partitions_up_to(d, var_count):
                got = schur_at_alphabet(la, singletons)
                assert got.terms == {la: 1}
                direct = schur_poly_direct(la, var_count)
                expanded = mvector_expand(schur_to_m(got))
                assert expanded.terms == direct


def test_schur_at_alphabet_example():
    pairs = Alphabet(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    assert schur_at_alphabet((2, 1), pairs).terms == {(3,): 2, (2, 1): 5, (1, 1, 1): 4}
    assert schur_at_alphabet((1,), pairs).terms == {(1,): 2}
    assert schur_at_alphabet((), pairs).terms == {(): 1}


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
    assert schur_from_poly(p).terms == {(): 3, (1,): 2, (1, 1): 1}


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
    assert schur_to_m(schur_from_poly(mvector_expand(v))).terms == v.terms


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
    assert to_mvector(mvector_expand(v)).terms == v.terms


@settings(deadline=None)
@given(mvector_strategy(min_vars=2), st.data())
def test_a_changed_coefficient_is_rejected(v, data):
    terms = dict(mvector_expand(v).terms)
    fresh = st.lists(
        st.integers(min_value=0, max_value=3), min_size=v.var_count, max_size=v.var_count
    ).map(tuple)
    moved = sorted(exp for exp in terms if len(set(exp)) > 1)
    where = st.sampled_from(moved) | fresh if moved else fresh
    exp = data.draw(where.filter(lambda e: len(set(e)) > 1))
    terms[exp] = terms.get(exp, 0) + data.draw(st.integers(-3, 3).filter(bool))
    with pytest.raises(AsymmetryError):
        to_mvector(MonomialPoly(v.var_count, terms))
