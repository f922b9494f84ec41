"""Tests for the q-deformed (n, n-1) product and its tableau statistics."""

from itertools import combinations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import boolprod.derangements
import boolprod.schur
from boolprod.boolean import boolean_product
from boolprod.derangements import (
    QPoly,
    a_coeffs_syt,
    alternating_expansion,
    bnm1_q,
    frobenius_dimension,
    specialize_q,
)
from boolprod.errors import CapacityError, ConsistencyError
from boolprod.polyring import MonomialPoly
from boolprod.schur import SchurVector, schur_from_poly
from oracles import derangement_number


def test_qpoly_trims_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()
    assert not QPoly((0,))
    assert QPoly((0, 1))


def test_qpoly_degree():
    assert QPoly(()).degree() == -1
    assert QPoly((5,)).degree() == 0
    assert QPoly((0, 0, 3)).degree() == 2


def test_qpoly_arithmetic():
    a = QPoly((1, 2))
    b = QPoly((0, 1, 1))
    assert (a + b).coeffs == (1, 3, 1)
    assert (a + 4).coeffs == (5, 2)
    assert (4 + a).coeffs == (5, 2)
    assert (a * b).coeffs == (0, 1, 3, 2)
    assert (a * 3).coeffs == (3, 6)
    assert (2 * a).coeffs == (2, 4)
    # sum() starts from int 0, so __radd__ must accept it
    assert sum([a, b]).coeffs == (1, 3, 1)


def test_qpoly_evaluation():
    p = QPoly((1, 1, 1))
    assert p(0) == 1
    assert p(1) == 3
    assert p(-1) == 1
    assert p(2) == 7
    assert QPoly(())(-1) == 0


def test_qpoly_str():
    assert str(QPoly(())) == "0"
    assert str(QPoly((1, 1, 1))) == "1 + q + q^2"
    assert str(QPoly((0, 2))) == "2q"
    assert str(QPoly((-1, 1))) == "-1 + q"
    assert str(QPoly((0, 0, 1))) == "q^2"
    assert str(QPoly((3, 0, -2))) == "3 - 2q^2"


@given(
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.integers(-9, 9), max_size=5),
    st.integers(-3, 3),
)
def test_qpoly_respects_evaluation(ca, cb, q0):
    a, b = QPoly(tuple(ca)), QPoly(tuple(cb))
    assert (a + b)(q0) == a(q0) + b(q0)
    assert (a * b)(q0) == a(q0) * b(q0)


def test_bnm1_q_smallest_cases():
    one = bnm1_q(1)
    assert one.terms == {(1,): QPoly((1, 1))}

    two = bnm1_q(2)
    assert two.terms == {(2,): QPoly((1, 1)), (1, 1): QPoly((1, 1, 1))}


def test_bnm1_q_at_zero_is_power_of_e1():
    # q = 0 keeps only the j = 0 layer, i.e. (e_1)^n
    for n in range(1, 6):
        at_zero = specialize_q(bnm1_q(n), 0)
        assert frobenius_dimension(at_zero, 0) == factorial(n)
    assert specialize_q(bnm1_q(2), 0).terms == {(2,): 1, (1, 1): 1}


def test_bnm1_q_out_of_range():
    with pytest.raises(ValueError):
        bnm1_q(0)
    with pytest.raises(CapacityError):
        bnm1_q(14)
    with pytest.raises(ValueError):
        alternating_expansion(0)
    with pytest.raises(CapacityError):
        alternating_expansion(11)


def test_bnm1_q_rejects_a_negative_layer(monkeypatch):
    # the positivity check is a real exception, so it survives python -O;
    # at n = 2 the q-coefficients are packed at q = 2^4, and s_(1,1) carries
    # 1 + q + q^2, so taking 2q off leaves the digit of q at -1
    honest = boolprod.derangements.schur_of_product

    def tampered(a, blocks):
        out = honest(a, blocks)
        out[((1, 1),)] -= 2 << 4
        return out

    monkeypatch.setattr(boolprod.derangements, "schur_of_product", tampered)
    with pytest.raises(ConsistencyError, match=r"negative q-coefficient at \(1, 1\)"):
        bnm1_q(2)


def test_bnm1_q_rejects_a_coefficient_past_its_last_layer(monkeypatch):
    # one more at q^3 = 2^12, past the n + 1 = 3 layers of n = 2
    honest = boolprod.derangements.schur_of_product

    def tampered(a, blocks):
        out = honest(a, blocks)
        out[((1, 1),)] += 1 << 12
        return out

    monkeypatch.setattr(boolprod.derangements, "schur_of_product", tampered)
    with pytest.raises(ConsistencyError, match=r"\(1, 1\).*passes q\^2"):
        bnm1_q(2)


def test_bnm1_q_self_check_catches_a_changed_packed_coefficient(monkeypatch):
    honest = boolprod.schur.schur_from_dominant
    shapes = {n: list(bnm1_q(n).terms) for n in (2, 5)}
    for n, keys in shapes.items():
        for la in keys:

            def off_by_one(dominant, blocks, key=(la,)):
                out = honest(dominant, blocks)
                out[key] += 1
                return out

            monkeypatch.setattr(boolprod.schur, "schur_from_dominant", off_by_one)
            with pytest.raises(ConsistencyError, match="self-check"):
                bnm1_q(n)


def test_bnm1_q_layers_match_the_full_products():
    # the q^j layer is e_j * e_1^(n-j), built here in monomial space
    for n in range(1, 7):
        e = [
            MonomialPoly(n, {tuple(int(i in s) for i in range(n)): 1 for s in combinations(range(n), j)})
            for j in range(n + 1)
        ]
        got = {la: c.coeffs + (0,) * (n + 1 - len(c.coeffs)) for la, c in bnm1_q(n).terms.items()}
        for j in range(n + 1):
            layer = e[j]
            for _ in range(n - j):
                layer = layer * e[1]
            want = schur_from_poly(layer).terms
            assert {la: c[j] for la, c in got.items() if c[j]} == want


def test_alternating_expansion_degenerate():
    # n = 1: e_1 - e_1 cancels to zero
    assert alternating_expansion(1).terms == {}


def test_a_coeffs_known_values():
    assert a_coeffs_syt(2) == {(2,): 0, (1, 1): 1}
    assert a_coeffs_syt(3) == {(3,): 0, (2, 1): 1, (1, 1, 1): 0}
    assert a_coeffs_syt(4) == {
        (4,): 0,
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
        (1, 1, 1, 1): 1,
    }


def test_a_coeffs_out_of_range():
    with pytest.raises(ValueError):
        a_coeffs_syt(1)
    with pytest.raises(CapacityError):
        a_coeffs_syt(12)


def test_four_routes_agree():
    # the q = -1 specialization, the signed monomial assembly, the direct
    # (n, n-1) product, and the even-smallest-ascent tableau count all match
    for n in range(2, 10):
        from_q = specialize_q(bnm1_q(n), -1)
        alternating = alternating_expansion(n)
        direct = boolean_product(n, n - 1)
        by_syt = SchurVector(n, {la: c for la, c in a_coeffs_syt(n).items() if c})
        assert from_q.terms == alternating.terms
        assert from_q.terms == direct.terms
        assert from_q.terms == by_syt.terms


def test_tableau_counts_hit_derangement_numbers():
    for n in range(2, 12):
        counts = a_coeffs_syt(n)
        vec = SchurVector(n, {la: c for la, c in counts.items() if c})
        assert frobenius_dimension(vec, 0) == derangement_number(n)


def test_frobenius_dimension_specializations():
    v4 = bnm1_q(4)
    assert frobenius_dimension(v4, 1) == 65
    assert frobenius_dimension(v4, 0) == 24
    assert frobenius_dimension(v4, -1) == 9
    for n in range(1, 11):
        v = bnm1_q(n)
        assert frobenius_dimension(v, 1) == sum(
            factorial(n) // factorial(k) for k in range(n + 1)
        )
        assert frobenius_dimension(v, 0) == factorial(n)
        if n >= 2:
            assert frobenius_dimension(v, -1) == derangement_number(n)
    # D_8, D_9, D_10 (OEIS A000166)
    assert [frobenius_dimension(bnm1_q(n), -1) for n in (8, 9, 10)] == [14833, 133496, 1334961]


def test_frobenius_dimension_plain_int_coeffs():
    assert frobenius_dimension(boolean_product(3, 2), 0) == 2


def test_frobenius_dimension_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        frobenius_dimension(SchurVector(3, {(2,): 1, (1,): 1}), 0)


def test_q_coefficients_are_nonnegative():
    for n in range(1, 8):
        for poly in bnm1_q(n).terms.values():
            assert all(c >= 0 for c in poly.coeffs)
