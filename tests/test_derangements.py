"""Tests for the q-deformed (n, n-1) product and its tableau statistics."""

from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from boolprod.schur import SchurVector
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
        bnm1_q(8)
    with pytest.raises(ValueError):
        alternating_expansion(0)
    with pytest.raises(CapacityError):
        alternating_expansion(8)


def test_bnm1_q_rejects_a_negative_layer(monkeypatch):
    # the positivity check is a real exception, so it survives python -O
    layers = [SchurVector(2, {(2,): 1, (1, 1): 1}), SchurVector(2, {(1, 1): -1}),
              SchurVector(2, {(1, 1): 1})]
    monkeypatch.setattr("boolprod.derangements._layer_vectors", lambda n: layers)
    with pytest.raises(ConsistencyError, match=r"\(1, 1\)"):
        bnm1_q(2)


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
        a_coeffs_syt(9)


def test_four_routes_agree():
    # the q = -1 specialization, the signed monomial assembly, the direct
    # (n, n-1) product, and the even-smallest-ascent tableau count all match
    for n in range(2, 8):
        from_q = specialize_q(bnm1_q(n), -1)
        alternating = alternating_expansion(n)
        direct = boolean_product(n, n - 1)
        by_syt = SchurVector(n, {la: c for la, c in a_coeffs_syt(n).items() if c})
        assert from_q.terms == alternating.terms
        assert from_q.terms == direct.terms
        assert from_q.terms == by_syt.terms


def test_tableau_counts_hit_derangement_numbers():
    for n in range(2, 9):
        counts = a_coeffs_syt(n)
        vec = SchurVector(n, {la: c for la, c in counts.items() if c})
        assert frobenius_dimension(vec, 0) == derangement_number(n)


def test_frobenius_dimension_specializations():
    v4 = bnm1_q(4)
    assert frobenius_dimension(v4, 1) == 65
    assert frobenius_dimension(v4, 0) == 24
    assert frobenius_dimension(v4, -1) == 9
    for n in range(1, 8):
        v = bnm1_q(n)
        assert frobenius_dimension(v, 1) == sum(
            factorial(n) // factorial(k) for k in range(n + 1)
        )
        assert frobenius_dimension(v, 0) == factorial(n)
        if n >= 2:
            assert frobenius_dimension(v, -1) == derangement_number(n)


def test_frobenius_dimension_plain_int_coeffs():
    assert frobenius_dimension(boolean_product(3, 2), 0) == 2


def test_frobenius_dimension_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        frobenius_dimension(SchurVector(3, {(2,): 1, (1,): 1}), 0)


def test_q_coefficients_are_nonnegative():
    for n in range(1, 8):
        for poly in bnm1_q(n).terms.values():
            assert all(c >= 0 for c in poly.coeffs)
