from math import comb

import pytest

from boolprod.boolean import boolean_product
from boolprod.errors import CapacityError, ConsistencyError
from boolprod.lascoux import (
    _endpoints,
    _pair_alphabet,
    binomial_det,
    gv_count,
    lascoux_check,
)
from boolprod.polyring import graded_elementary
from boolprod.schur import SchurVector, schur_from_poly
from boolprod.tableaux import staircase, subpartitions
from oracles import graded_piece, naive_det


def test_gvconfig_padding():
    assert _endpoints((2, 1), (1,), 3) == ((4, 2, 0), (3, 1, 0))
    with pytest.raises(ValueError):
        _endpoints((1, 1, 1, 1), (), 3)


def test_binomial_det_known_values():
    assert binomial_det((1,), (), 2) == 2
    assert binomial_det((2, 1), (1,), 3) == 8
    for la in ((), (1,), (2, 1), (3, 1, 1)):
        assert binomial_det(la, la, 4) == 1


def test_binomial_det_matches_naive():
    for n in (2, 3, 4):
        for la in subpartitions((3, 2, 1)):
            if len(la) > n:
                continue
            for mu in subpartitions((3, 2, 1)):
                if len(mu) > n:
                    continue
                lap = la + (0,) * (n - len(la))
                mup = mu + (0,) * (n - len(mu))
                matrix = [
                    [comb(lap[i] + n - 1 - i, mup[j] + n - 1 - j) for j in range(n)]
                    for i in range(n)
                ]
                assert binomial_det(la, mu, n) == naive_det(matrix), (la, mu, n)


def test_binomial_det_nonnegative_on_contained():
    for la in subpartitions((3, 2, 1)):
        for mu in subpartitions(la):
            for n in (3, 4):
                assert binomial_det(la, mu, n) >= 0


def test_gv_known_values(monkeypatch):
    # the path count reaches no determinant code
    for name in ("lascoux.binomial_det", "lascoux._int_det", "polyring._int_det"):
        monkeypatch.setattr(f"boolprod.{name}", None)
    assert gv_count((1,), (), 2) == 2
    assert gv_count((2, 1), (1,), 3) == 8
    for la in ((), (1,), (1, 1), (2, 1)):
        assert gv_count(la, la, 3) == 1


def test_gv_equals_det_everywhere():
    assert gv_count((), (), 0) == 1
    for n in range(1, 6):
        for la in subpartitions((4, 3, 2, 1)):
            if len(la) > n:
                continue
            for mu in subpartitions(la):
                assert gv_count(la, mu, n) == binomial_det(la, mu, n), (la, mu, n)


def test_gv_rejects_non_contained():
    with pytest.raises(ValueError):
        gv_count((1,), (2,), 3)


def test_gv_capacity():
    # start heights (17, 11, 5) sum past the enumeration cap of 30
    with pytest.raises(CapacityError):
        gv_count((15, 10, 5), (1,), 3)


def test_lascoux_exterior_n2_by_hand():
    report = lascoux_check(2, "exterior")
    assert report.equal
    assert report.lhs.terms == {(): 1, (1,): 1}
    assert report.rhs.terms == {(): 1, (1,): 1}


def test_lascoux_symmetric_n2_by_hand():
    # (1+2x1)(1+2x2)(1+x1+x2) expanded and matched coefficient by coefficient
    report = lascoux_check(2, "symmetric")
    assert report.lhs.terms == {
        (): 1,
        (1,): 3,
        (2,): 2,
        (1, 1): 6,
        (2, 1): 4,
    }
    assert report.equal


@pytest.fixture(scope="module")
def reports():
    # each n once: the symmetric n = 7 check takes a few seconds
    kinds = ("exterior", "symmetric")
    return {(n, kind): lascoux_check(n, kind) for n in range(2, 8) for kind in kinds}


def test_lascoux_all_supported(reports):
    # lascoux_check raises unless the read-off equals the published formula
    for report in reports.values():
        assert report.equal
        assert report.lhs.is_nonnegative()


def test_lascoux_lhs_matches_the_full_product():
    for n in (2, 3, 4, 5):
        for kind in ("exterior", "symmetric"):
            full = SchurVector(n)
            for piece in graded_elementary(_pair_alphabet(n, kind)):
                full = full + schur_from_poly(piece)
            assert lascoux_check(n, kind).lhs.terms == full.terms, (n, kind)


def test_lascoux_rejects_non_integral_rhs(monkeypatch):
    # a determinant of 1 leaves 2^|mu| / 2^C(n,2) fractional at mu = ()
    monkeypatch.setattr("boolprod.lascoux.binomial_det", lambda la, mu, n: 1)
    with pytest.raises(ConsistencyError, match="not integral"):
        lascoux_check(3, "exterior")


def test_lascoux_top_grade_is_pair_product():
    for n in (3, 4, 5):
        report = lascoux_check(n, "exterior")
        top = comb(n, 2)
        assert graded_piece(report.lhs.terms, top) == boolean_product(n, 2).terms


def test_lascoux_top_term_is_staircase(reports):
    # top grade of the symmetric kind: prod 2x_i * prod_{i<j}(x_i+x_j),
    # i.e. the full staircase delta_n with coefficient 2^n
    for n in range(2, 8):
        report = reports[n, "symmetric"]
        top = comb(n + 1, 2)
        assert graded_piece(report.lhs.terms, top) == {staircase(n): 2**n}


def test_lascoux_out_of_range():
    with pytest.raises(CapacityError):
        lascoux_check(8, "exterior")
    # parameters out of the domain are refused before the capacity check
    for n, kind in ((1, "exterior"), (3, "weird"), (8, "weird")):
        with pytest.raises(ValueError):
            lascoux_check(n, kind)
