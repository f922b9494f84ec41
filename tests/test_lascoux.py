from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from boolprod import lascoux
from boolprod.boolean import boolean_product
from boolprod.errors import CapacityError, ConsistencyError
from boolprod.lascoux import (
    GV_MAX_WORK,
    GV_RANGE_WORK,
    _chains,
    _endpoints,
    _pair_alphabet,
    _transfer_work,
    _work_bound,
    binomial_det,
    gv_count,
    lascoux_check,
)
from boolprod.polyring import graded_elementary
from boolprod.schur import SchurVector, m_to_schur, to_mvector
from boolprod.tableaux import staircase, subpartitions
from oracles import graded_piece, naive_det, path_families


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
    # the transfer, the point-by-point walk and the determinant
    assert gv_count((), (), 0) == 1 == path_families((), (), 0)
    for n in range(1, 6):
        for la in subpartitions((4, 3, 2, 1)):
            if len(la) > n:
                continue
            for mu in subpartitions(la):
                got = gv_count(la, mu, n)
                assert got == path_families(la, mu, n) == binomial_det(la, mu, n), (la, mu, n)


def test_gv_equals_det_near_the_ceiling():
    for la, mu, n in (
        ((30, 20, 10), (5, 3, 1), 4),
        ((20, 15, 10, 5), (5, 3, 1), 5),
        ((500,), (10,), 1),
        ((12, 10, 8, 6, 4, 2), (6, 4, 2), 7),
    ):
        a, b = _endpoints(la, mu, n)
        assert 250_000 < _transfer_work(a, b) <= GV_MAX_WORK
        assert gv_count(la, mu, n) == binomial_det(la, mu, n), (la, mu, n)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=5))
def test_chains_match_the_listed_sequences(bounds):
    ranges = [(min(p), max(p)) for p in bounds]
    want = 0
    for v in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        want += all(v[j] <= v[j - 1] if j % 2 else v[j] < v[j - 1] for j in range(1, len(v)))
    assert _chains(ranges) == want


def test_transfer_work_counts_the_transitions(monkeypatch):
    # the chains _transfer_work sums, once per run of equal columns, are the
    # (h, e) pairs the transfer walks, and the work adds the range cells
    steps = []
    honest_product = lascoux.product

    def counted_product(*ranges):
        for e in honest_product(*ranges):
            steps.append(e)
            yield e

    monkeypatch.setattr(lascoux, "product", counted_product)
    for n in range(1, 6):
        for la in subpartitions((4, 3, 2, 1)):
            if len(la) > n:
                continue
            for mu in subpartitions(la):
                steps.clear()
                gv_count(la, mu, n)
                a, b = _endpoints(la, mu, n)
                columns = list(lascoux._columns(a, b))
                chains = sum(run * _chains(ranges) for ranges, run in columns)
                cells = sum(
                    run * sum(hi - lo + 1 + GV_RANGE_WORK for lo, hi in ranges)
                    for ranges, run in columns
                )
                work = _transfer_work(a, b)
                assert chains == len(steps) and work == chains + cells, (la, mu, n)
                assert work <= _work_bound(a, b), (la, mu, n)


def test_gv_is_zero_when_mu_is_not_inside_la():
    # some mu_i > la_i leaves path i no route, and the determinant vanishes
    cases = 0
    for n in range(1, 5):
        for la in subpartitions((3, 2, 1)):
            for mu in subpartitions((4,) * n):
                inside = len(mu) <= len(la) and all(m <= l for m, l in zip(mu, la))
                if len(la) <= n and not inside:
                    assert gv_count(la, mu, n) == binomial_det(la, mu, n) == 0, (la, mu, n)
                    cases += 1
    assert cases > 1000


def test_gv_capacity():
    # one path from (0, L) down to (1, 1): in each of its two columns L cells
    # and L transitions, one cell more, and three ranges, so 4L + 1 + 3 * 16
    assert GV_MAX_WORK == 2_000_000 and GV_RANGE_WORK == 16
    assert _transfer_work((499_987,), (1,)) == 1_999_997
    with pytest.raises(CapacityError, match=r"more than 2,000,000 steps"):
        gv_count((499_988,), (1,), 1)
    # a long run of columns is refused before any is counted
    with pytest.raises(CapacityError):
        gv_count((10**9,), (10**9,), 1)
    # the old cap, 30 on the sum of the start heights, is gone
    assert gv_count((15, 10, 5), (1,), 3) == binomial_det((15, 10, 5), (1,), 3)


def test_refusals_near_the_path_ceiling_count_no_chain(monkeypatch):
    # the floor over runs of equal columns refuses both before any chain
    # is counted; the second has 58,001 columns, taken as two runs
    monkeypatch.setattr(lascoux, "_chains", lambda ranges: pytest.fail(f"counted {ranges}"))
    for la, mu in (((499_988,), (1,)), ((58_000,), (58_000,))):
        with pytest.raises(CapacityError, match=r"more than 2,000,000 steps"):
            gv_count(la, mu, 1)
    assert [run for _, run in lascoux._columns((58_000,), (58_000,))] == [58_000, 1]


def test_many_paths_are_refused_before_any_column_is_built(monkeypatch):
    # 10,000 paths each read a range in every column they are active in,
    # which passes the ceiling before a column's ranges are listed
    monkeypatch.setattr(lascoux, "_columns", lambda a, b: pytest.fail("built a column"))
    with pytest.raises(CapacityError, match=r"more than 2,000,000 steps"):
        gv_count((), (), 10_000)


def test_a_floor_at_the_ceiling_still_counts_the_chains(monkeypatch):
    # cells, 16 a range and the widest range of each column: below the work,
    # so with the ceiling set to it the count must go on past it
    a, b = _endpoints((4, 2, 1), (1,), 3)
    floor = 0
    for ranges, run in lascoux._columns(a, b):
        widths = [hi - lo + 1 for lo, hi in ranges]
        floor += run * (sum(widths) + GV_RANGE_WORK * len(ranges) + max(widths))
    assert floor < _transfer_work(a, b)
    monkeypatch.setattr(lascoux, "GV_MAX_WORK", floor)
    assert _transfer_work(a, b) > floor


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
                full = full + m_to_schur(to_mvector(piece))
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
    with pytest.raises(CapacityError, match="into 1,046,868 monomials"):
        lascoux_check(9, "exterior")
    # parameters out of the domain are refused before the capacity check
    for n, kind in ((1, "exterior"), (3, "weird"), (8, "weird")):
        with pytest.raises(ValueError):
            lascoux_check(n, kind)


def test_lascoux_exterior_at_8_meets_its_binomial_determinants():
    # n = 8 runs only because its folds are counted within the caps of its
    # keys; lascoux_check raises unless both sides agree
    report = lascoux_check(8, "exterior")
    assert report.equal and report.lhs.terms
