"""Release gate: eleven numbered checks, each with an explicit time budget.

Every test here states a complete contract: exact golden values where the
answer is pinned, cross-method agreement where two independent routes exist,
and wall-clock ceilings throughout.  conftest prints one PASS/FAIL line per
criterion at the end of the run.
"""

import os
import subprocess
import sys
from math import comb, factorial
from time import perf_counter

import pytest

from boolprod.bialphabet import dual_cauchy_reference, pjk_expand
from boolprod.boolean import boolean_product, ep_subset, subset_alphabet, total_boolean
from boolprod.cli import main
from boolprod.derangements import (
    a_coeffs_syt,
    alternating_expansion,
    bnm1_q,
    frobenius_dimension,
    specialize_q,
)
from boolprod.lascoux import binomial_det, gv_count, lascoux_check
from boolprod.polyring import alphabet_product
from boolprod.resonance import bounded_regions, charpoly_ff, charpoly_mobius, regions
from boolprod.schur import (
    MVector,
    SchurVector,
    m_to_schur,
    schur_at_alphabet,
    schur_to_m,
    to_mvector,
)
from boolprod.tableaux import num_syt, partitions_up_to, staircase, subpartitions
from oracles import derangement_number

EP_5_3_10 = {
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


def test_criterion_01_first_product_goldens(capsys):
    start = perf_counter()
    code = main(["boolean-expand", "--n", "3", "--k", "2"])
    assert code == 0
    assert capsys.readouterr().out == "s[2,1]\n"
    assert boolean_product(3, 2).terms == {(2, 1): 1}
    assert ep_subset(3, 2, 1).terms == {(1,): 2}
    assert ep_subset(3, 2, 2).terms == {(2,): 1, (1, 1): 2}
    assert perf_counter() - start < 1.0


def test_criterion_02_large_elementary_golden():
    start = perf_counter()
    result = ep_subset(5, 3, 10).terms
    assert len(result) == 20
    assert result == EP_5_3_10
    assert perf_counter() - start < 30.0


def test_criterion_03_schur_at_alphabet_golden():
    start = perf_counter()
    v = schur_at_alphabet((2, 1), subset_alphabet(3, 2))
    assert v.terms == {(3,): 2, (2, 1): 5, (1, 1, 1): 4}
    assert perf_counter() - start < 1.0


def test_criterion_04_pair_product_identity():
    start = perf_counter()
    for n in range(2, 6):
        for kind in ("exterior", "symmetric"):
            report = lascoux_check(n, kind)
            assert report.equal, (n, kind)
    assert perf_counter() - start < 120.0


def test_criterion_05_paths_match_determinants():
    start = perf_counter()
    cases = 0
    for n in (3, 4):
        for la in subpartitions((3, 2, 1)):
            for mu in subpartitions(la):
                assert gv_count(la, mu, n) == binomial_det(la, mu, n), (la, mu, n)
                cases += 1
    assert cases >= 24
    assert perf_counter() - start < 60.0


def test_criterion_06_four_routes_and_derangements():
    start = perf_counter()
    for n in range(2, 8):
        direct = boolean_product(n, n - 1).terms
        assert specialize_q(bnm1_q(n), -1).terms == direct
        assert alternating_expansion(n).terms == direct
        counts = a_coeffs_syt(n)
        assert {la: c for la, c in counts.items() if c} == direct
        total = sum(c * num_syt(la) for la, c in counts.items())
        assert total == derangement_number(n)
    assert perf_counter() - start < 60.0


def test_criterion_07_dimension_formulas():
    assert frobenius_dimension(bnm1_q(4), 1) == 65
    for n in range(1, 8):
        v = bnm1_q(n)
        assert frobenius_dimension(v, 1) == sum(
            factorial(n) // factorial(k) for k in range(n + 1)
        )
        assert frobenius_dimension(v, 0) == factorial(n)
        assert frobenius_dimension(v, -1) == derangement_number(n)


def test_criterion_08_arrangement_pipeline():
    start = perf_counter()
    for n in range(1, 5):
        # every charpoly_ff call also validates itself on a holdout prime
        assert charpoly_ff(n).coeffs == charpoly_mobius(n).coeffs
    assert charpoly_ff(2).coeffs == (2, -3, 1)
    assert charpoly_ff(3).coeffs == (-9, 15, -7, 1)
    assert [regions(n) for n in range(1, 5)] == [2, 6, 32, 370]
    for n in range(1, 5):
        assert bounded_regions(n) == 0
        assert regions(n) % 2 == 0
    assert perf_counter() - start < 120.0


def test_criterion_08_regions_at_n5():
    assert charpoly_ff(5).coeffs == (-3485, 5270, -2130, 375, -31, 1)
    assert regions(5) == 11292


def test_criterion_09_positivity_sweep():
    start = perf_counter()
    for n in range(1, 6):
        for k in range(1, n + 1):
            for p in range(comb(n, k) + 1):
                assert ep_subset(n, k, p).is_nonnegative(), (n, k, p)
    for n in range(1, 4):
        for m in range(1, 4):
            for j in range(n + 1):
                for k in range(m + 1):
                    if j == k == 0:
                        continue
                    assert pjk_expand(n, m, j, k).is_nonnegative(), (n, m, j, k)
    for n in range(2, 7):
        assert boolean_product(n, 2).terms == {staircase(n - 1): 1}
    for n in range(1, 5):
        assert total_boolean(n).is_nonnegative()
    assert perf_counter() - start < 600.0


def test_criterion_10_dual_cauchy():
    for n in range(1, 5):
        for m in range(1, 5):
            assert pjk_expand(n, m, 1, 1).terms == dual_cauchy_reference(n, m).terms


def test_criterion_11_infrastructure_properties():
    # monomial <-> Schur round trips on everything of size <= 8
    for vc in range(1, 6):
        shapes = [la for d in range(9) for la in partitions_up_to(d, vc)]
        coeffs = {la: i + 1 for i, la in enumerate(shapes)}
        svec = SchurVector(vc, dict(coeffs))
        assert m_to_schur(schur_to_m(svec)).terms == svec.terms
        mvec = MVector(vc, dict(coeffs))
        assert schur_to_m(m_to_schur(mvec)).terms == mvec.terms

    # the asymmetry witness stays silent on every computed product
    for n in range(2, 5):
        for k in range(1, n + 1):
            to_mvector(alphabet_product(subset_alphabet(n, k)))

    # byte-identical CLI output regardless of the advertised thread count
    argv = ["schur-at", "--lambda", "2,1", "--n", "3", "--k", "2", "--format", "json"]
    outputs = []
    for threads in ("1", "2", "8"):
        env = dict(os.environ)
        env["BOOLPROD_THREADS"] = threads
        outputs.append(
            subprocess.run(
                [sys.executable, "-m", "boolprod", *argv],
                capture_output=True,
                env=env,
                check=True,
            ).stdout
        )
    assert outputs[0] == outputs[1] == outputs[2]
