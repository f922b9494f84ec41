"""Tests for two-block products and the dual Cauchy cross-check."""

from math import comb

import pytest

from itertools import combinations

from boolprod.bialphabet import BiSchurVector, dual_cauchy_reference, pjk_expand
from boolprod.boolean import boolean_product
from boolprod.cli import main
from boolprod.errors import AsymmetryError, CapacityError
from boolprod.polyring import Alphabet, MonomialPoly, alphabet_product, block_cuts
from boolprod.schur import _check_symmetric, _pick_dominant, schur_from_dominant
from oracles import schur_poly_direct


def block_schur(poly, blocks):
    """The read-off of a full polynomial symmetric in each block: its
    symmetry checked, its dominant terms picked, then schur_from_dominant."""
    cuts = block_cuts(blocks, poly.var_count)
    _check_symmetric(poly.terms, cuts)
    return schur_from_dominant(_pick_dominant(poly.terms, cuts), blocks)


def test_bischur_vector_basics():
    v = BiSchurVector(2, 2, {((1,), (1,)): 3, ((2,), ()): 0})
    assert v.terms == {((1,), (1,)): 3}
    assert v.is_nonnegative()
    assert not BiSchurVector(1, 1, {((1,), ()): -1}).is_nonnegative()
    with pytest.raises(ValueError):
        BiSchurVector(1, 1, {((1, 1), ()): 1})


def test_items_sorted_descends():
    v = BiSchurVector(2, 2, {((), (2,)): 1, ((1, 1), ()): 1, ((1,), (1,)): 1})
    assert [pair for pair, _ in v.items_sorted()] == [
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
    ]


def test_pjk_smallest_products():
    assert pjk_expand(1, 1, 1, 1).terms == {((1,), ()): 1, ((), (1,)): 1}
    assert pjk_expand(2, 1, 1, 1).terms == {
        ((1, 1), ()): 1,
        ((1,), (1,)): 1,
        ((), (2,)): 1,
    }


def test_pjk_degenerate_blocks():
    # k = 0 forms carry no y part, so the y shape is always empty
    assert pjk_expand(2, 2, 1, 0).terms == {((1, 1), ()): 1}
    assert pjk_expand(2, 2, 0, 1).terms == {((), (1, 1)): 1}
    assert pjk_expand(3, 2, 2, 0).terms == {
        (la, ()): c for la, c in boolean_product(3, 2).terms.items()
    }
    assert pjk_expand(0, 2, 0, 1).terms == {((), (1, 1)): 1}
    assert pjk_expand(2, 0, 1, 0).terms == {((1, 1), ()): 1}
    # both subsets empty: the lone form is the zero polynomial
    assert pjk_expand(2, 2, 0, 0).terms == {}


def test_an_empty_block_prints_its_empty_shape(capsys):
    for argv, want in (
        (["--n", "0", "--m", "2", "--j", "0", "--k", "1"], "s[-](X) s[1,1](Y)\n"),
        (["--n", "2", "--m", "0", "--j", "1", "--k", "0"], "s[1,1](X) s[-](Y)\n"),
    ):
        assert main(["bialphabet", *argv]) == 0
        assert capsys.readouterr().out == want


def test_root_only_pairs_match_the_full_product():
    for n in range(4):
        for m in range(4):
            if n == m == 0:
                continue
            blocks = [(n, "x"), (m, "y")]
            for j in range(n + 1):
                for k in range(m + 1):
                    forms = [
                        s + tuple(n + i for i in t)
                        for s in combinations(range(n), j)
                        for t in combinations(range(m), k)
                    ]
                    a = Alphabet.from_subsets(n + m, forms)
                    want = block_schur(alphabet_product(a), blocks)
                    assert pjk_expand(n, m, j, k).terms == want, (n, m, j, k)


def test_dual_cauchy_reference_small():
    assert dual_cauchy_reference(2, 1).terms == {
        ((1, 1), ()): 1,
        ((1,), (1,)): 1,
        ((), (2,)): 1,
    }
    ref22 = dual_cauchy_reference(2, 2)
    assert len(ref22.terms) == 6
    assert set(ref22.terms.values()) == {1}
    assert ((2, 1), (1,)) in ref22.terms


def test_dual_cauchy_agreement():
    # the (1, 1) product must recover the box-complement expansion exactly
    for n in range(1, 5):
        for m in range(1, 5):
            assert pjk_expand(n, m, 1, 1).terms == dual_cauchy_reference(n, m).terms


def test_expansion_positive_and_homogeneous():
    for n in range(1, 4):
        for m in range(1, 4):
            for j in range(n + 1):
                for k in range(m + 1):
                    if j == k == 0:
                        continue
                    out = pjk_expand(n, m, j, k)
                    degree = comb(n, j) * comb(m, k)
                    assert out.is_nonnegative()
                    for la, mu in out.terms:
                        assert sum(la) + sum(mu) == degree


def test_swapping_blocks_transposes():
    for n, m, j, k in [(2, 3, 1, 2), (2, 2, 2, 1), (3, 1, 2, 1)]:
        direct = pjk_expand(n, m, j, k).terms
        swapped = pjk_expand(m, n, k, j).terms
        assert direct == {(la, mu): c for (mu, la), c in swapped.items()}


def test_capacity_limits():
    with pytest.raises(CapacityError, match="into 1,900,715 monomials"):
        pjk_expand(4, 4, 2, 2)  # 36 forms
    # C(12,6) = 924 shapes of 12 parts pass; C(20,10) = 184,756 of 20 do not
    assert len(dual_cauchy_reference(6, 6).terms) == 924
    with pytest.raises(CapacityError, match="184,756 shapes of 20 parts, 3,695,120 in all"):
        dual_cauchy_reference(10, 10)


def test_sparse_boxes_whose_fold_count_reads_high_are_refused():
    # The count bounds each variable's exponent alone, so on sparse forms it
    # reads high: the 2-by-15 box of forms x_i + y_t counts 1,486,442 for a
    # larger fold of 663,552, and (3, 9, 2, 1) counts 1,024,380.  Both are
    # refused, though their folds fit; a count that also bounded the degree
    # of sets of variables, as Hall's condition does, would admit them.
    for args, count in (((2, 15, 1, 1), "1,486,442"), ((3, 9, 2, 1), "1,024,380")):
        with pytest.raises(CapacityError, match=f"into {count} monomials, above the ceiling"):
            pjk_expand(*args)


def test_the_running_fold_bounds_pjk_expand(monkeypatch):
    # pjk_expand(3, 3, 1, 1)'s larger fold, of six forms x_i + y_t, holds at
    # most 54 monomials, counted as 78 before it is folded
    monkeypatch.setattr("boolprod.polyring.FOLD_MAX_MONOMIALS", 78)
    assert pjk_expand(3, 3, 1, 1).terms == dual_cauchy_reference(3, 3).terms
    monkeypatch.setattr("boolprod.polyring.FOLD_MAX_MONOMIALS", 77)
    monkeypatch.setattr("boolprod.polyring._capped_fold", None)  # never reached
    with pytest.raises(CapacityError, match="into 78 monomials, above the ceiling of 77"):
        pjk_expand(3, 3, 1, 1)


def test_the_reference_admits_every_box_the_expansion_admits(monkeypatch):
    # decided on the counts alone: a fold or a listing of shapes that raises
    # shows the work was admitted
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr("boolprod.polyring._capped_fold", admitted)
    monkeypatch.setattr("boolprod.bialphabet.subpartitions", admitted)
    boxes = 0
    for n in range(1, 31):
        for m in range(1, 31):
            try:
                pjk_expand(n, m, 1, 1)
            except CapacityError:
                continue
            except Admitted:
                boxes += 1
            with pytest.raises(Admitted):
                dual_cauchy_reference(n, m)
    assert boxes > 30


def test_parameter_validation():
    with pytest.raises(ValueError):
        pjk_expand(2, 2, 3, 1)
    with pytest.raises(ValueError):
        pjk_expand(2, 2, 1, -1)
    with pytest.raises(ValueError):
        pjk_expand(0, 0, 0, 0)
    with pytest.raises(ValueError):
        dual_cauchy_reference(0, 2)


def test_block_schur_reads_off_schur_pairs():
    # sum c * s_la(X) * s_mu(Y), each Schur polynomial enumerated tableau by
    # tableau, the x and y exponent vectors concatenated
    cases = [
        (1, 2, {((3,), (1,)): 2, ((), (1, 1)): -1, ((1,), ()): 5}),
        (2, 1, {((2, 1), (2,)): -3, ((1, 1), ()): 1, ((), ()): 4, ((3,), (1,)): 2}),
        (3, 2, {((2, 1, 1), (1,)): 1, ((2,), (2, 1)): -2, ((1,), (1, 1)): 3, ((3,), ()): 1}),
        (0, 2, {((), (2, 1)): -1, ((), ()): 2}),
    ]
    for n, m, coeffs in cases:
        terms = {}
        for (la, mu), c in coeffs.items():
            for ex, a in schur_poly_direct(la, n).items():
                for ey, b in schur_poly_direct(mu, m).items():
                    terms[ex + ey] = terms.get(ex + ey, 0) + c * a * b
        poly = MonomialPoly(n + m, terms)
        assert block_schur(poly, [(n, "x"), (m, "y")]) == coeffs
        with pytest.raises(ValueError, match="blocks cover"):
            block_schur(poly, [(n, "x")])


def test_asymmetry_detected_in_x_block():
    poly = MonomialPoly(3, {(1, 0, 0): 1, (0, 1, 0): 2})
    with pytest.raises(AsymmetryError) as info:
        block_schur(poly, [(2, "x"), (1, "y")])
    assert info.value.block == "x"
    assert sorted(info.value.witness) == [(0, 1, 0), (1, 0, 0)]


def test_asymmetry_detected_in_y_block():
    poly = MonomialPoly(3, {(1, 1, 0): 1, (1, 0, 1): 2})
    with pytest.raises(AsymmetryError) as info:
        block_schur(poly, [(1, "x"), (2, "y")])
    assert info.value.block == "y"
    assert sorted(info.value.witness) == [(1, 0, 1), (1, 1, 0)]


def test_asymmetry_detected_in_an_incomplete_x_orbit():
    poly = MonomialPoly(3, {(1, 0, 1): 1})
    with pytest.raises(AsymmetryError) as info:
        block_schur(poly, [(2, "x"), (1, "y")])
    assert info.value.block == "x"
    assert info.value.witness == ((1, 0, 1), (0, 1, 1))


def test_asymmetry_detected_under_a_cycle_of_a_swap_invariant_block():
    # x1*(y1 + y2): invariant under swapping y1 and y2, not under y1->y2->y3
    poly = MonomialPoly(4, {(1, 1, 0, 0): 1, (1, 0, 1, 0): 1})
    with pytest.raises(AsymmetryError) as info:
        block_schur(poly, [(1, "x"), (3, "y")])
    assert info.value.block == "y"
    present, image = info.value.witness
    assert present in poly.terms
    assert present[:1] == image[:1]
    assert sorted(present[1:]) == sorted(image[1:])
