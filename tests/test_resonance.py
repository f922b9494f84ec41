"""Tests for subset-sum arrangement counting: finite fields vs. the lattice."""

import pytest

from boolprod.errors import CapacityError, ConsistencyError
from boolprod.resonance import (
    CharPoly,
    bounded_regions,
    charpoly_ff,
    charpoly_mobius,
    complement_count,
    regions,
    valid_primes,
)
from oracles import brute_complement_count, popcount_projective_count, reduce_mobius_coeffs

# coefficients are ascending: chi_2 = t^2 - 3t + 2, and so on
FROZEN_CHI = {
    1: (-1, 1),
    2: (2, -3, 1),
    3: (-9, 15, -7, 1),
    4: (104, -170, 80, -15, 1),
}
FROZEN_CHI_5 = (-3485, 5270, -2130, 375, -31, 1)
FROZEN_CHI_6 = (371909, -510524, 159460, -22435, 1652, -63, 1)
FROZEN_CHI_7 = (
    -135677633, 169824305, -37769977, 3831835, -215439, 7035, -127, 1
)


def test_valid_primes_lists():
    assert valid_primes(1, 3) == [2, 3, 5]
    assert valid_primes(2, 4) == [2, 3, 5, 7]
    assert valid_primes(3, 5) == [3, 5, 7, 11, 13]
    assert valid_primes(4, 6) == [5, 7, 11, 13, 17, 19]
    assert valid_primes(5, 7) == [7, 11, 13, 17, 19, 23, 29]
    assert valid_primes(6, 8) == [17, 19, 23, 29, 31, 37, 41, 43]


def test_complement_count_known_values():
    assert complement_count(1, 5) == 4
    assert complement_count(2, 5) == 12
    assert complement_count(3, 7) == 96


def test_complement_count_against_brute_force():
    cases = (
        [(1, p) for p in (2, 3, 5)]
        + [(2, p) for p in (2, 3, 5, 7)]
        + [(3, p) for p in (3, 5, 7, 11)]
        + [(4, p) for p in (5, 7)]
        + [(5, 7)]
    )
    for n, p in cases:
        assert complement_count(n, p) == brute_complement_count(n, p)


def test_complement_count_matches_the_popcount_walk():
    # every valid prime below 64 up to n = 6, two at n = 7, and primes whose
    # squares need 13, 14 and 17-bit fields where p < 64 needs at most 12;
    # at p = 8191 one coefficient of the square reaches 8188, past 12 bits
    cases = [(n, p) for n in range(1, 7) for p in valid_primes(n, 18) if p < 64]
    cases += [(7, 37), (7, 41), (3, 67), (3, 127), (3, 257), (3, 8191)]
    assert (6, 61) in cases and (1, 2) in cases
    for n, p in cases:
        assert complement_count(n, p) == (p - 1) * popcount_projective_count(n, p)


def test_mobius_matches_the_echelon_closure():
    for n in range(1, 5):
        assert charpoly_mobius(n).coeffs == reduce_mobius_coeffs(n)


def test_complement_count_divisible_by_p_minus_one():
    # scaling by any nonzero field element permutes the solutions
    for n in range(1, 5):
        for p in valid_primes(n, 3):
            assert complement_count(n, p) % (p - 1) == 0


def test_complement_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        complement_count(0, 5)
    with pytest.raises(CapacityError):
        complement_count(8, 97)
    with pytest.raises(ValueError, match="below the validity bound"):
        complement_count(7, 29)  # the bound at n=7 is 32
    with pytest.raises(ValueError):
        complement_count(2, 4)
    with pytest.raises(ValueError, match="below the validity bound"):
        complement_count(3, 2)
    with pytest.raises(ValueError, match="smallest valid prime is 5"):
        complement_count(4, 3)


def test_charpoly_construction_and_evaluation():
    chi = CharPoly(FROZEN_CHI[2])
    assert chi.n == 2
    assert chi(-1) == 6
    assert chi(1) == 0
    assert chi(5) == 12


def test_charpoly_str():
    assert str(CharPoly(FROZEN_CHI[1])) == "t - 1"
    assert str(CharPoly(FROZEN_CHI[2])) == "t^2 - 3t + 2"
    assert str(CharPoly(FROZEN_CHI[3])) == "t^3 - 7t^2 + 15t - 9"


def test_charpoly_invariants_enforced():
    with pytest.raises(ConsistencyError):
        CharPoly((0, -3, 2))  # not monic
    with pytest.raises(ConsistencyError):
        CharPoly((1,))  # degree zero
    with pytest.raises(ConsistencyError):
        CharPoly((3, -4, 1))  # wrong hyperplane count at t^(n-1)
    with pytest.raises(ConsistencyError):
        CharPoly((1, -3, 1))  # chi(1) != 0


def test_charpoly_whitney_check():
    # Whitney's t^(n-2) coefficient for n = 2..7 sits third from the top
    goldens = [*FROZEN_CHI.values(), FROZEN_CHI_5, FROZEN_CHI_6, FROZEN_CHI_7]
    assert [c[-3] for c in goldens[1:]] == [2, 15, 80, 375, 1652, 7035]
    # chi_4 with t^2 moved by one and the constant moved back: monic, the
    # right t^3 coefficient and chi(1) = 0, so only Whitney rejects it
    with pytest.raises(ConsistencyError, match="Whitney"):
        CharPoly((103, -170, 81, -15, 1))


def test_two_methods_agree():
    for n in range(1, 6):
        assert charpoly_ff(n).coeffs == charpoly_mobius(n).coeffs


def test_mobius_matches_the_frozen_n5_golden():
    assert charpoly_mobius(5).coeffs == FROZEN_CHI_5


def test_frozen_regressions():
    for n, coeffs in FROZEN_CHI.items():
        assert charpoly_ff(n).coeffs == coeffs


def test_region_counts():
    assert [regions(n) for n in range(1, 5)] == [2, 6, 32, 370]
    for n in range(1, 5):
        assert bounded_regions(n) == 0
        # central arrangement: regions come in antipodal pairs
        assert regions(n) % 2 == 0


def test_method_capacity_limits():
    with pytest.raises(ValueError):
        charpoly_ff(0)
    with pytest.raises(ValueError):
        charpoly_mobius(0)
    with pytest.raises(CapacityError):
        charpoly_mobius(6)
    with pytest.raises(CapacityError, match="allow_long"):
        charpoly_ff(7)
    with pytest.raises(CapacityError):
        charpoly_ff(8, allow_long=True)


def test_n5_regression_long():
    chi = charpoly_ff(5)
    assert chi.coeffs == FROZEN_CHI_5
    assert regions(5) == 11292
    assert bounded_regions(5) == 0


def test_n6_charpoly_and_regions():
    chi = charpoly_ff(6)
    assert chi.coeffs == FROZEN_CHI_6
    assert regions(6) == 1066044  # OEIS A034997


def test_n6_count_matches_chi_at_every_prime():
    # 37, 41 and 43 lie outside the fit (17, 19, 23, 29 and holdout 31)
    chi = CharPoly(FROZEN_CHI_6)
    for p in valid_primes(6, 8):
        assert complement_count(6, p) == chi(p)


def test_n7_frozen_chi():
    chi = CharPoly(FROZEN_CHI_7)
    assert (-1) ** 7 * chi(-1) == 347326352  # OEIS A034997
    assert complement_count(7, 37) == chi(37)
