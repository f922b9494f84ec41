"""Subset-sum alphabets and Schur expansions of their products.

The (n,k) product is the product of the subset sums x_S over all k-subsets S
of {1..n}; the total product multiplies these over every k.  Everything is
expanded exactly in monomial space and read off in the Schur basis by
antisymmetrisation (schur.block_schur); no Schur-basis multiplication rule is
used anywhere.
"""

from functools import lru_cache
from itertools import chain, combinations

from .errors import CapacityError
from .polyring import Alphabet, MonomialPoly, alphabet_product, graded_elementary
from .schur import SchurVector, schur_from_poly

TOTAL_PRODUCT_MAX_N = 5  # degree 2^n - 1 blows up quickly past this


def subset_alphabet(n: int, k: int) -> Alphabet:
    """Alphabet of the C(n,k) subset-sum forms, subsets in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Alphabet.from_subsets(n, combinations(range(n), k))


# The cached polynomials are mutable, so they are only read (by ep_subset,
# through schur_from_poly) and never handed to a caller.
@lru_cache(maxsize=None)
def _graded_subset_elementary(n: int, k: int) -> tuple[MonomialPoly, ...]:
    return tuple(graded_elementary(subset_alphabet(n, k)))


def ep_subset(n: int, k: int, p: int) -> SchurVector:
    """Schur expansion of the p-th elementary symmetric polynomial of the
    (n,k) subset-sum alphabet; zero vector for p past the alphabet size."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    graded = _graded_subset_elementary(n, k)
    if p >= len(graded):
        return SchurVector(n)
    return schur_from_poly(graded[p])


def boolean_product(n: int, k: int) -> SchurVector:
    """Schur expansion of the (n,k) product; homogeneous of degree C(n,k)."""
    return schur_from_poly(alphabet_product(subset_alphabet(n, k)))


def total_boolean(n: int) -> SchurVector:
    """Schur expansion of the total product over k = 1..n, degree 2^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > TOTAL_PRODUCT_MAX_N:
        raise CapacityError(
            f"total product supported up to n={TOTAL_PRODUCT_MAX_N} "
            f"(degree 2^n - 1 = {2**n - 1} at n={n})"
        )
    subsets = chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
    return schur_from_poly(alphabet_product(Alphabet.from_subsets(n, subsets)))
