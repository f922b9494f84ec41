"""Subset-sum alphabets and Schur expansions of their products.

The (n,k) product is the product of the subset sums x_S over all k-subsets S
of {1..n}; the total product multiplies these over every k.  Both are read
off in the Schur basis from their dominant coefficients alone
(schur.schur_of_product), so the full product is never built; the elementary
slices of ep_subset are expanded in monomial space and read off by
antisymmetrisation (schur.block_schur).  No Schur-basis multiplication rule
is used anywhere.
"""

from functools import lru_cache
from itertools import chain, combinations

from .polyring import Alphabet, MonomialPoly, check_fold_capacity, graded_elementary
from .schur import SchurVector, schur_from_poly, schur_of_product


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
    return schur_of_product(subset_alphabet(n, k))


def total_boolean(n: int) -> SchurVector:
    """Schur expansion of the total product over k = 1..n, degree 2^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    # before the 2^n - 1 forms are built
    check_fold_capacity(n, 2**n - 1)
    subsets = chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
    return schur_of_product(Alphabet.from_subsets(n, subsets))
