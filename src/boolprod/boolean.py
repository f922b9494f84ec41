"""Subset-sum alphabets and Schur expansions of their products.

The (n,k) product is the product of the subset sums x_S over all k-subsets S
of {1..n}; the total product multiplies these over every k.  Both, and every
elementary slice e_p of the (n,k) alphabet at once, are read off in the Schur
basis from dominant coefficients alone (schur.schur_of_product and
schur.schur_of_graded_product), so no full product is ever built, under
the ceilings polyring.dominant_coefficients counts before any fold.  No
Schur-basis multiplication rule is used anywhere.
"""

from functools import lru_cache
from itertools import chain, combinations

from .polyring import Alphabet, _lazy, capped_comb
from .schur import SchurVector, _one_block, schur_of_graded_product, schur_of_product
from .tableaux import Partition


def _subset_count(n: int, k: int) -> int:
    """C(n,k), the number of forms of the (n,k) alphabet, once (n, k) is
    valid; past COUNT_MAX, some number above it (see capped_comb)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return capped_comb(n, k)


def subset_alphabet(n: int, k: int) -> Alphabet:
    """Alphabet of the C(n,k) subset-sum forms, subsets in lexicographic order."""
    _subset_count(n, k)
    return Alphabet.from_subsets(n, _lazy(combinations, range(n), k))


# One read-off serves every slice e_p of an (n,k) alphabet.  It is cached as
# (partition, coefficient) pairs, so no caller can change another's result.
@lru_cache(maxsize=None)
def _graded_subset_terms(n: int, k: int) -> tuple[tuple[Partition, int], ...]:
    return tuple(schur_of_graded_product(subset_alphabet(n, k)).terms.items())


def ep_subset(n: int, k: int, p: int) -> SchurVector:
    """Schur expansion of the p-th elementary symmetric polynomial of the
    (n,k) subset-sum alphabet; zero vector for p past the alphabet size."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return SchurVector(n, {la: c for la, c in _graded_subset_terms(n, k) if sum(la) == p})


def boolean_product(n: int, k: int) -> SchurVector:
    """Schur expansion of the (n,k) product; homogeneous of degree C(n,k)."""
    return _one_block(schur_of_product, subset_alphabet(n, k), n)


def total_boolean(n: int) -> SchurVector:
    """Schur expansion of the total product over k = 1..n, degree 2^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    subsets = chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
    return _one_block(schur_of_product, Alphabet.from_subsets(n, subsets), n)
