"""The (n, n-1) product specialized: q-deformation and tableau statistics.

The vector bnm1_q carries one q-polynomial per Schur term; at q = -1 it
collapses to the (n, n-1) Boolean product, at q = 0 to the expansion of
(e_1)^n.  It is read off one product of forms at q = 2^b, never built;
alternating_expansion builds the q = -1 sum in full, as an independent
route.  a_coeffs_syt recounts the q = -1 coefficients by a purely
combinatorial statistic (standard tableaux whose smallest ascent is even),
and frobenius_dimension turns any such vector into the dimension of the
corresponding direct sum of irreducibles.
"""

from math import factorial

from .boolean import subset_alphabet
from .errors import CapacityError, ConsistencyError
from .polyring import Alphabet, QPoly, check_fold_capacity, graded_elementary
from .schur import SchurVector, schur_from_poly, schur_of_product
from .tableaux import num_syt, partitions_up_to, smallest_ascent, syt_list

ALTERNATING_MAX_N = 10  # n=10 builds its full products in about 2 s at 58 MB, n=9 in 0.4 s
SYT_COEFF_MAX_N = 11  # n=11 walks all 35,696 standard tableaux in 0.8 s at 20 MB


def bnm1_q(n: int) -> SchurVector:
    """Schur expansion of sum_j q^j e_j(X) (e_1(X))^(n-j), coefficients QPoly.

    The sum is the product of the forms e_1 + q x_i, i = 1..n.  At q = 2^b it
    is a product of integer forms, read off by schur_of_product (so the
    principal-specialisation self-check guards it) and split into n + 1
    balanced base-2^b digits, the q-coefficients; the full product is never
    built.  A negative q-coefficient is a hard failure.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_fold_capacity(n, n, f"the product of the {n} forms e_1 + q x_i")
    # The coefficient of q^j s_la, from the Pieri product e_1^(n-j) e_j, counts
    # a standard tableau of some mu and a vertical strip la/mu of j cells;
    # filling the strip with n-j+1..n top to bottom makes a standard tableau
    # of la, and mu and its tableau are read back off it.  So each digit is
    # at most f^la <= n! < 2^(b-2), and the digits are exact.
    b = factorial(n).bit_length() + 2
    base, half = 1 << b, 1 << (b - 1)
    forms = tuple(tuple(1 + base * (i == j) for j in range(n)) for i in range(n))
    terms = {}
    for (la,), c in schur_of_product(Alphabet(n, forms), [(n, None)]).items():
        digits = []
        for _ in range(n + 1):
            digits.append((c + half) % base - half)
            c = (c - digits[-1]) >> b
        if c:
            raise ConsistencyError(f"the coefficient of {la} in the n={n} expansion passes q^{n}")
        if min(digits) < 0:
            raise ConsistencyError(f"negative q-coefficient at {la} in the n={n} expansion")
        terms[la] = QPoly(tuple(digits))
    return SchurVector(n, terms)


def specialize_q(v: SchurVector, q0: int) -> SchurVector:
    """Evaluate every QPoly coefficient at q0; integer coefficients pass through."""
    terms = {}
    for la, c in v.terms.items():
        terms[la] = c(q0) if isinstance(c, QPoly) else c
    return SchurVector(v.var_count, terms)


def alternating_expansion(n: int) -> SchurVector:
    """Schur expansion of sum_j (-1)^j e_j(X) (e_1(X))^(n-j).

    Assembled as one signed sum in monomial space and converted once, so it
    shares no q bookkeeping with bnm1_q.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ALTERNATING_MAX_N:
        raise CapacityError(f"alternating expansion capped at n={ALTERNATING_MAX_N}, got {n}")
    elem = graded_elementary(subset_alphabet(n, 1))
    # Horner in e_1: after step j, total = sum_{i<=j} (-1)^i e_i e_1^(j-i)
    total = elem[0]
    for j in range(1, n + 1):
        total = total * elem[1] + elem[j].scale((-1) ** j)
    return schur_from_poly(total)


def a_coeffs_syt(n: int) -> dict[tuple, int]:
    """For every shape of size n, the number of SYT whose smallest ascent is even.

    Zero counts are included so the association covers all partitions of n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > SYT_COEFF_MAX_N:
        raise CapacityError(f"SYT sweep capped at n={SYT_COEFF_MAX_N}, got {n}")
    out = {}
    for la in partitions_up_to(n, n):
        out[la] = sum(1 for t in syt_list(la) if smallest_ascent(t) % 2 == 0)
    return out


def frobenius_dimension(v: SchurVector, q0: int) -> int:
    """Sum of c_lambda(q0) * f^lambda over the terms of v.

    Every key must be a partition of one common size; mixed sizes have no
    single symmetric-group interpretation and are rejected.
    """
    sizes = {sum(la) for la in v.terms}
    if len(sizes) > 1:
        raise ValueError(f"mixed partition sizes {sorted(sizes)} have no dimension")
    return sum(c * num_syt(la) for la, c in specialize_q(v, q0).terms.items())
