"""The (n, n-1) product specialized: q-deformation and tableau statistics.

The vector bnm1_q carries one q-polynomial per Schur term; at q = -1 it
collapses to the (n, n-1) Boolean product, at q = 0 to the expansion of
(e_1)^n.  It is read off one product of forms at q = 2^b, never built;
alternating_expansion sums the q = -1 case by Horner on m-basis dicts, as an
independent route.  a_coeffs_syt recounts the q = -1 coefficients by a purely
combinatorial statistic (standard tableaux whose smallest ascent is even),
counted up Young's lattice without listing a tableau, and
frobenius_dimension turns any such vector into the dimension of the
corresponding direct sum of irreducibles.
"""

from math import factorial

from .errors import CapacityError, ConsistencyError
from .polyring import Alphabet, QPoly, _check_coefficients
from .schur import MVector, SchurVector, _m_product, m_to_schur, schur_of_product
from .tableaux import num_syt, partitions_up_to

# n=21 sums and reads off in 1.1-1.6 s at 56 MB and n=22 in 1.4-2.2 s at 72 MB, as fresh
# processes on a shared 2-core host; n=22 would pass the time and memory the cap has allowed.
ALTERNATING_MAX_N = 21
SYT_COEFF_MAX_N = 32  # n=32 sweeps 43,818 shapes in 0.26 s at 17 MB, as n=11 walked its tableaux before


def bnm1_q(n: int) -> SchurVector:
    """Schur expansion of sum_j q^j e_j(X) (e_1(X))^(n-j), coefficients QPoly.

    The sum is the product of the forms e_1 + q x_i, i = 1..n.  At q = 2^b it
    is a product of integer forms, read off by schur_of_product (so the
    principal-specialisation self-check guards it) and split into n + 1
    balanced base-2^b digits, the q-coefficients; the full product is never
    built, and dominant_coefficients counts its ceilings.  A negative
    q-coefficient is a hard failure.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_coefficients(n, n)  # the alphabet's own ceiling, before n! is computed
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

    Summed by Horner in e_1 on m-basis dicts, e_j = m_(1^j), and read off
    once, so it shares no product and no q bookkeeping with bnm1_q.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ALTERNATING_MAX_N:
        raise CapacityError(f"alternating expansion capped at n={ALTERNATING_MAX_N}, got {n}")
    # after step j, total = sum_{i<=j} (-1)^i e_i e_1^(j-i)
    total = {(): 1}
    for j in range(1, n + 1):
        total = _m_product({(1,): 1}, 1, total, j - 1, n)
        total[(1,) * j] = total.get((1,) * j, 0) + (-1) ** j
    return m_to_schur(MVector(n, total))


def a_coeffs_syt(n: int) -> dict[tuple, int]:
    """For every shape of size n, the number of SYT whose smallest ascent is even.

    Zero counts are included so the association covers all partitions of n.
    Tableaux are read in French convention, bottom row first, entries
    increasing up each column.  Entry i < n is an ascent unless i + 1 sits in
    a row strictly above i, and n always is: that boundary reading makes the
    column 1^n of even size count, as the q = -1 specialisation needs.  So
    the smallest ascent is the length r of the run 1, 2, ..., r up the first
    column, the tableaux with a run of at least r are the standard fillings
    of la/1^r, and the count is the sum over r >= 2 of (-1)^r f^(la/1^r).
    Those are paths up Young's lattice from 1^r to la, one cell at a time,
    so one sweep up the lattice counts every shape: at size r it adds
    (-1)^r at the column 1^r.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > SYT_COEFF_MAX_N:
        raise CapacityError(f"SYT sweep capped at n={SYT_COEFF_MAX_N}, got {n}")
    level: dict[tuple, int] = {}
    for r in range(2, n + 1):
        grown: dict[tuple, int] = {}
        for mu, c in level.items():
            for i in range(len(mu) + 1):
                if i == len(mu):
                    nu = mu + (1,)
                elif i == 0 or mu[i] < mu[i - 1]:
                    nu = mu[:i] + (mu[i] + 1,) + mu[i + 1 :]
                else:
                    continue
                grown[nu] = grown.get(nu, 0) + c
        column = (1,) * r
        grown[column] = grown.get(column, 0) + (-1) ** r
        level = grown
    return {la: level.get(la, 0) for la in partitions_up_to(n, n)}


def frobenius_dimension(v: SchurVector, q0: int) -> int:
    """Sum of c_lambda(q0) * f^lambda over the terms of v.

    Every key must be a partition of one common size; mixed sizes have no
    single symmetric-group interpretation and are rejected.
    """
    sizes = {sum(la) for la in v.terms}
    if len(sizes) > 1:
        raise ValueError(f"mixed partition sizes {sorted(sizes)} have no dimension")
    return sum(c * num_syt(la) for la, c in specialize_q(v, q0).terms.items())
