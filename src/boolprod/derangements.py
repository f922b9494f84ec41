"""The (n, n-1) product specialized: q-deformation and tableau statistics.

The vector bnm1_q carries one q-polynomial per Schur term; at q = -1 it
collapses to the (n, n-1) Boolean product, at q = 0 to the expansion of
(e_1)^n.  a_coeffs_syt recounts the q = -1 coefficients by a purely
combinatorial statistic (standard tableaux whose smallest ascent is even),
and frobenius_dimension turns any such vector into the dimension of the
corresponding direct sum of irreducibles.
"""

from .boolean import subset_alphabet
from .errors import CapacityError, ConsistencyError
from .polyring import MonomialPoly, QPoly, graded_elementary, poly_product
from .schur import SchurVector, schur_from_poly
from .tableaux import num_syt, partitions_up_to, smallest_ascent, syt_list

BNM1_MAX_N = 7
SYT_COEFF_MAX_N = 8


def _layer_vectors(n: int) -> list[SchurVector]:
    """Schur expansion of e_j(x_1..x_n) * (e_1)^(n-j) for j = 0..n."""
    base = subset_alphabet(n, 1)
    elem = graded_elementary(base)
    e1_powers = [MonomialPoly.constant(n, 1)]
    for _ in range(n):
        e1_powers.append(e1_powers[-1] * elem[1])
    return [schur_from_poly(elem[j] * e1_powers[n - j]) for j in range(n + 1)]


def bnm1_q(n: int) -> SchurVector:
    """Schur expansion of sum_j q^j e_j(X) (e_1(X))^(n-j), coefficients QPoly.

    All q-coefficients are nonnegative (each layer is a Pieri product of
    Schur-positive factors); a negative one is a hard failure.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > BNM1_MAX_N:
        raise CapacityError(f"q-deformation capped at n={BNM1_MAX_N}, got {n}")
    layers = _layer_vectors(n)
    keys = set().union(*(v.terms for v in layers))
    terms = {}
    for la in keys:
        terms[la] = QPoly(tuple(layers[j].terms.get(la, 0) for j in range(n + 1)))
    out = SchurVector(n, terms)
    bad = [la for la, poly in out.terms.items() if any(c < 0 for c in poly.coeffs)]
    if bad:
        raise ConsistencyError(
            f"negative q-coefficient at {min(bad)} in the n={n} expansion"
        )
    return out


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
    if n > BNM1_MAX_N:
        raise CapacityError(f"alternating expansion capped at n={BNM1_MAX_N}, got {n}")
    base = subset_alphabet(n, 1)
    elem = graded_elementary(base)
    total = MonomialPoly(n)
    sign = 1
    for j in range(n + 1):
        piece = poly_product([elem[j]] + [elem[1]] * (n - j), n)
        total = total + piece.scale(sign)
        sign = -sign
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
