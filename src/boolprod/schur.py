"""Conversions between monomial-symmetric and Schur bases.

``block_schur`` reads a polynomial symmetric in one variable block or several
off in the Schur basis by antisymmetrising it against the staircase, after
checking that the polynomial is invariant under a swap and a cycle of each
block;
``schur_to_m`` goes back through Kostka numbers.  ``schur_at_alphabet``
evaluates a Schur polynomial at the forms of an alphabet through the dual
Jacobi-Trudi determinant in the alphabet's elementary symmetric polynomials.
"""

from dataclasses import dataclass, field
from itertools import permutations
from operator import add, ge, itemgetter, sub

from .errors import AsymmetryError
from .polyring import Alphabet, MonomialPoly, graded_elementary
from .tableaux import Partition, conjugate, kostka, partitions_up_to

# (size, name) of each variable block, in variable order
Blocks = list[tuple[int, str | None]]


@dataclass
class MVector:
    """Integer combination of monomial symmetric polynomials m_lambda."""

    var_count: int
    terms: dict[Partition, int] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {la: c for la, c in self.terms.items() if c}
        for la in self.terms:
            if len(la) > self.var_count:
                raise ValueError(f"{la} has more parts than variables")


@dataclass
class SchurVector:
    """Combination of Schur polynomials s_lambda.

    Coefficients are usually ints; the derangement module stores q-polynomials
    here instead, so only +, ==, and truthiness are assumed of them.
    """

    var_count: int
    terms: dict[Partition, object] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {la: c for la, c in self.terms.items() if c}
        for la in self.terms:
            if len(la) > self.var_count:
                raise ValueError(f"{la} has more parts than variables")

    def items_sorted(self):
        """Terms in the canonical descending partition order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def __add__(self, other: "SchurVector") -> "SchurVector":
        if self.var_count != other.var_count:
            raise ValueError("mixed variable counts")
        terms = dict(self.terms)
        for la, c in other.terms.items():
            terms[la] = terms.get(la, 0) + c
        return SchurVector(self.var_count, terms)


def _cuts(blocks: Blocks, var_count: int) -> list:
    """(start, stop, name) of each block; the blocks must cover the variables."""
    cuts = []
    lo = 0
    for size, name in blocks:
        cuts.append((lo, lo + size, name))
        lo += size
    if lo != var_count:
        raise ValueError(f"blocks cover {lo} variables, polynomial has {var_count}")
    return cuts


def _check_symmetric(poly: MonomialPoly, cuts: list) -> None:
    """Raise AsymmetryError unless poly is symmetric in each block of cuts.

    S_s is generated by the swap (1 2) and the cycle (1 2 ... s), so it is
    enough that every term keeps its coefficient under those two
    permutations of each block of size s >= 2.  The witness is the term's
    exponent vector and its image, and the error names that block.
    """
    n = poly.var_count
    moves = []
    for lo, hi, name in cuts:
        if hi - lo < 2:
            continue
        keep, rest = list(range(lo)), list(range(hi, n))
        swap = keep + [lo + 1, lo] + list(range(lo + 2, hi)) + rest
        cycle = keep + list(range(lo + 1, hi)) + [lo] + rest
        moves += [(itemgetter(*swap), name), (itemgetter(*cycle), name)]
    terms = poly.terms
    for exp, c in terms.items():
        for move, name in moves:
            image = move(exp)
            if terms.get(image, 0) != c:
                raise AsymmetryError(exp, image, block=name)


def block_schur(poly: MonomialPoly, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Read a polynomial symmetric in each variable block off in the product
    of the blocks' Schur bases; a coefficient that cancels to 0 is left out.

    ``blocks`` lists (size, name) pairs covering the variables in order.  The
    polynomial must be invariant under a swap and a cycle of each block;
    otherwise AsymmetryError names a term, its image and the block.

    With delta = (s-1, ..., 0) in a block of size s, f * a_delta is the
    antisymmetrisation of f * x^delta, and s_la = a_(la+delta)/a_delta
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).  So each term
    c x^alpha whose alpha+delta has distinct entries in every block adds
    sgn(sigma) c at sort(alpha+delta) - delta, sigma sorting each block.
    """
    cuts = _cuts(blocks, poly.var_count)
    _check_symmetric(poly, cuts)
    steps = [(lo, hi, range(hi - lo)[::-1]) for lo, hi, _ in cuts]
    out: dict[tuple[Partition, ...], int] = {}
    for exp, c in poly.terms.items():
        key = ()
        for lo, hi, delta in steps:
            part = list(map(add, exp[lo:hi], delta))
            if len(set(part)) < hi - lo:
                break
            # Insertion sort, descending; each swap flips the sign.
            for i in range(1, hi - lo):
                a = part[i]
                j = i
                while j and part[j - 1] < a:
                    part[j] = part[j - 1]
                    j -= 1
                    c = -c
                part[j] = a
            key += (tuple(x for x in map(sub, part, delta) if x),)
        else:
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def to_mvector(p: MonomialPoly) -> MVector:
    """Read a symmetric polynomial off in the monomial-symmetric basis: m_la
    has the coefficient of x^la.  The symmetry check is that of block_schur
    with one block."""
    _check_symmetric(p, [(0, p.var_count, None)])
    return MVector(
        p.var_count,
        {
            tuple(x for x in exp if x): c
            for exp, c in p.terms.items()
            if all(map(ge, exp, exp[1:]))
        },
    )


def mvector_expand(v: MVector) -> MonomialPoly:
    """Inverse of to_mvector: sum of full monomial orbits."""
    terms: dict = {}
    for la, c in v.terms.items():
        padded = la + (0,) * (v.var_count - len(la))
        for exp in set(permutations(padded)):
            terms[exp] = c
    return MonomialPoly(v.var_count, terms)


def schur_to_m(v: SchurVector) -> MVector:
    """Expand each s_lambda as sum_mu K(lambda,mu) m_mu, lengths capped."""
    terms: dict[Partition, object] = {}
    for la, c in v.terms.items():
        for mu in partitions_up_to(sum(la), v.var_count):
            k = kostka(la, mu)
            if k:
                terms[mu] = terms.get(mu, 0) + c * k
    return MVector(v.var_count, terms)


def m_to_schur(v: MVector) -> SchurVector:
    """Unique Schur expansion of a monomial-symmetric combination."""
    return schur_from_poly(mvector_expand(v))


def schur_from_poly(p: MonomialPoly) -> SchurVector:
    """Symmetry check and Schur extraction; see block_schur."""
    terms = block_schur(p, [(p.var_count, None)])
    return SchurVector(p.var_count, {la: c for (la,), c in terms.items()})


def _poly_det(m: list[list[MonomialPoly]], var_count: int) -> MonomialPoly:
    """Determinant with polynomial entries; Laplace expansion memoized on
    the live column set (fine for the small Jacobi-Trudi sizes used here)."""
    size = len(m)
    cache: dict[tuple[int, ...], MonomialPoly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> MonomialPoly:
        if not cols:
            return MonomialPoly.constant(var_count, 1)
        got = cache.get(cols)
        if got is not None:
            return got
        acc = MonomialPoly(var_count)
        for pos, col in enumerate(cols):
            entry = m[row][col]
            if not entry:
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            piece = entry * sub
            acc = acc + (piece if pos % 2 == 0 else piece.scale(-1))
        cache[cols] = acc
        return acc

    return minor(0, tuple(range(size)))


def schur_at_alphabet(la: Partition, a: Alphabet) -> SchurVector:
    """Schur polynomial of the alphabet's forms, expanded back in the
    Schur basis of the underlying variables.

    Uses det(e_{la'_i - i + j}(A)) over the conjugate shape; returns the zero
    vector when la has more parts than the alphabet has forms.
    """
    if not la:
        return SchurVector(a.var_count, {(): 1})
    if len(la) > len(a.forms):
        return SchurVector(a.var_count)
    laconj = conjugate(la)
    size = len(laconj)
    top_index = max(laconj[i] - (i + 1) + size for i in range(size))
    es = graded_elementary(a, cap=max(top_index, 0))
    zero = MonomialPoly(a.var_count)

    def e(p: int) -> MonomialPoly:
        if p < 0 or p >= len(es):
            return zero
        return es[p]

    matrix = [
        [e(laconj[i] - (i + 1) + (j + 1)) for j in range(size)] for i in range(size)
    ]
    return schur_from_poly(_poly_det(matrix, a.var_count))
