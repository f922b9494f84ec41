"""Conversions between monomial-symmetric and Schur bases.

One routine, ``schur_from_dominant``, reads a polynomial symmetric in each
variable block off in the product of the blocks' Schur bases, from its
coefficients at partitions alone: a signed walk of each partition's
rearrangements antisymmetrises them against the staircase.  ``block_schur``
picks those coefficients out of a full polynomial after checking that it is
invariant under a swap and a cycle of each block; ``schur_of_product`` gets
them from the dominant coefficients of a product of linear forms, never
built, guarded by an invariance check on the forms and a
principal-specialisation self-check in every block;
``schur_of_graded_product`` does so for the product of the 1 + f, whose
degree-p part is e_p of the forms.  ``schur_to_m`` goes back through Kostka
numbers.  ``schur_at_alphabet``
evaluates a Schur polynomial at the forms of an alphabet through the dual
Jacobi-Trudi determinant in the alphabet's elementary symmetric polynomials.
"""

from collections import Counter
from collections.abc import Mapping
from functools import cache
from itertools import permutations, product
from math import prod
from operator import ge, itemgetter

from .errors import AsymmetryError, ConsistencyError
from .polyring import Alphabet, Blocks, MonomialPoly, block_cuts, dominant_coefficients
from .polyring import graded_elementary
from .record import Record
from .tableaux import Partition, conjugate, kostka, partitions_up_to


class _TermVector(Record):
    """Partition -> nonzero coefficient, in var_count variables."""

    FIELDS = ("var_count", "terms")

    def __init__(self, var_count: int, terms: Mapping | None = None):
        terms = {la: c for la, c in (terms or {}).items() if c}
        for la in terms:
            if len(la) > var_count:
                raise ValueError(f"{la} has more parts than variables")
        super().__init__(var_count, terms)


class MVector(_TermVector):
    """Integer combination of monomial symmetric polynomials m_lambda."""


class SchurVector(_TermVector):
    """Combination of Schur polynomials s_lambda.

    Coefficients are usually ints; the derangement module stores q-polynomials
    here instead, so only +, ==, and truthiness are assumed of them.
    """

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


def _moves(cuts: list, n: int) -> list:
    """(permutation of an n-tuple, block name) for the swap (1 2) and the
    cycle (1 2 ... s) of each block of size s >= 2; they generate S_s."""
    moves = []
    for lo, hi, name in cuts:
        if hi - lo < 2:
            continue
        keep, rest = list(range(lo)), list(range(hi, n))
        swap = keep + [lo + 1, lo] + list(range(lo + 2, hi)) + rest
        cycle = keep + list(range(lo + 1, hi)) + [lo] + rest
        moves += [(itemgetter(*swap), name), (itemgetter(*cycle), name)]
    return moves


def _check_symmetric(poly: MonomialPoly, cuts: list) -> None:
    """Raise AsymmetryError unless poly is symmetric in each block of cuts:
    every term must keep its coefficient under each block's two generators.
    The witness is the term's exponent vector and its image, and the error
    names that block.
    """
    moves = _moves(cuts, poly.var_count)
    terms = poly.terms
    for exp, c in terms.items():
        for move, name in moves:
            image = move(exp)
            if terms.get(image, 0) != c:
                raise AsymmetryError(exp, image, block=name)


def _check_symmetric_forms(a: Alphabet, cuts: list) -> None:
    """Raise AsymmetryError unless the multiset of forms is invariant under
    each block's two generators, which makes the product symmetric in each
    block.  The witness is a form and its image."""
    moves = _moves(cuts, a.var_count)
    counts = Counter(a.forms)
    for form, c in counts.items():
        for move, name in moves:
            image = move(form)
            if counts[image] != c:
                raise AsymmetryError(form, image, block=name, forms=True)


def _dominant_terms(poly: MonomialPoly, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Check that poly is symmetric in each block, then pick the terms that
    fix it: those whose exponent vector is weakly decreasing in every block,
    keyed by one partition per block."""
    cuts = block_cuts(blocks, poly.var_count)
    _check_symmetric(poly, cuts)
    out = {}
    for exp, c in poly.terms.items():
        parts = [exp[lo:hi] for lo, hi, _ in cuts]
        if all(all(map(ge, part, part[1:])) for part in parts):
            out[tuple(tuple(x for x in part if x) for part in parts)] = c
    return out


def block_schur(poly: MonomialPoly, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Read a polynomial symmetric in each variable block off in the product
    of the blocks' Schur bases; a coefficient that cancels to 0 is left out.

    ``blocks`` lists (size, name) pairs covering the variables in order.  The
    polynomial must be invariant under a swap and a cycle of each block;
    otherwise AsymmetryError names a term, its image and the block.
    """
    return schur_from_dominant(_dominant_terms(poly, blocks), blocks)


def _signed_orbit(mu: Partition, n: int) -> list[tuple[int, int]]:
    """The Schur expansion of m_mu in n variables, as (mask, c) pairs, the
    set bits of mask being the entries of la + delta (see _shape): c sums
    sgn(sigma) over the distinct rearrangements alpha of mu, padded to n
    parts, whose alpha + delta has distinct entries and sorts, by sigma, to
    la + delta.  A depth-first walk places one entry at a time, keeping the
    entries of alpha + delta placed so far as the bits of mask, and prunes
    as soon as one repeats; an entry placed after k smaller ones adds k
    inversions.  The last entry is whatever is left of |mu|; an empty block
    has the one empty arrangement."""
    if not n:
        return [] if mu else [(0, 1)]
    left = Counter(mu)
    left[0] += n - len(mu)
    values = sorted(left)
    counts = [left[v] for v in values]
    last = n - 1
    sums: dict[int, int] = {}

    def walk(i: int, taken: int, rest: int, odd: int) -> None:
        if i == last:
            bit = 1 << rest
            if not taken & bit:
                odd += (taken & (bit - 1)).bit_count()
                key = taken | bit
                sums[key] = sums.get(key, 0) + (-1 if odd & 1 else 1)
            return
        shift = last - i
        for j, v in enumerate(values):
            if counts[j]:
                bit = 1 << (v + shift)
                if not taken & bit:
                    counts[j] -= 1
                    walk(i + 1, taken | bit, rest - v, odd + (taken & (bit - 1)).bit_count())
                    counts[j] += 1

    walk(0, 0, sum(mu), 0)
    return [(mask, c) for mask, c in sums.items() if c]


def _shape(mask: int, n: int) -> Partition:
    """The partition la of at most n parts whose la + delta, delta = (n-1,
    ..., 0), has its entries at the set bits of mask: la_i is the i-th
    highest set bit less n - i."""
    bits = [b for b in range(mask.bit_length())[::-1] if mask >> b & 1]
    return tuple(b - n + 1 + i for i, b in enumerate(bits) if b + i >= n)


def schur_from_dominant(
    dominant: Mapping[tuple[Partition, ...], int], blocks: Blocks
) -> dict[tuple[Partition, ...], int]:
    """Expansion, as block_schur gives it, of the polynomial f symmetric in
    each block whose coefficient of x^mu is dominant[mu], mu given by one
    partition per block; a coefficient that cancels to 0 is left out.

    With delta = (s-1, ..., 0) in a block of size s, f * a_delta is the
    antisymmetrisation of f * x^delta, and s_la = a_(la+delta)/a_delta
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).  So each
    monomial c x^alpha of f whose alpha+delta has distinct entries in every
    block adds sgn(sigma) c at sort(alpha+delta) - delta, sigma sorting each
    block.  These sums are multiplied over the blocks' orbits of mu, each
    walked once per call and dropped after its last use, and summed by
    mask; each mask is read as a partition once.
    """
    sizes = [size for size, _ in blocks]
    uses = Counter(pair for key in dominant for pair in zip(key, sizes))
    orbits: dict[tuple[Partition, int], list] = {}
    out: dict[tuple[int, ...], int] = {}
    for key, c in dominant.items():
        walked = []
        for pair in zip(key, sizes):
            orbit = orbits.pop(pair) if pair in orbits else _signed_orbit(*pair)
            uses[pair] -= 1
            if uses[pair]:
                orbits[pair] = orbit
            walked.append(orbit)
        for pairs in product(*walked):
            masks, signs = zip(*pairs)
            out[masks] = out.get(masks, 0) + c * prod(signs)
    return {tuple(map(_shape, masks, sizes)): c for masks, c in out.items() if c}


def _one_block(route, arg, n: int) -> SchurVector:
    """route(arg, blocks), a block-keyed expansion, over the one block of n
    variables, as a SchurVector."""
    return SchurVector(n, {la: c for (la,), c in route(arg, [(n, None)]).items()})


def to_mvector(p: MonomialPoly) -> MVector:
    """Read a symmetric polynomial off in the monomial-symmetric basis: m_la
    has the coefficient of x^la.  The symmetry check and the pick of terms
    are those of block_schur with one block."""
    dominant = _dominant_terms(p, [(p.var_count, None)])
    return MVector(p.var_count, {mu: c for (mu,), c in dominant.items()})


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
    dominant = {(mu,): c for mu, c in v.terms.items()}
    return _one_block(schur_from_dominant, dominant, v.var_count)


def schur_from_poly(p: MonomialPoly) -> SchurVector:
    """Symmetry check and Schur extraction; see block_schur."""
    return _one_block(block_schur, p, p.var_count)


def _principal_at_two(la: Partition, n: int) -> int:
    """s_la(1, 2, ..., 2^(n-1)) by the hook-content formula
    s_la(1, q, ..., q^(n-1)) = q^b(la) prod_u (q^(n+c(u)) - 1)/(q^h(u) - 1),
    b(la) = sum (i-1) la_i (Stanley, EC2 Thm 7.21.2)."""
    conj = conjugate(la)
    num = den = 1
    for i, row in enumerate(la):
        for j in range(row):
            num *= (1 << (n + j - i)) - 1
            den *= (1 << (row - j + conj[j] - i - 1)) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"hook-content quotient of {la} in {n} variables is not exact")
    return quot << sum(i * part for i, part in enumerate(la))


def check_principal(
    terms: Mapping[tuple[Partition, ...], int], a: Alphabet, blocks: Blocks
) -> None:
    """Raise ConsistencyError unless the expansion in the blocks' Schur bases
    specialises like the product of the alphabet's forms at x_i = 2^i, i >= 1.
    A block x_(lo+1), ..., x_(lo+s) then takes s_la to 2^((lo+1)|la|) *
    s_la(1, 2, ..., 2^(s-1)); the scale keeps a one-variable block off 1,
    where a term moved between its degrees would not show."""
    want = 1
    for f in a.forms:
        want *= sum(c << i for i, c in enumerate(f, 1))
    cuts = block_cuts(blocks, a.var_count)
    principal = cache(_principal_at_two)
    got = 0
    for key, c in terms.items():
        for (lo, hi, _), la in zip(cuts, key):
            c *= principal(la, hi - lo) << (lo + 1) * sum(la)
        got += c
    if got != want:
        raise ConsistencyError(
            f"self-check failed: the Schur expansion specialises to {got} at "
            f"x_i = 2^i, the product of forms to {want}"
        )


def schur_of_product(a: Alphabet, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Expansion, as block_schur gives it, of the product of the alphabet's
    forms, read off its dominant coefficients; the product is never built.

    The multiset of forms must be invariant under the symmetric group of
    each block, or AsymmetryError names a form and its image.  The result
    must pass check_principal, or ConsistencyError is raised.
    """
    _check_symmetric_forms(a, block_cuts(blocks, a.var_count))
    out = schur_from_dominant(dominant_coefficients(a, blocks), blocks)
    check_principal(out, a, blocks)
    return out


def schur_of_graded_product(a: Alphabet) -> SchurVector:
    """Schur expansion of the product of 1 + f over the alphabet's forms f,
    whose part of degree p is e_p of the alphabet: the product of the forms
    t + f, t a one-variable block, read off by schur_of_product; t's exponent
    d - p is fixed by p, so dropping it loses nothing."""
    n = a.var_count
    homogenised = Alphabet(n + 1, tuple((1,) + f for f in a.forms))
    terms = schur_of_product(homogenised, [(1, "t"), (n, None)])
    return SchurVector(n, {la: c for (_, la), c in terms.items()})


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
