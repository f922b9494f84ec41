"""Conversions between monomial-symmetric and Schur bases.

One routine, ``schur_from_dominant``, reads a polynomial symmetric in each
variable block off in the product of the blocks' Schur bases, from its
coefficients at partitions alone: one forward pass per block places the
rearrangements of every partition at once, merging partial placements that
meet, and antisymmetrises them against the staircase.  ``to_mvector`` picks
those coefficients out of a full polynomial in one block after checking
that it is invariant under a swap and a cycle of its variables, and
``m_to_schur`` reads them off; ``schur_of_product`` gets them from the
dominant coefficients of a product of linear forms, never built, guarded by
an invariance check on the forms and a principal-specialisation self-check
in every block; ``schur_of_graded_product`` does so for the product of the
1 + f, whose degree-p part is e_p of the forms.  ``schur_to_m`` goes back
through Kostka numbers.  ``schur_at_alphabet`` evaluates a Schur polynomial
at the forms of an alphabet through the dual Jacobi-Trudi determinant in
their e_p, taken on m-basis dicts by ``_m_product``, as is the Horner sum of
``derangements.alternating_expansion``; neither sees polyring's packed keys.

A partial placement is two ints, the id of the sorted entries left to
place and a key of the entries placed so far as set bits; the last position
is written straight into the block's result, the one place zero sums are
dropped.  Shape work that does not depend on the product is shared by every
read-off in the process: ``_REST_IDS`` interns each sorted tuple of entries
left to place to an id, ``_RESTS`` maps the id back and ``_STEPS`` holds its
moves: 32,149 tuples (about 17.5 MB) after ``boolean_product(7, 4)``.  The
dominant keys are walked per product and not kept.  ``_splits`` holds the
split pairs of each (mu, e) an m-basis product meets, each partition stored
once in ``_SPLIT_PARTS``: 1,596 entries (about 0.5 MB) after
``alternating_expansion(18)`` and 4,539 (6.6 MB) after s_(6,6,6) of the
(7,3) alphabet.
"""

from collections import Counter
from collections.abc import Mapping
from functools import cache
from itertools import accumulate, combinations_with_replacement, groupby
from math import factorial
from operator import ge, itemgetter

from .errors import AsymmetryError, CapacityError, ConsistencyError
from .polyring import Alphabet, Blocks, MonomialPoly, block_cuts, dominant_coefficients
from .polyring import _int_det, capped_comb, figure, graded_elementary
from .record import Terms
from .tableaux import Partition, conjugate, format_partition, kostka, partitions_up_to


class _TermVector(Terms):
    """Partition -> nonzero coefficient, in var_count variables."""

    FIELDS = ("var_count", "terms")

    def __init__(self, var_count: int, terms: Mapping | None = None):
        super().__init__(var_count, terms)
        for la in self.terms:
            if len(la) > var_count:
                raise ValueError(f"{la} has more parts than variables")


class MVector(_TermVector):
    """Integer combination of monomial symmetric polynomials m_lambda."""


class SchurVector(_TermVector):
    """Combination of Schur polynomials s_lambda.

    Coefficients are usually ints; the derangement module stores q-polynomials
    here instead, so only +, ==, and truthiness are assumed of them.
    """


def _moves(cuts: list) -> list:
    """(permutation of an n-tuple, block name) for the swap (1 2) and the
    cycle (1 2 ... s) of each block of size s >= 2; they generate S_s.  The
    cuts cover all n variables."""
    n = cuts[-1][1] if cuts else 0
    moves = []
    for lo, hi, name in cuts:
        if hi - lo < 2:
            continue
        keep, rest = list(range(lo)), list(range(hi, n))
        swap = keep + [lo + 1, lo] + list(range(lo + 2, hi)) + rest
        cycle = keep + list(range(lo + 1, hi)) + [lo] + rest
        moves += [(itemgetter(*swap), name), (itemgetter(*cycle), name)]
    return moves


def _check_symmetric(counts: Mapping, cuts: list, forms: bool = False) -> None:
    """Raise AsymmetryError unless every key of counts keeps its count under
    each block's two generators: the exponent vectors of a polynomial with
    their coefficients, which makes it symmetric in each block, or with
    forms=True an alphabet's forms with their multiplicities, which makes
    their product so.  The witness is a key and its image, and the error
    names that block.
    """
    moves = _moves(cuts)
    for key, c in counts.items():
        for move, name in moves:
            image = move(key)
            if counts.get(image, 0) != c:
                raise AsymmetryError(key, image, block=name, forms=forms)


def _pick_dominant(terms: Mapping, cuts: list) -> dict[tuple[Partition, ...], int]:
    """The terms whose exponent vector is weakly decreasing in every block,
    keyed by one partition per block."""
    out = {}
    for exp, c in terms.items():
        parts = [exp[lo:hi] for lo, hi, _ in cuts]
        if all(all(map(ge, part, part[1:])) for part in parts):
            out[tuple(tuple(x for x in part if x) for part in parts)] = c
    return out


def _shape(mask: int, n: int) -> Partition:
    """The partition la of at most n parts whose la + delta, delta = (n-1,
    ..., 0), has its entries at the set bits of mask: la_i is the i-th
    highest set bit less n - i, read off the set bits alone, highest first."""
    la: list[int] = []
    while mask and (part := mask.bit_length() + len(la) - n) > 0:
        la.append(part)
        mask ^= 1 << (mask.bit_length() - 1)
    return tuple(la)


# sorted rest -> id; id -> rest; id -> its steps, or None until a state holds it
_REST_IDS: dict[tuple[int, ...], int] = {}
_RESTS: list[tuple[int, ...]] = []
_STEPS: list[tuple | None] = []


def _rest_id(rest: tuple[int, ...]) -> int:
    if (rid := _REST_IDS.setdefault(rest, len(_RESTS))) == len(_RESTS):
        _RESTS.append(rest)
        _STEPS.append(None)
    return rid


def _steps(rid: int) -> tuple:
    """Store in _STEPS and return (1 << (v + len(rest) - 1), id of rest less
    one v) for each distinct v of rest = _RESTS[rid]."""
    rest = _RESTS[rid]
    _STEPS[rid] = steps = tuple(
        (1 << (v + len(rest) - 1), _rest_id(rest[:i] + rest[i + 1 :]))
        for i, v in enumerate(rest)
        if not i or rest[i - 1] != v
    )
    return steps


def schur_from_dominant(
    dominant: Mapping[tuple[Partition, ...], int], blocks: Blocks
) -> dict[tuple[Partition, ...], int]:
    """Expansion in the product of the blocks' Schur bases, keyed by one
    partition per block, of the polynomial f symmetric in each block whose
    coefficient of x^mu is dominant[mu], mu given the same way; a coefficient
    that cancels to 0 is left out.  ``blocks`` lists (size, name) pairs
    covering the variables in order.

    With delta = (s-1, ..., 0) in a block of size s, f * a_delta is the
    antisymmetrisation of f * x^delta, and s_la = a_(la+delta)/a_delta
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).  So each
    monomial c x^alpha of f whose alpha+delta has distinct entries in every
    block adds sgn(sigma) c at sort(alpha+delta) - delta, sigma sorting each
    block.  A block of size s < 2 is read as it is (s_(k) = x^k).  One
    pass per larger block, last to first, places every alpha at once, one
    position at a time with shift s-1 down to 0.  A state is a key, the
    entries placed so far as set bits below bit w and its tag's index (the
    other blocks' partitions) above, under the _REST_IDS id of rest, the
    sorted entries left.  Each value v of rest moves to bit v + shift unless
    it is taken, flipping the sign if an odd number of placed entries lie
    below it; states that meet add up.  The last value goes straight into
    the block's result, where alone zero sums are dropped.
    """
    sizes = [size for size, _ in blocks]
    done = {key: c for key, c in dominant.items() if c and all(map(ge, sizes, map(len, key)))}
    for b in reversed(range(len(sizes))):
        if (s := sizes[b]) < 2:
            continue
        w = s + max((key[b][0] for key in done if key[b]), default=0)
        tags, states = {}, {}  # tag -> index; rest id -> {key: coefficient}
        for key, c in done.items():
            tag, mu = tags.setdefault(key[:b] + key[b + 1 :], len(tags)), key[b]
            states.setdefault(_rest_id((0,) * (s - len(mu)) + mu[::-1]), {})[tag << w] = c
        steps, out = _STEPS, {}
        for pos in reversed(range(s)):
            merged: dict[int, dict[int, int]] = {}
            for rid, held in states.items():
                for bit, left in steps[rid] or _steps(rid):
                    below, into = bit - 1, merged.setdefault(left, {}) if pos else out
                    get = into.get
                    for key, c in held.items():
                        if not key & bit:
                            odd = (key & below).bit_count() & 1
                            into[to] = get(to := key | bit, 0) + (-c if odd else c)
            states = merged
        tag_list, low, done = list(tags), (1 << w) - 1, {}
        for key, c in out.items():
            if c:
                done[(tag := tag_list[key >> w])[:b] + (_shape(key & low, s),) + tag[b:]] = c
    return done


def _one_block(route, arg, n: int) -> SchurVector:
    """route(arg, blocks), a block-keyed expansion, over the one block of n
    variables, as a SchurVector."""
    return SchurVector(n, {la: c for (la,), c in route(arg, [(n, None)]).items()})


def to_mvector(p: MonomialPoly) -> MVector:
    """Read a symmetric polynomial off in the monomial-symmetric basis: m_la
    has the coefficient of x^la.  The polynomial must be invariant under a
    swap and a cycle of its variables; otherwise AsymmetryError names a
    term and its image."""
    cuts = [(0, p.var_count, None)]
    _check_symmetric(p.terms, cuts)
    return MVector(p.var_count, {mu: c for (mu,), c in _pick_dominant(p.terms, cuts).items()})


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


@cache
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


def _check_at_two(terms: Mapping, cuts: list, want: int, what: str) -> None:
    """Raise ConsistencyError unless the expansion in the blocks' Schur bases,
    cut as block_cuts gives them, specialises to want at x_i = 2^i, i >= 1.
    A block x_(lo+1), ..., x_(lo+s) then takes s_la to 2^((lo+1)|la|) *
    s_la(1, 2, ..., 2^(s-1)); the scale keeps a one-variable block off 1,
    where a term moved between its degrees would not show."""
    got = 0
    for key, c in terms.items():
        for (lo, hi, _), la in zip(cuts, key):
            c *= _principal_at_two(la, hi - lo) << (lo + 1) * sum(la)
        got += c
    if got != want:
        raise ConsistencyError(
            f"self-check failed: the Schur expansion specialises to {got} at "
            f"x_i = 2^i, {what} to {want}"
        )


def check_principal(
    terms: Mapping[tuple[Partition, ...], int], a: Alphabet, blocks: Blocks
) -> None:
    """Raise ConsistencyError unless the expansion in the blocks' Schur bases
    specialises like the product of the alphabet's forms; see _check_at_two."""
    want = 1
    for f in a.forms:
        want *= sum(c << i for i, c in enumerate(f, 1))
    _check_at_two(terms, block_cuts(blocks, a.var_count), want, "the product of forms")


def schur_of_product(a: Alphabet, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Expansion, as schur_from_dominant gives it, of the product of the
    alphabet's forms, read off its dominant coefficients; the product is
    never built.

    The multiset of forms must be invariant under the symmetric group of
    each block, or AsymmetryError names a form and its image.  The result
    must pass check_principal, or ConsistencyError is raised.
    """
    _check_symmetric(Counter(a.forms), block_cuts(blocks, a.var_count), forms=True)
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


# one object per partition that _splits holds, which keeps its table small
_SPLIT_PARTS: dict[Partition, Partition] = {}


@cache
def _splits(mu: Partition, e: int) -> tuple:
    """(sort alpha, sort(mu - alpha), how many alpha) over the compositions
    alpha <= mu, part by part, with |alpha| = e.

    The copies of a part are interchangeable, so each distinct part m of mu,
    with k copies, gives them a multiset of k values in 0..m, which k!/prod
    c_v! compositions share, c_v being the copies that take v.  A multiset
    is taken only if it does not pass what is left of e and the parts after
    it have room for the rest.
    """
    groups = sorted(Counter(mu).items(), reverse=True)
    room = list(accumulate((m * k for m, k in reversed(groups)), initial=0))[::-1]
    out: dict[tuple[Partition, Partition], int] = {}

    def place(g: int, left: int, alpha: tuple, beta: tuple, ways: int) -> None:
        if g == len(groups):
            a, b = tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True))
            pair = _SPLIT_PARTS.setdefault(a, a), _SPLIT_PARTS.setdefault(b, b)
            out[pair] = out.get(pair, 0) + ways
            return
        m, k = groups[g]
        for values in combinations_with_replacement(range(m, -1, -1), k):
            taken = sum(values)
            if left - room[g + 1] <= taken <= left:
                share = factorial(k)
                for _, run in groupby(values):
                    share //= factorial(len(list(run)))
                place(
                    g + 1,
                    left - taken,
                    alpha + tuple(v for v in values if v),
                    beta + tuple(m - v for v in values if v < m),
                    ways * share,
                )

    if 0 <= e <= room[0]:
        place(0, e, (), (), 1)
    return tuple((a, b, c) for (a, b), c in out.items())


def _m_product(p: Mapping, dp: int, q: Mapping, dq: int, n: int) -> dict:
    """Product of symmetric polynomials in n variables, homogeneous of degrees
    dp and dq, by m-basis dicts partition -> coefficient: (pq)[mu] = sum
    p[sort alpha] q[sort(mu - alpha)] over the compositions alpha <= mu with
    |alpha| = dp, grouped by _splits."""
    return {
        mu: sum(c * p.get(a, 0) * q.get(b, 0) for a, b, c in _splits(mu, dp))
        for mu in (partitions_up_to(dp + dq, n) if p and q else ())
    }


def _poly_det(es: list[dict], base: list[int], n: int) -> dict:
    """det(e_(base_i + j)), e_p of degree p in n variables given by its m-basis
    dict es[p] (0 for p < 0 or past es), by Laplace expansion down the rows,
    memoized on the live column set.  The minor of the rows from i and the
    columns cols has degree sum(base[i:]) + sum(cols), 0 if that is < 0."""
    minors: dict[tuple[int, ...], dict] = {(): {(): 1}}

    def minor(row: int, cols: tuple[int, ...]) -> dict:
        if cols not in minors:
            acc: dict[Partition, int] = {}
            degree = sum(base[row:]) + sum(cols)
            for pos, col in enumerate(cols):
                p = base[row] + col
                if degree >= 0 and 0 <= p < len(es):
                    rest = minor(row + 1, cols[:pos] + cols[pos + 1 :])
                    for mu, c in _m_product(es[p], p, rest, degree - p, n).items():
                        acc[mu] = acc.get(mu, 0) + (-c if pos % 2 else c)
            minors[cols] = {mu: c for mu, c in acc.items() if c}
        return minors[cols]

    return minor(0, tuple(range(len(base))))


# Ceilings on schur_at_alphabet, from counts known before any e_p is built.
# Its determinant has la_1 rows: the self-check's Bareiss elimination takes
# O(la_1^3) steps and _poly_det recurses once per row, so la_1 is bounded
# alone.  The forms times the largest e_p it folds, dense, which is e_h for h
# the hook of la's first cell (at most |A|).  The partitions of |la| in at
# most n parts, over which its determinant's last products run.  And the
# determinant's size: la_1 rows, each reading e_p up to p = h, times those
# partitions.  Measured as three fresh CLI runs each of schur-at on a shared
# 2-core host whose speed moved by up to 1.5x: --lambda 400 --n 1 --k 1 takes
# 2.4-2.9 s, and 500 took 5.9-7.3 s; --lambda 16 --n 7 --k 3 (35 forms times
# C(22,6), 2,611,455; size 41,984) 5.6-6.9 s at 86 MB; --lambda 13,12 --n 5
# --k 2 (377 partitions; size 49,010) 6.6-7.0 s at 72 MB and --lambda 10,10
# --n 7 --k 3 (364; 40,040) 4.7-5.2 s at 52 MB.  Past the size ceiling,
# --lambda 300 --n 2 --k 1 (90,600) took 8.7 s and --lambda 22 --n 6 --k 3
# (172,040) 20.5 s; below it, no case tried took more than 7.0 s.
SCHUR_AT_MAX_ROWS = 400
SCHUR_AT_MAX_WORK = 3_000_000
SCHUR_AT_MAX_PARTITIONS = 400
SCHUR_AT_MAX_DET = 50_000


def check_schur_at_capacity(la: Partition, var_count: int, form_count: int) -> None:
    """Raise CapacityError if s_la of form_count forms in var_count variables
    passes any ceiling; an empty la, or one with more parts than there are
    forms, needs no work and passes."""
    if not la or len(la) > form_count:
        return
    name = f"s[{format_partition(la)}]"
    if la[0] > SCHUR_AT_MAX_ROWS:
        raise CapacityError(
            f"{name} has a determinant of {la[0]:,} rows, above the ceiling of "
            f"{SCHUR_AT_MAX_ROWS:,}"
        )
    top = min(len(la) + la[0] - 1, form_count)
    work = form_count * capped_comb(top + var_count - 1, var_count - 1)
    if work > SCHUR_AT_MAX_WORK:
        raise CapacityError(
            f"{name} of {figure(form_count)} forms in {var_count} variables "
            f"folds e_p up to p = {top}: {figure(form_count)} forms times "
            f"C({top + var_count - 1},{var_count - 1}) monomials = {figure(work)}, "
            f"above the ceiling of {SCHUR_AT_MAX_WORK:,}"
        )
    # counts[i]: partitions of i in parts of size at most k, as many as in at
    # most k parts.  They do not decrease with i, and past twice the ceiling
    # those in two parts alone pass it, so a larger |la| is not counted.
    size = min(sum(la), 2 * SCHUR_AT_MAX_PARTITIONS)
    counts = [1] + [0] * size
    for k in range(1, min(var_count, size) + 1):
        for i in range(k, size + 1):
            counts[i] += counts[i - k]
    if counts[size] > SCHUR_AT_MAX_PARTITIONS:
        raise CapacityError(
            f"{name} in {var_count} variables spans more than "
            f"{SCHUR_AT_MAX_PARTITIONS:,} partitions of {sum(la)} in at most {var_count} "
            f"parts, the ceiling"
        )
    det = la[0] * top * counts[size]
    if det > SCHUR_AT_MAX_DET:
        raise CapacityError(
            f"{name} of {form_count:,} forms in {var_count} variables has a determinant "
            f"of {la[0]} rows reading e_p up to p = {top}, over {counts[size]} partitions "
            f"of {sum(la)}: {la[0]} times {top} times {counts[size]} = {det:,}, above "
            f"the ceiling of {SCHUR_AT_MAX_DET:,}"
        )


def schur_at_alphabet(la: Partition, a: Alphabet) -> SchurVector:
    """Schur polynomial of the alphabet's forms, expanded back in the
    Schur basis of the underlying variables.

    Uses det(e_{la'_i - i + j}(A)) over the conjugate shape, taken in the
    monomial-symmetric basis.  The multiset of forms must be invariant under
    the symmetric group, which makes every e_p symmetric, or AsymmetryError
    names a form and its image; returns the zero vector when la has more
    parts than the alphabet has forms.  The result must specialise at
    x_i = 2^i like that determinant of the integers f(2, 4, ..., 2^n), or
    ConsistencyError.
    Past check_schur_at_capacity, CapacityError is raised before any work.
    """
    n = a.var_count
    check_schur_at_capacity(la, n, len(a.forms))
    if not la:
        return SchurVector(n, {(): 1})
    if len(la) > len(a.forms):
        return SchurVector(n)
    cuts = [(0, n, None)]
    _check_symmetric(Counter(a.forms), cuts, forms=True)
    laconj = conjugate(la)
    base = [part - i for i, part in enumerate(laconj)]
    es = [
        {mu: c for (mu,), c in _pick_dominant(e.terms, cuts).items()}
        for e in graded_elementary(a, cap=laconj[0] - 1 + len(base))
    ]
    out = m_to_schur(MVector(n, _poly_det(es, base, n)))
    ints = [1] + [0] * (len(es) - 1)
    for f in a.forms:
        v = sum(c << i for i, c in enumerate(f, 1))
        for p in range(len(es) - 1, 0, -1):
            ints[p] += v * ints[p - 1]
    rows = [[ints[b + j] if 0 <= b + j < len(es) else 0 for j in range(len(base))] for b in base]
    terms = {(mu,): c for mu, c in out.terms.items()}
    _check_at_two(terms, cuts, _int_det(rows), f"s_{la} of the forms")
    return out
