"""Binomial determinants two ways, and the total-Chern-class identity check.

``binomial_det`` evaluates det C(lambda_i + n - i, mu_j + n - j) exactly;
``gv_count`` recounts the same quantity as families of vertex-disjoint lattice
paths, in one recursive walk that keeps the points taken so far as the bits
of an int, and never touches the determinant code, so the two are
independent routes to one number.  ``lascoux_check`` assembles both sides of
the classical identity expressing the product of (1 + x_i + x_j) over pairs
in the Schur basis with binomial-determinant coefficients, dividing out the
power-of-two prefactor exactly; the product side is read off its dominant
coefficients without being built.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import CapacityError, ConsistencyError
from .polyring import Alphabet, _int_det, check_fold_capacity, figure
from .record import Record
from .schur import SchurVector, schur_of_graded_product
from .tableaux import Partition, contains, staircase, subpartitions

# Cap on the sum of start heights for the path enumeration.  At 30, of every
# la with mu = () and n <= 8, n = 6 costs most: gv_count((9, 4, 2), (), 6)
# walks 412,776 path families and (10, 4, 1) 392,392, each in 1.0-2.1 s at
# 14 MB in one process on a shared 2-core host; a sweep of all 110 shapes at
# n = 6 takes 42 s.
GV_SUM_CAP = 30


def _endpoints(la: Partition, mu: Partition, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Start and end heights a, b after padding both to length n: path i runs
    from (0, a_i) to (b_i, b_i)."""
    if len(la) > n or len(mu) > n:
        raise ValueError(f"need at most {n} parts, got {la}, {mu}")

    def heights(p: Partition) -> tuple[int, ...]:
        return tuple(part + n - 1 - i for i, part in enumerate(p + (0,) * (n - len(p))))

    return heights(la), heights(mu)


def binomial_det(la: Partition, mu: Partition, n: int) -> int:
    """det C(lambda_i + n - i, mu_j + n - j) after padding both to length n."""
    a, b = _endpoints(la, mu, n)
    matrix = [[comb(ai, bj) for bj in b] for ai in a]
    return _int_det(matrix)


def gv_count(la: Partition, mu: Partition, n: int) -> int:
    """Number of vertex-disjoint path families realizing the determinant.

    Path i runs from (0, a_i) to (b_i, b_i) with East and South steps; a
    single unconstrained path admits C(a_i, b_j) routes, and only the identity
    endpoint matching can be disjoint, so this count matches binomial_det by
    the reflection involution.  Pure enumeration, no determinant code.
    """
    if not contains(la, mu):
        raise ValueError(f"need mu contained in la, got la={la}, mu={mu}")
    a, b = _endpoints(la, mu, n)
    if sum(a) > GV_SUM_CAP:
        raise CapacityError(
            f"path enumeration capped at total height {GV_SUM_CAP}, got {sum(a)}"
        )
    if n == 0:
        return 1  # the empty family
    # a point (x, y) of path i has x <= b_i <= y <= a_0: column x holds only
    # heights x..a_0, so bit x*a_0 + y of `used` is that point's alone
    width = a[0]

    def walk(i: int, x: int, y: int, used: int) -> int:
        bit = 1 << (x * width + y)
        if used & bit:
            return 0
        used |= bit
        end = b[i]
        if x == end == y:
            return walk(i + 1, 0, a[i + 1], used) if i + 1 < n else 1
        total = walk(i, x + 1, y, used) if x < end else 0
        if y > end:
            total += walk(i, x, y - 1, used)
        return total

    return walk(0, 0, width, 0)


_PAIRS = {"exterior": combinations, "symmetric": combinations_with_replacement}


def _pair_alphabet(n: int, kind: str) -> Alphabet:
    return Alphabet.from_subsets(n, _PAIRS[kind](range(n), 2))


class LascouxReport(Record):
    """Both sides of the identity, already verified equal and integral."""

    FIELDS = ("n", "kind", "lhs", "rhs")

    def __init__(self, n: int, kind: str, lhs: SchurVector, rhs: SchurVector):
        super().__init__(n, kind, lhs, rhs)

    @property
    def equal(self) -> bool:
        return self.lhs.terms == self.rhs.terms


def lascoux_check(n: int, kind: str) -> LascouxReport:
    """Verify the pair-product total Chern class identity at a given n.

    lhs: every graded piece of prod (1 + x_i + x_j) over pairs (strict pairs
    for 'exterior', weak pairs for 'symmetric'), read off root-only by
    schur_of_graded_product.  rhs: 2^(-C(n,2)) * sum over mu inside the
    staircase of binomial_det(staircase, mu, n) * 2^|mu| * s_mu, each
    coefficient an exact integer division.  Raises ConsistencyError if any rhs
    coefficient fails to be an integer or the two sides differ.
    """
    if n < 2 or kind not in _PAIRS:
        raise ValueError(f"need n >= 2 and kind 'exterior' or 'symmetric', got {n}, {kind!r}")
    count = comb(n + (kind == "symmetric"), 2)  # C(n,2) strict, C(n+1,2) weak pairs
    check_fold_capacity(
        n + 1, count, f"the product of {figure(count, '')} {kind} pair forms t + x_i + x_j"
    )
    lhs = schur_of_graded_product(_pair_alphabet(n, kind))

    delta = staircase(n - 1 if kind == "exterior" else n)
    denom = 2 ** comb(n, 2)
    rhs_terms: dict[Partition, int] = {}
    for mu in subpartitions(delta):
        num = binomial_det(delta, mu, n) * 2 ** sum(mu)
        q, r = divmod(num, denom)
        if r:
            raise ConsistencyError(
                f"rhs coefficient of s_{mu} is not integral: {num}/{denom}"
            )
        if q:
            rhs_terms[mu] = q
    rhs = SchurVector(n, rhs_terms)

    report = LascouxReport(n, kind, lhs, rhs)
    if not report.equal:
        raise ConsistencyError(
            f"identity failed at n={n}, kind={kind}: lhs and rhs differ"
        )
    return report
