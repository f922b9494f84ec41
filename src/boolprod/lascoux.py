"""Binomial determinants two ways, and the total-Chern-class identity check.

``binomial_det`` evaluates det C(lambda_i + n - i, mu_j + n - j) exactly;
``gv_count`` recounts the same quantity as families of vertex-disjoint lattice
paths and never touches the determinant code, so the two are independent
routes to one number.  ``lascoux_check`` assembles both sides of the classical
identity expressing the product of (1 + x_i + x_j) over pairs in the Schur
basis with binomial-determinant coefficients, dividing out the power-of-two
prefactor exactly; the product side is read off its dominant coefficients
without being built.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import CapacityError, ConsistencyError
from .polyring import Alphabet, check_fold_capacity
from .record import FrozenRecord, Record
from .schur import SchurVector, schur_of_graded_product
from .tableaux import Partition, contains, staircase, subpartitions

# Cap on the sum of start heights for the path enumeration.  At 30 in one
# process, gv_count((10, 4, 1), (), 6) walks 392,392 path families in 8.6 s.
GV_SUM_CAP = 30


class GVConfig(FrozenRecord):
    """Padded start/end data: path i runs from (0, a_i) to (b_i, b_i)."""

    FIELDS = ("n", "a", "b")

    def __init__(self, n: int, a: tuple[int, ...], b: tuple[int, ...]):
        super().__init__(n, a, b)

    @classmethod
    def build(cls, la: Partition, mu: Partition, n: int) -> "GVConfig":
        if len(la) > n or len(mu) > n:
            raise ValueError(f"need at most {n} parts, got {la}, {mu}")
        lap = la + (0,) * (n - len(la))
        mup = mu + (0,) * (n - len(mu))
        a = tuple(lap[i] + n - 1 - i for i in range(n))
        b = tuple(mup[j] + n - 1 - j for j in range(n))
        return cls(n, a, b)


def _int_det(m: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; exact over arbitrary ints."""
    size = len(m)
    if size == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def binomial_det(la: Partition, mu: Partition, n: int) -> int:
    """det C(lambda_i + n - i, mu_j + n - j) after padding both to length n."""
    cfg = GVConfig.build(la, mu, n)
    matrix = [[comb(ai, bj) for bj in cfg.b] for ai in cfg.a]
    return _int_det(matrix)


def _paths(start_height: int, end: int, blocked: set) -> list[tuple]:
    """All E/S paths from (0, start_height) to (end, end) avoiding blocked
    vertices, each returned as a tuple of visited lattice points."""
    out = []

    def walk(x, y, trail):
        if (x, y) in blocked:
            return
        trail = trail + ((x, y),)
        if x == end and y == end:
            out.append(trail)
            return
        if x < end:
            walk(x + 1, y, trail)
        if y > end:
            walk(x, y - 1, trail)

    walk(0, start_height, ())
    return out


def gv_count(la: Partition, mu: Partition, n: int) -> int:
    """Number of vertex-disjoint path families realizing the determinant.

    Path i runs from (0, a_i) to (b_i, b_i) with East and South steps; a
    single unconstrained path admits C(a_i, b_j) routes, and only the identity
    endpoint matching can be disjoint, so this count matches binomial_det by
    the reflection involution.  Pure enumeration, no determinant code.
    """
    if not contains(la, mu):
        raise ValueError(f"need mu contained in la, got la={la}, mu={mu}")
    cfg = GVConfig.build(la, mu, n)
    if sum(cfg.a) > GV_SUM_CAP:
        raise CapacityError(
            f"path enumeration capped at total height {GV_SUM_CAP}, got {sum(cfg.a)}"
        )

    def place(i: int, used: set) -> int:
        if i == cfg.n:
            return 1
        total = 0
        for path in _paths(cfg.a[i], cfg.b[i], used):
            total += place(i + 1, used | set(path))
        return total

    return place(0, set())


def _pair_alphabet(n: int, kind: str) -> Alphabet:
    pairs = {"exterior": combinations, "symmetric": combinations_with_replacement}.get(kind)
    if pairs is None:
        raise ValueError(f"kind must be 'exterior' or 'symmetric', got {kind!r}")
    return Alphabet.from_subsets(n, pairs(range(n), 2))


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
    if n < 2:
        raise CapacityError(f"need n >= 2, got {n}")
    count = comb(n + (kind == "symmetric"), 2)  # C(n,2) strict, C(n+1,2) weak pairs
    check_fold_capacity(n + 1, count, f"the product of {count} {kind} pair forms t + x_i + x_j")
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
