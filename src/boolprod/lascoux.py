"""Binomial determinants two ways, and the total-Chern-class identity check.

``binomial_det`` evaluates det C(lambda_i + n - i, mu_j + n - j) exactly;
``gv_count`` recounts the same quantity as families of vertex-disjoint lattice
paths, column by column without listing them, and never touches the
determinant code, so the two are independent routes to one number.
``lascoux_check`` assembles both sides of the classical identity expressing
the product of (1 + x_i + x_j) over pairs in the Schur basis with
binomial-determinant coefficients, dividing out the power-of-two prefactor
exactly; the product side is read off its dominant coefficients without
being built, under the ceilings polyring.dominant_coefficients counts.
"""

from itertools import accumulate, combinations, combinations_with_replacement, product
from math import comb

from .errors import CapacityError, ConsistencyError
from .polyring import Alphabet, _int_det, _lazy, capped_comb
from .record import Record
from .schur import SchurVector, schur_of_graded_product
from .tableaux import Partition, staircase, subpartitions

# Ceiling on gv_count's transfer, counted before it runs by _transfer_work:
# its transitions, plus the cells of every height range it reads, plus
# GV_RANGE_WORK per range.  Setting up a range costs about 5 us against
# 0.15-0.6 us a transition, so the count also follows the time of paths
# pinned to one transition a column.  As CLI runs on a shared 2-core host,
# cases just under 2,000,000 took 0.5-0.75 s at 16 MB for n = 4..8, and the
# one path from (0, 499987) to (1, 1) 1.3 s at 85 MB, its first column
# leaving 499,987 states.  The old cap, 30 on the sum of the start heights,
# let no case past 10,208.
GV_MAX_WORK = 2_000_000
GV_RANGE_WORK = 16


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


def _chains(ranges: list) -> int:
    """Number of sequences v_0 >= v_1 > v_2 >= v_3 > ... with v_j from
    ranges[j][0] to ranges[j][1]."""
    lo, hi = ranges[0]
    ways = [1] * (hi - lo + 1)
    for j, (lo2, hi2) in enumerate(ranges[1:], 1):
        suffix = list(accumulate(reversed(ways)))[::-1] + [0]
        last = len(ways)
        step = lo - (j % 2 == 0)  # v_j <= v_(j-1) for odd j, v_j < v_(j-1) for even j
        ways = [suffix[min(max(y - step, 0), last)] for y in range(lo2, hi2 + 1)]
        lo = lo2
    return sum(ways)


def _columns(a: tuple[int, ...], b: tuple[int, ...]):
    """Yield (ranges, run) over the columns of gv_count's transfer from
    heights a to b: the ranges a column's chains take their values from, as
    _transfer_work reads them, and how many columns in a row have them."""
    low, x = list(a), 0
    while x <= b[0]:
        k = len(low)
        on = k - (b[k - 1] == x)  # the paths that go on past column x
        nxt = [max(b[i], low[i + 1] + 1) if i + 1 < k else b[i] for i in range(on)]
        ranges = []
        for i in range(k):
            ranges.append((low[i], a[i]))
            if i < on:
                ranges.append((nxt[i], a[i]))
        # lows that stay put stay so until the last active path ends
        run = b[k - 1] - x if nxt == low else 1
        yield ranges, run
        low, x = nxt, x + run


def _transfer_work(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The work of gv_count's transfer from heights a to b, exactly, or any
    count past GV_MAX_WORK once it is sure to pass it.

    In column x path i can enter at any height from low_i to a_i, where low
    starts at a and moves to max(b_i, low_(i+1) + 1), or to b_i under the
    last path that goes on: any strictly falling h in those ranges is
    reached, through h_i = max(e_i, low_i) the column before.  So the
    transitions are the chains h_0 >= e_0 > h_1 >= e_1 > ... with h_i from
    low_i to a_i and e_i from the next low_i to a_i, the path that ends at x
    having no e.  Each path i is active in b_i + 1 columns and reads at
    least one range there, which bounds the work from below before any
    column is built.  Every value of a range is taken by some transition,
    so the widest range of each column gives a closer floor: a first pass
    over runs of equal columns takes it, storing nothing, and stops once it
    passes GV_MAX_WORK, before any chain is counted.  A second pass counts
    the chains of each run once.
    """
    if sum(bi + 1 for bi in b) * (1 + GV_RANGE_WORK) > GV_MAX_WORK:
        return GV_MAX_WORK + 1
    floor = 0
    for ranges, run in _columns(a, b):
        widths = [hi - lo + 1 for lo, hi in ranges]
        floor += run * (sum(widths) + GV_RANGE_WORK * len(ranges) + max(widths))
        if floor > GV_MAX_WORK:
            return floor
    total = 0
    for ranges, run in _columns(a, b):
        total += run * (sum(hi - lo + 1 + GV_RANGE_WORK for lo, hi in ranges) + _chains(ranges))
        if total > GV_MAX_WORK:
            break
    return total


def _work_bound(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """A bound, cheap to take, that _transfer_work never passes.

    With j paths active, a column's chain has at most 2j values from 0 to
    a_0, and it falls strictly once each of its j weak steps is shifted up:
    at most C(a_0 + j + 1, 2j) chains, and 2j ranges of at most a_0 + 1
    cells.
    """
    top, k = a[0], len(a)
    chains = max(capped_comb(top + j + 1, 2 * j) for j in range(1, k + 1))
    return (b[0] + 1) * (chains + 2 * k * (top + 1 + GV_RANGE_WORK))


def gv_count(la: Partition, mu: Partition, n: int) -> int:
    """Number of vertex-disjoint path families realizing the determinant.

    Path i runs from (0, a_i) to (b_i, b_i) with East and South steps; a
    single unconstrained path admits C(a_i, b_j) routes, and only the identity
    endpoint matching can be disjoint, so this count matches binomial_det by
    the reflection involution.  No determinant code: a transfer, column by
    column.  In column x path i enters at height h_i, runs South and leaves
    East at a height e_i from max(b_i, h_(i+1) + 1) to h_i, or ends at b_i
    when x = b_i; the family is disjoint exactly when every e_i > h_(i+1).
    The active paths are the first few, since b falls, and the state is
    their entry heights.  With mu not inside la some b_i > a_i, path i has
    no route, and the count is 0, as is the determinant.  Past GV_MAX_WORK,
    counted first by _transfer_work where _work_bound does not settle it,
    CapacityError is raised before the transfer.
    """
    a, b = _endpoints(la, mu, n)
    if any(bi > ai for ai, bi in zip(a, b)):
        return 0
    if n == 0:
        return 1  # the empty family
    if _work_bound(a, b) > GV_MAX_WORK and _transfer_work(a, b) > GV_MAX_WORK:
        raise CapacityError(
            f"path transfer with n={n:,} takes more than {GV_MAX_WORK:,} steps, "
            f"the ceiling"
        )
    states = {a: 1}
    for x in range(b[0] + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for h, c in states.items():
            on = len(h) - (b[len(h) - 1] == x)  # the paths that go on past column x
            below = h[1:] + (-1,)
            ranges = [range(max(b[i], below[i] + 1), h[i] + 1) for i in range(on)]
            for e in product(*ranges):
                nxt[e] = nxt.get(e, 0) + c
        states = nxt
    return states[()]


_PAIRS = {"exterior": combinations, "symmetric": combinations_with_replacement}


def _pair_alphabet(n: int, kind: str) -> Alphabet:
    return Alphabet.from_subsets(n, _lazy(_PAIRS[kind], range(n), 2))


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
