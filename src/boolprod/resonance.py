"""Characteristic polynomial of the all-subset-sums arrangement, two ways.

The arrangement consists of the hyperplanes {sum of x_i over i in S = 0} for
every nonempty S inside [n].  charpoly_ff fits chi/(t - 1) to projective
point counts (x_1 = 1) at n - 2 primes and checks one holdout prime.  A
count walks nondecreasing x_2..x_n with one p-bit mask per branch, the
residues the next coordinate may not take (0 and the negatives of the subset
sums so far), and counts the last coordinate by popcount;
charpoly_mobius builds the lattice of flats rank by rank in integer
arithmetic and runs the Mobius recursion on it.
CharPoly checks both against Whitney's t^(n-2) coefficient.  Region counts
follow by Zaslavsky's evaluation at -1.
"""

from math import comb, factorial, sqrt

from .errors import CapacityError, ConsistencyError
from .polyring import QPoly

COUNT_MAX_N = 7  # n=7 counts one prime, e.g. complement_count(7, 59), in 2.6-3.3 s
FF_MAX_N = 6  # n=7 counts six primes in 6-7 s, so it needs allow_long
MOBIUS_MAX_N = 5  # n=5 builds 1,788 flats in 1.1-1.4 s


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _bound_holds(n: int, p: int) -> bool:
    # p > (n+1)^((n+1)/2) / 2^n, squared to stay in integers
    return p * p * 4**n > (n + 1) ** (n + 1)


def valid_primes(n: int, count: int) -> list[int]:
    """The first `count` primes large enough for exact point counting at n."""
    out = []
    p = 2
    while len(out) < count:
        if _is_prime(p) and _bound_holds(n, p):
            out.append(p)
        p += 1
    return out


def complement_count(n: int, p: int) -> int:
    """Points of F_p^n avoiding every subset-sum hyperplane.

    Every such point has nonzero coordinates, and scaling by F_p^* permutes
    them freely, so the count is (p - 1) times the count with x_1 = 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > COUNT_MAX_N:
        raise CapacityError(f"point counting capped at n={COUNT_MAX_N}, got {n}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not _bound_holds(n, p):
        bound = sqrt((n + 1) ** (n + 1)) / 2**n
        raise ValueError(
            f"p={p} is below the validity bound {bound:.3f} for n={n}; "
            f"smallest valid prime is {valid_primes(n, 1)[0]}"
        )
    return (p - 1) * _projective_count(n, p)


def _projective_count(n: int, p: int) -> int:
    """Complement points with x_1 = 1, i.e. chi/(t - 1) at p.  Enumerates
    nondecreasing x_2..x_n only, weighted by multinomials.  A branch keeps one
    p-bit mask, forbid: residue 0 and the negatives of the subset sums
    reachable so far.  v can come next exactly when bit v of forbid is clear,
    and placing it ors in forbid rotated down by v.  The last coordinate
    recurses no further: its allowed values v >= prev are counted by one
    popcount, v = prev weighted for a run one longer."""
    if n == 1:
        return 1
    full = (1 << p) - 1
    fact = factorial(n - 1)

    def rec(remaining: int, forbid: int, prev: int, run: int, denom: int) -> int:
        if remaining == 1:
            free = (~forbid & full) >> prev
            weight = fact // denom
            if free & 1:
                return weight * (free.bit_count() - 1) + weight // (run + 1)
            return weight * free.bit_count()
        total = 0
        for v in range(prev, p):
            if forbid >> v & 1:
                continue
            grown = forbid | ((forbid << (p - v)) | (forbid >> v)) & full
            if v == prev:
                total += rec(remaining - 1, grown, v, run + 1, denom * (run + 1))
            else:
                total += rec(remaining - 1, grown, v, 1, denom)
        return total

    return rec(n - 1, 1 | 1 << (p - 1), 1, 0, 1)


class CharPoly(QPoly):
    """coeffs[i] multiplies t^i; trimmed, then validated monic with the
    forced values."""

    VAR = "t"
    DESCENDING = True
    n = property(QPoly.degree)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        super().__init__(coeffs)
        n = self.n
        if n < 1 or self.coeffs[-1] != 1:
            raise ConsistencyError(f"not monic of positive degree: {self.coeffs}")
        hyperplanes = 2**n - 1
        if self.coeffs[n - 1] != -hyperplanes:
            raise ConsistencyError(
                f"t^{n-1} coefficient {self.coeffs[n-1]} != -{hyperplanes}"
            )
        if sum(self.coeffs) != 0:
            raise ConsistencyError(f"chi(1) = {sum(self.coeffs)} != 0")
        # Whitney: all pairs of hyperplanes, less one per flat {S, T, S + T}
        pairs = comb(hyperplanes, 2) - (3**n + 1) // 2 + 2**n
        if n >= 2 and self.coeffs[n - 2] != pairs:
            raise ConsistencyError(
                f"Whitney: t^{n-2} coefficient {self.coeffs[n-2]} != {pairs}"
            )


def _interpolate(points: list[tuple[int, int]]) -> QPoly:
    """Exact Newton fit.  An integer polynomial has integer divided
    differences at integer nodes, so a division with a remainder rejects it."""
    xs = [x for x, _ in points]
    diffs = [y for _, y in points]
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - j])
            if rem:
                raise ConsistencyError(f"non-integer order-{j} divided difference")
    poly = QPoly()
    for x, d in zip(reversed(xs), reversed(diffs)):
        poly = poly * QPoly((-x, 1)) + d
    return poly


def charpoly_ff(n: int, allow_long: bool = False) -> CharPoly:
    """chi = (t - 1) * chi_bar.  chi_bar is t^(n-1) - (2^n - 2) t^(n-2) plus
    a fit through projective counts at n - 2 valid primes.  A mismatch at one
    further holdout prime means an invalid prime or a counting bug."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > COUNT_MAX_N:
        raise CapacityError(f"finite field method capped at n={COUNT_MAX_N}, got {n}")
    if n > FF_MAX_N and not allow_long:
        raise CapacityError(
            f"n={n} counts six primes (37-59) in 6-7 s; "
            f"pass allow_long=True (cli --allow-long) to run it"
        )
    *fit, holdout = valid_primes(n, max(n - 1, 1))
    top = QPoly((0,) * (n - 2) + (2 - 2**n, 1) if n > 1 else (1,))
    chi_bar = top + _interpolate([(p, _projective_count(n, p) - top(p)) for p in fit])
    expected = _projective_count(n, holdout)
    if chi_bar(holdout) != expected:
        raise ConsistencyError(
            f"holdout prime {holdout}: polynomial gives {chi_bar(holdout)}, "
            f"projective count gives {expected}"
        )
    return CharPoly((QPoly((-1, 1)) * chi_bar).coeffs)


def _subset_normals(n: int) -> list[tuple[int, ...]]:
    return [
        tuple((mask >> i) & 1 for i in range(n)) for mask in range(1, 2**n)
    ]


def _reduce(basis, vec):
    """Clear each pivot of an integer echelon basis from vec, fraction-free.
    Row k is zero at the pivots of rows 0..k-1, so one pass in order leaves
    vec zero exactly when it lies in the span."""
    for pivot, row in basis:
        c = vec[pivot]
        if c:
            vec = [row[pivot] * v - c * r for v, r in zip(vec, row)]
    return vec


def charpoly_mobius(n: int) -> CharPoly:
    """Lattice-theoretic oracle: build the flats rank by rank, each one the
    closure of a flat of the rank below and one hyperplane outside it, and sum
    mu(F) t^(n - rank F), with mu(bottom) = 1 and mu(F) = -sum of mu(G) over
    the flats G strictly below F."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MOBIUS_MAX_N:
        raise CapacityError(
            f"lattice oracle builds every flat (1,788 in 1.1-1.4 s at n=5); "
            f"capped at n={MOBIUS_MAX_N}"
        )
    normals = _subset_normals(n)
    hyperplanes = range(len(normals))
    level = {0: []}  # flat, as a bitmask of its hyperplanes -> echelon basis
    mobius = {0: 1}
    coeffs = [0] * n + [1]
    for rank in range(1, n + 1):
        above = {}
        for flat, basis in level.items():
            covered = flat  # h inside a cover already found would give it again
            for h in hyperplanes:
                if covered >> h & 1:
                    continue
                vec = _reduce(basis, normals[h])
                pivot = next(t for t, c in enumerate(vec) if c)
                grown = basis + [(pivot, vec)]
                closure = sum(
                    1 << g for g in hyperplanes if not any(_reduce(grown, normals[g]))
                )
                covered |= closure
                above.setdefault(closure, grown)
        for flat in above:
            mu = -sum(m for below, m in mobius.items() if below & flat == below)
            mobius[flat] = mu
            coeffs[n - rank] += mu
        level = above
    return CharPoly(tuple(coeffs))


def regions(n: int, allow_long: bool = False) -> int:
    """Zaslavsky count of complement regions over the reals."""
    chi = charpoly_ff(n, allow_long)
    return (-1) ** n * chi(-1)


def bounded_regions(n: int, allow_long: bool = False) -> int:
    """Bounded regions, (-1)^n chi(1): 0 for every n.  The arrangement is
    central, and chi = (t - 1) * chi_bar vanishes at 1 by construction."""
    chi = charpoly_ff(n, allow_long)
    return (-1) ** n * chi(1)
