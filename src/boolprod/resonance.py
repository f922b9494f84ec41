"""Characteristic polynomial of the all-subset-sums arrangement, two ways.

The arrangement consists of the hyperplanes {sum of x_i over i in S = 0} for
every nonempty S inside [n].  charpoly_ff fits chi/(t - 1) to projective
point counts (x_1 = 1) at n - 2 primes and checks one holdout prime.  A
count walks nondecreasing x_2..x_(n-2) with one mask per branch, the
residues the next coordinate may not take (0 and the negatives of the subset
sums so far), and counts the last two coordinates in closed form from one
big-int square of the allowed residues; charpoly_mobius builds the lattice
of flats rank by rank, each flat closed by the zero-sets of an integer
basis of the vectors orthogonal to it, and runs the Mobius recursion over
down-sets.  CharPoly checks both against Whitney's t^(n-2) coefficient.
Region counts follow by Zaslavsky's evaluation at -1.
"""

from math import comb, factorial, gcd, sqrt

from .errors import CapacityError, ConsistencyError
from .polyring import QPoly

# Timed as fresh processes on a shared 2-core host.  complement_count(7, 59)
# takes 0.9-1.4 s, and p = 79, the least of n=8's seven primes, 44-59 s.
COUNT_MAX_N = 7
# n=7 counts six primes (37-59) in 2.4-3.5 s.  It stays behind allow_long,
# the one case that flag opens, since COUNT_MAX_N refuses n=8 anyway.
FF_MAX_N = 6
# n=5 builds 1,788 flats in 0.2-0.3 s; n=6 takes 11-15 s at 540 MB.
MOBIUS_MAX_N = 5


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
    """Complement points with x_1 = 1, i.e. chi/(t - 1) at p.  Walks
    nondecreasing x_2..x_(n-2), a branch weighing (n-1)! over the factorials
    of its runs.  It keeps one mask, forbid: residue 0 and the negatives of
    the subset sums so far, each residue r a W-bit field at bit W*r, all
    ones when r is forbidden, with 2^W > p^2.  Placing v ors in forbid
    rotated down by v.

    The last two, v <= w, are counted in closed form.  With A the allowed
    residues above prev, as fields holding 1, the ordered pairs of A whose
    sum is allowed number |A|^2 less the coefficients of A(x)^2 at forbidden
    residues: one square, no carries (each coefficient is at most |A| < p),
    summed mod 2^W - 1 (the sum is below |A|^2).  Halved, they weigh the
    pairs v < w and the doubles v = w at once; the pairs with v = prev are
    added for a run one longer, and v = w = prev for two."""
    if n <= 2:
        return 1 if n == 1 else p - 2  # x_2 avoids 0 and -x_1
    width = (p * p).bit_length()
    span = width * p
    full = (1 << span) - 1
    field = (1 << width) - 1
    ones = full // field

    def rec(remaining: int, forbid: int, prev: int, run: int, weight: int) -> int:
        if remaining == 2:
            cut = width * (prev + 1)
            allowed = (ones & ~forbid) >> cut << cut
            size = allowed.bit_count()
            square = allowed * allowed
            hit = ((square & forbid) + (square >> span & forbid)) % field
            total = weight * (size * size - hit) // 2
            shift = width * prev
            if not forbid >> shift & 1:
                down = forbid >> shift | forbid << (span - shift) & full
                weight //= run + 1
                total += weight * (allowed & ~down).bit_count()
                if not forbid >> 2 * shift % span & 1:
                    total += weight // (run + 2)
            return total
        total = 0
        for v in range(prev, p):
            shift = width * v
            if forbid >> shift & 1:
                continue
            grown = forbid | forbid >> shift | forbid << (span - shift) & full
            if v == prev:
                total += rec(remaining - 1, grown, v, run + 1, weight // (run + 1))
            else:
                total += rec(remaining - 1, grown, v, 1, weight)
        return total

    return rec(n - 1, field | field << width * (p - 1), 1, 0, factorial(n - 1))


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
            f"n={n} counts six primes (37-59) in 2.4-3.5 s; "
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


def charpoly_mobius(n: int) -> CharPoly:
    """Lattice-theoretic oracle: build the flats rank by rank and sum mu(F)
    t^(n - rank F), with mu(bottom) = 1 and mu(F) = -sum of mu(G) over the
    flats G strictly below F.  A flat, held as the bitmask of its hyperplanes
    (bit S - 1 for the subset S), carries an integer basis of the vectors
    orthogonal to its normals.  Adding a hyperplane outside it combines that
    basis, fraction-free, into one vector fewer, and the closure is the AND
    of the zero-sets of the new vectors k: the subsets S whose k-sum is 0,
    read off a table of all 2^n subset sums built once per primitive k.
    Every flat of the rank below that reaches F is covered by it, so the
    down-set of F, a bitmask over flats in order of discovery, is the union
    of theirs."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MOBIUS_MAX_N:
        raise CapacityError(
            f"lattice oracle builds every flat (1,788 in 0.2-0.3 s at n=5, "
            f"11-15 s and 540 MB at n=6); capped at n={MOBIUS_MAX_N}"
        )
    subsets = range(1, 2**n)
    every = 2 ** len(subsets) - 1
    tables = {}  # primitive k -> (k-sum of every subset, zero-set)

    def table(k):
        found = tables.get(k)
        if found is None:
            sums, zero = [0] * 2**n, 0
            for s in subsets:
                low = s & -s
                sums[s] = sums[s ^ low] + k[low.bit_length() - 1]
                if not sums[s]:
                    zero |= 1 << (s - 1)
            found = tables[k] = sums, zero
        return found

    def primitive(vec):
        g = gcd(*vec)
        return tuple(c // g for c in vec)

    # flat -> (kernel basis, down-set: bit i for the i-th flat found)
    level = {0: ([tuple(int(i == j) for j in range(n)) for i in range(n)], 1)}
    mobius = [1]
    coeffs = [0] * n + [1]
    for rank in range(1, n + 1):
        above = {}  # flat -> [basis, union of the down-sets of its lower covers]
        for flat, (basis, down) in level.items():
            sums = [table(k)[0] for k in basis]
            covered = flat  # h inside a cover already found would give it again
            for s in subsets:
                if covered >> (s - 1) & 1:
                    continue
                dots = [t[s] for t in sums]
                j = next(i for i, d in enumerate(dots) if d)
                grown = [
                    primitive([dots[j] * a - d * b for a, b in zip(k, basis[j])])
                    for i, (k, d) in enumerate(zip(basis, dots)) if i != j
                ]
                closure = every
                for k in grown:
                    closure &= table(k)[1]
                covered |= closure
                if closure in above:
                    above[closure][1] |= down
                else:
                    above[closure] = [grown, down]
        level = {}
        for flat, (basis, below) in above.items():
            bits = bin(below)[:1:-1]  # bit i at index i
            mu, i = 0, bits.find("1")
            while i >= 0:
                mu -= mobius[i]
                i = bits.find("1", i + 1)
            level[flat] = basis, below | 1 << len(mobius)
            mobius.append(mu)
            coeffs[n - rank] += mu
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
