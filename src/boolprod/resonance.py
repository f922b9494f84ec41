"""Characteristic polynomial of the all-subset-sums arrangement, two ways.

The arrangement consists of the hyperplanes {sum of x_i over i in S = 0} for
every nonempty S inside [n].  charpoly_ff counts complement points over
enough finite fields and interpolates; charpoly_mobius builds the full
intersection lattice and runs the Mobius recursion.  Region counts follow by
Zaslavsky's evaluation at -1.
"""

from fractions import Fraction
from math import comb, factorial, sqrt

from .errors import CapacityError, ConsistencyError
from .polyring import QPoly

COUNT_MAX_N = 6
FF_MAX_N = 5  # n=6 needs allow_long
MOBIUS_MAX_N = 4


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

    Enumerates nondecreasing value tuples only (the condition is invariant
    under coordinate permutation) and restores the full count through
    multinomial weights.  Achievable subset sums are tracked as a p-bit mask;
    a branch dies as soon as residue 0 becomes achievable.
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

    full = (1 << p) - 1
    fact = factorial(n)
    total = 0

    def rec(remaining: int, mask: int, prev: int, run: int, denom: int):
        nonlocal total
        if remaining == 0:
            total += fact // denom
            return
        for v in range(prev, p):
            new_mask = mask | ((mask << v) | (mask >> (p - v))) & full | (1 << v)
            if new_mask & 1:
                continue
            if v == prev:
                rec(remaining - 1, new_mask, v, run + 1, denom * (run + 1))
            else:
                rec(remaining - 1, new_mask, v, 1, denom)

    rec(n, 0, 1, 0, 1)
    return total


class CharPoly(QPoly):
    """coeffs[i] multiplies t^i; validated monic (hence already trimmed)
    with the forced values."""

    VAR = "t"
    DESCENDING = True
    n = property(QPoly.degree)

    def __post_init__(self):
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


def _interpolate(points: list[tuple[int, int]]) -> tuple[int, ...]:
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
    return poly.coeffs + (0,) * (len(points) - len(poly.coeffs))


def charpoly_ff(n: int, allow_long: bool = False) -> CharPoly:
    """Interpolate the counting polynomial through n+1 valid primes.

    A further holdout prime validates the fit; a mismatch there means an
    invalid prime or a counting bug and is a hard failure.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > COUNT_MAX_N:
        raise CapacityError(f"finite field method capped at n={COUNT_MAX_N}, got {n}")
    if n > FF_MAX_N and not allow_long:
        raise CapacityError(
            f"n={n} takes 5-11 s; pass allow_long=True (cli --allow-long) to run it"
        )
    primes = valid_primes(n, n + 2)
    counts = [complement_count(n, p) for p in primes]
    coeffs = _interpolate(list(zip(primes[: n + 1], counts[: n + 1])))
    chi = CharPoly(coeffs)
    holdout, expected = primes[n + 1], counts[n + 1]
    if chi(holdout) != expected:
        raise ConsistencyError(
            f"holdout prime {holdout}: polynomial gives {chi(holdout)}, "
            f"direct count gives {expected}"
        )
    return chi


def _subset_normals(n: int) -> list[tuple[int, ...]]:
    return [
        tuple((mask >> i) & 1 for i in range(n)) for mask in range(1, 2**n)
    ]


def _reduce(rows, vec):
    vec = list(vec)
    for pivot, row in rows:
        c = vec[pivot]
        if c:
            for t in range(len(vec)):
                vec[t] -= c * row[t]
    return vec


def _insert(rows, vec):
    """Insert vec into a reduced echelon basis; no-op if already in the span."""
    vec = _reduce(rows, [Fraction(v) for v in vec])
    pivot = next((t for t, c in enumerate(vec) if c), None)
    if pivot is None:
        return rows
    lead = vec[pivot]
    new_row = tuple(c / lead for c in vec)
    updated = []
    for pv, row in rows:
        c = row[pivot]
        if c:
            row = tuple(row[t] - c * new_row[t] for t in range(len(row)))
        updated.append((pv, row))
    updated.append((pivot, new_row))
    updated.sort(key=lambda item: item[0])
    return tuple(updated)


def charpoly_mobius(n: int) -> CharPoly:
    """Lattice-theoretic oracle: rank every hyperplane subset, collect flats,
    and sum t^(n-rank) against Mobius values over containment of closures."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MOBIUS_MAX_N:
        raise CapacityError(
            f"lattice oracle enumerates 2^(2^n - 1) subsets; capped at n={MOBIUS_MAX_N}"
        )
    normals = _subset_normals(n)
    count = len(normals)
    table = [()] * (1 << count)
    closures: dict[tuple, frozenset] = {(): frozenset()}
    for mask in range(1, 1 << count):
        low = (mask & -mask).bit_length() - 1
        table[mask] = _insert(table[mask & (mask - 1)], normals[low])
        rows = table[mask]
        if rows not in closures:
            closures[rows] = frozenset(
                h
                for h in range(count)
                if not any(_reduce(rows, [Fraction(v) for v in normals[h]]))
            )

    flats = sorted(
        {(clo, len(rows)) for rows, clo in closures.items()},
        key=lambda item: (item[1], sorted(item[0])),
    )
    mobius: dict[frozenset, int] = {}
    coeffs = [0] * (n + 1)
    for clo, rank in flats:
        mu = 1 if not clo else -sum(
            mobius[other] for other, _ in flats if other < clo
        )
        mobius[clo] = mu
        coeffs[n - rank] += mu
    return CharPoly(tuple(coeffs))


def regions(n: int, allow_long: bool = False) -> int:
    """Zaslavsky count of complement regions over the reals."""
    chi = charpoly_ff(n, allow_long)
    return (-1) ** n * chi(-1)


def bounded_regions(n: int, allow_long: bool = False) -> int:
    chi = charpoly_ff(n, allow_long)
    return (-1) ** n * chi(1)
