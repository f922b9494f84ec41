"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive and shares no code with the package:
it imports nothing from boolprod, and test_source checks that.  Tableaux are
enumerated cell by cell, standard tableaux listed one at a time with their
smallest ascents read off the rows, determinants expand over permutations,
path families are walked one lattice point at a time, products of linear
forms pick one variable per factor, m-basis vectors expand into every
rearrangement of each partition, and point counts loop over whole vector
spaces.  Slow but obviously correct at the sizes the tests use.  Two are
the package's earlier routines, kept as slow references for the ones that
replaced them: the point count that popcounts its last coordinate, and the
lattice of flats closed by echelon reduction against every hyperplane.
"""

from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial


def ssyt_fillings(shape, max_entry):
    """All semistandard fillings with entries in 1..max_entry.

    French convention: rows[0] is the bottom row, columns strictly increase
    upward, rows weakly increase rightward.
    """
    rows = [[0] * w for w in shape]
    cells = [(r, c) for r, w in enumerate(shape) for c in range(w)]
    out = []

    def fill(i):
        if i == len(cells):
            out.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[i]
        lo = 1
        if c:
            lo = max(lo, rows[r][c - 1])
        if r:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            rows[r][c] = v
            fill(i + 1)
        rows[r][c] = 0

    fill(0)
    return out


def ssyt_count(shape, content):
    """Number of semistandard fillings with content[i] copies of i+1."""
    target = {i + 1: c for i, c in enumerate(content) if c}
    hits = 0
    for filling in ssyt_fillings(shape, len(content)):
        seen = Counter(v for row in filling for v in row)
        if seen == target:
            hits += 1
    return hits


def schur_poly_direct(shape, var_count):
    """The Schur polynomial as a raw exponent-vector dict, one SSYT at a time."""
    out = {}
    for filling in ssyt_fillings(shape, var_count):
        seen = Counter(v for row in filling for v in row)
        exps = tuple(seen.get(i + 1, 0) for i in range(var_count))
        out[exps] = out.get(exps, 0) + 1
    return out


def mvector_expand(terms, var_count):
    """The polynomial sum c * m_la over the partition -> c pairs of terms, as
    a raw exponent-vector dict: every rearrangement of each padded la."""
    out = {}
    for la, c in terms.items():
        if c:
            padded = tuple(la) + (0,) * (var_count - len(la))
            for exps in set(permutations(padded)):
                out[exps] = c
    return out


def is_standard(rows):
    """A tableau, rows of entries bottom row first, is standard: its row
    lengths weakly decrease, it holds 1..n once each, rows increase
    rightward and columns upward."""
    shape = [len(row) for row in rows]
    if any(not size or size < above for size, above in zip(shape, shape[1:] + [0])):
        return False
    entries = sorted(v for row in rows for v in row)
    if entries != list(range(1, len(entries) + 1)):
        return False
    if any(row[j] >= row[j + 1] for row in rows for j in range(len(row) - 1)):
        return False
    return all(
        below[j] < above[j] for below, above in zip(rows, rows[1:]) for j in range(len(above))
    )


def syt_list(shape):
    """All standard tableaux of a nonempty shape, in French convention:
    rows[0] is the bottom (longest) row.  Values 1..n are placed one at a
    time, lower rows first, so the list is lexicographic in the row each
    value goes to."""
    n = sum(shape)
    if n < 1:
        raise ValueError("syt_list needs a nonempty shape")
    rows = [[] for _ in shape]
    out = []

    def place(v):
        if v > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i, size in enumerate(shape):
            # the partial shape stays a partition: no row catches up with
            # the row below it
            if len(rows[i]) < size and (i == 0 or len(rows[i]) < len(rows[i - 1])):
                rows[i].append(v)
                place(v + 1)
                rows[i].pop()

    place(1)
    return out


def smallest_ascent(rows):
    """Least ascent of a standard tableau.  Entry i < n is an ascent unless
    i + 1 sits in a row strictly above i; n always is, so that the column
    of even size counts."""
    if not is_standard(rows):
        raise ValueError(f"not a standard tableau: {rows}")
    row_of = {v: i for i, row in enumerate(rows) for v in row}
    n = len(row_of)
    for i in range(1, n):
        if row_of[i + 1] <= row_of[i]:
            return i
    return n


def expand_forms(forms, var_count):
    """Product of linear forms (coefficient tuples) as a raw exponent-vector
    dict, one choice of variable per factor at a time."""
    out = {}
    for picks in product(range(var_count), repeat=len(forms)):
        coeff = 1
        for form, i in zip(forms, picks):
            coeff *= form[i]
        exps = tuple(picks.count(i) for i in range(var_count))
        out[exps] = out.get(exps, 0) + coeff
    return {e: c for e, c in out.items() if c}


def elementary_of_forms(p, forms, var_count):
    """p-th elementary symmetric polynomial of the forms: the sum of their
    products over every p-subset."""
    out = {}
    for chosen in combinations(forms, p):
        for e, c in expand_forms(chosen, var_count).items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def naive_det(matrix):
    size = len(matrix)
    total = 0
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(size):
            term *= matrix[i][perm[i]]
        total += term
    return total


def path_families(la, mu, n):
    """Families of vertex-disjoint East/South lattice paths, path i from
    (0, la_i + n - 1 - i) to (b_i, b_i) with b_i = mu_i + n - 1 - i, both
    padded to n parts, walked one point at a time; the points taken so far
    are the bits of an int."""
    a = [p + n - 1 - i for i, p in enumerate(tuple(la) + (0,) * (n - len(la)))]
    b = [p + n - 1 - i for i, p in enumerate(tuple(mu) + (0,) * (n - len(mu)))]
    if n == 0:
        return 1
    # a point (x, y) of path i has x <= b_i <= y <= a_0: column x holds only
    # heights x..a_0, so bit x*a_0 + y of `used` is that point's alone
    width = a[0]

    def walk(i, x, y, used):
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


def derangement_number(n):
    return sum((-1) ** k * comb(n, k) * factorial(n - k) for k in range(n + 1))


def brute_complement_count(n, p):
    """Count vectors in F_p^n with every nonempty subset sum nonzero."""
    hits = 0
    for vec in product(range(p), repeat=n):
        for mask in range(1, 1 << n):
            total = sum(vec[i] for i in range(n) if mask >> i & 1)
            if total % p == 0:
                break
        else:
            hits += 1
    return hits


def popcount_projective_count(n, p):
    """Points of F_p^n with x_1 = 1 off every subset-sum hyperplane, over
    nondecreasing x_2..x_n weighted by multinomials.  A branch keeps a p-bit
    mask of the residues the next coordinate may not take (0 and the
    negatives of the subset sums so far); the last coordinate is counted by
    one popcount, its value prev weighted for a run one longer."""
    if n == 1:
        return 1
    full = (1 << p) - 1
    fact = factorial(n - 1)

    def rec(remaining, forbid, prev, run, denom):
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


def _reduce(basis, vec):
    """Clear each pivot of an integer echelon basis from vec, fraction-free;
    vec ends zero exactly when it lies in the span."""
    for pivot, row in basis:
        c = vec[pivot]
        if c:
            vec = [row[pivot] * v - c * r for v, r in zip(vec, row)]
    return vec


def reduce_mobius_coeffs(n):
    """Ascending coefficients of the characteristic polynomial from the
    lattice of flats: each flat of a rank is the closure of one below and a
    hyperplane outside it, found by reducing every normal against the grown
    echelon basis, and mu(F) sums over every flat found before F."""
    normals = [tuple(mask >> i & 1 for i in range(n)) for mask in range(1, 2**n)]
    hyperplanes = range(len(normals))
    level = {0: []}  # flat, as a bitmask of its hyperplanes -> echelon basis
    mobius = {0: 1}
    coeffs = [0] * n + [1]
    for rank in range(1, n + 1):
        above = {}
        for flat, basis in level.items():
            covered = flat
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
    return tuple(coeffs)


def graded_piece(terms, d):
    """The degree-d part of a terms dict keyed by exponents or partitions."""
    return {key: c for key, c in terms.items() if sum(key) == d}


def total_degree(terms):
    """Largest exponent sum in a terms dict; -1 when it is empty."""
    return max((sum(key) for key in terms), default=-1)


def brute_partitions(d, max_parts):
    """All partitions of d with at most max_parts parts, as a set."""
    found = set()
    if d == 0:
        found.add(())
        return found
    for k in range(1, max_parts + 1):
        for parts in product(range(1, d + 1), repeat=k):
            if sum(parts) == d and all(
                parts[i] >= parts[i + 1] for i in range(k - 1)
            ):
                found.add(parts)
    return found
