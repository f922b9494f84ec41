"""Exact integer polynomial arithmetic: sparse multivariate and dense univariate.

Sparse coefficients are Python ints (arbitrary precision).  Every sparse
product is one loop, ``_mul_into``, over exponent vectors packed into ints:
the exponent of x_i sits in the field at width*i, wide enough for a degree
bound the caller knows.  No other module sees that format: ``MonomialPoly``
keeps tuple exponent vectors and packs only at this boundary.  Products of
many factors are multiplied in one factor at a time: a partial product of
forms in a few variables fills almost every monomial of its degree, so a
balanced tree's root multiply would cost far more.

``dominant_coefficients`` reads only the coefficients of x^mu, mu a
partition in each variable block, off a product of linear forms, without
building the product: it folds a third of the forms and the rest separately
and takes one dot product per mu.  It takes none for a mu that no choice of
one variable per form can reach: each form gives its degree to one variable
it contains, so the first j variables of a block carry no more degree than
there are forms touching them (Hall's marriage condition, P. Hall 1935).
The keys are walked afresh for each product, part by part inside those
caps, so the module keeps no table between calls.  The caps also bound
every fold monomial a key reads: the folds keep none past them, and every
product of forms is admitted by counts taken inside them before any fold.
``alphabet_product`` and ``graded_elementary`` build full products, for
callers that need every monomial and for tests.
``QPoly`` is the dense univariate type, trimmed of trailing zeros.
"""

from collections.abc import Iterable, Iterator
from itertools import accumulate, islice

from .errors import CapacityError
from .record import FrozenRecord, Terms
from .tableaux import Partition

# A linear form is its coefficient vector over the ambient variables,
# e.g. x2 + x3 in 3 variables is (0, 1, 1).
LinearForm = tuple[int, ...]

# (size, name) of each variable block, in variable order
Blocks = list[tuple[int, str | None]]


class Alphabet(FrozenRecord):
    """Ordered sequence of integer linear forms over a common variable count."""

    FIELDS = ("var_count", "forms")

    def __init__(self, var_count: int, forms: tuple[LinearForm, ...]):
        for f in forms:
            if len(f) != var_count:
                raise ValueError(f"form {f} has {len(f)} coefficients, expected {var_count}")
        super().__init__(var_count, forms)

    def __len__(self) -> int:
        return len(self.forms)

    @classmethod
    def from_subsets(
        cls, var_count: int, index_tuples: Iterable[tuple[int, ...]]
    ) -> "Alphabet":
        """One form per index tuple: the sum of x_i over its indices, counted
        with multiplicity, so (i, i) gives 2*x_i.  CapacityError once the
        forms pass FOLD_MAX_MONOMIALS coefficients, forms times variables, and
        for a single form past it before a tuple is taken, so _lazy lists no
        pool that big."""
        forms = []
        _check_coefficients(1, var_count)
        for indices in index_tuples:
            coeffs = [0] * var_count
            for i in indices:
                coeffs[i] += 1
            forms.append(tuple(coeffs))
            _check_coefficients(len(forms), var_count)
        return cls(var_count, tuple(forms))


def _lazy(pick, pool: range, k: int) -> Iterator[tuple[int, ...]]:
    """pick(pool, k), an itertools subset iterator, which lists its pool
    only when the first subset is asked for."""
    yield from pick(pool, k)


def _check_coefficients(form_count: int, var_count: int) -> None:
    total = form_count * var_count
    if total > FOLD_MAX_MONOMIALS:
        raise CapacityError(
            f"an alphabet of forms in {figure(var_count)} variables reaches {figure(total)} "
            f"coefficients at form {form_count:,}, above the ceiling of {FOLD_MAX_MONOMIALS:,}"
        )


def _mul_into(dest: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """dest += a*b over packed exponent keys, zeros left for the caller to
    purge.  The larger factor is walked outside: the other order was 13-17%
    slower on boolean_product(7, 4)'s 507,827-term fold, on a 2-core host."""
    if len(a) > len(b):
        a, b = b, a
    small = list(a.items())
    get = dest.get
    for kb, cb in b.items():
        for ka, ca in small:
            k = ka + kb
            dest[k] = get(k, 0) + ca * cb


def _fold(factors: Iterable[dict[int, int]]) -> dict[int, int]:
    """Product of packed factors, multiplied in left to right; CapacityError
    once the running product holds more than FOLD_MAX_MONOMIALS monomials."""
    acc = {0: 1}
    for i, f in enumerate(factors, 1):
        nxt: dict[int, int] = {}
        _mul_into(nxt, acc, f)
        acc = nxt
        if len(acc) > FOLD_MAX_MONOMIALS:
            raise CapacityError(
                f"a product folds into {len(acc):,} monomials after {i} factors, "
                f"above the ceiling of {FOLD_MAX_MONOMIALS:,}"
            )
    return acc


def _pack(terms: dict, width: int) -> dict[int, int]:
    """Tuple-keyed terms with every exponent below 2^width, packed."""
    return {sum(x << (width * i) for i, x in enumerate(e)): c for e, c in terms.items()}


def _pack_form(form: LinearForm, width: int) -> dict[int, int]:
    return {1 << (width * i): c for i, c in enumerate(form) if c}


def _unpack(packed: dict[int, int], var_count: int, width: int) -> "MonomialPoly":
    """The inverse of _pack, as a MonomialPoly."""
    mask = (1 << width) - 1
    shifts = [width * i for i in range(var_count)]
    terms = {tuple([k >> s & mask for s in shifts]): c for k, c in packed.items()}
    return MonomialPoly(var_count, terms)


class MonomialPoly(Terms):
    """Sparse polynomial: dict exponent-vector -> nonzero int coefficient."""

    FIELDS = ("var_count", "terms")

    def __init__(self, var_count: int, terms: dict | None = None):
        if var_count < 1:
            raise ValueError("var_count must be positive")
        super().__init__(var_count, terms)
        for e in self.terms:
            if len(e) != var_count:
                raise ValueError(f"exponent vector {e} has {len(e)} entries, expected {var_count}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "MonomialPoly(0)"
        bits = []
        for e, c in self.items_sorted():
            mono = "*".join(
                f"x{i+1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MonomialPoly(" + " + ".join(bits) + ")"


def poly_product(polys: list[MonomialPoly], var_count: int) -> MonomialPoly:
    """Product of a list of polynomials, multiplied in left to right."""
    if any(p.var_count != var_count for p in polys):
        raise ValueError("mixed variable counts")
    width = sum(max(map(sum, p.terms), default=0) for p in polys).bit_length()
    return _unpack(_fold(_pack(p.terms, width) for p in polys), var_count, width)


def alphabet_product(a: Alphabet) -> MonomialPoly:
    """Exact expansion of the product of all forms of the alphabet.

    An empty alphabet yields the constant 1 (empty product), not an error.
    """
    width = len(a.forms).bit_length()
    return _unpack(_fold(_pack_form(f, width) for f in a.forms), a.var_count, width)


def graded_elementary(a: Alphabet, cap: int | None = None) -> list[MonomialPoly]:
    """All elementary symmetric polynomials of the alphabet at once.

    Returns [e_0(A), e_1(A), ..., e_m(A)] with m = min(cap, |A|): the
    coefficients of t^p in prod_{f in A} (1 + t*f), one form f at a time
    through e_p <- e_p + f*e_(p-1), p descending.
    """
    top = len(a.forms)
    if cap is not None:
        top = min(cap, top)
    width = top.bit_length()
    es: list[dict] = [{0: 1}] + [{} for _ in range(top)]
    for f in a.forms:
        form = _pack_form(f, width)
        for p in range(top, 0, -1):
            _mul_into(es[p], form, es[p - 1])
    return [_unpack(terms, a.var_count, width) for terms in es]


# Ceiling on the monomials of a fold: on the running product of _fold after
# each factor, on _fold_bound's counts before dominant_coefficients folds,
# and on the coefficients Alphabet.from_subsets builds.  As fresh CLI runs on
# a quiet shared 2-core host, bialphabet (10,11,10,10), counted at 967,772,
# takes 5.4 s at 196 MB, and derangement n = 16 (691,918, of big
# coefficients) 7.3 s at 201 MB; boolean-expand (8,3) (4,860,434) and
# lascoux n = 9 are refused.
FOLD_MAX_MONOMIALS = 1_000_000

# Ceiling on the work of dominant_coefficients, counted before either fold:
# its keys times the bound on its smaller fold, each a pair of the dot loop,
# plus 4 for each step its folds may take, as a step costs about four pairs.
# As fresh CLI runs on a quiet shared 2-core host, one unit takes 90-145 ns:
# boolean-expand (7,4) at 43,967,386 takes 5.4-5.5 s and 57 MB, derangement
# n = 16 at 59,142,681 7.3 s and 201 MB, and bialphabet (4,6,4,3) at
# 62,904,972 7.3 s; bialphabet (5,5,1,4) at 72,174,964 took 9.2 s.
DOMINANT_MAX_WORK = 65_000_000


# Counts in capacity messages are exact up to COUNT_MAX.  Past it they are
# cut short: Python refuses to print an int of more than 4,300 digits, and a
# product of C(n,k) forms, n in the thousands, takes seconds to count.
COUNT_MAX = 10**30


def capped_comb(n: int, k: int) -> int:
    """C(n,k) for 0 <= k <= n if it is at most COUNT_MAX, else some number
    above COUNT_MAX: the running product C(n - k + i, i), with k <= n - k,
    grows with i, so it stops once it passes COUNT_MAX."""
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        if value > COUNT_MAX:
            break
        value = value * (n - k + i) // i
    return value


def figure(count: int) -> str:
    """count with thousands commas, or "more than 10^30" past COUNT_MAX."""
    return f"{count:,}" if count <= COUNT_MAX else "more than 10^30"


def block_cuts(blocks: Blocks, var_count: int) -> list:
    """(start, stop, name) of each block; the blocks must cover the variables."""
    cuts = []
    lo = 0
    for size, name in blocks:
        cuts.append((lo, lo + size, name))
        lo += size
    if lo != var_count:
        raise ValueError(f"blocks cover {lo} variables, polynomial has {var_count}")
    return cuts


def _hall_caps(a: Alphabet, cuts: list) -> list[list[int]]:
    """N_b(j) for each block b and j = 1..its size: the number of forms with
    a nonzero coefficient among the block's first j variables."""
    caps = []
    for lo, hi, _ in cuts:
        firsts = [0] * (hi - lo + 1)  # forms by their first variable in the block, or none
        for f in a.forms:
            firsts[next((i - lo for i in range(lo, hi) if f[i]), hi - lo)] += 1
        caps.append(list(accumulate(firsts[:-1])))
    return caps


def _dominant_keys(hall: list[list[int]], cuts: list, d: int, width: int) -> Iterator[tuple]:
    """(key, packed mu) for each key of dominant_coefficients, of degree d,
    that meets the caps: mu_1 + ... + mu_j <= N_b(j) = hall[b][j - 1] in
    every block b (see _hall_caps).
    A monomial of the product picks one variable with a nonzero coefficient
    from each form, so one past a cap has coefficient 0 whatever the forms'
    signs; every other key is kept.

    One walk yields them, block by block and part by part, largest part
    first.  A part never takes its block's prefix sum past the cap; in the
    last block no part is too small for the degree left to fit in the slots
    left, and the block ends only once the degree is spent."""
    last = len(cuts) - 1

    def walk(b: int, key: tuple, mu: tuple, packed: int, left: int):
        # mu: block b's parts so far; left: the degree not yet placed
        if b < last:
            yield from walk(b + 1, key + (mu,), (), packed, left)
        elif not left:
            yield key + (mu,), packed
            return
        lo, hi, _ = cuts[b]
        j = len(mu)
        if j == hi - lo:
            return
        top = min(mu[-1] if mu else left, left, hall[b][j] - sum(mu))
        least = 1 if b < last else -(-left // (hi - lo - j))
        for part in range(top, least - 1, -1):
            yield from walk(b, key, mu + (part,), packed + (part << width * (lo + j)), left - part)

    return walk(0, (), (), 0, d)


def _fold_bound(forms: tuple[LinearForm, ...], caps: list[int]) -> tuple[int, int]:
    """Counts that no product _capped_fold(forms, caps) holds, and its steps
    (monomials times variables of the next form), pass; or a first count
    past COUNT_MAX.  After k forms a monomial has degree k and x_i <= u_i =
    min(cap_i, forms with x_i).  Such vectors, counted by degree one variable
    at a time, are the coefficients of prod (1 + t + ... + t^u_i), symmetric
    and rising to the middle degree, so the count at degree k, or at the
    middle if lower, bounds the product after k forms; so does a count over
    the first variables at its own middle, and counting stops past COUNT_MAX."""
    bounds = [min(cap, sum(map(bool, col))) for cap, col in zip(caps, zip(*forms))]
    top = min(len(forms), sum(bounds) // 2)
    counts = [1] + [0] * top
    seen = 0
    for u in bounds:
        run = list(accumulate(counts, initial=0))  # run[s] = counts[0] + ... + counts[s - 1]
        counts = run[1 : u + 1] + [hi - lo for hi, lo in zip(run[u + 1 :], run)]
        seen += u
        if counts[min(top, seen // 2)] > COUNT_MAX:
            return counts[min(top, seen // 2)], 0
    return counts[top], sum(counts[min(k, top)] * sum(map(bool, f)) for k, f in enumerate(forms))


def _capped_fold(forms: tuple[LinearForm, ...], width: int, caps: list[int]) -> dict[int, int]:
    """Product of the forms without the monomials x^e with some e_i > cap_i,
    which no later form can lower: a monomial at x_i's cap never takes x_i.
    In _mul_into this test made graded_elementary, with no caps, 17% slower."""
    mask = (1 << width) - 1
    acc = {0: 1}
    for f in forms:
        nxt: dict[int, int] = {}
        get = nxt.get
        for i, c in enumerate(f):
            if c:
                shift, cap, step = width * i, caps[i], 1 << width * i
                for k, v in acc.items():
                    if k >> shift & mask < cap:
                        k += step
                        nxt[k] = get(k, 0) + c * v
        acc = nxt
    return acc


def dominant_coefficients(a: Alphabet, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Coefficient of x^mu in the product of the alphabet's forms, for every
    mu that is a partition in each block, keyed by one partition per block
    (at most the block's size parts, sizes summing to the degree d = |A|);
    zeros are left out.  A product symmetric in each block is fixed by these.

    Only the keys of _dominant_keys are read; the rest are 0 by Hall's
    condition, for any integer forms.  Part j of block b is at most N_b(j)/j,
    its cap.  The first d//3 forms and the rest are folded separately within
    the caps, and M[mu] = sum small[alpha] * big[mu - alpha], walking the
    smaller fold.  CapacityError comes before any fold if _fold_bound lets a
    fold pass FOLD_MAX_MONOMIALS, or the dots and steps pass DOMINANT_MAX_WORK.
    A packed field holds up to d plus one guard bit, so with every guard bit
    set in G, mu - alpha is borrow-free (alpha <= mu in every variable) iff
    ((mu | G) - alpha) & G == G.
    """
    n, d = a.var_count, len(a.forms)
    cuts = block_cuts(blocks, n)
    hall = _hall_caps(a, cuts)
    caps = [row[j] // (j + 1) for row in hall for j in range(len(row))]
    parts = a.forms[: d // 3], a.forms[d // 3 :]
    product = f"a product of {d:,} forms in {n:,} variables"
    (small, small_steps), (big, big_steps) = (_fold_bound(part, caps) for part in parts)
    if max(small, big) > FOLD_MAX_MONOMIALS:
        raise CapacityError(
            f"{product} may fold, within its Hall caps, into {figure(max(small, big))} "
            f"monomials, above the ceiling of {FOLD_MAX_MONOMIALS:,}"
        )
    width = d.bit_length() + 1
    steps = 4 * (small_steps + big_steps)  # a fold step costs about four dot pairs
    limit = (DOMINANT_MAX_WORK - steps) // small + 1  # keys that pass the ceiling
    keys = list(islice(_dominant_keys(hall, cuts, d, width), max(limit, 0)))
    if len(keys) >= limit:
        raise CapacityError(
            f"{product} may take fold steps weighing {steps:,} and {len(keys):,} or more "
            f"keys times up to {small:,} monomials of its smaller fold, "
            f"{steps + len(keys) * small:,} in all, above the ceiling of {DOMINANT_MAX_WORK:,}"
        )
    small_fold = list(_capped_fold(parts[0], width, caps).items())
    get = _capped_fold(parts[1], width, caps).get
    guard = sum(1 << (width * i + width - 1) for i in range(n))
    out: dict[tuple[Partition, ...], int] = {}
    for key, packed in keys:
        top = packed | guard
        total = 0
        for alpha, c in small_fold:
            rest = top - alpha
            if rest & guard == guard:
                total += c * get(rest ^ guard, 0)
        if total:
            out[key] = total
    return out


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


class QPoly(FrozenRecord):
    """Dense univariate integer polynomial; coeffs[i] is the coefficient of
    VAR^i.  Printed in the variable VAR, highest power first if DESCENDING."""

    FIELDS = ("coeffs",)
    VAR = "q"
    DESCENDING = False

    def __init__(self, coeffs: tuple[int, ...] = ()):
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        super().__init__(coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly((other,))
        size = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(size)
            )
        )

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        powers = range(len(self.coeffs))
        parts = []
        for j in reversed(powers) if self.DESCENDING else powers:
            c = self.coeffs[j]
            if c == 0:
                continue
            power = "" if j == 0 else (self.VAR if j == 1 else f"{self.VAR}^{j}")
            if power and abs(c) == 1:
                body = power
            elif power:
                body = f"{abs(c)}{power}"
            else:
                body = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]
