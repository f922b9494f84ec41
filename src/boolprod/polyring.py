"""Exact integer polynomial arithmetic: sparse multivariate and dense univariate.

Sparse coefficients are Python ints (arbitrary precision); exponent vectors
are tuples of length ``var_count``.  Zero coefficients are purged by the
constructor, so intermediate term dicts may hold zeros until wrapped.
Products of many factors are multiplied in one factor at a time: a partial
product of forms in a few variables fills almost every monomial of its
degree, so a balanced tree's root multiply would cost far more.

``dominant_coefficients`` reads only the coefficients of x^mu, mu a
partition in each variable block, off a product of linear forms, without
building the product: it folds a third of the forms and the rest separately
over exponent vectors packed into ints, and takes one dot product per mu.
``alphabet_product`` and ``graded_elementary`` build full products, for
callers that need every monomial and for tests.
``QPoly`` is the dense univariate type, trimmed of trailing zeros.
"""

from collections.abc import Iterable
from math import comb
from operator import add

from .errors import CapacityError
from .record import FrozenRecord
from .tableaux import Partition, partitions_up_to

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
        with multiplicity, so (i, i) gives 2*x_i."""
        forms = []
        for indices in index_tuples:
            coeffs = [0] * var_count
            for i in indices:
                coeffs[i] += 1
            forms.append(tuple(coeffs))
        return cls(var_count, tuple(forms))


def _mul_into(dest: dict, a: dict, b: dict) -> None:
    """dest += a*b at the raw term-dict level; zeros are left for the caller's
    constructor to purge."""
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            dest[key] = dest.get(key, 0) + ca * cb


class MonomialPoly:
    """Sparse polynomial: dict exponent-vector -> nonzero int coefficient."""

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms: dict | None = None):
        if var_count < 1:
            raise ValueError("var_count must be positive")
        self.var_count = var_count
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, var_count: int, c: int) -> "MonomialPoly":
        return cls(var_count, {(0,) * var_count: c} if c else {})

    @classmethod
    def from_form(cls, var_count: int, form: LinearForm) -> "MonomialPoly":
        terms = {}
        for i, c in enumerate(form):
            if c:
                e = [0] * var_count
                e[i] = 1
                terms[tuple(e)] = c
        return cls(var_count, terms)

    def _check_compatible(self, other: "MonomialPoly"):
        if self.var_count != other.var_count:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MonomialPoly(self.var_count, terms)

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        self._check_compatible(other)
        terms: dict = {}
        _mul_into(terms, self.terms, other.terms)
        return MonomialPoly(self.var_count, terms)

    def scale(self, c: int) -> "MonomialPoly":
        if not c:
            return MonomialPoly(self.var_count)
        return MonomialPoly(self.var_count, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialPoly)
            and self.var_count == other.var_count
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "MonomialPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i+1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MonomialPoly(" + " + ".join(bits) + ")"


def poly_product(polys: list[MonomialPoly], var_count: int) -> MonomialPoly:
    """Product of a list of polynomials, multiplied in left to right."""
    acc = {(0,) * var_count: 1}
    for p in polys:
        if p.var_count != var_count:
            raise ValueError("mixed variable counts")
        nxt: dict = {}
        _mul_into(nxt, acc, p.terms)
        acc = nxt
    return MonomialPoly(var_count, acc)


def alphabet_product(a: Alphabet) -> MonomialPoly:
    """Exact expansion of the product of all forms of the alphabet.

    An empty alphabet yields the constant 1 (empty product), not an error.
    """
    polys = [MonomialPoly.from_form(a.var_count, f) for f in a.forms]
    return poly_product(polys, a.var_count)


def graded_elementary(a: Alphabet, cap: int | None = None) -> list[MonomialPoly]:
    """All elementary symmetric polynomials of the alphabet at once.

    Returns [e_0(A), e_1(A), ..., e_m(A)] with m = min(cap, |A|): the
    coefficients of t^p in prod_{f in A} (1 + t*f), one form f at a time
    through e_p <- e_p + f*e_(p-1), p descending.
    """
    top = len(a.forms)
    if cap is not None:
        top = min(cap, top)
    es: list[dict] = [{(0,) * a.var_count: 1}] + [{} for _ in range(top)]
    for f in a.forms:
        form = MonomialPoly.from_form(a.var_count, f).terms
        for p in range(top, 0, -1):
            _mul_into(es[p], form, es[p - 1])
    return [MonomialPoly(a.var_count, terms) for terms in es]


# Ceiling on the larger fold of dominant_coefficients, counted as every
# monomial of its degree, which a fold of forms in few variables nearly fills.
# Measured as CLI runs on a shared 2-core host: boolean-expand (7,4), at
# 593,775, takes 19-22 s and 146 MB, and (8,6), at 657,800, about 15 s and
# 164 MB; the total product at n = 6 (1,533,939) and (8,3) (45,379,620) are
# refused.
FOLD_MAX_MONOMIALS = 1_000_000


def check_fold_capacity(var_count: int, degree: int, product: str | None = None) -> None:
    """Raise CapacityError if the larger fold of a product of `degree` linear
    forms in `var_count` variables may exceed FOLD_MAX_MONOMIALS; `product`
    names it in the message.  boolean_product, total_boolean, ep_subset,
    bnm1_q and lascoux_check, whose forms fill their degree, run it before
    they build a form; pjk_expand's sparse forms keep a form cap."""
    top = degree - degree // 3
    size = comb(top + var_count - 1, var_count - 1)
    if size > FOLD_MAX_MONOMIALS:
        product = product or f"a product of {degree} forms in {var_count} variables"
        raise CapacityError(
            f"{product} folds into up to "
            f"C({top + var_count - 1},{var_count - 1}) = {size:,} monomials, "
            f"above the ceiling of {FOLD_MAX_MONOMIALS:,}"
        )


def _fold(forms: Iterable[LinearForm], width: int) -> dict[int, int]:
    """Product of linear forms, one factor at a time, over packed exponent
    vectors: the exponent of x_i sits in the width-bit field at width*i."""
    acc = {0: 1}
    for f in forms:
        steps = [(1 << (width * i), c) for i, c in enumerate(f) if c]
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, v in acc.items():
            for step, c in steps:
                k = key + step
                nxt[k] = get(k, 0) + v * c
        acc = nxt
    return acc


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


def dominant_coefficients(a: Alphabet, blocks: Blocks) -> dict[tuple[Partition, ...], int]:
    """Coefficient of x^mu in the product of the alphabet's forms, for every
    mu that is a partition in each block, keyed by one partition per block
    (at most the block's size parts, sizes summing to the degree d = |A|);
    zeros are left out.  A product symmetric in each block is fixed by these.

    The first d//3 forms and the rest are folded separately, and then
    M[mu] = sum small[alpha] * big[mu - alpha], walking the smaller fold.
    Each field of a packed key holds a value up to d plus one guard bit, so
    with every guard bit set in G, mu - alpha is borrow-free (alpha <= mu in
    every variable) iff ((mu | G) - alpha) & G == G.
    """
    n, d = a.var_count, len(a.forms)
    cuts = block_cuts(blocks, n)
    width = d.bit_length() + 1
    guard = sum(1 << (width * i + width - 1) for i in range(n))
    cut = d // 3
    small = list(_fold(a.forms[:cut], width).items())
    big = _fold(a.forms[cut:], width)
    get = big.get
    # (key, packed mu | G, size left) for every choice in the blocks so far
    keys = [((), guard, d)]
    for b, (lo, hi, _) in enumerate(cuts):
        keys = [
            (key + (mu,), top + sum(part << (width * i) for i, part in enumerate(mu, lo)), left - e)
            for key, top, left in keys
            for e in (range(left + 1) if b < len(cuts) - 1 else (left,))
            for mu in partitions_up_to(e, hi - lo)
        ]
    out: dict[tuple[Partition, ...], int] = {}
    for key, top, _ in keys:
        total = 0
        for alpha, c in small:
            rest = top - alpha
            if rest & guard == guard:
                total += c * get(rest ^ guard, 0)
        if total:
            out[key] = total
    return out


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
