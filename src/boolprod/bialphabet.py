"""Products over two alphabets and their expansion into Schur pairs.

pjk_expand multiplies every form X_S + Y_T (S a j-subset of the x indices,
T a k-subset of the y indices) over the concatenated variable set and writes
the result as sum a_{lm} s_l(X) s_m(Y), read off the product's dominant
coefficients in the two blocks (schur.schur_of_product) without building it.
The j = k = 1 case must reproduce the dual Cauchy expansion, which
dual_cauchy_reference builds directly from box complements without touching
any polynomial arithmetic.
"""

from itertools import combinations
from math import comb

from .errors import CapacityError, ConsistencyError
from .polyring import Alphabet
from .record import Record
from .schur import schur_of_product
from .tableaux import Partition, conjugate, subpartitions

# pjk_expand's forms are sparse, so the fold ceiling would refuse small products.
# As a CLI run on a shared 2-core host, j = k = 1 at n = 6, m = 5 takes 17.7 s at 72 MB.
PJK_FORM_CAP = 30

PartitionPair = tuple[Partition, Partition]


class BiSchurVector(Record):
    """Combination of products s_lambda(X) s_mu(Y) over split variable blocks."""

    FIELDS = ("n", "m", "terms")

    def __init__(self, n: int, m: int, terms: dict[PartitionPair, int] | None = None):
        terms = {pair: c for pair, c in (terms or {}).items() if c}
        for la, mu in terms:
            if len(la) > n or len(mu) > m:
                raise ValueError(f"({la}, {mu}) does not fit in {n}+{m} variables")
        super().__init__(n, m, terms)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())


def pjk_expand(n: int, m: int, j: int, k: int) -> BiSchurVector:
    """Expand the product of all X_S + Y_T with |S| = j, |T| = k.

    The product is read off in Schur pairs by schur_of_product, with the x
    variables as one block and the y variables as the other.  Negative
    output coefficients would contradict the positivity this product is
    known to have, so they are a hard failure.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    if n == 0 and m == 0:
        raise ValueError("need at least one variable")
    form_count = comb(n, j) * comb(m, k)
    if form_count > PJK_FORM_CAP:
        raise CapacityError(
            f"product of {form_count} forms exceeds the cap of {PJK_FORM_CAP}"
        )
    y_subsets = [tuple(n + i for i in t) for t in combinations(range(m), k)]
    alphabet = Alphabet.from_subsets(
        n + m, (s + t for s in combinations(range(n), j) for t in y_subsets)
    )
    out = BiSchurVector(n, m, schur_of_product(alphabet, [(n, "x"), (m, "y")]))
    if not out.is_nonnegative():
        bad = min(pair for pair, c in out.terms.items() if c < 0)
        raise ConsistencyError(
            f"negative coefficient at {bad} in the ({n},{m},{j},{k}) expansion"
        )
    return out


def dual_cauchy_reference(n: int, m: int) -> BiSchurVector:
    """The expansion of prod (x_i + y_t): one term per shape in the m-by-n box,
    pairing each lambda with the conjugate of its box complement.  The box
    cells are the forms of pjk_expand(n, m, 1, 1), and share its form cap."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got {n}, {m}")
    if n * m > PJK_FORM_CAP:
        raise CapacityError(f"box size {n * m} exceeds the cap of {PJK_FORM_CAP}")
    terms = {}
    for la in subpartitions((m,) * n):
        padded = la + (0,) * (n - len(la))
        complement = tuple(m - padded[n - 1 - i] for i in range(n))
        terms[(la, conjugate(tuple(e for e in complement if e)))] = 1
    return BiSchurVector(n, m, terms)
