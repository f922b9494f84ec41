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

from .errors import CapacityError, ConsistencyError
from .polyring import FOLD_MAX_MONOMIALS, Alphabet, _lazy, capped_comb, figure
from .record import Terms
from .schur import schur_of_product
from .tableaux import Partition, conjugate, subpartitions

PartitionPair = tuple[Partition, Partition]


class BiSchurVector(Terms):
    """Combination of products s_lambda(X) s_mu(Y) over split variable blocks."""

    FIELDS = ("n", "m", "terms")

    def __init__(self, n: int, m: int, terms: dict[PartitionPair, int] | None = None):
        super().__init__(n, m, terms)
        for la, mu in self.terms:
            if len(la) > n or len(mu) > m:
                raise ValueError(f"({la}, {mu}) does not fit in {n}+{m} variables")


def pjk_expand(n: int, m: int, j: int, k: int) -> BiSchurVector:
    """Expand the product of all X_S + Y_T with |S| = j, |T| = k.

    The product is read off in Schur pairs by schur_of_product, with the x
    variables as one block and the y variables as the other, under the
    ceilings dominant_coefficients counts.  Negative output coefficients
    would contradict its known positivity, so they are a hard failure.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    if n == 0 and m == 0:
        raise ValueError("need at least one variable")
    xs, ys = _lazy(combinations, range(n), j), range(n, n + m)
    alphabet = Alphabet.from_subsets(n + m, (s + t for s in xs for t in combinations(ys, k)))
    out = BiSchurVector(n, m, schur_of_product(alphabet, [(n, "x"), (m, "y")]))
    if not out.is_nonnegative():
        bad = min(pair for pair, c in out.terms.items() if c < 0)
        raise ConsistencyError(
            f"negative coefficient at {bad} in the ({n},{m},{j},{k}) expansion"
        )
    return out


def dual_cauchy_reference(n: int, m: int) -> BiSchurVector:
    """The expansion of prod (x_i + y_t): one term per shape in the m-by-n box,
    pairing each lambda with the conjugate of its box complement.  Its
    C(n+m, n) terms times their n + m parts are held to FOLD_MAX_MONOMIALS,
    which passes every box that pjk_expand(n, m, 1, 1) admits."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got {n}, {m}")
    if (work := capped_comb(n + m, n) * (n + m)) > FOLD_MAX_MONOMIALS:
        raise CapacityError(
            f"the {n}-by-{m} box has {figure(capped_comb(n + m, n))} shapes of {figure(n + m)} "
            f"parts, {figure(work)} in all, above the ceiling of {FOLD_MAX_MONOMIALS:,}"
        )
    terms = {}
    for la in subpartitions((m,) * n):
        padded = la + (0,) * (n - len(la))
        complement = tuple(m - padded[n - 1 - i] for i in range(n))
        terms[(la, conjugate(tuple(e for e in complement if e)))] = 1
    return BiSchurVector(n, m, terms)
