"""Independent checks of boolprod outputs.

Nothing here imports boolprod.  Every Schur expansion is checked by the
q-principal specialisation x_i = q^(i-1): each s_lambda becomes a polynomial
in q by the hook-content formula, and the sum must equal the polynomial got
by specialising the linear forms and multiplying them out directly.  Both
sides are integer polynomials in q, compared exactly through the Kronecker
substitution q = B: with B larger than twice the sum of the absolute values
of all coefficients, an integer polynomial is determined by its value at B,
so equal values mean equal polynomials.  Two-alphabet expansions use
q = B for the x block and t = B^E for the y block, with E above the q-degree.

Arrangement outputs are checked against published region counts (OEIS
A034997) and a point count over F_p by a pruned search of its own.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod

# Regions of the resonance arrangement in R^n (OEIS A034997).
PUBLISHED_REGIONS = {1: 2, 2: 6, 3: 32, 4: 370, 5: 11292, 6: 1066044}
# Derangements of 7 letters: dimension of the q = -1 (7, 6) representation.
PUBLISHED_D7 = 1854


class OracleError(Exception):
    """An output disagrees with the independent reference."""


def parse_partition(text: str) -> tuple:
    return () if text == "-" else tuple(int(part) for part in text.split(","))


def conjugate(la: tuple) -> tuple:
    return tuple(sum(1 for part in la if part > j) for j in range(la[0])) if la else ()


def _check_partition(la, max_parts: int, degree) -> None:
    if not all(isinstance(p, int) and p > 0 for p in la):
        raise OracleError(f"{la} has a part that is not a positive integer")
    if any(la[i] < la[i + 1] for i in range(len(la) - 1)):
        raise OracleError(f"{la} is not weakly decreasing")
    if len(la) > max_parts:
        raise OracleError(f"{la} has more than {max_parts} parts")
    if degree is not None and sum(la) != degree:
        raise OracleError(f"{la} is not of degree {degree}")


def _cells(la: tuple):
    """(content, hook) of every cell of the diagram."""
    conj = conjugate(la)
    for i, row in enumerate(la):
        for j in range(row):
            yield j - i, (row - j) + (conj[j] - i) - 1


@lru_cache(maxsize=1 << 14)
def principal_schur(la: tuple, n: int, base: int) -> int:
    """s_la(1, q, ..., q^(n-1)) at q = base, by the hook-content formula
    q^(n(la)) prod (1 - q^(n + c)) / (1 - q^h)."""
    if len(la) > n:
        return 0
    top, bottom = Counter(), Counter()
    for content, hook in _cells(la):
        top[n + content] += 1
        bottom[hook] += 1
    common = top & bottom
    top, bottom = top - common, bottom - common
    num = base ** sum(i * part for i, part in enumerate(la))
    for e, k in top.items():
        num *= (base**e - 1) ** k
    den = prod((base**e - 1) ** k for e, k in bottom.items())
    value, rest = divmod(num, den)
    if rest:
        raise OracleError(f"hook-content quotient for {la} is not integral")
    return value


@lru_cache(maxsize=1 << 14)
def schur_dimension(la: tuple, n: int) -> int:
    """s_la(1, ..., 1) with n ones: prod (n + c) / h."""
    if len(la) > n:
        return 0
    num = den = 1
    for content, hook in _cells(la):
        num *= n + content
        den *= hook
    return num // den


def _kronecker_base(bound: int) -> int:
    """A power of two above twice the coefficient bound, at least 2^64 so
    that most checks share one base and its memoised Schur values."""
    return 1 << max(64, (2 * bound + 1).bit_length())


def _powers(base: int, count: int) -> list:
    return [base**i for i in range(count)]


def _form_value(form, xs) -> int:
    return sum(c * x for c, x in zip(form, xs) if c)


def elementary(values, top: int) -> list:
    """[e_0, ..., e_top] of the given values."""
    e = [1] + [0] * top
    for v in values:
        for p in range(top, 0, -1):
            e[p] += e[p - 1] * v
    return e


def subset_forms(n: int, k: int) -> list:
    return [tuple(int(i in s) for i in range(n)) for s in combinations(range(n), k)]


def check_schur(terms: dict, n: int, degree, target, target_bound: int) -> None:
    """terms maps partitions to integer coefficients of a Schur expansion in
    n variables, homogeneous of the given degree (None: any degree).
    target(xs) evaluates the polynomial the expansion should equal;
    target_bound bounds the sum of its absolute coefficients."""
    for la, c in terms.items():
        _check_partition(la, n, degree)
        if not isinstance(c, int) or isinstance(c, bool) or c == 0:
            raise OracleError(f"coefficient {c!r} of {la} is not a nonzero integer")
    bound = target_bound + sum(abs(c) * schur_dimension(la, n) for la, c in terms.items())
    base = _kronecker_base(bound)
    got = sum(c * principal_schur(la, n, base) for la, c in terms.items())
    if got != target(_powers(base, n)):
        raise OracleError("Schur expansion differs from the direct product under x_i = q^(i-1)")


def check_bischur(terms: dict, n: int, m: int, forms: list) -> None:
    """Expansion in s_la(X) s_mu(Y) of the product of the given forms over
    the n + m variables, checked with x_i = q^(i-1), y_j = t^(j-1)."""
    degree = len(forms)
    for (la, mu), c in terms.items():
        _check_partition(la, n, None)
        _check_partition(mu, m, degree - sum(la))
        if not isinstance(c, int) or c == 0:
            raise OracleError(f"coefficient {c!r} of {(la, mu)} is not a nonzero integer")
    bound = prod(sum(form) for form in forms) + sum(
        abs(c) * schur_dimension(la, n) * schur_dimension(mu, m)
        for (la, mu), c in terms.items()
    )
    base = _kronecker_base(bound)
    q_degree_cap = max(n - 1, 0) * degree + 1
    t = base**q_degree_cap
    got = sum(
        c * principal_schur(la, n, base) * principal_schur(mu, m, t)
        for (la, mu), c in terms.items()
    )
    xs = _powers(base, n) + _powers(t, m)
    if got != prod(_form_value(f, xs) for f in forms):
        raise OracleError("two-alphabet expansion differs from the direct product")


def ssyt_sum(la: tuple, values: list) -> int:
    """s_la(values) as the sum over semistandard tableaux of the product of
    the values their entries index."""
    cells = [(r, c) for r, width in enumerate(la) for c in range(width)]
    grid = [[0] * width for width in la]
    total = 0

    def fill(i: int, acc: int) -> None:
        nonlocal total
        if i == len(cells):
            total += acc
            return
        r, c = cells[i]
        lo = max(grid[r][c - 1] if c else 0, grid[r - 1][c] + 1 if r else 0)
        for v in range(lo, len(values)):
            grid[r][c] = v
            fill(i + 1, acc * values[v])

    fill(0, 1)
    return total


# ----------------------------------------------------------------------
# expansions by product


def check_product(terms, n: int, forms: list) -> None:
    check_schur(
        terms, n, len(forms),
        lambda xs: prod(_form_value(f, xs) for f in forms),
        prod(sum(f) for f in forms),
    )


def check_elementary(terms, n: int, forms: list, p: int) -> None:
    check_schur(
        terms, n, p,
        lambda xs: elementary([_form_value(f, xs) for f in forms], p)[p],
        elementary([sum(f) for f in forms], p)[p],
    )


def check_schur_at(terms, la: tuple, n: int, k: int) -> None:
    forms = subset_forms(n, k)
    check_schur(
        terms, n, sum(la) if len(la) <= len(forms) else None,
        lambda xs: ssyt_sum(la, [_form_value(f, xs) for f in forms]),
        ssyt_sum(la, [k] * len(forms)),
    )


def _layer(n: int, j: int, xs) -> int:
    """e_j(X) e_1(X)^(n-j)."""
    e = elementary(xs, n)
    return e[j] * e[1] ** (n - j)


def _layer_bound(n: int, j: int) -> int:
    return comb(n, j) * n ** (n - j)


def check_q_layers(terms: dict, n: int) -> None:
    """terms maps partitions to q-coefficient tuples of
    sum_j q^j e_j(X) e_1(X)^(n-j); each q^j slice is checked on its own."""
    for la, coeffs in terms.items():
        if len(coeffs) > n + 1 or not coeffs or coeffs[-1] == 0:
            raise OracleError(f"q-coefficient {coeffs!r} of {la} is not trimmed to degree <= {n}")
    for j in range(n + 1):
        piece = {la: c[j] for la, c in terms.items() if j < len(c) and c[j]}
        check_schur(piece, n, n, lambda xs, j=j: _layer(n, j, xs), _layer_bound(n, j))


def check_q_specialised(terms: dict, n: int, q0: int) -> None:
    check_schur(
        terms, n, n,
        lambda xs: sum(q0**j * _layer(n, j, xs) for j in range(n + 1)),
        sum(abs(q0) ** j * _layer_bound(n, j) for j in range(n + 1)),
    )


def frobenius_value(n: int, q0: int) -> int:
    """Sum of c_la(q0) f^la: the coefficient of x_1 ... x_n, which is n!/j!
    in e_j e_1^(n-j)."""
    return sum(q0**j * factorial(n) // factorial(j) for j in range(n + 1))


def pair_forms(n: int, kind: str) -> list:
    out = []
    for i in range(n):
        for j in range(i if kind == "symmetric" else i + 1, n):
            form = [0] * n
            form[i] += 1
            form[j] += 1
            out.append(tuple(form))
    return out


def check_lascoux_terms(terms: dict, n: int, kind: str) -> None:
    """Every graded piece of prod (1 + x_i + x_j) is e_d of the pair forms."""
    forms = pair_forms(n, kind)
    by_degree: dict = {}
    for la, c in terms.items():
        by_degree.setdefault(sum(la), {})[la] = c
    if set(by_degree) - set(range(len(forms) + 1)):
        raise OracleError(f"degrees {sorted(by_degree)} exceed {len(forms)}")
    for d in range(len(forms) + 1):
        check_elementary(by_degree.get(d, {}), n, forms, d)


def bialphabet_forms(n: int, m: int, j: int, k: int) -> list:
    return [
        tuple(int(i in s) for i in range(n)) + tuple(int(i in t) for i in range(m))
        for s in combinations(range(n), j)
        for t in combinations(range(m), k)
    ]


# ----------------------------------------------------------------------
# integers


def binomial_det_value(la: tuple, mu: tuple, dim: int) -> int:
    """det C(la_i + dim - i, mu_j + dim - j) by expansion over permutations."""
    lap = la + (0,) * (dim - len(la))
    mup = mu + (0,) * (dim - len(mu))
    a = [lap[i] + dim - 1 - i for i in range(dim)]
    b = [mup[j] + dim - 1 - j for j in range(dim)]
    total = 0
    for perm in permutations(range(dim)):
        inversions = sum(perm[x] > perm[y] for x in range(dim) for y in range(x + 1, dim))
        total += (-1) ** inversions * prod(comb(a[i], b[perm[i]]) for i in range(dim))
    return total


def even_ascent_counts(n: int) -> dict:
    """For each shape of size n, the standard tableaux whose smallest ascent
    is even.  A tableau is its lattice word r_1..r_n (r_i the row of entry
    i, row 0 at the bottom); i < n is an ascent iff r_(i+1) <= r_i, and n
    always is."""
    out: Counter = Counter()

    def walk(word: list, shape: list) -> None:
        if len(word) == n:
            first = next((i + 1 for i in range(n - 1) if word[i + 1] <= word[i]), n)
            out[tuple(shape)] += first % 2 == 0
            return
        for r in range(len(shape) + 1):
            if r == len(shape):
                shape.append(1)
            elif r == 0 or shape[r] < shape[r - 1]:
                shape[r] += 1
            else:
                continue
            word.append(r)
            walk(word, shape)
            word.pop()
            if shape[r] == 1 and r == len(shape) - 1:
                shape.pop()
            else:
                shape[r] -= 1

    walk([], [])
    return dict(out)


@lru_cache(maxsize=64)
def brute_complement_count(n: int, p: int) -> int:
    """Points of F_p^n off every hyperplane sum_{i in S} x_i = 0.

    The coordinates are chosen in order, and a prefix dies as soon as one of
    its subset sums is 0.  The complement is closed under scaling by F_p^*,
    so x_1 = 1 is counted and multiplied by p - 1.  The last coordinate is
    counted, not enumerated: it must avoid -s for each subset sum s of the
    rest, the empty sum included.
    """

    def walk(chosen: int, sums: frozenset) -> int:
        if chosen == n - 1:
            return p - len(sums)
        total = 0
        for v in range(1, p):
            if (-v) % p not in sums:
                total += walk(chosen + 1, sums | {(s + v) % p for s in sums})
        return total

    return p - 1 if n == 1 else (p - 1) * walk(1, frozenset((0, 1)))


def _smallest_valid_prime(n: int) -> int:
    """Smallest prime above the Hadamard bound (n+1)^((n+1)/2) / 2^n on the
    minors of a 0/1 matrix, so that the arrangement reduces faithfully."""
    p = 2
    while not (p * p * 4**n > (n + 1) ** (n + 1) and all(p % d for d in range(2, p))):
        p += 1
    return p


def check_charpoly(n: int, chi: list, regions: int, bounded: int) -> None:
    if len(chi) != n + 1 or chi[-1] != 1:
        raise OracleError(f"chi {chi} is not monic of degree {n}")
    if chi[n - 1] != -(2**n - 1):
        raise OracleError(f"t^{n - 1} coefficient {chi[n - 1]} is not minus the {2**n - 1} hyperplanes")

    def at(t: int) -> int:
        return sum(c * t**i for i, c in enumerate(chi))

    if n in PUBLISHED_REGIONS and regions != PUBLISHED_REGIONS[n]:
        raise OracleError(f"regions {regions} != {PUBLISHED_REGIONS[n]} (OEIS A034997)")
    if regions != (-1) ** n * at(-1):
        raise OracleError("region count disagrees with chi(-1)")
    if bounded != 0 or at(1) != 0:
        raise OracleError("a central arrangement has no bounded regions")
    p = _smallest_valid_prime(n)
    if at(p) != brute_complement_count(n, p):
        raise OracleError(f"chi({p}) disagrees with the point count over F_{p}")


# ----------------------------------------------------------------------
# dispatch


def _json_terms(entries: list) -> dict:
    return {parse_partition(e["partition"]): int(e["coeff"]) for e in entries}


def check_cli(argv: list, record: dict) -> None:
    """Check one `python -m boolprod ... --format json` record."""
    command = argv[0]
    flags = {}
    for i, token in enumerate(argv[1:], 1):
        if token.startswith("--"):
            following = argv[i + 1] if i + 1 < len(argv) else "--"
            flags[token] = True if following.startswith("--") else following
    if record.get("command") != command:
        raise OracleError(f"record is for {record.get('command')!r}, not {command!r}")
    result = record["result"]
    n = int(flags.get("--n", 0))
    if command == "boolean-expand":
        k = int(flags["--k"])
        terms = _json_terms(result["terms"])
        if "--p" in flags:
            check_elementary(terms, n, subset_forms(n, k), int(flags["--p"]))
        else:
            check_product(terms, n, subset_forms(n, k))
    elif command == "schur-at":
        check_schur_at(_json_terms(result["terms"]), parse_partition(flags["--lambda"]), n, int(flags["--k"]))
    elif command == "derangement":
        q0 = int(flags["--q"])
        check_q_specialised(_json_terms(result["terms"]), n, q0)
        if result["dimension"] != frobenius_value(n, q0):
            raise OracleError(f"dimension {result['dimension']} != {frobenius_value(n, q0)}")
        if (n, q0) == (7, -1) and result["dimension"] != PUBLISHED_D7:
            raise OracleError(f"dimension {result['dimension']} != D_7 = {PUBLISHED_D7}")
    elif command == "lascoux":
        if result["equal"] is not True:
            raise OracleError("the identity was reported unequal")
        check_lascoux_terms(_json_terms(result["terms"]), n, flags["--kind"])
    elif command == "bialphabet":
        m, j, k = int(flags["--m"]), int(flags["--j"]), int(flags["--k"])
        terms = {
            (parse_partition(e["x"]), parse_partition(e["y"])): int(e["coeff"])
            for e in result["terms"]
        }
        check_bischur(terms, n, m, bialphabet_forms(n, m, j, k))
    elif command in ("charpoly", "regions"):
        if result["n"] != n:
            raise OracleError(f"record is for n={result['n']}, not {n}")
        check_charpoly(n, result["chi"], result["regions"], result["bounded"])
    elif command == "count":
        p = int(flags["--p"])
        if (result["n"], result["p"]) != (n, p):
            raise OracleError(f"record is for n={result['n']}, p={result['p']}, not n={n}, p={p}")
        _expect(result["count"], brute_complement_count(n, p))
    else:
        raise OracleError(f"no oracle for {command!r}")


def check_call(name: str, args: tuple, out) -> None:
    """Check one library call.  `out` is the plain form of the result: a
    (var_count, {partition: coeff}) pair for a Schur vector (coeff a tuple
    for q-polynomials), ((n, m), {(la, mu): coeff}) for a two-alphabet
    vector, (equal, lhs, rhs) for a Lascoux report, or a dict or int."""
    if name == "ep_subset":
        n, k, p = args
        check_elementary(_schur_terms(out, n), n, subset_forms(n, k), p)
    elif name == "boolean_product":
        n, k = args
        check_product(_schur_terms(out, n), n, subset_forms(n, k))
    elif name == "total_boolean":
        (n,) = args
        forms = [f for k in range(1, n + 1) for f in subset_forms(n, k)]
        check_product(_schur_terms(out, n), n, forms)
    elif name == "subset_alphabet":
        n, k = args
        if out != (n, tuple(subset_forms(n, k))):
            raise OracleError(f"alphabet {out} is not the lexicographic {k}-subsets of {n}")
    elif name == "schur_at_alphabet":
        la, (n, forms) = args
        k = sum(forms[0])
        check_schur_at(_schur_terms(out, n), la, n, k)
    elif name == "bnm1_q":
        (n,) = args
        check_q_layers(_schur_terms(out, n), n)
    elif name == "specialize_q":
        (n, _), q0 = args
        check_q_specialised(_schur_terms(out, n), n, q0)
    elif name == "frobenius_dimension":
        (n, _), q0 = args
        _expect(out, frobenius_value(n, q0))
    elif name == "alternating_expansion":
        (n,) = args
        check_q_specialised(_schur_terms(out, n), n, -1)
    elif name == "a_coeffs_syt":
        (n,) = args
        _expect(out, even_ascent_counts(n))
    elif name in ("gv_count", "binomial_det"):
        _expect(out, binomial_det_value(*args))
    elif name == "pjk_expand":
        n, m, j, k = args
        (got_n, got_m), terms = out
        if (got_n, got_m) != (n, m):
            raise OracleError(f"blocks {(got_n, got_m)} != {(n, m)}")
        check_bischur(terms, n, m, bialphabet_forms(n, m, j, k))
    elif name == "lascoux_check":
        n, kind = args
        equal, lhs, rhs = out
        if not equal or lhs != rhs:
            raise OracleError("the two sides of the identity differ")
        check_lascoux_terms(lhs, n, kind)
    else:
        raise OracleError(f"no oracle for {name!r}")


def _schur_terms(out, n: int) -> dict:
    var_count, terms = out
    if var_count != n:
        raise OracleError(f"expansion in {var_count} variables, expected {n}")
    return terms


def _expect(got, want) -> None:
    if got != want:
        raise OracleError(f"got {got!r}, expected {want!r}")
