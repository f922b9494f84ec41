"""Partitions, Young tableaux, Kostka numbers, and ascent combinatorics.

Conventions used throughout the package:

* A partition is a plain ``tuple[int, ...]`` with weakly decreasing positive
  parts; ``()`` is the unique partition of 0.
* Partitions are ordered by descending tuple comparison, which (after implicit
  zero padding) is the reverse-lexicographic order; it linearly extends
  dominance from greater to smaller.
* A tableau is a ``tuple[tuple[int, ...], ...]`` of rows in French convention:
  ``rows[0]`` is the bottom (longest) row, and columns increase strictly from
  bottom to top.
* Boundary ascent convention: in a standard tableau with n cells the entry n
  always counts as an ascent.  Entry i < n is an ascent iff i+1 does NOT sit
  in a row strictly above i.
"""

from functools import cache
from math import factorial

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def is_partition(parts) -> bool:
    """True iff ``parts`` is a weakly decreasing tuple of positive integers."""
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form; '-' denotes the empty partition."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return check_partition(parts)


def format_partition(la: Partition) -> str:
    return ",".join(str(p) for p in la) if la else "-"


def partitions_up_to(d: int, max_parts: int) -> list[Partition]:
    """All partitions of d with at most max_parts parts, largest first.

    The order is descending lexicographic (equivalently reverse-lex with zero
    padding), e.g. (4) > (3,1) > (2,2) > (2,1,1) > (1,1,1,1).
    """
    if d < 0 or max_parts < 0:
        raise ValueError("d and max_parts must be nonnegative")
    out: list[Partition] = []

    def rec(remaining, largest, slots, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        if slots == 0:
            return
        # smallest admissible first part still filling `remaining` in `slots`
        lo = -(-remaining // slots)
        for p in range(min(remaining, largest), lo - 1, -1):
            rec(remaining - p, p, slots - 1, prefix + (p,))

    rec(d, d, max_parts, ())
    return out


def conjugate(la: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths)."""
    if not la:
        return ()
    return tuple(sum(1 for p in la if p > i) for i in range(la[0]))


def dominance_leq(mu: Partition, la: Partition) -> bool:
    """True iff mu is below la in dominance order (partial sums never exceed)."""
    if sum(mu) != sum(la):
        raise ValueError(f"dominance compares equal sizes only: {mu} vs {la}")
    total_mu = total_la = 0
    for i in range(max(len(mu), len(la))):
        total_mu += mu[i] if i < len(mu) else 0
        total_la += la[i] if i < len(la) else 0
        if total_mu > total_la:
            return False
    return True


def staircase(k: int) -> Partition:
    """The staircase (k, k-1, ..., 1); staircase(0) is empty."""
    return tuple(range(k, 0, -1))


def contains(la: Partition, mu: Partition) -> bool:
    """Diagram containment mu ⊆ la, componentwise after padding."""
    return len(mu) <= len(la) and all(m <= l for m, l in zip(mu, la))


def subpartitions(la: Partition) -> list[Partition]:
    """All partitions mu ⊆ la, in descending order."""
    out: list[Partition] = []

    def rec(i, cap, prefix):
        out.append(prefix)
        if i == len(la):
            return
        for p in range(min(cap, la[i]), 0, -1):
            rec(i + 1, p, prefix + (p,))

    rec(0, la[0] if la else 0, ())
    return sorted(out, reverse=True)


def _horizontal_strips_below(la: Partition, size: int):
    """Partitions nu with la/nu a horizontal strip of the given size.

    Interlacing la_{i+1} <= nu_i <= la_i makes nu a partition automatically.
    """
    n = len(la)

    def rec(i, remaining, prefix):
        if i == n:
            if remaining == 0:
                yield tuple(p for p in prefix if p > 0)
            return
        lo = la[i + 1] if i + 1 < n else 0
        for v in range(la[i], max(lo, la[i] - remaining) - 1, -1):
            yield from rec(i + 1, remaining - (la[i] - v), prefix + (v,))

    yield from rec(0, size, ())


@cache
def kostka(la: Partition, content: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape la and the given content.

    The content may be any composition (needed for content (1,...,1)); the
    count only depends on the multiset of its entries.  For partition content
    the number vanishes unless content <= la in dominance.
    """
    la = tuple(la)
    content = tuple(content)
    if sum(la) != sum(content):
        raise ValueError(f"size mismatch: |{la}| != |{content}|")
    mu = tuple(sorted((c for c in content if c > 0), reverse=True))
    if not la:
        return 1
    if not mu:
        return 0
    if not dominance_leq(mu, la):
        return 0  # unitriangularity
    if mu == la:
        return 1
    total = 0
    for nu in _horizontal_strips_below(la, mu[-1]):
        total += kostka(nu, mu[:-1])
    return total


def shape_of(t: Tableau) -> Partition:
    return tuple(len(row) for row in t)


def is_standard(t: Tableau) -> bool:
    """Entries are exactly 1..n, rows increase rightward, columns upward."""
    shape = shape_of(t)
    if not is_partition(shape):
        return False
    n = sum(shape)
    entries = [v for row in t for v in row]
    if sorted(entries) != list(range(1, n + 1)):
        return False
    for row in t:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(t) - 1):
        if any(t[i][j] >= t[i + 1][j] for j in range(len(t[i + 1]))):
            return False
    return True


def syt_list(la: Partition) -> list[Tableau]:
    """All standard tableaux of shape la (French rows, bottom row first).

    Deterministic order: values 1..n are placed greedily, trying lower rows
    first, so the output is lexicographic in the row-placement sequence.
    """
    la = check_partition(la)
    n = sum(la)
    if n < 1:
        raise ValueError("syt_list needs a nonempty shape")
    rows: list[list[int]] = [[] for _ in la]
    out: list[Tableau] = []

    def place(v):
        if v > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i in range(len(la)):
            # keep the partial shape a partition: row i may not catch up
            # with the row below it
            if len(rows[i]) < la[i] and (i == 0 or len(rows[i]) < len(rows[i - 1])):
                rows[i].append(v)
                place(v + 1)
                rows[i].pop()

    place(1)
    return out


def smallest_ascent(t: Tableau) -> int:
    """Least entry i that is an ascent.

    i < n is an ascent iff i+1 is not in a row strictly above i; the final
    entry n is always an ascent by convention (single-column tableaux of even
    size must contribute, which forces this boundary reading).
    """
    if not is_standard(t):
        raise ValueError(f"not a standard tableau: {t}")
    row_of = {v: i for i, row in enumerate(t) for v in row}
    n = len(row_of)
    for i in range(1, n):
        if row_of[i + 1] <= row_of[i]:
            return i
    return n


@cache
def num_syt(la: Partition) -> int:
    """Number of standard tableaux of shape la, by the hook length formula."""
    la = check_partition(la)
    n = sum(la)
    if n < 1:
        raise ValueError("num_syt needs a nonempty shape")
    conj = conjugate(la)
    hooks = 1
    for i, row_len in enumerate(la):
        for j in range(row_len):
            hooks *= (row_len - j) + (conj[j] - i) - 1
    return factorial(n) // hooks
