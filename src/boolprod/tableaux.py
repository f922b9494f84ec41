"""Partitions, Kostka numbers and standard-tableau counts.

A partition is a plain ``tuple[int, ...]`` with weakly decreasing positive
parts; ``()`` is the unique partition of 0.  Partitions are ordered by
descending tuple comparison, which (after implicit zero padding) is the
reverse-lexicographic order; it linearly extends dominance from greater to
smaller.
"""

from functools import cache
from math import factorial

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """parts as a tuple; ValueError unless it is a weakly decreasing tuple of
    positive integers."""
    parts = tuple(parts)
    if not all(isinstance(p, int) and p >= 1 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
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
