"""The case lists of the three workloads.

A case is the unit the seed shuffles and the benchmark times.  A CLI case
is one fresh `python -m boolprod` process; a session case is a group of
library calls that share their inputs (all p of one ep_subset(n, k), or a
q-deformed vector and its specialisations), so that a memo filled by one
call is always paid for inside the same case, whatever the order.
"""

import random
from math import comb

WORKLOADS = ("cold-expand", "session-sweep", "arrangement")

# Left out until root-only products make it short: boolean-expand 7 5
# (~37 s a sample).
COLD_EXPAND = [
    ["boolean-expand", "--n", "6", "--k", "3"],
    ["boolean-expand", "--n", "6", "--k", "4"],
    ["boolean-expand", "--n", "7", "--k", "2"],
    ["boolean-expand", "--n", "7", "--k", "6"],
    ["derangement", "--n", "7", "--q", "-1"],
    ["lascoux", "--n", "5", "--kind", "symmetric"],
    ["bialphabet", "--n", "4", "--m", "2", "--j", "2", "--k", "1"],
    ["bialphabet", "--n", "2", "--m", "4", "--j", "1", "--k", "2"],
    ["schur-at", "--lambda", "3,2,1", "--n", "4", "--k", "2"],
]

# The first argument of a case that is not a boolprod subcommand: a fresh
# worker process that runs complement_count(n, p) alone.
COUNT = "count"

# charpoly --n 6 --allow-long is left out: one sample takes 5-11 s on a
# shared 2-core machine, too few fit in a run for a steady figure.  Two of
# its eight point counts stand in for it, so that the point count is a
# large share of this workload.
ARRANGEMENT = [
    ["charpoly", "--n", "4", "--method", "mobius"],
    ["regions", "--n", "5"],
    [COUNT, "--n", "6", "--p", "31"],
    [COUNT, "--n", "6", "--p", "37"],
]


class Ref:
    """An argument that is the result of an earlier call of the same case."""

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"Ref({self.index})"


def _subpartitions(la: tuple) -> list:
    """Every partition whose diagram lies inside la's."""
    out = []

    def grow(prefix: tuple) -> None:
        out.append(prefix)
        i = len(prefix)
        if i < len(la):
            for part in range(1, min(la[i], prefix[-1] if prefix else la[i]) + 1):
                grow(prefix + (part,))

    grow(())
    return out


def session_cases() -> list:
    """(label, [(module, function, args), ...]) for every session case."""
    cases = []
    for n in range(1, 7):
        for k in range(1, n + 1):
            # left out: the all-p sweeps of (6, 3) (~10 s) and (6, 4) (one
            # ~4 s product: with it the workload's wall_s spread 0.18 over
            # five runs, against 0.06 without it)
            if (n, k) not in ((6, 3), (6, 4)):
                cases.append((f"ep_subset({n},{k},p)",
                              [("boolean", "ep_subset", (n, k, p)) for p in range(comb(n, k) + 1)]))
    for n in range(1, 6):
        for k in range(1, n + 1):
            cases.append((f"boolean_product({n},{k})", [("boolean", "boolean_product", (n, k))]))
    for n in range(1, 5):
        cases.append((f"total_boolean({n})", [("boolean", "total_boolean", (n,))]))
    for n in range(1, 8):
        calls = [("derangements", "bnm1_q", (n,))]
        for q0 in (-1, 0, 1):
            calls.append(("derangements", "specialize_q", (Ref(0), q0)))
            calls.append(("derangements", "frobenius_dimension", (Ref(0), q0)))
        cases.append((f"bnm1_q({n})", calls))
        cases.append((f"alternating_expansion({n})", [("derangements", "alternating_expansion", (n,))]))
    for n in range(2, 9):
        cases.append((f"a_coeffs_syt({n})", [("derangements", "a_coeffs_syt", (n,))]))
    for dim in (3, 4):
        for la in _subpartitions((3, 2, 1)):
            calls = []
            for mu in _subpartitions(la):
                calls.append(("lascoux", "gv_count", (la, mu, dim)))
                calls.append(("lascoux", "binomial_det", (la, mu, dim)))
            cases.append((f"paths({la},{dim})", calls))
    for n in range(1, 4):
        for m in range(1, 4):
            cases.append((f"pjk_expand({n},{m})", [
                ("bialphabet", "pjk_expand", (n, m, j, k))
                for j in range(n + 1) for k in range(m + 1) if j or k
            ]))
    for n in range(2, 6):
        for kind in ("exterior", "symmetric"):
            cases.append((f"lascoux_check({n},{kind})", [("lascoux", "lascoux_check", (n, kind))]))
    for n in range(1, 6):
        for k in range(1, n + 1):
            calls = [("boolean", "subset_alphabet", (n, k))]
            for la in ((3,), (2, 1), (1, 1, 1)):
                calls.append(("schur", "schur_at_alphabet", (la, Ref(0))))
            cases.append((f"schur_at_alphabet(*,{n},{k})", calls))
    return cases


def cases_for(workload: str) -> list:
    if workload == "cold-expand":
        return [(" ".join(argv), argv) for argv in COLD_EXPAND]
    if workload == "arrangement":
        return [(" ".join(argv), argv) for argv in ARRANGEMENT]
    if workload == "session-sweep":
        return session_cases()
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def shuffled(items: list, seed: int) -> list:
    """The seed's order of the items; the seed changes nothing else."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
