"""Spans around the calls into boolprod's modules, and the per-layer figures
computed from them.

The program is not instrumented.  `install` replaces each traced function
at every place a boolprod module binds it (for example the
`alphabet_product` that `boolean` and `bialphabet` import from `polyring`)
with a wrapper that records a span: name, start, end, parent span and case.
Spans stay in memory until the traced process ends.  Kostka lookups are not
spanned, since its memoised recursion makes ~10^5 calls a case; their counts
come from `kostka.cache_info()` deltas instead.
"""

import functools
import sys
import time

# Traced public functions, by the module that defines them; the module is
# the span's layer.
TRACED = {
    "polyring": ("alphabet_product", "poly_product", "graded_elementary"),
    "schur": ("to_mvector", "m_to_schur", "schur_at_alphabet"),
    "boolean": ("ep_subset", "boolean_product", "total_boolean", "subset_alphabet"),
    "bialphabet": ("pjk_expand", "dual_cauchy_reference"),
    "derangements": ("bnm1_q", "specialize_q", "frobenius_dimension",
                     "alternating_expansion", "a_coeffs_syt"),
    "lascoux": ("lascoux_check", "binomial_det", "gv_count"),
    "resonance": ("complement_count", "charpoly_ff", "charpoly_mobius"),
}

# Span fields, in the order a span list holds them.
NAME, START, END, PARENT, CASE, UNITS_IN, UNITS_OUT = range(7)
FIELDS = ("name", "start", "end", "parent", "case", "in", "out")


def _terms(value) -> int:
    if isinstance(value, list):
        return sum(len(p.terms) for p in value)
    return len(value.terms)


# (terms in, terms out) recorded on a span, by span name.
COUNTERS = {
    "polyring.alphabet_product": lambda args, out: (0, _terms(out)),
    "polyring.poly_product": lambda args, out: (0, _terms(out)),
    "polyring.graded_elementary": lambda args, out: (0, _terms(out)),
    "schur.to_mvector": lambda args, out: (_terms(args[0]), _terms(out)),
    "schur.m_to_schur": lambda args, out: (_terms(args[0]), _terms(out)),
}


class Tracer:
    """Collects spans; `case` tags the spans opened from now on."""

    def __init__(self):
        self.spans: list = []
        self.case = 0
        self._open: list = []

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.case, 0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if count is not None:
                span[UNITS_IN], span[UNITS_OUT] = count(args, out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Rebind every traced function, wherever a loaded boolprod module holds it."""
    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"boolprod.{layer}"]
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = tracer.wrap(fn, f"{layer}.{name}")
    for module_name, module in list(sys.modules.items()):
        if module_name == "boolprod" or module_name.startswith("boolprod."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def kostka_counts() -> tuple:
    """(hits, misses, entries) of the Kostka memo so far."""
    info = sys.modules["boolprod.tableaux"].kostka.cache_info()
    return info.hits, info.misses, info.currsize


def _covered(intervals: list) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: list = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            children[span[PARENT]].append(
                (max(span[START], parent[START]), min(span[END], parent[END]))
            )
    return [
        (span[END] - span[START]) - _covered([iv for iv in kids if iv[1] > iv[0]])
        for span, kids in zip(spans, children)
    ]


def layer_metrics(spans: list, kostka: list) -> dict:
    """Per-layer figures of one traced pass.  `kostka` holds one
    (calls, misses, entries at the end) triple per traced process."""
    selfs = self_times(spans)

    def self_of(prefix: str) -> float:
        return sum(t for span, t in zip(spans, selfs) if span[NAME].startswith(prefix))

    def named(name: str) -> list:
        return [span for span in spans if span[NAME] == name]

    # A product nested in another (alphabet_product calls poly_product) is
    # part of the outer one's work, so only the outermost are counted.
    products = [
        span for span in spans
        if span[NAME].startswith("polyring.")
        and (span[PARENT] < 0 or not spans[span[PARENT]][NAME].startswith("polyring."))
    ]
    kostka_calls = sum(calls for calls, _, _ in kostka)
    kostka_misses = sum(misses for _, misses, _ in kostka)
    counts = named("resonance.complement_count")
    return {
        "polyring.product_s": self_of("polyring."),
        "polyring.calls": len(products),
        "polyring.terms_out": sum(span[UNITS_OUT] for span in products),
        "schur.to_mvector_s": self_of("schur.to_mvector"),
        "schur.monomials_in": sum(span[UNITS_IN] for span in named("schur.to_mvector")),
        "schur.m_to_schur_s": self_of("schur.m_to_schur"),
        "schur.m_terms_in": sum(span[UNITS_IN] for span in named("schur.m_to_schur")),
        "schur.schur_terms_out": sum(span[UNITS_OUT] for span in named("schur.m_to_schur")),
        "schur.det_s": self_of("schur.schur_at_alphabet"),
        "tableaux.kostka_calls": kostka_calls,
        "tableaux.kostka_misses": kostka_misses,
        "tableaux.kostka_hit_ratio": (kostka_calls - kostka_misses) / kostka_calls if kostka_calls else 1.0,
        "tableaux.kostka_entries": max((entries for _, _, entries in kostka), default=0),
        "boolean.self_s": self_of("boolean."),
        "bialphabet.extract_s": self_of("bialphabet."),
        "derangements.self_s": self_of("derangements."),
        "lascoux.self_s": self_of("lascoux."),
        "cli.self_s": self_of("cli."),
        "resonance.count_s": self_of("resonance.complement_count"),
        "resonance.count_calls": len(counts),
        "resonance.count_max_s": max((span[END] - span[START] for span in counts), default=0.0),
        "resonance.fit_s": self_of("resonance.charpoly_ff"),
        "resonance.mobius_s": self_of("resonance.charpoly_mobius"),
        "trace.self_total_s": sum(selfs),
    }
