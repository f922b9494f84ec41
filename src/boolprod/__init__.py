"""Exact Schur-basis expansions of subset-sum products and related objects."""

from .bialphabet import BiSchurVector, dual_cauchy_reference, pjk_expand
from .boolean import (
    boolean_product,
    ep_subset,
    subset_alphabet,
    total_boolean,
)
from .derangements import (
    a_coeffs_syt,
    alternating_expansion,
    bnm1_q,
    frobenius_dimension,
    specialize_q,
)
from .errors import AsymmetryError, CapacityError, ConsistencyError
from .lascoux import LascouxReport, binomial_det, gv_count, lascoux_check
from .polyring import (
    Alphabet,
    MonomialPoly,
    QPoly,
    alphabet_product,
    dominant_coefficients,
    graded_elementary,
    poly_product,
)
from .resonance import (
    CharPoly,
    bounded_regions,
    charpoly_ff,
    charpoly_mobius,
    complement_count,
    regions,
    valid_primes,
)
from .schur import (
    MVector,
    SchurVector,
    m_to_schur,
    schur_at_alphabet,
    schur_from_dominant,
    schur_of_graded_product,
    schur_of_product,
    schur_to_m,
    to_mvector,
)
from .tableaux import (
    conjugate,
    dominance_leq,
    format_partition,
    kostka,
    num_syt,
    parse_partition,
    partitions_up_to,
    staircase,
    subpartitions,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AsymmetryError",
    "BiSchurVector",
    "CapacityError",
    "CharPoly",
    "ConsistencyError",
    "LascouxReport",
    "MVector",
    "MonomialPoly",
    "QPoly",
    "SchurVector",
    "a_coeffs_syt",
    "alphabet_product",
    "alternating_expansion",
    "binomial_det",
    "bnm1_q",
    "boolean_product",
    "bounded_regions",
    "charpoly_ff",
    "charpoly_mobius",
    "complement_count",
    "conjugate",
    "dominance_leq",
    "dominant_coefficients",
    "dual_cauchy_reference",
    "ep_subset",
    "format_partition",
    "frobenius_dimension",
    "graded_elementary",
    "gv_count",
    "kostka",
    "lascoux_check",
    "m_to_schur",
    "num_syt",
    "parse_partition",
    "partitions_up_to",
    "pjk_expand",
    "poly_product",
    "regions",
    "schur_at_alphabet",
    "schur_from_dominant",
    "schur_of_graded_product",
    "schur_of_product",
    "schur_to_m",
    "specialize_q",
    "staircase",
    "subpartitions",
    "subset_alphabet",
    "to_mvector",
    "total_boolean",
    "valid_primes",
]
