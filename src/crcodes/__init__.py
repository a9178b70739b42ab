"""Exact-arithmetic toolkit for completely regular codes in Hamming graphs.

Construction, certification and classification of completely regular codes
and their coset/quotient graphs, entirely in integer arithmetic.
"""

from .algebra import Alphabet, GFMatrix, alphabet, gf_matrix, nullspace_basis, rref
from .classify import (
    CheckContext,
    QuotientFamily,
    classify_arithmetic_forms,
    classify_hamming_quotient_code,
    classify_quotient,
    classify_small_covering_radius,
    column_classes,
    coordinate_classes,
    decompose_product,
    graph_isomorphic,
)
from .codespec import emit_codespec, parse_codespec
from .constructions import (
    cartesian_product,
    extended_hamming_code,
    hamming_code,
    pad_code,
    product_cr_criterion,
    repetition_code,
    replicate_columns,
)
from .cr_analysis import (
    analyze_code,
    arithmetic_certificate,
    certify_completely_regular,
    code_spectrum,
    covering_radius,
    distance_partition,
    eigenvalue_bounds,
    quotient_matrix,
    reduce_code,
    tridiagonal_formula_spectrum,
)
from .hamming_space import (
    AmbientSpace,
    Code,
    ambient,
    code_from_generators,
    code_from_parity_check,
    code_from_words,
    distance,
    minimum_distance,
    neighbors,
)
from .partitions_quotients import (
    Graph,
    IntersectionArray,
    certify_cr_partition,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    drg_spectrum,
    predicted_quotient_array,
    quotient_graph,
)
from .search import CensusParams, enumerate_linear_codes, replay, run_census

__version__ = "0.1.0"
