"""Ramsey-type thresholds for semi- and quasi-progressions.

A semi-progression of scope m allows successive gaps d, 2d, ..., md; a
quasi-progression of diameter n allows gaps d through d+n.  This package
computes lower bounds on the least ground-set size forcing a monochromatic
k-term progression in every r-coloring, cross-checks those bounds against
exhaustive enumeration at small sizes, and finds exact thresholds with
re-verifiable witness certificates.
"""

from .bounds import (
    BoundResult,
    ComparisonBounds,
    SemiCountingBound,
    TransferMatrix,
    alpha_semi,
    beta_quasi,
    beta_table,
    comparison_bounds,
    lambda_max_by_charpoly,
    multinomial_count,
    perron_bracket,
    quartic_root_check,
    quasi_counting_bound,
    semi_bound,
    semi_counting_bound,
    transfer_matrix,
    weighted_conjugate_sum,
)
from .errors import BudgetExceededError, ConvergenceError, WitnessFormatError
from .oracle import (
    CountReport,
    OracleBudget,
    count_mono_colorings,
    forced_count_check,
    primary_partition_check,
    verify_counting_inequality,
)
from .progressions import (
    Coloring,
    ConjugateVector,
    Family,
    FrequencyVector,
    Progression,
    conjugate_vector,
    find_monochromatic,
    forced_elements,
    frequency_vector,
    pair_multiplicity,
    primary_progression,
    validate_progression,
    weight,
)
from .search import (
    SearchBudget,
    ThresholdCertificate,
    check_witness,
    exact_threshold,
    random_witness_search,
    read_witness,
    write_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BudgetExceededError",
    "Coloring",
    "ComparisonBounds",
    "ConjugateVector",
    "ConvergenceError",
    "CountReport",
    "Family",
    "FrequencyVector",
    "OracleBudget",
    "Progression",
    "SearchBudget",
    "SemiCountingBound",
    "ThresholdCertificate",
    "TransferMatrix",
    "WitnessFormatError",
    "alpha_semi",
    "beta_quasi",
    "beta_table",
    "check_witness",
    "comparison_bounds",
    "conjugate_vector",
    "count_mono_colorings",
    "exact_threshold",
    "find_monochromatic",
    "forced_count_check",
    "forced_elements",
    "frequency_vector",
    "lambda_max_by_charpoly",
    "multinomial_count",
    "pair_multiplicity",
    "perron_bracket",
    "primary_partition_check",
    "primary_progression",
    "quartic_root_check",
    "quasi_counting_bound",
    "random_witness_search",
    "read_witness",
    "semi_bound",
    "semi_counting_bound",
    "transfer_matrix",
    "validate_progression",
    "verify_counting_inequality",
    "weight",
    "weighted_conjugate_sum",
    "write_witness",
]
