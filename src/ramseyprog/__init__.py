"""Ramsey-type thresholds for semi- and quasi-progressions.

A semi-progression of scope m allows successive gaps d, 2d, ..., md; a
quasi-progression of diameter n allows gaps d through d+n.  This package
computes lower bounds on the least ground-set size forcing a monochromatic
k-term progression in every r-coloring, cross-checks those bounds against
exhaustive enumeration at small sizes, and finds exact thresholds with
re-verifiable witness certificates.

The public names load lazily (PEP 562): ``import ramseyprog`` imports no
layer, and the first use of a name imports only the submodule it lives in.
"""

import importlib

__version__ = "0.1.0"

_HOME = {  # public name -> the submodule it lives in
    name: module
    for module, names in (
        ("bounds", "BoundResult alpha_semi beta_quasi beta_table "
                   "lambda_max_by_charpoly perron_bracket quasi_counting_bound "
                   "semi_bound semi_counting_bound transfer_matrix "
                   "weighted_conjugate_sum"),
        ("errors", "BudgetExceededError ConvergenceError WitnessFormatError"),
        ("oracle", "CountReport OracleBudget count_mono_colorings forced_count_check "
                   "primary_partition_check verify_counting_inequality"),
        ("progressions", "Coloring ConjugateVector Family Progression conjugate_vector "
                         "find_monochromatic forced_elements pair_multiplicity "
                         "primary_progression validate_progression weight"),
        ("search", "SearchBudget ThresholdCertificate check_witness exact_threshold "
                   "random_witness_search read_witness write_witness"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name):
    # an unknown name must raise AttributeError, so that ``from ramseyprog
    # import bounds`` falls through to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
