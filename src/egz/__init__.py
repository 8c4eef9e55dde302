"""Exact zero-e_m EGZ and higher-degree Davenport constants.

For a finite commutative ring presented as Z_n1 x ... x Z_nr and a
sequence S over it, e_m(S) is the m-th elementary symmetric function of
the terms. D_m(G) is the least z such that every sequence of length >= z
has a subsequence of length >= m with e_m = 0, and E(t, G, m) asks the
same with the subsequence length exactly t (Infinite when no such z
exists). The package computes both by certified exhaustive search over
canonical multisets, evaluates the known closed-form bounds with their
hypotheses machine-checked, and cross-validates everything through a
fixture suite.
"""

from __future__ import annotations

from .bounds import (
    BoundResult,
    bound_calculator,
    calculator_ids,
    d_star,
    invariant_factors,
)
from .brink import (
    BrinkInstance,
    BrinkReport,
    count_boolean_solutions,
    egz_boolean_instance,
    make_instance,
)
from .certificates import (
    TOOL_VERSION,
    build_certificate,
    verify_certificate,
)
from .multiset import MultisetSeq
from .numtheory import (
    binom_mod,
    feasible_lengths,
    interval_witness,
    is_feasible_length,
    kummer_valuation,
    lconst,
)
from .rings import RingSpec, make_ring, parse_moduli
from .search import (
    EgzOutcome,
    davenport_m,
    default_egz_cap,
    egz_constant,
    find_dav_zero_sub,
    find_egz_zero_sub,
    infinite_obstruction,
    is_counterexample_dav,
    is_counterexample_egz,
    max_counterexample_length,
)
from .symfun import (
    DominatingSet,
    PowerSumExpansion,
    elementary_symmetric,
    elementary_symmetric_multiset,
    min_dominating_set,
    newton_girard,
    power_sum,
)
from .theorems import run_suite

__version__ = TOOL_VERSION

__all__ = [
    "BoundResult",
    "BrinkInstance",
    "BrinkReport",
    "DominatingSet",
    "EgzOutcome",
    "MultisetSeq",
    "PowerSumExpansion",
    "RingSpec",
    "TOOL_VERSION",
    "__version__",
    "binom_mod",
    "bound_calculator",
    "build_certificate",
    "calculator_ids",
    "count_boolean_solutions",
    "d_star",
    "davenport_m",
    "default_egz_cap",
    "egz_boolean_instance",
    "egz_constant",
    "elementary_symmetric",
    "elementary_symmetric_multiset",
    "feasible_lengths",
    "find_dav_zero_sub",
    "find_egz_zero_sub",
    "infinite_obstruction",
    "interval_witness",
    "invariant_factors",
    "is_counterexample_dav",
    "is_counterexample_egz",
    "is_feasible_length",
    "kummer_valuation",
    "lconst",
    "make_instance",
    "make_ring",
    "max_counterexample_length",
    "min_dominating_set",
    "newton_girard",
    "parse_moduli",
    "power_sum",
    "run_suite",
    "verify_certificate",
]
