"""Pythagorean fuzzy parameterized soft sets.

A library for multi-criteria ranking with Pythagorean fuzzy numbers:
the PFN value algebra, soft sets whose parameters carry PFN importance
degrees, expectation-score weighting, weighted-averaging aggregation,
and the five-step decision procedure.
"""

from . import errors
from .aggregation import (
    WeightVector,
    pfwa_fold,
    pfwa_geometric,
    pfwa_linear,
    weights_from_importances,
)
from .decision import (
    Aggregator,
    AlternativeMeasures,
    DecisionConfig,
    DecisionReport,
    decide,
    decide_single,
)
from .io import emit_csv, emit_json, parse_csv, parse_json
from .pfn import (
    COMPARE_EPS,
    VALIDITY_EPS,
    PFN,
    OrderKind,
    Ordering,
    accuracy,
    add_p,
    compare,
    complement,
    expectation_score,
    indeterminacy,
    join,
    meet,
    mul_p,
    pfn_from_text,
    pfn_to_text,
    power,
    scalar_mul,
    score,
)
from .softset import (
    CombineRule,
    PFParameter,
    PhiSoftSet,
    build,
    constant_set,
    equals,
    extended_intersection,
    extended_union,
    is_subset,
    null_set,
    restricted_intersection,
    restricted_union,
    whole_set,
)

__version__ = "0.1.0"

__all__ = [
    "COMPARE_EPS",
    "VALIDITY_EPS",
    "PFN",
    "OrderKind",
    "Ordering",
    "PFParameter",
    "PhiSoftSet",
    "WeightVector",
    "Aggregator",
    "AlternativeMeasures",
    "CombineRule",
    "DecisionConfig",
    "DecisionReport",
    "accuracy",
    "add_p",
    "build",
    "compare",
    "complement",
    "constant_set",
    "decide",
    "decide_single",
    "emit_csv",
    "emit_json",
    "equals",
    "errors",
    "expectation_score",
    "extended_intersection",
    "extended_union",
    "indeterminacy",
    "is_subset",
    "join",
    "meet",
    "mul_p",
    "null_set",
    "parse_csv",
    "parse_json",
    "pfn_from_text",
    "pfn_to_text",
    "pfwa_fold",
    "pfwa_geometric",
    "pfwa_linear",
    "power",
    "restricted_intersection",
    "restricted_union",
    "scalar_mul",
    "score",
    "weights_from_importances",
    "whole_set",
]
