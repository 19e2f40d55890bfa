"""K-SPIN core: the framework facade and its four modules."""

from repro.core.boolean_query import (
    BooleanExpression,
    brute_force_boolean_bknn,
    brute_force_boolean_top_k,
)
from repro.core.cost_model import CostModel, KappaReport, fit_cost_model, measure_kappa, model_accuracy
from repro.core.framework import KSpin
from repro.core.heap_generator import HeapGenerator, InvertedHeap
from repro.core.keyword_index import KeywordSeparatedIndex
from repro.core.query_processor import QueryProcessor, QueryStats
from repro.core.reference import (
    brute_force_bknn,
    brute_force_top_k,
    results_equivalent,
)
from repro.core.updates import (
    BackgroundRebuilder,
    UpdateCosts,
    apply_lazy_inserts,
    pick_update_keywords,
)

__all__ = [
    "BackgroundRebuilder",
    "BooleanExpression",
    "CostModel",
    "KappaReport",
    "HeapGenerator",
    "brute_force_boolean_bknn",
    "brute_force_boolean_top_k",
    "InvertedHeap",
    "KSpin",
    "KeywordSeparatedIndex",
    "QueryProcessor",
    "QueryStats",
    "UpdateCosts",
    "apply_lazy_inserts",
    "brute_force_bknn",
    "brute_force_top_k",
    "fit_cost_model",
    "measure_kappa",
    "model_accuracy",
    "pick_update_keywords",
    "results_equivalent",
]
