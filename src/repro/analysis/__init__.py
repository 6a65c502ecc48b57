"""Statistics helpers for experiment analysis."""

from repro.analysis.stats import bootstrap_ci, ecdf, mean, percentile, summarize

__all__ = [
    "bootstrap_ci",
    "ecdf",
    "mean",
    "percentile",
    "summarize",
]
