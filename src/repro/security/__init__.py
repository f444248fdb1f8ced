"""Adversary models and statistical obliviousness tests."""

from repro.security.analysis import (
    QueryTypeClassifier,
    frequency_attack,
    mutual_information,
    path_uniformity_pvalue,
    repeated_access_correlation,
    size_leakage,
)
from repro.security.observer import AccessPatternObserver

__all__ = [
    "AccessPatternObserver",
    "QueryTypeClassifier",
    "frequency_attack",
    "mutual_information",
    "path_uniformity_pvalue",
    "repeated_access_correlation",
    "size_leakage",
]
