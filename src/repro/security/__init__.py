"""Adversary models and statistical obliviousness tests."""

from repro.security.analysis import (
    QueryTypeClassifier,
    frequency_attack,
    mutual_information,
    path_uniformity_pvalue,
    size_leakage,
)
from repro.security.observer import AccessPatternObserver

__all__ = [
    "AccessPatternObserver",
    "QueryTypeClassifier",
    "frequency_attack",
    "mutual_information",
    "path_uniformity_pvalue",
    "size_leakage",
]
