"""Workloads: EVM assembler, contract library, evaluation-set generator."""
