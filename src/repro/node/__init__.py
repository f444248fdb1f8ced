"""Simulated Ethereum full node (chain, traces, proofs)."""
