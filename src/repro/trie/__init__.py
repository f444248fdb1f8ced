"""Merkle Patricia Trie — Ethereum's authenticated key-value structure."""
