"""Recursive Length Prefix (RLP) serialization, per the Ethereum spec."""
