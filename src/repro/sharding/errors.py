"""Typed errors for the sharding plane."""

from __future__ import annotations


class ShardingError(Exception):
    """Base class for every sharding-plane failure."""


class RingConfigurationError(ShardingError):
    """The consistent-hash ring was built with invalid parameters."""
