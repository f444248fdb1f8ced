"""Comparison baselines: Geth (software node) and TSC-VEE (TrustZone VEE)."""
