"""Adversary models and statistical obliviousness tests."""
