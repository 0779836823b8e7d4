"""Deterministic fixed-step rover task simulation."""
