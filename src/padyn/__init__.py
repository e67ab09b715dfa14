"""Exact p-adic arithmetic and finite truncations of definable group flows."""

__version__ = "0.1.0"
