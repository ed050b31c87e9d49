"""Numerical laboratory for weakly coupled damped sigma-evolution systems."""

__version__ = "0.1.0"
