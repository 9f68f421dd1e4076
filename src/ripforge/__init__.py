"""Deterministic measurement matrices with certified embedding properties."""

from . import (analysis, certify, cli, constructors, designs, errors, golomb, matrix_core,
               num_theory, recovery)

__version__ = "0.1.0"

__all__ = ["analysis", "certify", "cli", "constructors", "designs", "errors", "golomb",
           "matrix_core", "num_theory", "recovery"]
