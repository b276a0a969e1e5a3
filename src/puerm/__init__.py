"""Positive-unlabeled empirical risk minimization, scenario-aware.

The package trains binary classifiers from positive-labeled plus
unlabeled rows under two corruption schemes (single-sample and
case-control), using unbiased and non-negative risk estimators whose
distribution term matches the scheme. Submodules: ``numerics`` (matrix
helpers, reproducible RNG), ``datasets``, ``sampling``, ``risk``,
``model``, ``trainer``, ``metrics``, ``harness`` and ``cli``.
"""

from .errors import (
    DataError,
    FormatError,
    ParameterError,
    PuermError,
    ShapeError,
    TrainingError,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "FormatError",
    "ParameterError",
    "PuermError",
    "ShapeError",
    "TrainingError",
]
