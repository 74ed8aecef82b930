"""tokenhier: desk-scale stain-aware self-supervised ViT pipeline.

Importing :mod:`tokenhier` itself loads only the exception classes;
each module imports what it uses, and :mod:`tokenhier.cli` imports
every module at the top.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
    TokenhierError,
)

__all__ = [
    "ConfigError",
    "DataError",
    "DegenerateInputError",
    "NumericError",
    "ParameterError",
    "ShapeError",
    "TokenhierError",
    "__version__",
]
