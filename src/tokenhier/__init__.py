"""tokenhier: desk-scale stain-aware self-supervised ViT pipeline.

Importing :mod:`tokenhier` itself loads only the exception classes;
each module imports what it uses, and :mod:`tokenhier.cli` imports
every module at the top.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, NumericError, TokenhierError

__all__ = [
    "ConfigError",
    "DataError",
    "NumericError",
    "TokenhierError",
    "__version__",
]
