"""Exception types shared across the package.

Each class maps to one failure mode a caller may want to handle
separately; the CLI also uses the split to pick exit codes (usage
problems vs. bad data vs. failed verification).
"""

from __future__ import annotations


class HyperpropError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HyperpropError):
    """A data file is malformed; message carries the 1-based line number."""


class BoundsError(HyperpropError):
    """An index (node id, split index, ...) is outside its declared range."""


class DimensionError(HyperpropError):
    """Array shapes disagree with each other or with the hypergraph."""


class DomainError(HyperpropError):
    """A scalar parameter is outside its mathematical domain."""


class ConfigError(HyperpropError):
    """A run configuration is invalid (unknown keys, bad values, missing paths)."""


class ContractViolation(HyperpropError):
    """An input breaks a documented precondition (e.g. unnormalized operator)."""


class ResourceLimitError(HyperpropError):
    """A dense-path request exceeds the fixed size cap."""


class NumericalError(HyperpropError):
    """A computation went numerically wrong: training produced a non-finite
    loss, logits or scores (the message names which)."""


class SamplingError(HyperpropError):
    """Negative sampling could not produce a valid corrupted hyperedge."""
