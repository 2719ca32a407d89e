"""Exception types shared across the package."""

from __future__ import annotations


class LayerSchedError(Exception):
    """Base class for all errors raised by layersched."""


class UnknownImage(LayerSchedError):
    """An image reference is not present in the catalog, cache, or registry."""


class CapacityViolation(LayerSchedError):
    """A placement would break a node capacity constraint.

    ``constraint`` names the first violated check: one of ``storage``,
    ``container_count``, ``cpu_fit``, ``mem_fit``.
    """

    def __init__(self, constraint: str, message: str = ""):
        self.constraint = constraint
        super().__init__(message or f"capacity constraint violated: {constraint}")


class RegistryUnavailable(LayerSchedError):
    """The registry endpoint could not be reached. Retryable."""


class RegistryProtocolError(LayerSchedError):
    """The registry answered with an unexpected status code."""

    def __init__(self, status: int, message: str = ""):
        self.status = status
        super().__init__(message or f"registry returned HTTP {status}")


class UnsupportedManifest(LayerSchedError):
    """The manifest is not a v2/OCI image manifest we can interpret."""


class CacheCorrupt(LayerSchedError):
    """The metadata cache file exists but does not parse."""


class DigestSizeConflict(LayerSchedError):
    """The same layer digest was reported with two different sizes."""


class TraceCorrupt(LayerSchedError):
    """A workload trace file has a malformed line."""

    def __init__(self, line_number: int, message: str = ""):
        self.line_number = line_number
        super().__init__(message or f"trace corrupt at line {line_number}")


class ScenarioError(LayerSchedError):
    """A scenario file or scenario object is invalid.

    ``field`` is the dotted path of the offending entry, e.g. ``nodes[0].cpu``.
    """

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)


class ComparisonError(LayerSchedError):
    """compare() was given no schedulers, no seeds or a negative seed."""
