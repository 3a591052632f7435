"""Exception types shared across the package."""


class CgpError(Exception):
    """Base class for all library errors."""


class SizeError(CgpError):
    """A structural edit would violate the genome size bounds."""


class DecodeError(CgpError):
    """A connection point has no candidate node to snap to."""


class ParseError(CgpError):
    """A serialized genome or config document is malformed."""


class UnsupportedOperatorError(CgpError):
    """An operator was applied to a genome mode it does not support."""


class ConfigError(CgpError):
    """A run configuration is invalid or inconsistent with the problem."""


class DatasetError(CgpError):
    """A dataset file could not be ingested."""


class OutputError(CgpError):
    """An output file or directory could not be written."""
