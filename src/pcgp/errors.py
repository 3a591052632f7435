"""Exception types shared across the package.

Each reader of outside data is to raise only its own CgpError subclass,
whatever the input: load_csv raises DatasetError; load_config, a --set
override and from_json raise ParseError; validate_config, and EvoParams
for run objects built without it, raise ConfigError.  The CLI prints
every CgpError as "error: ..." and exits 2.  tests/test_hostile.py holds
a row for each input known to have broken this.
"""


class CgpError(Exception):
    """Base class for all library errors."""


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
