"""Exception types shared across the package, and the one reader of every
payload the ``spd`` CLI takes (matrices, ``file:`` subspaces, manifests):
``_read_text``, ``_parse_json`` and ``_convert`` turn what Python raises on
a malformed file, JSON text or number into a ParseError."""

import json


class SpdGeomError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpdGeomError, ValueError):
    """Input violates a mathematical precondition (not SPD, degenerate
    configuration, undefined scalar function, malformed subspace, ...)."""


class ConvergenceError(SpdGeomError, RuntimeError):
    """An iterative procedure failed to reach its tolerance.

    Carries the last residual so callers can report how far off it was.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ParseError(SpdGeomError, ValueError):
    """A file or command-line payload could not be parsed."""


def _read_text(path, what=""):
    """The UTF-8 text at ``path``; ParseError "cannot read {what}{path}: ..."
    where it cannot be opened or decoded, or the path has a NUL byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {what}{path}: {exc}") from exc


def _parse_json(text, origin):
    """The value of JSON ``text``; ParseError "{origin}: invalid JSON: ..."
    where it is invalid or nested too deeply for the parser."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{origin}: invalid JSON: {exc}") from exc


def _convert(kind, value, what):
    """kind(value); ParseError "{what}: ..." where that raises TypeError,
    ValueError or OverflowError (no number, an int too large, inf)."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
