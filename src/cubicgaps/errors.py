"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific one that applies instead of bare ValueError where the
failure is part of a documented contract.
"""

import operator


class BadInput(ValueError):
    """Malformed or out-of-contract input (CLI exit code 4)."""


def _field(doc: dict, what: str, name: str, parse):
    """parse(doc[name]), refusing a missing or malformed field of the
    document `what` (a certificate, a catalog row) as BadInput named
    after the field."""
    if name not in doc:
        raise BadInput(f"{what} has no {name!r} field")
    try:
        return parse(doc[name])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"malformed {what} field {name!r}: {exc}") from exc


def _json_int(x) -> int:
    """x as an int when it is an integer; a float or a bool, which int()
    would truncate or read as 0 or 1, raises TypeError.  For numbers read
    from JSON documents, where `_field` turns the TypeError into
    BadInput."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"expected an integer, got {x!r}")


def _json_ints(values) -> tuple:
    """A JSON list of integers as a tuple of ints (see `_json_int`)."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list, got {values!r}")
    return tuple(_json_int(x) for x in values)


def _json_floats(values) -> tuple:
    """A JSON list of numbers as a tuple of floats; a bool, which float()
    would read as 0.0 or 1.0, or a string raises TypeError (see
    `_json_int`)."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list, got {values!r}")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"expected a number, got {x!r}")
    return tuple(float(x) for x in values)


class NumericalFailure(RuntimeError):
    """A numerical consistency check failed, e.g. an inconsistent
    Richardson pair in a finite-difference derivative (CLI exit code 3)."""


class MaxIterExceeded(NumericalFailure):
    """An iterative search hit its iteration cap without succeeding
    (witness planning; CLI exit code 3 via NumericalFailure)."""


class RefusedCertificate(RuntimeError):
    """An exact certification check failed; carries the failing index
    (CLI exit code 2)."""

    def __init__(self, message, failing_index=None):
        super().__init__(message)
        self.failing_index = failing_index
