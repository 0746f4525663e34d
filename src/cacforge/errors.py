"""Typed errors shared across the package, and the JSON type checks that raise them.

Every failed precondition raises a distinct class so callers (and the CLI
exit-code mapping) can tell a bad parameter from a failed construction
condition from an exhausted search budget.
"""

from __future__ import annotations


class CacError(Exception):
    """Base class for all package errors."""


class NotAUnit(CacError):
    pass


class NotPrime(CacError):
    pass


class NotPrimitive(CacError):
    pass


class DegenerateCodeword(CacError):
    pass


class HeterogeneousCode(CacError):
    pass


class NotACac(CacError):
    """A code failed pairwise difference-set disjointness."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedWeight(CacError):
    pass


class ParamMismatch(CacError):
    pass


class SdrConditionFailed(CacError):
    """The required system of distinct representatives does not exist.

    Carries the offending coset (zero or several representatives) with the
    least member. coset may be given as a zero-argument callable; it is
    then called the first time .coset is read, and its value is kept.
    """

    def __init__(self, message, coset=None):
        super().__init__(message)
        self._coset = coset

    @property
    def coset(self):
        if callable(self._coset):
            self._coset = self._coset()
        return self._coset

    def __reduce__(self):
        # a pickled copy carries the coset itself, not the callable
        return type(self), (*self.args, self.coset)


class ConditionNotSatisfied(CacError):
    """No cyclic subgroup witness for the requested modulus was found."""

    def __init__(self, message, modulus=None):
        super().__init__(message)
        self.modulus = modulus


class InconsistentClaim(CacError):
    """A stated or derived value disagrees with its recomputation."""


class InputNotTight(CacError):
    pass


class InputNotOptimal(CacError):
    pass


class LengthsNotCoprimePrimes(CacError):
    pass


class DuplicateAssignment(CacError):
    pass


class ParseError(CacError):
    """An input file is valid JSON but not of the documented shape."""


class BudgetExceeded(CacError):
    """Search or enumeration ran out of budget.

    best carries the incumbent (a lower bound, never exact) when the
    search got far enough to have one; nodes counts the search nodes spent.
    """

    def __init__(self, message, best=None, size=0, nodes=0):
        super().__init__(message)
        self.best = best
        self.size = size
        self.nodes = nodes
        self.exact = False


def json_int(value, name: str, what: str) -> int:
    """value if it is a JSON integer; a bool, float, string or other is a ParseError."""
    if type(value) is not int:
        raise ParseError(f"malformed {what} ({name} must be an integer, got {value!r})")
    return value


def json_ints(values, name: str, what: str) -> list[int]:
    """values if it is a JSON list of integers, else a ParseError."""
    if type(values) is not list:
        raise ParseError(f"malformed {what} ({name} must be a list, got {values!r})")
    # one pass over the types in C; the offender is looked for only on failure
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ParseError(f"malformed {what} ({name} must be integers, got {bad!r})")
    return values


def json_str(value, name: str, what: str) -> str:
    """value if it is a JSON string; anything else is a ParseError."""
    if type(value) is not str:
        raise ParseError(f"malformed {what} ({name} must be a string, got {value!r})")
    return value


def json_flag(value, name: str, what: str) -> bool | None:
    """A JSON true, false or null, returned as is; anything else is a ParseError."""
    if value is not None and type(value) is not bool:
        raise ParseError(f"malformed {what} ({name} must be true, false or null, "
                         f"got {value!r})")
    return value
