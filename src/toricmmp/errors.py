"""Exception hierarchy.

Two public classes of failure: bad input (rejected up front or at a
precondition) and violated internal invariants (an engine bug, or an input
that slipped past validation).  The CLI maps them to exit codes 1 and 2.
"""

from fractions import Fraction


class ToricMmpError(Exception):
    """Base class for all package errors."""


class InvalidInputError(ToricMmpError):
    """Input violates a schema or an operation precondition."""


class NotKEquivalentError(InvalidInputError):
    """The two pairs are not K-equivalent; carries a human-readable diagnosis."""


class NonProjectiveError(InvalidInputError):
    """No strictly convex height function exists for the fan."""


class BudgetExceededError(InvalidInputError):
    """A step budget was exhausted before the loop converged."""


class EngineInvariantError(ToricMmpError):
    """An internal invariant failed; indicates a bug, not bad input."""


def _exact_ints(xs, message):
    """xs as a tuple of ints, never bool; else InvalidInputError(message)."""
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int:
            raise InvalidInputError(message)
    return xs


def _exact_rationals(xs, message):
    """xs as a tuple of ints and Fractions, never bool; else InvalidInputError(message)."""
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int and type(x) is not Fraction:
            raise InvalidInputError(message)
    return xs


def _all_ints(xs):
    """Are all of xs, exact rationals, ints?  The test of an all-int fast path."""
    return set(map(type, xs)) <= {int}
