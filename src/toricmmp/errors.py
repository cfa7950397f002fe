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


def _gate(types):
    """A gate: xs as a tuple whose items' exact types are in types (any type
    for ()), of n items when n is given.  A non-sequence or an item of
    another type raises InvalidInputError(message), a wrong length
    InvalidInputError(wrong_length, or message when that is None)."""
    def gate(xs, message, n=None, wrong_length=None):
        try:
            xs = tuple(xs)
        except TypeError:
            raise InvalidInputError(message) from None
        if types:
            for x in xs:
                if type(x) not in types:
                    raise InvalidInputError(message)
        if n is not None and len(xs) != n:
            raise InvalidInputError(wrong_length or message)
        return xs
    return gate


_sized = _gate(())                          # any items
_exact_ints = _gate((int,))                 # ints, never bool
_exact_rationals = _gate((int, Fraction))   # ints and Fractions, never bool


def _all_ints(xs):
    """Are all of xs, exact rationals, ints?  The test of an all-int fast path."""
    return set(map(type, xs)) <= {int}
