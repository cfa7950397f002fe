"""Exact linear programming in standard form, wrapping sympy's rational
simplex solver.

Used for three infrastructure jobs: finding strictly convex (ample) height
functions, deciding the common-face test during full validation of fans
whose support kind is "other" (complete and cone-supported fans are
validated without LP), and cone membership over non-simplicial generators.
Every caller poses its own problem as: maximize c.y subject to A y <= b
and y >= 0.  All data in and out is Fraction.
"""

from fractions import Fraction

from sympy import Rational
from sympy.solvers.simplex import InfeasibleLPError, UnboundedLPError
from sympy.solvers.simplex import linprog as _linprog


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


def _to_frac(x):
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(int(x.p), int(x.q))


def lp_maximize(c, A, b):
    """Maximize c.y subject to A y <= b and y >= 0.

    Returns (optimum, y) as Fractions. Raises LpInfeasible / LpUnbounded.
    """
    try:
        val, y = _linprog(
            [-Rational(x) for x in c],
            [[Rational(x) for x in row] for row in A],
            [Rational(x) for x in b],
        )
    except InfeasibleLPError:
        raise LpInfeasible("LP infeasible")
    except UnboundedLPError:
        raise LpUnbounded("LP unbounded")
    return -_to_frac(val), tuple(_to_frac(v) for v in y)
