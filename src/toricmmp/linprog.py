"""Exact linear programming, wrapping sympy's rational simplex solver.

Used for two infrastructure jobs: finding strictly convex (ample) height
functions and deciding cone separation questions during full validation of
fans whose support kind is "other" (complete and cone-supported fans are
validated without LP).
All data in and out is Fraction.  The backend mishandles eq-only systems
and explicit bounds lists, so equalities are lowered to inequality pairs
and general variable bounds to shifted/split nonnegative variables here.
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


def lp_maximize(c, A_le, b_le, bounds, A_eq=(), b_eq=()):
    """Maximize c.x subject to A_le x <= b_le, A_eq x = b_eq and per-variable
    bounds, a list of (lo, hi) with None for an unbounded side.

    Returns (optimum, x) as Fractions. Raises LpInfeasible / LpUnbounded.
    """
    n = len(bounds)
    rows = [list(map(Fraction, r)) for r in A_le]
    rhs = [Fraction(x) for x in b_le]
    for r, v in zip(A_eq, b_eq):
        r = list(map(Fraction, r))
        rows.append(r)
        rhs.append(Fraction(v))
        rows.append([-a for a in r])
        rhs.append(Fraction(-v))

    # substitute x_j = base_j + sum_k P[j][k] y_k with y >= 0
    base = [Fraction(0)] * n
    cols = []        # per original variable: list of (y-index, sign)
    extra_rows = []  # upper-bound rows in y space, built after sizing
    y_count = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            base[j] = Fraction(lo)
            cols.append([(y_count, 1)])
            if hi is not None:
                extra_rows.append((y_count, Fraction(hi) - Fraction(lo)))
            y_count += 1
        elif hi is not None:
            base[j] = Fraction(hi)
            cols.append([(y_count, -1)])
            y_count += 1
        else:
            cols.append([(y_count, 1), (y_count + 1, -1)])
            y_count += 2

    def to_y(row):
        out = [Fraction(0)] * y_count
        for j, a in enumerate(row):
            for k, sign in cols[j]:
                out[k] += sign * a
        return out

    A = [to_y(r) for r in rows]
    b = [v - sum(r[j] * base[j] for j in range(n)) for r, v in zip(rows, rhs)]
    for k, cap in extra_rows:
        row = [Fraction(0)] * y_count
        row[k] = Fraction(1)
        A.append(row)
        b.append(cap)
    cy = to_y([Fraction(x) for x in c])
    shift = sum(Fraction(ci) * bi for ci, bi in zip(c, base))

    if not A:
        A = [[Fraction(0)] * y_count]
        b = [Fraction(0)]
    try:
        val, y = _linprog(
            [-Rational(x) for x in cy],
            [[Rational(x) for x in row] for row in A],
            [Rational(x) for x in b],
        )
    except InfeasibleLPError:
        raise LpInfeasible("LP infeasible")
    except UnboundedLPError:
        raise LpUnbounded("LP unbounded")
    y = [_to_frac(v) for v in y]
    x = tuple(
        base[j] + sum(sign * y[k] for k, sign in cols[j]) for j in range(n)
    )
    return -_to_frac(val) + shift, x


def lp_feasible(A_le, b_le, bounds, A_eq=(), b_eq=()):
    """True iff the constraint system has a solution."""
    try:
        lp_maximize([0] * len(bounds), A_le, b_le, bounds, A_eq, b_eq)
        return True
    except LpInfeasible:
        return False
