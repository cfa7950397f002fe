"""Exact LP in standard form: maximize c.y subject to A y <= b and y >= 0,
for ample heights, face checks and cone membership; Fractions out.

A fraction-free port of sympy 1.14's `_simplex` pivot rule, so it returns
sympy's vertex: phase one pivots on the first row with b_i < 0 and stops on
a repeated pivot, phase two is Bland's rule; columns enter by least label
(x before slack), rows leave by least ratio, then label.  Rows are scaled to
integers by positive lcms and pivoted over one denominator D > 0 (Bareiss),
so each decision is an exact sign or cross-multiplied ratio test.  Where
sympy's rule cycles or stops outside A y <= b, BudgetExceededError is raised.
"""

from fractions import Fraction
from math import lcm

# Not used for solving: bench/run.py::_import_times takes a median over the
# sympy lines of `python -X importtime -c "import toricmmp"`.
import sympy  # noqa: F401

from .errors import BudgetExceededError


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


def _scaled(row):
    """The row times the positive lcm of its denominators, and that lcm."""
    if set(map(type, row)) == {int}:
        return row, 1
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _leaving(T, rows, k, Y):
    """The row of least ratio T[i][-1] / T[i][k], ties to the least label."""
    best = None
    for i in rows:
        num, den = (T[i][-1], T[i][k]) if T[i][k] > 0 else (-T[i][-1], -T[i][k])
        if best is None or (num * best[1], Y[i]) < (best[0] * den, Y[best[2]]):
            best = num, den, i
    return best[2]


def _pivot(T, r, k, D, X, Y, seen, last):
    """Bareiss pivot of T / D about T[r][k]; returns the new D, kept > 0.
    The rule is deterministic in (X, Y, last), so a repeat is a cycle."""
    if (state := (tuple(X), tuple(Y), last)) in seen:
        raise BudgetExceededError(f"LP pivot rule cycles after {len(seen)} pivots")
    seen.add(state)
    s = 1 if T[r][k] > 0 else -1
    Tr = T[r] = [s * y for y in T[r]]
    p = Tr[k]
    for i, Ti in enumerate(T):
        if i == r:
            continue
        if f := Ti[k]:
            T[i] = [(x * p - f * y) // D for x, y in zip(Ti, Tr)]
            T[i][k] = -s * f
        elif p != D:
            T[i] = [x * p // D for x in Ti]
    Tr[k] = s * D
    X[k], Y[r] = Y[r], X[k]
    return p


def lp_maximize(c, A, b):
    """Maximize c.y subject to A y <= b and y >= 0; returns (optimum, y).
    Raises LpInfeasible, LpUnbounded, or BudgetExceededError (see above)."""
    m, n = len(A), len(c)
    obj, scale = _scaled([-x for x in c] + [0])
    T = [_scaled(list(row) + [bi])[0] for row, bi in zip(A, b)] + [obj]
    X, Y = list(range(n)), list(range(n, n + m))  # x_j is j, slack i is n + i
    D, last, seen = 1, None, set()
    while (k := next((i for i in range(m) if T[i][-1] < 0), None)) is not None:
        cols = [j for j in range(n) if T[k][j] < 0]
        if not cols:
            raise LpInfeasible("LP infeasible")
        j = min(cols, key=X.__getitem__)
        r = _leaving(T, [i for i in range(m) if T[i][j] > 0 and T[i][-1] > 0] + [k], j, Y)
        if (r, j) == last:
            last = True
            break
        D, last = _pivot(T, r, j, D, X, Y, seen, last), (r, j)
    while cols := [j for j in range(n) if T[m][j] < 0]:
        j = min(cols, key=X.__getitem__)
        rows = [i for i in range(m) if T[i][j] > 0]
        if not rows:
            raise LpUnbounded("LP unbounded")
        # Bland's rule cycles only from the infeasible basis a repeated pivot left
        D = _pivot(T, _leaving(T, rows, j, Y), j, D, X, Y, seen, last)
    basic = {label: i for i, label in enumerate(Y)}
    y = tuple(Fraction(T[basic[j]][-1], D) if j in basic else Fraction(0) for j in range(n))
    # phase two leaves no reduced cost < 0, so sympy's sign check is y >= 0
    if last is True and any(v < 0 for v in y):
        raise LpInfeasible("LP infeasible: pivot rule stopped at a point with y < 0")
    if last is True and any(sum(a * v for a, v in zip(row, y)) > bi for row, bi in zip(A, b)):
        raise BudgetExceededError("LP pivot rule stopped on a repeated pivot outside A y <= b")
    return Fraction(T[m][-1], D * scale), y
