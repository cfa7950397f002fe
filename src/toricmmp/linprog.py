"""Exact LP in standard form: maximize c.y subject to A y <= b and y >= 0,
for ample heights and cone membership; Fractions out.

A fraction-free port of sympy 1.14's `_simplex` pivot rule, so it returns
sympy's vertex: phase one pivots on the first row with b_i < 0 and stops on
a repeated pivot, phase two is Bland's rule; columns enter by least label
(x before slack), rows leave by least ratio, then label.  Rows are scaled to
integers by positive lcms and pivoted fraction-free (Bareiss), so each
decision is an exact sign or cross-multiplied ratio test.

Each row keeps its own positive denominator, the D of the last pivot that
rewrote it (lazy Bareiss).  A pivot rewrites only the rows with a nonzero
entry in its column; the others stand unchanged over their older D.  Signs
and ratios within a row do not depend on its denominator, so a stale row is
brought up to the current D (x * D // D_i, exact since Bareiss entries are
minors) only when it becomes the pivot row.

Where sympy's rule cycles or stops outside A y <= b, BudgetExceededError is
raised.  The rule is deterministic in (labels, last pivot), so a ledger of
those states finds a cycle.  It is kept only in phase one and after a
repeated-pivot stop: Bland's rule from a feasible basis cannot cycle (Bland
1977).  An LP with b >= 0 starts feasible and keeps none; so do the
ample_heights LPs of fans whose rays lie at height one, where every wall
relation sums to 0.
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
    """The row of least ratio T[i][-1] / T[i][k], ties to the least label.
    A row's entries share one positive denominator, so its ratio is exact."""
    best = None
    for i in rows:
        Ti = T[i]
        num, den = (Ti[-1], Ti[k]) if Ti[k] > 0 else (-Ti[-1], -Ti[k])
        if best is None or (a := num * bden) < (z := bnum * den) or a == z and Y[i] < Y[best]:
            best, bnum, bden = i, num, den
    return best


def _visit(seen, X, Y, last):
    """Enter the rule's state in the ledger seen.  The rule is deterministic
    in (X, Y, last), so a repeat is a cycle."""
    if (state := (tuple(X), tuple(Y), last)) in seen:
        raise BudgetExceededError(f"LP pivot rule cycles after {len(seen)} pivots")
    seen.add(state)


def _pivot(T, dens, r, k, D, X, Y):
    """Bareiss pivot about T[r][k] at the current denominator D; returns the
    new D, the pivot, kept > 0.  Row i stands for T[i] / dens[i].  The pivot
    row is first brought up to D; only the rows with a nonzero entry in
    column k are rewritten, each over its own denominator."""
    Tr = T[r]
    if dens[r] != D:
        Tr = [x * D // dens[r] for x in Tr]
    s = 1 if Tr[k] > 0 else -1
    if s < 0:
        Tr = [-x for x in Tr]
    T[r], p = Tr, Tr[k]
    rows = [i for i, Ti in enumerate(T) if Ti[k] and i != r]
    Tr[k] = p + s * D  # column k of a rewritten row comes out -s * f * D // Di
    for i in rows:
        Ti, Di = T[i], dens[i]
        f = Ti[k]
        T[i] = [(x * p - f * y) // Di for x, y in zip(Ti, Tr)]
        dens[i] = p
    Tr[k] = s * D
    dens[r] = p
    X[k], Y[r] = Y[r], X[k]
    return p


def lp_maximize(c, A, b):
    """Maximize c.y subject to A y <= b and y >= 0; returns (optimum, y).
    Raises LpInfeasible, LpUnbounded, or BudgetExceededError (see above)."""
    m, n = len(A), len(c)
    obj, scale = _scaled([-x for x in c] + [0])
    T = [_scaled(list(row) + [bi])[0] for row, bi in zip(A, b)] + [obj]
    X, Y = list(range(n)), list(range(n, n + m))  # x_j is j, slack i is n + i
    dens, D, last, seen = [1] * (m + 1), 1, None, set()
    while (k := next((i for i in range(m) if T[i][-1] < 0), None)) is not None:
        cols = [j for j in range(n) if T[k][j] < 0]
        if not cols:
            raise LpInfeasible("LP infeasible")
        j = min(cols, key=X.__getitem__)
        r = _leaving(T, [i for i in range(m) if T[i][j] > 0 and T[i][-1] > 0] + [k], j, Y)
        if (r, j) == last:
            last = True
            break
        _visit(seen, X, Y, last)
        D, last = _pivot(T, dens, r, j, D, X, Y), (r, j)
    while cols := [j for j in range(n) if T[m][j] < 0]:
        j = min(cols, key=X.__getitem__)
        rows = [i for i in range(m) if T[i][j] > 0]
        if not rows:
            raise LpUnbounded("LP unbounded")
        if last is True:  # Bland's rule cannot cycle from a feasible basis
            _visit(seen, X, Y, last)
        D = _pivot(T, dens, _leaving(T, rows, j, Y), j, D, X, Y)
    basic = {label: i for i, label in enumerate(Y)}
    y = tuple(Fraction(T[i][-1], dens[i]) if (i := basic.get(j)) is not None else Fraction(0)
              for j in range(n))
    # phase two leaves no reduced cost < 0, so sympy's sign check is y >= 0
    if last is True and any(v < 0 for v in y):
        raise LpInfeasible("LP infeasible: pivot rule stopped at a point with y < 0")
    if last is True and any(sum(a * v for a, v in zip(row, y)) > bi for row, bi in zip(A, b)):
        raise BudgetExceededError("LP pivot rule stopped on a repeated pivot outside A y <= b")
    return Fraction(T[m][-1], dens[m] * scale), y
