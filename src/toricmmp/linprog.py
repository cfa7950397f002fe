"""Exact LP in standard form: maximize c.y subject to A y <= b and y >= 0,
with b >= 0, for ample heights and cone membership; Fractions out.

Every LP starts feasible at the origin, so one phase suffices: Bland's rule
from the slack basis, which cannot cycle (Bland 1977).  Columns enter by
least label (x before slack), rows leave by least ratio, then label; this is
the phase two of sympy 1.14's `_simplex`, so it returns sympy's vertex.
Rows are scaled to integers by positive lcms and pivoted fraction-free
(Bareiss), so each decision is an exact sign or cross-multiplied ratio test.

Each row keeps its own positive denominator, the D of the last pivot that
rewrote it (lazy Bareiss).  A pivot rewrites only the rows with a nonzero
entry in its column; the others stand unchanged over their older D.  Signs
and ratios within a row do not depend on its denominator, so a stale row is
brought up to the current D (x * D // D_i, exact since Bareiss entries are
minors) only when it becomes the pivot row.
"""

from fractions import Fraction
from math import lcm

# Not used for solving: bench/run.py::_import_times takes a median over the
# sympy lines of `python -X importtime -c "import toricmmp"`.
import sympy  # noqa: F401


class LpUnbounded(Exception):
    pass


def _scaled(row):
    """The row times the positive lcm of its denominators, and that lcm."""
    if set(map(type, row)) == {int}:
        return row, 1
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _leaving(T, rows, k, Y):
    """The row of least ratio T[i][-1] / T[i][k], each T[i][k] > 0, ties to
    the least label.  A row's entries share one positive denominator, so its
    ratio is exact."""
    best = None
    for i in rows:
        num, den = T[i][-1], T[i][k]
        if best is None or (a := num * bden) < (z := bnum * den) or a == z and Y[i] < Y[best]:
            best, bnum, bden = i, num, den
    return best


def _pivot(T, dens, r, k, D, X, Y):
    """Bareiss pivot about T[r][k] > 0 at the current denominator D; returns
    the new D, the pivot.  Row i stands for T[i] / dens[i].  The pivot row is
    first brought up to D; only the rows with a nonzero entry in column k
    are rewritten, each over its own denominator."""
    Tr = T[r]
    if dens[r] != D:
        Tr = T[r] = [x * D // dens[r] for x in Tr]
    p = Tr[k]
    rows = [i for i, Ti in enumerate(T) if Ti[k] and i != r]
    Tr[k] = p + D  # column k of a rewritten row comes out -f * D // Di
    for i in rows:
        Ti, Di = T[i], dens[i]
        f = Ti[k]
        T[i] = [(x * p - f * y) // Di for x, y in zip(Ti, Tr)]
        dens[i] = p
    Tr[k] = D
    dens[r] = p
    X[k], Y[r] = Y[r], X[k]
    return p


def lp_maximize(c, A, b):
    """Maximize c.y subject to A y <= b and y >= 0; returns (optimum, y).
    Raises ValueError when some b_i < 0, LpUnbounded when c.y has no
    maximum."""
    if any(bi < 0 for bi in b):
        raise ValueError("lp_maximize needs b >= 0, so that the origin is feasible")
    m, n = len(A), len(c)
    obj, scale = _scaled([-x for x in c] + [0])
    T = [_scaled(list(row) + [bi])[0] for row, bi in zip(A, b)] + [obj]
    X, Y = list(range(n)), list(range(n, n + m))  # x_j is j, slack i is n + i
    dens, D = [1] * (m + 1), 1
    while cols := [j for j in range(n) if T[m][j] < 0]:
        j = min(cols, key=X.__getitem__)
        rows = [i for i in range(m) if T[i][j] > 0]
        if not rows:
            raise LpUnbounded("LP unbounded")
        D = _pivot(T, dens, _leaving(T, rows, j, Y), j, D, X, Y)
    basic = {label: i for i, label in enumerate(Y)}
    y = tuple(Fraction(T[i][-1], dens[i]) if (i := basic.get(j)) is not None else Fraction(0)
              for j in range(n))
    return Fraction(T[m][-1], dens[m] * scale), y
