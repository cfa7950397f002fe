"""Exact LP in standard form: maximize c.y subject to A y <= b, y >= 0 and
integer caps y_j <= u_j, with b >= 0, for ample heights and cone
membership; integers out: the vertex as numerators over one denominator.

Every LP starts feasible at the origin, so one phase suffices: Bland's rule
from the slack basis, which cannot cycle (Bland 1977).  Columns enter by
least label (x before slack), rows leave by least ratio, then label; this is
the phase two of sympy 1.14's `_simplex`, so it returns sympy's vertex.  The
entering column is found in one scan of the objective row: the column of
least label among those with a negative entry, with no candidate list.
Rows are scaled to integers by positive lcms and pivoted fraction-free
(Bareiss), so each decision is an exact sign or cross-multiplied ratio test.

Each row keeps its own positive denominator, the D of the last pivot that
rewrote it (lazy Bareiss).  A pivot rewrites in place only the rows with a
nonzero entry in its column, dividing none still over its first D, 1; the
others stand unchanged over their older D.  Signs and ratios within a row
do not depend on its denominator, so a stale row is brought up to the
current D (x * D // D_i, exact since Bareiss entries are minors) only when
it becomes the pivot row.

Caps are bounds, not rows (Dantzig 1955), yet each step is the one the LP
with a row y_j + s_j = u_j per cap would take: labels run x, then wall
slacks, then cap slacks s_j in column order.  Of x_j and s_j, one is a
column or the basic of a wall row; the other stays implicit, its row u_j
minus the first's.  The ratio test adds each implicit row with a positive
entry in the entering column k, under the implicit variable's label: ratio
u_j for k's own cap, and (u_j D_r - b_r) / -T_rk when the basic of row r,
right-hand side b_r over denominator D_r, is capped and T_rk < 0.  An
entering column that reaches its cap is complemented in place (negated, the
right-hand side less u_j times it), with no pivot.  A capped basic that
reaches its cap has its row complemented (negated, right-hand side u_j D_r
minus its own, the label swapped), then the row is pivoted as usual.  Both
are integer column operations on the scaled system (u_j is an int) that
leave each D the determinant of its basis up to sign, so every entry stays
a signed minor and every // stays exact.

The same holds at the end: every row brought up to the last pivot's D is
an integer row, so the vertex is read off as integer numerators over that
one D, with no Fraction built for any row or column.
"""

from math import lcm

# Not used for solving: bench/run.py::_import_times takes a median over the
# sympy lines of `python -X importtime -c "import toricmmp"`.
import sympy  # noqa: F401

from .errors import InvalidInputError, _all_ints, _exact_ints


class LpUnbounded(Exception):
    pass


def _scaled(row):
    """The row times the positive lcm of its denominators, and that lcm."""
    if _all_ints(row):
        return row, 1
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _pivot(T, dens, r, k, D, X, Y):
    """Bareiss pivot about T[r][k] > 0 at the current denominator D; returns
    the new D, the pivot.  Row i stands for T[i] / dens[i].  The pivot row is
    first brought up to D; only the rows with a nonzero entry in column k
    are rewritten, each over its own denominator."""
    Tr = T[r]
    if dens[r] != D:
        Tr = T[r] = [x * D // dens[r] for x in Tr]
    p = Tr[k]
    Tr[k] = p + D  # column k of a rewritten row comes out -f * D // Di
    for i, Ti in enumerate(T):
        if (f := Ti[k]) and i != r:
            if (Di := dens[i]) == 1:  # no division by a first denominator
                T[i] = [x * p - f * y for x, y in zip(Ti, Tr)]
            else:
                T[i] = [(x * p - f * y) // Di for x, y in zip(Ti, Tr)]
            dens[i] = p
    Tr[k] = D
    dens[r] = p
    X[k], Y[r] = Y[r], X[k]
    return p


def lp_maximize(c, A, b, upper=None):
    """Maximize c.y subject to A y <= b, y >= 0 and y_j <= upper[j] for each
    upper[j] not None; returns (y, D), an optimal vertex as integer
    numerators y over one denominator D > 0, the last pivot's (not reduced),
    so the optimum is c.y / D.  Raises ValueError when some b_i < 0,
    InvalidInputError when upper is not one None or int >= 0 per column,
    LpUnbounded when c.y has no maximum."""
    if any(bi < 0 for bi in b):
        raise ValueError("lp_maximize needs b >= 0, so that the origin is feasible")
    m, n = len(A), len(c)
    msg = "lp_maximize needs one cap per column, each None or an int >= 0"
    if upper is not None and (len(upper) != n or any(
            u < 0 for u in _exact_ints((u for u in upper if u is not None), msg))):
        raise InvalidInputError(msg)
    obj, _ = _scaled([-x for x in c] + [0])
    T = [_scaled(list(row) + [bi])[0] for row, bi in zip(A, b)] + [obj]
    X, Y = list(range(n)), list(range(n, n + m))  # x_j is j, slack i is n + i
    caps, s = {}, n + m  # label: (cap, label of its complement); cap slacks from n + m
    for j, u in enumerate(upper or ()):
        if u is not None:
            caps[j], caps[s] = (u, s), (u, j)
            s += 1
    dens, D = [1] * (m + 1), 1
    while True:
        obj, k, least = T[m], None, s  # s is past every label
        for j, x in enumerate(X):
            if x < least and obj[j] < 0:
                k, least = j, x
        if k is None:
            break
        a, label = caps.get(X[k], (None, None))  # the running best: ratio a / q, label, row r
        q, r = 1, None
        for i in range(m):
            if (f := T[i][k]) > 0:
                ai, qi, li = T[i][-1], f, Y[i]
            elif f < 0 and Y[i] in caps:
                u, li = caps[Y[i]]
                ai, qi = u * dens[i] - T[i][-1], -f
            else:
                continue
            if label is None or (x := ai * q) < (z := a * qi) or x == z and li < label:
                a, q, label, r = ai, qi, li, i
        if label is None:
            raise LpUnbounded("LP unbounded")
        if r is None:  # x_k reaches its cap: complement column k in place
            u = caps[X[k]][0]
            for Ti in T:
                if f := Ti[k]:
                    Ti[-1] -= f * u
                    Ti[k] = -f
            X[k] = label
            continue
        if label != Y[r]:  # row r's basic reaches its cap: complement the row
            T[r] = [-x for x in T[r]]
            T[r][-1] += caps[label][0] * dens[r]
            Y[r] = label
        D = _pivot(T, dens, r, k, D, X, Y)
    at = {label: i for i, label in enumerate(Y)}
    y = []
    for j in range(n):
        if (i := at.get(j)) is not None:
            y.append(T[i][-1] * D // dens[i])
        elif j in caps and j not in X:  # x_j is u_j minus its cap slack
            i = at.get(caps[j][1])
            y.append(caps[j][0] * D - (0 if i is None else T[i][-1] * D // dens[i]))
        else:
            y.append(0)
    return tuple(y), D
