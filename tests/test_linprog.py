import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from corpus import flop_case, lp_fractions

import toricmmp.linprog as linprog_module
import toricmmp.mmp as mmp
from toricmmp.errors import InvalidInputError, NonProjectiveError, _exact_ints
from toricmmp.fan import _Subdivision, make_fan, star_subdivision
from toricmmp.lattice import primitive
from toricmmp.linprog import LpUnbounded, lp_maximize


def test_free_variables_chebyshev():
    # maximize t with t <= x, t <= 1 - x
    opt, y = lp_fractions([0, 1], [[-1, 1], [1, 1]], [0, 1])
    assert opt == Fraction(1, 2)
    assert y == (Fraction(1, 2), Fraction(1, 2))


def test_box_bounds():
    # x in [-1, 1] as y0 = x + 1 <= 2, and y1 <= 2: caps as plain rows, or
    # as bounds on an LP with no rows at all
    for lp in (([1, 1], [[1, 0], [0, 1]], [2, 2]), ([1, 1], [], [], [2, 2])):
        assert lp_maximize(*lp) == ((2, 2), 1)
        assert lp_fractions(*lp) == (4, (2, 2))


def test_negative_right_hand_side_raises():
    # the origin must be feasible: there is no phase one
    with pytest.raises(ValueError, match="b >= 0"):
        lp_maximize([0], [[1]], [-1])
    with pytest.raises(ValueError):
        lp_maximize([1, 1], [[1, 1], [-1, -1]], [1, Fraction(-1, 2)])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        lp_maximize([1], [[-1]], [0])
    # x - y <= 1 leaves the ray (1, 1) open
    with pytest.raises(LpUnbounded):
        lp_maximize([1, 0], [[1, -1]], [1])


def test_exact_rational_data():
    opt, y = lp_fractions([Fraction(1, 3)], [[Fraction(2, 7)]], [Fraction(3, 5)])
    assert opt == Fraction(1, 3) * Fraction(21, 10)
    assert y == (Fraction(21, 10),)


def _exchange(rows, r, k):
    """The simplex exchange step about rows[r][k] on an exact tableau."""
    a, top = rows[r][k], rows[r]
    out = [[x - row[k] * y / a for x, y in zip(row, top)] for row in rows]
    for i, row in enumerate(rows):
        out[i][k] = -row[k] / a
    out[r] = [y / a for y in top]
    out[r][k] = 1 / a
    return out


def test_mixed_rows_and_rescaled_zero_column(monkeypatch):
    # a Fraction row among integer rows.  A pivot with p != D leaves the
    # rows with 0 in the pivot column at their old denominator: each pivot
    # must still be the exchange step on the exact tableau, and a row left
    # that way must later be pivoted on or rewritten
    stale, used, real_pivot = set(), set(), linprog_module._pivot

    def exact(T, dens):
        return [[Fraction(x, d) for x in row] for row, d in zip(T, dens)]

    def spy(T, dens, r, k, D, X, Y):
        want = _exchange(exact(T, dens), r, k)
        touched = {r} | {i for i, row in enumerate(T) if row[k]}
        used.update(stale & touched)
        p = real_pivot(T, dens, r, k, D, X, Y)
        assert exact(T, dens) == want
        stale.difference_update(touched)
        if p != D:
            stale.update(set(range(len(T))) - touched)
        return p

    monkeypatch.setattr(linprog_module, "_pivot", spy)
    c, A, b = [2, 2], [[2, Fraction(2, 3)], [0, 4], [0, 2]], [Fraction(1, 2), 1, 3]
    assert lp_fractions(c, A, b) == (Fraction(5, 6), (Fraction(1, 6), Fraction(1, 4)))
    assert used
    assert lp_fractions(c, A, b) == _sympy_maximize(c, A, b)


def _with_cap_rows(c, A, b, upper):
    """The LP with each cap y_j <= upper[j] posed as a row e_j.y <= upper[j]."""
    caps = [j for j, u in enumerate(upper) if u is not None]
    return (c, list(A) + [[int(i == j) for i in range(len(c))] for j in caps],
            list(b) + [upper[j] for j in caps])


def _exact_tableau(c, A, b, upper, X, Y):
    """From scratch: the tableau of the LP with cap rows (lp_maximize's row
    scaling, cap slacks labelled after the wall slacks) at the basis that
    leaves the labels X nonbasic.  The rows of Y's basics, then the
    objective, each over the columns X and the right-hand side."""
    n, (c, A, b) = len(c), _with_cap_rows(c, A, b, upper)
    size = n + len(A)
    eqs = [linprog_module._scaled(list(row) + [bi])[0] for row, bi in zip(A, b)]
    eqs = [row[:-1] + [int(i == l) for l in range(len(A))] + row[-1:] for i, row in enumerate(eqs)]
    basic = list(Y) + [l for l in range(size) if l not in X and l not in Y]
    M = [[Fraction(e[l]) for l in basic + list(X)] + [Fraction(e[-1])] for e in eqs]
    for j in range(len(basic)):  # Gauss-Jordan on the basic columns
        r = next(i for i in range(j, len(M)) if M[i][j])
        top = [x / M[r][j] for x in M[r]]
        M[r], M[j] = M[j], top
        M = [row if i == j else [x - row[j] * y for x, y in zip(row, M[j])]
             for i, row in enumerate(M)]
    obj, _ = linprog_module._scaled([-x for x in c] + [0])
    cost = dict(enumerate(obj[:-1]))
    objrow = [Fraction(cost.get(l, 0)) for l in X] + [Fraction(0)]
    for l, row in zip(basic, M):
        objrow = [o - cost.get(l, 0) * x for o, x in zip(objrow, row[len(basic):])]
    return [row[len(basic):] for row in M[:len(Y)]] + [objrow]


def test_capped_steps_keep_the_exact_tableau(monkeypatch):
    # caps kept as bounds: an entering column that reaches its cap is
    # complemented in place and a basic that reaches its cap has its row
    # complemented before the pivot; every tableau, before and after each
    # pivot, is the exact one of the LP with cap rows at the same basis
    c, A, b, upper = [1, 1, 1], [[-2, -2, -1], [Fraction(1, 3), Fraction(-3, 2), Fraction(2, 3)],
                                [3, -2, -2]], [0, 1, 3], [2, 1, None]
    labels, steps, real_pivot = [], Counter(), linprog_module._pivot

    def check(T, dens, X, Y):
        exact = [[Fraction(x, d) for x in row] for row, d in zip(T, dens)]
        assert exact == _exact_tableau(c, A, b, upper, X, Y)

    def spy(T, dens, r, k, D, X, Y):
        if labels:  # what changed since the last pivot is a complement
            steps["column"] += labels[-1][0] != X
            steps["row"] += labels[-1][1] != Y
        check(T, dens, X, Y)
        p = real_pivot(T, dens, r, k, D, X, Y)
        check(T, dens, X, Y)
        labels.append((list(X), list(Y)))
        return p

    monkeypatch.setattr(linprog_module, "_pivot", spy)
    want = (Fraction(23, 4), (Fraction(2), Fraction(1), Fraction(11, 4)))
    assert lp_fractions(c, A, b, upper) == want
    assert steps == {"column": 1, "row": 1} and len(labels) == 3
    monkeypatch.undo()
    assert lp_fractions(*_with_cap_rows(c, A, b, upper)) == want


def test_caps_as_bounds_match_caps_as_rows():
    # the same (optimum, vertex) or LpUnbounded as the LP with one row per
    # cap, over integer and Fraction rows and mostly-zero b
    rng = random.Random(26)
    counts = Counter()
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        entry = (lambda: rng.randint(-3, 3)) if rng.random() < 0.5 else \
            (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        A = [[entry() for _ in range(n)] for _ in range(m)]
        b = [0 if rng.random() < 0.75 else abs(entry()) for _ in range(m)]
        c = [entry() for _ in range(n)]
        upper = [rng.choice([None, 0, 1, 2, 3, 5]) for _ in range(n)]
        kind, got = _outcome(lambda *lp: lp_fractions(*lp, upper=upper), c, A, b)
        assert (kind, got) == _outcome(lp_fractions, *_with_cap_rows(c, A, b, upper)), (c, A, b, upper)
        counts[kind] += 1
    assert counts["optimal"] >= 1200 and counts["LpUnbounded"] >= 50, counts


@pytest.mark.parametrize("upper", [[1], [1, 2, 3], [-1, 1], [1, Fraction(1, 2)], [1.0, 1], [True, 1]])
def test_caps_must_be_one_nonnegative_int_or_none_per_column(upper):
    with pytest.raises(InvalidInputError, match="one cap per column"):
        lp_maximize([1, 1], [[1, 1]], [1], upper)


# ------------------------------- differential against the Fraction read-out


def _fraction_lp_maximize(c, A, b, upper=None, seen=None):
    """lp_maximize as it was when it read its vertex out as Fractions, one
    per basic row and a Fraction(0) per nonbasic column, as the oracle:
    the same pivots, then (optimum, vertex) in Fractions.  Counts its
    column and row complements in seen."""
    seen = Counter() if seen is None else seen
    m, n = len(A), len(c)
    obj, scale = linprog_module._scaled([-x for x in c] + [0])
    T = [linprog_module._scaled(list(row) + [bi])[0] for row, bi in zip(A, b)] + [obj]
    X, Y = list(range(n)), list(range(n, n + m))
    caps = {}
    for s, j in enumerate((j for j in range(n) if upper and upper[j] is not None), n + m):
        caps[j], caps[s] = (upper[j], s), (upper[j], j)
    dens, D = [1] * (m + 1), 1
    while cols := [j for j in range(n) if T[m][j] < 0]:
        k = min(cols, key=X.__getitem__)
        best = (caps[X[k]][0], 1, caps[X[k]][1], None) if X[k] in caps else None
        for i in range(m):
            if (f := T[i][k]) > 0:
                cand = (T[i][-1], f, Y[i], i)
            elif f < 0 and Y[i] in caps:
                u, label = caps[Y[i]]
                cand = (u * dens[i] - T[i][-1], -f, label, i)
            else:
                continue
            if best is None or (a := cand[0] * best[1]) < (z := best[0] * cand[1]) \
                    or a == z and cand[2] < best[2]:
                best = cand
        if best is None:
            raise LpUnbounded("LP unbounded")
        _, _, label, r = best
        if r is None:
            seen["column"] += 1
            u = caps[X[k]][0]
            for Ti in T:
                if f := Ti[k]:
                    Ti[-1] -= f * u
                    Ti[k] = -f
            X[k] = label
            continue
        if label != Y[r]:
            seen["row"] += 1
            T[r] = [-x for x in T[r]]
            T[r][-1] += caps[label][0] * dens[r]
            Y[r] = label
        D = linprog_module._pivot(T, dens, r, k, D, X, Y)
    value = {label: Fraction(T[i][-1], dens[i]) for i, label in enumerate(Y)}
    for j in range(n):
        if j in caps and j not in value and j not in X:
            value[j] = Fraction(caps[j][0]) - value.get(caps[j][1], 0)
    return Fraction(T[m][-1], dens[m] * scale), tuple(value.get(j, Fraction(0)) for j in range(n))


def _fraction_ample_heights(n_rays, rels):
    """mmp._ample_heights as it was: the Fraction vertex cleared to
    integers over the lcm of its denominators."""
    rels = list(rels)
    if not rels:
        return [0] * n_rays, 1
    A = []
    for indices, coeffs in rels:
        row = [0] * (n_rays + 2)
        for i, a in zip(indices, coeffs):
            row[i] = -a
        row[n_rays], row[-1] = 1, sum(coeffs)
        A.append(row)
    _, y = _fraction_lp_maximize([0] * n_rays + [1, 1], A, [0] * len(A), [2] * n_rays + [1, 1])
    if y[n_rays] <= 0:
        raise NonProjectiveError("no strictly convex height function exists")
    D = lcm(y[-1].denominator, *(v.denominator for v in y[:n_rays]))
    W = y[-1].numerator * (D // y[-1].denominator)
    return [v.numerator * (D // v.denominator) - W for v in y[:n_rays]], D


def _agrees_with_fraction_read_out(c, A, b, upper=None, seen=None):
    """The outcome of lp_maximize, read as Fractions, equals the oracle's;
    returns that outcome's kind."""
    kind, want = _outcome(lambda *lp: _fraction_lp_maximize(*lp, upper, seen), c, A, b)
    assert _outcome(lambda *lp: lp_fractions(*lp, upper), c, A, b) == (kind, want), (c, A, b, upper)
    return kind


# textbook LPs on which Dantzig's rule cycles from the slack basis, as
# (c, A, b, optimum): Beale's (1955), and Chvatal's in "Linear
# Programming" (1983), ch. 3; Bland's rule reaches the optimum
CYCLING = [
    ([Fraction(3, 4), -20, Fraction(1, 2), -6],
     [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3], [0, 0, 1, 0]],
     [0, 0, 1], Fraction(5, 4)),
    ([10, -57, -9, -24],
     [[Fraction(1, 2), Fraction(-11, 2), Fraction(-5, 2), 9],
      [Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), 1], [1, 0, 0, 0]],
     [0, 0, 1], 1),
]


@pytest.mark.parametrize("c, A, b, optimum", CYCLING)
def test_cycling_lps_match_the_fraction_read_out(c, A, b, optimum):
    # with and without caps: as rows only, and with extra integer caps on
    # some columns, loose and tight
    assert lp_fractions(c, A, b)[0] == optimum
    for upper in (None, [None] * 4, [2, None, 1, None], [1, 1, 1, 1], [0, None, 3, 5]):
        _agrees_with_fraction_read_out(c, A, b, upper)


def test_ample_heights_corpus_lps_match_the_fraction_read_out(monkeypatch):
    # the 200 LPs of ample_heights on both fans of corpus seeds 0-99: the
    # integer vertex y / D is the Fraction read-out's, entry by entry
    lps, real = [], mmp.lp_maximize
    cases = [flop_case(seed)[:2] for seed in range(100)]
    monkeypatch.setattr(mmp, "lp_maximize", lambda *lp: lps.append(lp) or real(*lp))
    for pair in (pair for case in cases for pair in case):
        mmp.ample_heights(pair.fan)
    assert len(lps) == 200
    for c, A, b, upper in lps:
        y, D = real(c, A, b, upper)
        assert tuple(Fraction(v, D) for v in y) == _fraction_lp_maximize(c, A, b, upper)[1]


def test_ample_heights_integers_match_the_fraction_read_out():
    # _ample_heights hands the sweep today's exact (H, D) on both fans of
    # corpus seeds 0-199, not only the same heights H / D
    for seed in range(200):
        for pair in flop_case(seed)[:2]:
            rels = [(rel.ray_indices, rel.coeffs) for _, rel in _Subdivision(pair.fan).relations()]
            n = len(pair.fan.rays)
            assert mmp._ample_heights(n, rels) == _fraction_ample_heights(n, rels), seed


def test_random_lps_match_the_fraction_read_out():
    # integer and Fraction rows, b = 0 and b > 0, no caps, None caps and
    # int caps: the same vertex or LpUnbounded, through column and row
    # complements
    rng = random.Random(36)
    counts, seen = Counter(), Counter()
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        entry = (lambda: rng.randint(-3, 3)) if rng.random() < 0.5 else \
            (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        A = [[entry() for _ in range(n)] for _ in range(m)]
        b = [0 if rng.random() < 0.5 else abs(entry()) for _ in range(m)]
        c = [entry() for _ in range(n)]
        upper = rng.choice([None, [rng.choice([None, 0, 1, 2, 3, 5]) for _ in range(n)]])
        counts[_agrees_with_fraction_read_out(c, A, b, upper, seen)] += 1
        counts["fraction rows"] += any(type(x) is Fraction for row in A for x in row)
        counts["b > 0"] += any(b)
    assert counts["optimal"] >= 600 and counts["LpUnbounded"] >= 200, counts
    assert counts["fraction rows"] >= 500 and counts["b > 0"] >= 500, counts
    assert seen["column"] >= 100 and seen["row"] >= 20, seen


# ----------------------------------------- differential against the old loop


# lp_maximize and _pivot as they were before the ratio test kept only its
# running best and the pivot rewrote its rows in place, copied verbatim but
# for the names: the oracle of the same rule, labels and vertex (y, D)
def _oracle_pivot(T, dens, r, k, D, X, Y):
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


def _oracle_lp_maximize(c, A, b, upper=None):
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
    obj, _ = linprog_module._scaled([-x for x in c] + [0])
    T = [linprog_module._scaled(list(row) + [bi])[0] for row, bi in zip(A, b)] + [obj]
    X, Y = list(range(n)), list(range(n, n + m))  # x_j is j, slack i is n + i
    caps = {}  # label: (cap, label of its complement); cap slacks from n + m
    for s, j in enumerate((j for j in range(n) if upper and upper[j] is not None), n + m):
        caps[j], caps[s] = (upper[j], s), (upper[j], j)
    dens, D = [1] * (m + 1), 1
    while cols := [j for j in range(n) if T[m][j] < 0]:
        k = min(cols, key=X.__getitem__)
        best = (caps[X[k]][0], 1, caps[X[k]][1], None) if X[k] in caps else None
        for i in range(m):
            if (f := T[i][k]) > 0:
                cand = (T[i][-1], f, Y[i], i)
            elif f < 0 and Y[i] in caps:
                u, label = caps[Y[i]]
                cand = (u * dens[i] - T[i][-1], -f, label, i)
            else:
                continue
            if best is None or (a := cand[0] * best[1]) < (z := best[0] * cand[1]) \
                    or a == z and cand[2] < best[2]:
                best = cand
        if best is None:
            raise LpUnbounded("LP unbounded")
        _, _, label, r = best
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
        D = _oracle_pivot(T, dens, r, k, D, X, Y)
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


def _same_vertex(c, A, b, upper=None):
    """lp_maximize returns the oracle's (y, D), or both raise LpUnbounded;
    returns the outcome's kind."""
    kind, want = _outcome(lambda *lp: _oracle_lp_maximize(*lp, upper), c, A, b)
    assert _outcome(lambda *lp: lp_maximize(*lp, upper), c, A, b) == (kind, want), (c, A, b, upper)
    return kind


def test_flop_corpus_lps_keep_the_old_loops_vertex(monkeypatch):
    # both ample heights LPs of corpus seeds 0-199, through the sweep's name
    lps, real = [], mmp.lp_maximize
    cases = [flop_case(seed)[:2] for seed in range(200)]
    monkeypatch.setattr(mmp, "lp_maximize", lambda *lp: lps.append(lp) or real(*lp))
    for pair in (pair for case in cases for pair in case):
        mmp.ample_heights(pair.fan)
    assert len(lps) == 400
    assert all(_same_vertex(*lp) == "optimal" for lp in lps)


def test_flop_corpus_lps_give_one_vertex_for_ints_and_fractions(monkeypatch):
    # both ample heights LPs of corpus seeds 0-99, and the same LPs with
    # every entry of c, A and b a Fraction: one (y, D), the old loop's, as
    # the entering scan reads only signs, which scaling a row keeps
    lps, real = [], mmp.lp_maximize
    cases = [flop_case(seed)[:2] for seed in range(100)]
    monkeypatch.setattr(mmp, "lp_maximize", lambda *lp: lps.append(lp) or real(*lp))
    for pair in (pair for case in cases for pair in case):
        mmp.ample_heights(pair.fan)
    assert len(lps) == 200
    for c, A, b, upper in lps:
        fc, fb = [Fraction(x) for x in c], [Fraction(x) for x in b]
        fA = [[Fraction(x) for x in row] for row in A]
        want = lp_maximize(c, A, b, upper)
        assert lp_maximize(fc, fA, fb, upper) == want == _oracle_lp_maximize(fc, fA, fb, upper)


def test_random_lps_keep_the_old_loops_vertex():
    # the 1,500 LPs of test_random_lps_match_the_fraction_read_out
    rng = random.Random(36)
    counts = Counter()
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        entry = (lambda: rng.randint(-3, 3)) if rng.random() < 0.5 else \
            (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        A = [[entry() for _ in range(n)] for _ in range(m)]
        b = [0 if rng.random() < 0.5 else abs(entry()) for _ in range(m)]
        c = [entry() for _ in range(n)]
        upper = rng.choice([None, [rng.choice([None, 0, 1, 2, 3, 5]) for _ in range(n)]])
        counts[_same_vertex(c, A, b, upper)] += 1
    assert counts["optimal"] >= 600 and counts["LpUnbounded"] >= 200, counts


@pytest.mark.parametrize("c, A, b, optimum", CYCLING)
def test_cycling_lps_keep_the_old_loops_vertex(c, A, b, optimum):
    for upper in (None, [None] * 4, [2, None, 1, None], [1, 1, 1, 1], [0, None, 3, 5]):
        _same_vertex(c, A, b, upper)


# ------------------------------------------------- differential against sympy


def _outcome(solve, c, A, b):
    try:
        return "optimal", solve(c, A, b)
    except LpUnbounded as e:
        return type(e).__name__, str(e)


def _sympy_maximize(c, A, b):
    """The former sympy-backed lp_maximize, as the oracle.  Takes any b;
    sympy's InfeasibleLPError passes through."""
    from sympy import Rational
    from sympy.solvers.simplex import UnboundedLPError, linprog

    def frac(x):
        return Fraction(x) if isinstance(x, int) else Fraction(int(x.p), int(x.q))

    try:
        val, y = linprog([-Rational(x) for x in c],
                         [[Rational(x) for x in row] for row in A],
                         [Rational(x) for x in b])
    except UnboundedLPError:
        raise LpUnbounded("LP unbounded")
    return -frac(val), tuple(frac(v) for v in y)


def _agree(lps):
    """Run the port and sympy on every LP; returns the count of each
    outcome."""
    counts = Counter()
    for c, A, b in lps:
        kind, mine = _outcome(lp_fractions, c, A, b)
        assert _outcome(_sympy_maximize, c, A, b) == (kind, mine), (c, A, b)
        counts[kind] += 1
    return counts


def _random_lps(rng, count, entry):
    # b >= 0, so the origin is feasible
    lps = []
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        lps.append(([entry() for _ in range(n)],
                    [[entry() for _ in range(n)] for _ in range(m)],
                    [abs(entry()) for _ in range(m)]))
    return lps


def test_matches_sympy_on_ample_heights_corpus(monkeypatch):
    pytest.importorskip("sympy")
    lps = []

    def recording(c, A, b, upper):
        lps.append((c, A, b, upper))
        return lp_maximize(c, A, b, upper)

    cases = [flop_case(seed)[:2] for seed in range(100)]
    monkeypatch.setattr(mmp, "lp_maximize", recording)
    for px, py in cases:
        mmp.ample_heights(px.fan)
        mmp.ample_heights(py.fan)
    assert len(lps) == 200
    # sympy has no bounds: it gets the caps as rows
    counts = Counter()
    for c, A, b, upper in lps:
        kind, mine = _outcome(lambda *lp: lp_fractions(*lp, upper), c, A, b)
        assert _outcome(_sympy_maximize, *_with_cap_rows(c, A, b, upper)) == (kind, mine)
        counts[kind] += 1
    assert counts == {"optimal": 200}


def test_matches_sympy_on_random_integer_lps():
    pytest.importorskip("sympy")
    rng = random.Random(11)
    counts = _agree(_random_lps(rng, 1000, lambda: rng.randint(-3, 3)))
    assert counts["optimal"] >= 500 and counts["LpUnbounded"] >= 250, counts


def test_matches_sympy_on_random_fraction_lps():
    pytest.importorskip("sympy")
    rng = random.Random(12)
    counts = _agree(_random_lps(
        rng, 300, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
    assert counts["optimal"] >= 150 and counts["LpUnbounded"] >= 80, counts


def test_matches_sympy_on_degenerate_feasible_lps():
    # b >= 0 with most b_i = 0, as in ample_heights: the origin is a
    # degenerate feasible basis; half the LPs get caps y_j <= u_j, so most
    # are bounded
    pytest.importorskip("sympy")
    rng = random.Random(13)
    lps = []
    for _ in range(600):
        m, n = rng.randint(2, 7), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [0 if rng.random() < 0.75 else rng.randint(1, 3) for _ in range(m)]
        if rng.random() < 0.5:
            A += [[int(i == j) for i in range(n)] for j in range(n)]
            b += [rng.randint(1, 3) for _ in range(n)]
        lps.append(([rng.randint(-2, 3) for _ in range(n)], A, b))
    counts = _agree(lps)
    assert counts["optimal"] >= 400 and counts["LpUnbounded"] >= 50, counts
    assert set(counts) == {"optimal", "LpUnbounded"}


# ------------------------- ample heights off height one, against the box LP

P3 = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
ORTHANT = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
# nested triangles, pinwheel triangulation: not projective at these rays
PINWHEEL = ([(0, 0, 1), (4, 0, 1), (0, 4, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)],
            [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (2, 0, 5), (0, 5, 3), (3, 4, 5)])


def _stars(rng, fan, lo, hi):
    for _ in range(rng.randint(1, 6)):
        v = tuple(rng.randint(lo, hi) for _ in range(3))
        if any(v) and primitive(v) not in fan.rays:
            fan = star_subdivision(fan, v)
    return fan


def _jittered_pinwheel(rng):
    rays, cones = PINWHEEL
    while True:
        moved = [primitive((rng.randint(2, 3) * x + rng.randint(-1, 1),
                            rng.randint(2, 3) * y + rng.randint(-1, 1),
                            rng.randint(1, 3) * z)) for x, y, z in rays]
        try:
            return make_fan(moved, cones)
        except InvalidInputError:
            pass


def _box_lp(fan):
    """The ample_heights LP as posed before it was homogenized: maximize t
    over y = (h + 1, t) in [0, 2]^n x [0, 1], with one row t - d(y - 1) <= 0
    per wall, d its defect; b < 0 wherever a relation sums to > 0."""
    n = len(fan.rays)
    A, b = [], []
    for _, rel in _Subdivision(fan).relations():
        row = [0] * (n + 1)
        for i, a in zip(rel.ray_indices, rel.coeffs):
            row[i] = -a
        row[n] = 1
        A.append(row)
        b.append(-sum(rel.coeffs))
    A += [[0] * k + [1] + [0] * (n - k) for k in range(n + 1)]
    return [0] * n + [1], A, b + [2] * n + [1]


def _off_height_one_fans(rng, count):
    """count fans, in turn star subdivisions of P^3's fan and of the
    orthant and jittered pinwheels, each with some wall relation of nonzero
    sum, as (fan, its wall relations)."""
    made = 0
    while made < count:
        if made % 3 == 0:
            fan = _stars(rng, P3, -3, 3)
        elif made % 3 == 1:
            fan = _stars(rng, ORTHANT, 0, 3)
        else:
            fan = _jittered_pinwheel(rng)
        rels = [(rel.ray_indices, rel.coeffs) for _, rel in _Subdivision(fan).relations()]
        if any(sum(coeffs) for _, coeffs in rels):
            made += 1
            yield fan, rels


def test_ample_heights_matches_box_lp_off_height_one():
    # NonProjectiveError exactly when the box LP's optimum is <= 0, and
    # heights strictly convex across every wall otherwise
    pytest.importorskip("sympy")
    seen = Counter()
    for fan, rels in _off_height_one_fans(random.Random(23), 300):
        if _sympy_maximize(*_box_lp(fan))[0] <= 0:
            with pytest.raises(NonProjectiveError):
                mmp.ample_heights(fan)
            seen["non-projective"] += 1
        else:
            h = mmp.ample_heights(fan)
            assert all(sum(a * h[i] for i, a in zip(*rel)) > 0 for rel in rels)
            seen["projective"] += 1
    assert seen["non-projective"] >= 5, seen
