import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from corpus import flop_case

import toricmmp.linprog as linprog_module
import toricmmp.mmp as mmp
from toricmmp.errors import BudgetExceededError
from toricmmp.linprog import LpInfeasible, LpUnbounded, lp_maximize


def test_free_variables_chebyshev():
    # maximize t with t <= x, t <= 1 - x
    opt, y = lp_maximize([0, 1], [[-1, 1], [1, 1]], [0, 1])
    assert opt == Fraction(1, 2)
    assert y == (Fraction(1, 2), Fraction(1, 2))


def test_box_bounds():
    # x in [-1, 1] as y0 = x + 1 <= 2, and y1 <= 2: caps are plain rows
    opt, y = lp_maximize([1, 1], [[1, 0], [0, 1]], [2, 2])
    assert opt == 4
    assert y == (2, 2)
    assert all(isinstance(v, Fraction) for v in (opt,) + y)


def test_infeasible_inequalities():
    with pytest.raises(LpInfeasible):
        lp_maximize([0], [[1]], [-1])
    with pytest.raises(LpInfeasible):
        lp_maximize([1, 1], [[1, 1], [-1, -1]], [1, -2])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        lp_maximize([1], [[-1]], [0])
    # x - y <= 1 leaves the ray (1, 1) open
    with pytest.raises(LpUnbounded):
        lp_maximize([1, 0], [[1, -1]], [1])


def test_exact_rational_data():
    opt, y = lp_maximize([Fraction(1, 3)], [[Fraction(2, 7)]], [Fraction(3, 5)])
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
    assert lp_maximize(c, A, b) == (Fraction(5, 6), (Fraction(1, 6), Fraction(1, 4)))
    assert used
    assert lp_maximize(c, A, b) == _sympy_maximize(c, A, b)


# Two LPs on which sympy's phase one cycles forever: its rule is
# deterministic in (basis arrangement, last pivot), and both revisit a state.
CYCLING = [
    ([-3, -1], [[1, 1], [3, 1], [-1, 2]], [1, 0, -1]),
    ([2, -2, 3, -2, -3],
     [[2, 1, -2, -3, 3], [1, 3, 1, -1, 1], [-1, -2, 1, 3, -3], [0, 0, 0, 3, -1],
      [1, -3, 2, 3, 1], [1, -2, -1, 1, -1]],
     [1, 1, 1, 0, -1, -1]),
]


def test_cycling_phase_one_raises_at_once():
    for c, A, b in CYCLING:
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="cycles"):
            lp_maximize(c, A, b)
        assert time.perf_counter() - start < 1


def test_repeated_pivot_stop_checks_the_point():
    # 3y <= 0 and -2y <= -2 leave nothing; sympy's phase one stops on a
    # repeated pivot and returns y = 2/3, which passes its sign check
    with pytest.raises(BudgetExceededError, match="outside A y <= b"):
        lp_maximize([2], [[3], [-2], [3], [-2], [3]], [0, -2, -3, 0, 2])


# ------------------------------------------------- differential against sympy


def _outcome(solve, c, A, b):
    try:
        return "optimal", solve(c, A, b)
    except (LpInfeasible, LpUnbounded, BudgetExceededError) as e:
        return type(e).__name__, str(e)


def _sympy_maximize(c, A, b):
    """The former sympy-backed lp_maximize, as the oracle."""
    from sympy import Rational
    from sympy.solvers.simplex import InfeasibleLPError, UnboundedLPError, linprog

    def frac(x):
        return Fraction(x) if isinstance(x, int) else Fraction(int(x.p), int(x.q))

    try:
        val, y = linprog([-Rational(x) for x in c],
                         [[Rational(x) for x in row] for row in A],
                         [Rational(x) for x in b])
    except InfeasibleLPError:
        raise LpInfeasible("LP infeasible")
    except UnboundedLPError:
        raise LpUnbounded("LP unbounded")
    return -frac(val), tuple(frac(v) for v in y)


def _agree(lps):
    """Run the port on every LP, then sympy wherever the port did not find
    a cycle (the rule is the same, so sympy then terminates too).  Returns
    the count of each outcome."""
    counts = Counter()
    for c, A, b in lps:
        kind, mine = _outcome(lp_maximize, c, A, b)
        if kind == "BudgetExceededError" and "cycles" in mine:
            counts["cycles"] += 1
            continue
        ref_kind, ref = _outcome(_sympy_maximize, c, A, b)
        if kind == "BudgetExceededError":
            # sympy returns a point that breaks A y <= b
            assert ref_kind == "optimal"
            assert any(sum(a * v for a, v in zip(row, ref[1])) > bi for row, bi in zip(A, b))
        else:
            assert ref_kind == kind and (kind != "optimal" or ref == mine), (c, A, b)
        counts[kind] += 1
    return counts


def _random_lps(rng, count, entry):
    lps = []
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        lps.append(([entry() for _ in range(n)],
                    [[entry() for _ in range(n)] for _ in range(m)],
                    [entry() for _ in range(m)]))
    return lps


def test_matches_sympy_on_ample_heights_corpus(monkeypatch):
    pytest.importorskip("sympy")
    lps = []

    def recording(c, A, b):
        lps.append((c, A, b))
        return lp_maximize(c, A, b)

    cases = [flop_case(seed)[:2] for seed in range(100)]
    monkeypatch.setattr(mmp, "lp_maximize", recording)
    for px, py in cases:
        mmp.ample_heights(px.fan)
        mmp.ample_heights(py.fan)
    assert len(lps) == 200
    assert _agree(lps) == {"optimal": 200}


def test_matches_sympy_on_random_integer_lps():
    pytest.importorskip("sympy")
    rng = random.Random(11)
    counts = _agree(_random_lps(rng, 1000, lambda: rng.randint(-3, 3)))
    # every branch of both phases is reached
    assert all(counts[k] >= 2 for k in
               ("optimal", "LpInfeasible", "LpUnbounded", "cycles", "BudgetExceededError"))


def test_matches_sympy_on_random_fraction_lps():
    pytest.importorskip("sympy")
    rng = random.Random(12)
    counts = _agree(_random_lps(
        rng, 300, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
    assert all(counts[k] >= 20 for k in ("optimal", "LpInfeasible", "LpUnbounded"))


def test_matches_sympy_on_degenerate_feasible_lps(monkeypatch):
    # b >= 0 with most b_i = 0, as in ample_heights: the origin is a
    # degenerate feasible basis, phase one makes no pivot and no cycle
    # ledger is kept; half the LPs get caps y_j <= u_j, so most are bounded
    pytest.importorskip("sympy")

    def no_ledger(*_):
        raise AssertionError("a cycle ledger was kept from a feasible basis")

    monkeypatch.setattr(linprog_module, "_visit", no_ledger)
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
