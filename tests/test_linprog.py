from fractions import Fraction

import pytest

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
