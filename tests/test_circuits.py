"""Circuit relations and defects on hand-checked walls, plus invariants."""

import random
from fractions import Fraction
from math import gcd

import pytest

from corpus import flop_case
from toricmmp.circuits import WallRelation, _relation, classify, defect, wall_relation
from toricmmp.errors import EngineInvariantError, InvalidInputError
from toricmmp.fan import Wall, make_fan, walls
from toricmmp.lattice import cofactor_kernel, det


def oracle_circuit_coeffs(vectors, apex_positions):
    """The relation by the cofactor kernel: primitive signed maximal minors
    of the (n+1) x n matrix of circuit rays, apex positions positive."""
    raw = cofactor_kernel(tuple(zip(*vectors)))
    g = gcd(*raw)
    if g == 0:
        raise InvalidInputError("degenerate wall: circuit rays do not span")
    coeffs = tuple(x // g for x in raw)
    pa, pb = apex_positions
    if coeffs[pa] == 0 or coeffs[pb] == 0:
        raise EngineInvariantError("apex ray with zero circuit coefficient")
    if coeffs[pa] < 0:
        coeffs = tuple(-x for x in coeffs)
    if coeffs[pb] <= 0:
        raise EngineInvariantError("apex coefficients of opposite sign")
    return coeffs


def outcome(f, *args):
    try:
        return f(*args)
    except (EngineInvariantError, InvalidInputError) as e:
        return type(e), str(e)


def relation_and_oracle(rays, shared, apex_a, apex_b):
    """The coefficients, or (error class, message), of _relation and of the
    oracle on the same wall."""
    circuit = tuple(sorted(shared + (apex_a, apex_b)))
    positions = (circuit.index(apex_a), circuit.index(apex_b))
    got = outcome(_relation, rays, shared, apex_a, apex_b)
    if isinstance(got, WallRelation):
        assert got.ray_indices == circuit
        got = got.coeffs
    return got, outcome(oracle_circuit_coeffs, tuple(rays[i] for i in circuit), positions)

P1XA1 = make_fan(
    [(1, 0), (-1, 0), (0, 1)],
    [(0, 2), (1, 2)],
    validate="fast",
)

BLOWUP2 = make_fan(
    [(1, 0), (0, 1), (1, 1)],
    [(0, 2), (1, 2)],
)

ATIYAH_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
ATIYAH_X = make_fan(ATIYAH_RAYS, [(0, 1, 2), (0, 2, 3)])


def the_wall(fan):
    ws = walls(fan)
    assert len(ws) == 1
    return ws[0]


def test_fiber_wall():
    # (1,0) + (-1,0) = 0 with the apexes on both sides of the vertical wall
    rel = wall_relation(P1XA1, the_wall(P1XA1))
    assert rel.ray_indices == (0, 1, 2)
    assert rel.coeffs == (1, 1, 0)
    assert rel.s_plus == (0, 1)
    assert rel.s_zero == (2,)
    assert rel.s_minus == ()
    assert classify(rel).kind == "fiber"


def test_divisorial_wall():
    # e1 + e2 = (1,1): the exceptional ray carries the negative coefficient
    rel = wall_relation(BLOWUP2, the_wall(BLOWUP2))
    assert rel.ray_indices == (0, 1, 2)
    assert rel.coeffs == (1, 1, -1)
    assert classify(rel) == ("divisorial", 2)
    # pulled-back coordinate height is flat across the wall
    assert defect(rel, (0, 1, 1)) == 0
    # strictly convex on the blown-up fan
    assert defect(rel, (0, 0, -1)) == 1
    # discrepancy heights for zero boundary: all ones, defect 1
    assert defect(rel, (1, 1, 1)) == 1


def test_flipping_wall():
    rel = wall_relation(ATIYAH_X, the_wall(ATIYAH_X))
    assert rel.ray_indices == (0, 1, 2, 3)
    # v0 + v2 = v1 + v3
    assert rel.coeffs == (-1, 1, -1, 1)
    assert rel.s_plus == (1, 3)
    assert rel.s_minus == (0, 2)
    assert classify(rel).kind == "flipping"
    # heights of all ones: the wall is a flop wall
    assert defect(rel, (1, 1, 1, 1)) == 0


def test_relation_kills_rays():
    for fan in (P1XA1, BLOWUP2, ATIYAH_X):
        for w in walls(fan):
            rel = wall_relation(fan, w)
            n = fan.dim
            total = [0] * n
            for i, a in zip(rel.ray_indices, rel.coeffs):
                total = [t + a * r for t, r in zip(total, fan.rays[i])]
            assert total == [0] * n
            from math import gcd
            assert gcd(*rel.coeffs) == 1


def test_linear_heights_have_zero_defect():
    rng = random.Random(20260816)
    for _ in range(25):
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        h = [sum(ui * ri for ui, ri in zip(u, ray)) for ray in ATIYAH_X.rays]
        for w in walls(ATIYAH_X):
            assert defect(wall_relation(ATIYAH_X, w), h) == 0


def test_defect_is_linear_in_heights():
    rng = random.Random(7)
    rel = wall_relation(BLOWUP2, the_wall(BLOWUP2))
    for _ in range(25):
        h1 = [Fraction(rng.randint(-8, 8)) for _ in range(3)]
        h2 = [Fraction(rng.randint(-8, 8)) for _ in range(3)]
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert defect(rel, [c * h for h in h1]) == c * defect(rel, h1)
        both = [a + b for a, b in zip(h1, h2)]
        assert defect(rel, both) == defect(rel, h1) + defect(rel, h2)


def test_apex_coefficients_positive():
    for fan in (P1XA1, BLOWUP2, ATIYAH_X):
        for w in walls(fan):
            rel = wall_relation(fan, w)
            pos = dict(zip(rel.ray_indices, rel.coeffs))
            assert pos[w.apex_a] > 0 and pos[w.apex_b] > 0


def test_relation_matches_cofactor_kernel_on_random_circuits():
    # apex_b is a planted combination of cone a's rays: zero coefficients,
    # apexes on one side (opposite-sign error) and a zero apex_a
    # coefficient (zero-apex error) all occur
    rng = random.Random(1403)
    kinds = set()
    checked = 0
    while checked < 400:
        n = rng.choice([2, 3, 4])
        cone = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        if det(cone) == 0:
            continue
        c = [rng.choice([-2, -1, 0, 0, 1, 3]) for _ in range(n)]
        far = tuple(sum(ci * v[j] for ci, v in zip(c, cone)) for j in range(n))
        if not any(far):
            continue
        checked += 1
        rays = cone + [far]
        order = list(range(n + 1))
        rng.shuffle(order)
        rays = [rays[order.index(i)] for i in range(n + 1)]
        shared = tuple(sorted(order[:n - 1]))
        got, want = relation_and_oracle(rays, shared, order[n - 1], order[n])
        assert got == want
        kinds.add(want[0] if isinstance(want[0], type) else 0 in want)
    assert kinds == {True, False, EngineInvariantError}


def test_relation_matches_cofactor_kernel_on_flop_corpus():
    zeros = 0
    for seed in range(50):
        for pair in flop_case(seed)[:2]:
            for w in walls(pair.fan):
                got, want = relation_and_oracle(pair.fan.rays, w.shared, w.apex_a, w.apex_b)
                assert got == want
                zeros += 0 in got
    assert zeros > 0


def test_wall_relation_rejects_a_wall_not_of_the_fan():
    # the apexes must differ, lie off the shared rays and each complete
    # them to a maximal cone; else the Wall names no wall of the fan, which
    # is bad input, not an engine invariant break, and never an IndexError.
    # True == 1, so (True,) shares ray 1 with apex_b
    fan = make_fan([(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])
    for wall in (Wall((0,), 0, 1, 1, 2), Wall((True,), 0, 1, 0, 1), Wall((5,), 0, 1, 0, 2)):
        with pytest.raises(InvalidInputError, match="is not a wall of the fan"):
            wall_relation(fan, wall)
    # the valid wall, (1, 0) - (1, 1) + (0, 1) = 0, is unchanged
    (wall,) = walls(fan)
    assert wall == Wall((1,), 0, 1, 0, 2)
    assert wall_relation(fan, wall) == WallRelation((0, 1, 2), (1, -1, 1), (0, 2), (), (1,))
    assert wall_relation(fan, wall) == _relation(fan.rays, (1,), 0, 2)
