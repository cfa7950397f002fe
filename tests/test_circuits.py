"""Circuit relations and defects on hand-checked walls, plus invariants."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import toricmmp.mmp as mmp
from corpus import flop_case, mmp_probe_pair
from toricmmp import flop_decompose, make_group, mckay_pipeline, relative_mmp
from toricmmp.circuits import WallRelation, _relation, classify, defect, wall_relation
from toricmmp.errors import EngineInvariantError, InvalidInputError
from toricmmp.fan import Wall, _Subdivision, make_fan, walls
from toricmmp.lattice import adjugate, cofactor_kernel, det, vec_mat
from toricmmp.mckay import is_sl


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


def relation(rays, shared, apex_a, apex_b):
    """_relation of the wall with these shared rays and apexes, over cone
    a's adjugate, as wall_relation poses it."""
    cone_a = tuple(sorted(shared + (apex_a,)))
    return _relation(rays, cone_a, apex_a, apex_b, adjugate(tuple(rays[i] for i in cone_a)))


def relation_and_oracle(rays, shared, apex_a, apex_b):
    """The coefficients, or (error class, message), of _relation and of the
    oracle on the same wall."""
    circuit = tuple(sorted(shared + (apex_a, apex_b)))
    positions = (circuit.index(apex_a), circuit.index(apex_b))
    got = outcome(relation, rays, shared, apex_a, apex_b)
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
    assert wall_relation(fan, wall) == relation(fan.rays, (1,), 0, 2)


def dict_relation(rays, shared, apex_a, apex_b):
    """_relation as it was, by a dict from ray index to raw coefficient,
    re-sorted: the oracle of the sorted-merge form."""
    cone_a = tuple(sorted(shared + (apex_a,)))
    adj, d = adjugate(tuple(rays[i] for i in cone_a))
    if adj is None:
        raise InvalidInputError("degenerate wall: the rays of cone a do not span")
    raw = dict(zip(cone_a + (apex_b,), vec_mat(rays[apex_b], adj) + (-d,)))
    if raw[apex_a] == 0:
        raise EngineInvariantError("apex ray with zero circuit coefficient")
    g = gcd(*raw.values()) if raw[apex_a] > 0 else -gcd(*raw.values())
    if raw[apex_b] // g <= 0:
        raise EngineInvariantError("apex coefficients of opposite sign")
    circuit = tuple(sorted(raw))
    coeffs = tuple(raw[i] // g for i in circuit)
    return WallRelation(
        ray_indices=circuit,
        coeffs=coeffs,
        s_plus=tuple(i for i, a in zip(circuit, coeffs) if a > 0),
        s_zero=tuple(i for i, a in zip(circuit, coeffs) if a == 0),
        s_minus=tuple(i for i, a in zip(circuit, coeffs) if a < 0),
    )


def test_relation_matches_the_dict_formula_on_seeded_walls():
    # dimensions 2-5, ray indices shuffled so apex_b lands anywhere in the
    # merge; cone a is sometimes singular, and apex_b a planted combination
    # of cone a's rays with zeros, so every outcome occurs
    rng = random.Random(36)
    seen = Counter()
    for _ in range(1200):
        n = rng.randint(2, 5)
        cone = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if rng.random() < 0.1:
            cone[-1] = tuple(2 * x - y for x, y in zip(cone[0], cone[1]))
        c = [rng.choice([-2, -1, 0, 0, 1, 3]) for _ in range(n)]
        far = tuple(sum(ci * v[j] for ci, v in zip(c, cone)) for j in range(n))
        if not any(far):
            continue
        order = list(range(n + 1))
        rng.shuffle(order)
        rays = [(cone + [far])[order.index(i)] for i in range(n + 1)]
        wall = (tuple(sorted(order[:n - 1])), order[n - 1], order[n])
        got = outcome(relation, rays, *wall)
        assert got == outcome(dict_relation, rays, *wall), (rays, wall)
        if isinstance(got, WallRelation):
            seen["zero coefficient" if got.s_zero else "no zero"] += 1
        else:
            seen[got[1].split(":")[0]] += 1
    assert len(seen) == 5 and min(seen.values()) >= 20, seen


def test_state_relations_match_wall_relation(monkeypatch):
    # a fan state reads a current cone's relation off the kernel it keeps
    # and a foreign cone's, one of Y's cones in X's ray ids, off the
    # adjugate cache.  Every relation it hands out is wall_relation's, over
    # the state itself or, for a pair of Y's cones, over Y: each wall of X
    # and Y on corpus seeds 0-149 in dimensions 3 and 4 and every facet the
    # sweep rescores, then the walls of a relative MMP through flips and
    # contractions and of a McKay slice.  Once the sweep has posed Y's
    # rows, the state keeps kernels of its current cones only
    cases = [flop_case(seed, dim)[:2] for seed in range(150) for dim in (3, 4)]
    rng, groups = random.Random(3535), [make_group(3, [(10, (1, 6, 8))])]
    while len(groups) < 40:  # non-SL, so that psi bends and the MMP has walls
        r = rng.randint(2, 12)
        G = make_group(3, [(r, [rng.randrange(r) for _ in range(3)])])
        groups += [] if is_sl(G) else [G]
    real, real_heights, seen = _Subdivision.relation, mmp._ample_heights, Counter()
    state, target = [None], [None]  # the state that last read a relation, and Y

    def checked(sub, facet, cones=None):
        rel = real(sub, facet, cones)
        pair = sub.facets[facet] if cones is None else cones
        a, b = (next(i for i in c if i not in facet) for c in pair)
        assert rel == wall_relation(sub if cones is None else target[0], Wall(facet, 0, 1, a, b))
        seen["foreign" if any(c not in sub.max_cones for c in pair) else "current"] += 1
        state[0] = sub
        return rel

    def heights(n, rels):
        out = real_heights(n, rels)
        assert set(state[0].kernels) <= set(state[0].max_cones)
        return out

    monkeypatch.setattr(_Subdivision, "relation", checked)
    monkeypatch.setattr(mmp, "_ample_heights", heights)
    for px, py in cases:
        assert px.fan.rays == py.fan.rays  # Y's ray ids are X's
        target[0] = py.fan
        try:
            flop_decompose(px, py)
        except EngineInvariantError:  # a tie of one circuit over two walls (ROADMAP item 4)
            seen["tie"] += 1
    swept, seen = seen, Counter()
    relative_mmp(mmp_probe_pair(0, 40))
    mmp_seen, seen = seen, Counter()
    for G in groups:
        mckay_pipeline(G)
    assert swept["foreign"] > 500 and swept["current"] > 5000 and swept["tie"] < 5, swept
    assert mmp_seen["current"] > 500 and seen["current"] >= 10, (mmp_seen, seen)
