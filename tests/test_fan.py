import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import atan2

import pytest

from corpus import lp_fractions

from toricmmp import fan as fan_module
from toricmmp.circuits import classify, wall_relation
from toricmmp.errors import InvalidInputError
from toricmmp.fan import (
    Fan,
    _Subdivision,
    _facet_map,
    _walk_star,
    fans_equal,
    in_support,
    locate,
    make_fan,
    point_in_cone,
    star_subdivision,
    walls,
)
from toricmmp.jsonio import pair_from_json
from toricmmp.lattice import (
    adjugate,
    cofactor_kernel,
    det,
    dot,
    mat_rank,
    primitive,
    vec_mat,
)
from toricmmp.mckay import hj_resolution

P2 = make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
ORTHANT2 = make_fan([(1, 0), (0, 1)], [(0, 1)])


def test_make_fan_rejects_dimension_zero():
    with pytest.raises(InvalidInputError, match="dimension must be >= 1"):
        make_fan([()], [()])


def test_fans_equal_compares_the_ray_vectors():
    # the same dimension and ray count, other rays
    assert not fans_equal(ORTHANT2, make_fan([(1, 0), (1, 1)], [(0, 1)]))
ORTHANT3 = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
BLOWUP2 = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])

ATIYAH_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
ATIYAH_X = make_fan(ATIYAH_RAYS, [(0, 1, 2), (0, 2, 3)])
ATIYAH_Y = make_fan(ATIYAH_RAYS, [(0, 1, 3), (1, 2, 3)])


def test_walls_projective_plane():
    assert len(walls(P2)) == 3
    assert P2.support_kind == "complete"


def test_walls_single_orthant():
    assert walls(ORTHANT2) == ()
    assert ORTHANT2.support_kind != "complete"


def test_walls_blowup_apexes():
    ws = walls(BLOWUP2)
    assert len(ws) == 1
    w = ws[0]
    assert w.shared == (2,)
    assert {BLOWUP2.rays[w.apex_a], BLOWUP2.rays[w.apex_b]} == {(1, 0), (0, 1)}


def test_projective_line_complete():
    line = make_fan([(1,), (-1,)], [(0,), (1,)])
    assert line.support_kind == "complete"
    assert len(walls(line)) == 1


NOT_CONVEX = "neither complete nor a convex cone"


def test_support_kind_values():
    assert P2.support_kind == "complete"
    assert ORTHANT2.support_kind == "cone-supported"
    assert BLOWUP2.support_kind == "cone-supported"
    # two quadrants meeting at the origin, and an L-shape of three: neither
    # support is complete or convex, so both levels reject them
    quadrants = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for cones in ([(0, 1), (2, 3)], [(0, 1), (1, 2), (2, 3)]):
        for level in ("fast", "full"):
            with pytest.raises(InvalidInputError, match=NOT_CONVEX):
                make_fan(quadrants, cones, validate=level)


def test_a_chain_winding_past_one_turn_is_rejected_by_an_inner_ray():
    # an open chain of plane cones winding from (1, 0) by quarter turns to
    # (0, -1), on to (1, 1), an eighth of a turn past the first full one,
    # and to (-1, 1), at 1.375 turns: connected, every wall's apexes on
    # opposite sides, and the two boundary functionals, (0, 1) and (1, 1),
    # are >= 0 on both boundary rays; only the inner ray (0, -1) is
    # negative on (0, 1), so the kind test has to dot every boundary
    # functional with every ray
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    sub = _Subdivision(Fan(2, tuple(rays), (), None))
    sub._replace((), cones, "make_fan")
    assert sorted(sub.boundary.values()) == [(0, 1), (1, 1)]
    assert all(dot(u, r) >= 0 for u in sub.boundary.values() for r in (rays[0], rays[5]))
    for level in ("fast", "full"):
        with pytest.raises(InvalidInputError, match=NOT_CONVEX):
            make_fan(rays, cones, validate=level)


def test_make_fan_rejects_bad_input():
    # one defect per input, each named by its own message; the last four
    # are the checks of a _Subdivision step
    with pytest.raises(InvalidInputError, match="fan needs at least one ray"):
        make_fan([], [])
    with pytest.raises(InvalidInputError, match="rays of mixed dimension"):
        make_fan([(1, 0), (0, 1, 0)], [(0, 1)])
    # a Fraction, even Fraction(1), is not an exact integer; bool, float and
    # str are the rows of tests/test_exactness.py
    for bad in (Fraction(1, 2), Fraction(1)):
        with pytest.raises(InvalidInputError, match="ray coordinates must be integers"):
            make_fan([(1, 0), (0, bad)], [(0, 1)])
    with pytest.raises(InvalidInputError, match="zero ray"):
        make_fan([(1, 0), (0, 0)], [(0, 1)])
    with pytest.raises(InvalidInputError, match="is not primitive"):
        make_fan([(2, 0), (0, 1)], [(0, 1)])
    with pytest.raises(InvalidInputError, match=r"ray \(-2, 0\) is not primitive"):
        make_fan([(1, 0), (-2, 0), (0, 1)], [(0, 2), (1, 2)])
    # rays are checked in order, each for dimension, type, then gcd
    with pytest.raises(InvalidInputError, match="zero ray"):
        make_fan([(0, 0), (2, 0)], [(0, 1)])
    with pytest.raises(InvalidInputError, match=r"ray \(2, 0\) is not primitive"):
        make_fan([(2, 0), (0, 0)], [(0, 1)])
    with pytest.raises(InvalidInputError, match="rays of mixed dimension"):
        make_fan([(1, 0), (Fraction(2), 0, 0)], [(0, 1)])
    for cone in ((0,), (0, 0), (0, 1, 2)):
        with pytest.raises(InvalidInputError, match="maximal cones must have dim distinct rays"):
            make_fan([(1, 0), (0, 1), (-1, -1)], [cone])
    for cone in ((0, 3), (-1, 0)):
        with pytest.raises(InvalidInputError, match="cone ray index out of range"):
            make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), cone])
    with pytest.raises(InvalidInputError, match="fan needs at least one maximal cone"):
        make_fan([(1, 0), (0, 1)], [])
    with pytest.raises(InvalidInputError, match="duplicate rays"):
        make_fan([(1, 0), (1, 0), (0, 1)], [(0, 2)])
    with pytest.raises(InvalidInputError, match="unused rays"):
        make_fan([(1, 0), (0, 1), (1, 1)], [(0, 1)])
    with pytest.raises(InvalidInputError, match="duplicate maximal cones"):
        make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (1, 0)])
    with pytest.raises(InvalidInputError, match=r"cone \(0, 1\) is not simplicial"):
        make_fan([(1, 0), (-1, 0)], [(0, 1)])  # dependent cone rays
    with pytest.raises(InvalidInputError, match=r"facet \(1,\) shared by more than two cones"):
        make_fan(
            [(1, 0), (0, 1), (-1, 0), (-1, -1)],
            [(0, 1), (1, 2), (1, 3)],
        )
    with pytest.raises(InvalidInputError, match=r"same side of their shared facet \(1,\)"):
        make_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)])


def test_make_fan_rejects_unknown_level_first():
    with pytest.raises(InvalidInputError, match="unknown validation level"):
        make_fan([(2, 0), (0, 1)], [(0, 1)], validate="ful")


# cone (0, 1, 2) lies inside cone (0, 3, 4)
NESTED_RAYS = [(-1, 2, -1), (-1, -3, -3), (0, -2, 1), (-1, -3, 3), (2, 0, -3)]


def test_full_validation_catches_nested_cones():
    # the second cone sits inside the first, in the plane and in space,
    # where the two share a ray; no facet joins them, so the fast level
    # already rejects the support
    nested = [
        ([(1, 0), (0, 1), (2, 1), (1, 2)], [(0, 1), (2, 3)]),
        (NESTED_RAYS, [(0, 1, 2), (0, 3, 4)]),
    ]
    for rays, cones in nested:
        for level in ("fast", "full"):
            with pytest.raises(InvalidInputError, match=NOT_CONVEX):
                make_fan(rays, cones, validate=level)


# primitive rays at 0, 80, 160, ..., 640 degrees: consecutive pairs span
# cones that wind twice around the origin
DOUBLE_RING = [(1, 0), (1, 5), (-3, 1), (-5, -9), (4, -3), (4, 3), (-5, 9),
               (-3, -1), (1, -5)]
RING_CONES = [(k, (k + 1) % 9) for k in range(9)]
UP, DOWN = 9, 10
DOUBLE_RING_3D = [r + (0,) for r in DOUBLE_RING] + [(0, 0, 1), (0, 0, -1)]


@pytest.mark.parametrize("rays, cones, kind", [
    (DOUBLE_RING, RING_CONES, "complete"),
    # suspension: a complete star wrapped twice around each pole
    (DOUBLE_RING_3D, [c + (pole,) for c in RING_CONES for pole in (UP, DOWN)],
     "complete"),
    # its upper half covers the half-space z >= 0 twice
    (DOUBLE_RING_3D[:10], [c + (UP,) for c in RING_CONES], "cone-supported"),
], ids=["double-ring", "double-suspension", "double-half-space"])
def test_full_validation_catches_multiple_covers(rays, cones, kind):
    assert make_fan(rays, cones, validate="fast").support_kind == kind
    with pytest.raises(InvalidInputError, match="common face"):
        make_fan(rays, cones, validate="full")


def _fan_on_used_rays(rays, cones):
    used = sorted({i for c in cones for i in c})
    index = {i: j for j, i in enumerate(used)}
    return make_fan(
        [rays[i] for i in used],
        [tuple(index[i] for i in c) for c in cones],
        validate="fast",
    )


def _grown_fan(rng, dim):
    """A random fan over small integer rays: starting from one simplicial
    cone, each step adds a cone across a facet that lies in one cone so
    far, while the fast checks still pass on a state of kind None, which
    takes any boundary.  None when make_fan rejects the support."""
    simplices = []
    while not simplices:
        rays = sorted({
            primitive(r)
            for r in (tuple(rng.randint(-2, 2) for _ in range(dim))
                      for _ in range(dim + 5))
            if any(r)
        })
        simplices = [
            c for c in combinations(range(len(rays)), dim)
            if det(tuple(rays[i] for i in c))
        ]
    cones = [rng.choice(simplices)]
    for _ in range(rng.randint(1, 3 * dim)):
        once = Counter(c[:k] + c[k + 1:] for c in cones for k in range(dim))
        cands = [
            s for s in simplices if s not in cones
            and any(once[s[:k] + s[k + 1:]] == 1 for k in range(dim))
        ]
        rng.shuffle(cands)
        for s in cands:
            try:
                _Subdivision(Fan(dim, tuple(rays), (), None))._replace((), cones + [s], "growth")
            except InvalidInputError:
                continue
            cones.append(s)
            break
    try:
        return _fan_on_used_rays(rays, cones)
    except InvalidInputError:
        return None


def _multiple_cover(rng, dim):
    """A fan that passes the fast checks but covers its support twice: the
    cones over consecutive rays of a planar loop that winds twice around
    the origin (two random angular sweeps, every turn counterclockwise by
    less than a half-turn), joined for each later axis e_k to both of
    +-e_k (complete) or to +e_k alone (cone-supported), then grown by up to
    two star subdivisions at the sum of two rays of a cone."""
    while True:
        pts = list({
            primitive(v) for v in ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(12))
            if any(v)
        })
        rng.shuffle(pts)
        half = len(pts) // 2
        loop = [v for part in (pts[:half], pts[half:])
                for v in sorted(part, key=lambda v: atan2(v[1], v[0]))]
        if all(det((loop[i - 1], loop[i])) > 0 for i in range(len(loop))):
            break
    rays = [v + (0,) * (dim - 2) for v in loop]
    cones = [(i - 1 if i else len(loop) - 1, i) for i in range(len(loop))]
    for k in range(2, dim):
        axes = [tuple(s * (j == k) for j in range(dim)) for s in rng.choice([(1,), (1, -1)])]
        cones = [c + (len(rays) + a,) for c in cones for a in range(len(axes))]
        rays += axes
    fan = make_fan(rays, cones, validate="fast")
    for _ in range(rng.randint(0, 2)):
        w = primitive(tuple(map(sum, zip(*fan.ray_matrix(rng.choice(fan.max_cones)[:2])))))
        if w not in fan.rays:
            fan = star_subdivision(fan, w)
    return fan


def lp_face_check(rays, cone_a, cone_b, shared):
    """Do cones cone_a and cone_b meet exactly in the face spanned by the
    shared ray indices?  Searches for a separating form u with u = 0 on
    shared rays, u <= -s on cone_a's others, u >= s on cone_b's others;
    they do iff max s > 0.  In standard form u = u+ - u- with u+, u- in
    [0, 1]^n (bounds of the LP) and s >= 0: every right-hand side is 0, so
    the origin is a feasible start."""
    n = len(rays[0])

    def row(j, sign, t):  # sign * u.ray_j + t * s <= 0 over (u+, u-, s)
        r = tuple(sign * x for x in rays[j])
        return r + tuple(-x for x in r) + (t,)

    rows = [row(j, 1, 1) for j in cone_a if j not in shared]
    rows += [row(j, -1, 1) for j in cone_b if j not in shared]
    rows += [row(j, sign, 0) for j in shared for sign in (1, -1)]
    opt, _ = lp_fractions([0] * (2 * n) + [1], rows, [0] * len(rows), [1] * (2 * n) + [None])
    return opt > 0


def test_degree_one_check_matches_lp_oracle():
    rng = random.Random(3)
    seen, verdicts = set(), Counter()
    fans = (_grown_fan(rng, rng.choice([2, 3, 4])) for _ in range(120))
    covers = (_multiple_cover(rng, dim) for dim in (3, 4) for _ in range(5))
    for fan in (*fans, *covers):
        if fan is None:
            continue
        valid = all(
            lp_face_check(fan.rays, a, b, set(a).intersection(b))
            for a, b in combinations(fan.max_cones, 2)
        )
        try:
            make_fan(fan.rays, fan.max_cones, validate="full")
            accepted = True
        except InvalidInputError:
            accepted = False
        assert accepted == valid, (fan.rays, fan.max_cones)
        seen.add((fan.dim, fan.support_kind, valid))
        verdicts[fan.dim, valid] += 1
    # the sample covers every dimension, both kinds and both verdicts, and
    # the full level's rejection is checked in every dimension
    assert {s[0] for s in seen} == {2, 3, 4}
    assert {s[1] for s in seen} == {"complete", "cone-supported"}
    assert {s[2] for s in seen} == {True, False}
    assert all(verdicts[d, v] >= 3 for d in (2, 3, 4) for v in (True, False)), verdicts


def oracle_meet_in_shared_face(cone_a, cone_b, shared):
    """Two simplicial cones meet exactly in cone(shared) iff every extreme
    ray of their intersection is a shared ray.  Each extreme ray is the
    kernel of n-1 of the 2n facet functionals (adjugate columns) and is
    >= 0 on all of them."""
    fs = []
    for cone in (cone_a, cone_b):
        adj, d = adjugate(tuple(cone))
        fs += [tuple(row[k] * (1 if d > 0 else -1) for row in adj) for k in range(len(cone))]
    for sub in combinations(fs, len(cone_a) - 1):
        v = cofactor_kernel(sub)
        for w in (v, tuple(-x for x in v)):
            if any(w) and all(dot(f, w) >= 0 for f in fs) and primitive(w) not in shared:
                return False
    return True


def test_lp_face_check_matches_intersection_oracle():
    # posed with u = y - 1 and y in [0, 2]^n, this face check has negative
    # right-hand sides, and sympy's phase-one search cycles on it forever
    assert not lp_face_check(NESTED_RAYS, (0, 1, 2), (0, 3, 4), {0})
    rng = random.Random(1618)
    verdicts = Counter()
    for _ in range(150):
        n = rng.randint(2, 4)
        k = rng.randint(0, n - 1)
        vecs = set()
        while len(vecs) < 2 * n - k:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                vecs.add(primitive(v))
        rays = sorted(vecs)
        cone_a, cone_b = tuple(range(n)), tuple(range(k)) + tuple(range(n, 2 * n - k))
        if any(det([rays[i] for i in c]) == 0 for c in (cone_a, cone_b)):
            continue
        verdict = lp_face_check(rays, cone_a, cone_b, set(range(k)))
        expected = oracle_meet_in_shared_face(
            [rays[i] for i in cone_a], [rays[i] for i in cone_b], rays[:k]
        )
        assert verdict == expected, (rays, k)
        verdicts[n, verdict] += 1
    assert all(verdicts[n, v] >= 5 for n in (2, 3, 4) for v in (True, False)), verdicts


# a flop-corpus pair whose fan has cone pairs that share no facet
PAIR_3D = {
    "dim": 3,
    "rays": [[0, 2, 1], [0, 3, 1], [1, 0, 1], [3, 0, 1], [3, 1, 1], [3, 2, 1],
             [3, 3, 1]],
    "cones": [[0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 5, 6], [2, 3, 4]],
    "coeffs": [0, 0, 0, 0, 0, 0, 0],
}


def test_full_validation_of_convex_supports_makes_no_lp_call(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("full validation called the LP")

    monkeypatch.setattr(fan_module, "lp_maximize", no_lp)
    fan, chain = hj_resolution(30, 7)
    assert len(fan.max_cones) == len(chain) + 1
    for fan in (ATIYAH_X, ATIYAH_Y):
        make_fan(fan.rays, fan.max_cones, validate="full")
    assert len(pair_from_json(PAIR_3D).fan.max_cones) == 5


def test_locate_at_rays_and_interior():
    ci, lam = locate(ORTHANT3, (1, 0, 0))
    assert ci == 0 and lam == (1, 0, 0)
    _, lam = locate(ORTHANT3, (1, 1, 1))
    assert lam == (1, 1, 1)
    with pytest.raises(InvalidInputError):
        locate(ORTHANT3, (-1, 0, 0))


def test_locate_and_in_support_reject_inexact_points():
    # a float or bool coordinate raises as in the constructors; before,
    # locate turned (0.1, True) into the barycentrics (3602879701896397 /
    # 36028797018963968, 1) and in_support solved floats. The str case is
    # a row of tests/test_exactness.py
    for bad in ((0.1, True), (0.1, 0.2), (True, 0), (1, 0.0)):
        for query in (locate, in_support):
            with pytest.raises(InvalidInputError, match="exact rationals, not bool or float"):
                query(ORTHANT2, bad)
    for query in (locate, in_support):
        with pytest.raises(InvalidInputError, match="point dimension mismatch"):
            query(ORTHANT2, (1, 0, 0))
    assert locate(ORTHANT2, (Fraction(1, 10), 1)) == (0, (Fraction(1, 10), 1))
    assert in_support(ORTHANT2, (Fraction(1, 10), 1)) and not in_support(ORTHANT2, (-1, 0))


def test_locate_random_reconstruction():
    rng = random.Random(314)
    for _ in range(30):
        fan = random.Random(rng.random()).choice([P2, ATIYAH_X, BLOWUP2])
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        coeffs = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in cone]
        p = tuple(
            sum(coeffs[k] * fan.rays[i][j] for k, i in enumerate(cone))
            for j in range(fan.dim)
        )
        ci, lam = locate(fan, p)
        got = fan.max_cones[ci]
        rebuilt = tuple(
            sum(lam[k] * fan.rays[i][j] for k, i in enumerate(got))
            for j in range(fan.dim)
        )
        assert rebuilt == p
        assert all(x >= 0 for x in lam)


def test_star_subdivision_2d_orthant():
    f = star_subdivision(ORTHANT2, (1, 1))
    assert set(f.max_cones) == {(0, 2), (1, 2)}
    assert f.rays[2] == (1, 1)


def test_star_subdivision_3d_orthant():
    f = star_subdivision(ORTHANT3, (1, 1, 1))
    assert len(f.max_cones) == 3


def test_star_subdivision_on_wall_splits_both_cones():
    fan = make_fan(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)],
        [(0, 1, 2), (0, 1, 3)],
    )
    f = star_subdivision(fan, (1, 1, 0))
    assert len(f.max_cones) == 4


def test_star_subdivision_on_boundary_facet():
    f = star_subdivision(ORTHANT3, (1, 1, 0))
    assert len(f.max_cones) == 2
    # support preserved
    for p in [(1, 0, 0), (1, 1, 0), (2, 1, 3), (0, 0, 1)]:
        assert in_support(f, p)
    assert not in_support(f, (-1, 0, 0))


def test_star_subdivision_errors():
    with pytest.raises(InvalidInputError):
        star_subdivision(ORTHANT2, (1, 0))  # existing ray
    with pytest.raises(InvalidInputError):
        star_subdivision(ORTHANT2, (-1, 1))  # outside support


P3 = make_fan(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
)


def test_star_subdivision_preserves_support_random():
    rng = random.Random(2718)
    for fan in [ORTHANT3, ATIYAH_X]:
        cone = fan.max_cones[0]
        w = tuple(
            sum(fan.rays[i][j] for i in cone) for j in range(fan.dim)
        )
        f = star_subdivision(fan, w)
        for _ in range(20):
            ci = rng.randrange(len(fan.max_cones))
            coeffs = [rng.randint(0, 5) for _ in range(fan.dim)]
            p = tuple(
                sum(c * fan.rays[i][j] for c, i in zip(coeffs, fan.max_cones[ci]))
                for j in range(fan.dim)
            )
            assert in_support(f, p)
    # points inside cones, on walls and on boundary facets: the public
    # subdivision (a barycentric scan), a fast-validated rebuild of its
    # cones, and the star walked from one cone as in the extraction loop
    # all give the same fan, cone order and support kind
    kinds = Counter()
    for fan in [ORTHANT3, ATIYAH_X, P3]:
        for _ in range(25):
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            coeffs = [rng.randint(0, 2) for _ in cone]
            if sum(map(bool, coeffs)) < 2:
                continue  # zero or a ray multiple
            w = primitive(tuple(
                sum(c * fan.rays[i][j] for c, i in zip(coeffs, cone))
                for j in range(fan.dim)
            ))
            f = star_subdivision(fan, w)
            assert f == make_fan(f.rays, f.max_cones, validate="fast")
            sub = _Subdivision(fan)
            sub.subdivide(w, cone)
            assert sub.fan() == f
            kinds[f.support_kind] += 1
    assert set(kinds) == {"complete", "cone-supported"}, kinds


def _contracted_oracle(fan, rel, j):
    """(fan, removed ray) after removing ray j of a divisorial circuit, or
    None when the star of j is not T+ * L: T+ are the circuit's nonzero rays
    minus one positive ray, and L, the link of the first T+ simplex, is read
    off a scan of every cone.  T+ * L is replaced by T- * L, the nonzero
    rays minus j joined with L, and the shifted cones are rebuilt by
    make_fan with full validation."""
    nz = [i for i in rel.ray_indices if i not in rel.s_zero]
    first = [i for i in nz if i != rel.s_plus[0]]
    link = sorted(
        tuple(i for i in c if i not in first) for c in fan.max_cones if set(first) <= set(c)
    )
    plus = {tuple(sorted({i for i in nz if i != p} | set(l))) for p in rel.s_plus for l in link}
    if {c for c in fan.max_cones if j in c} != plus:
        return None

    def shift(i):
        return i if i < j else i - 1

    cones = [c for c in fan.max_cones if j not in c]
    cones += [tuple(sorted([i for i in nz if i != j] + list(l))) for l in link]
    cones = [tuple(sorted(shift(i) for i in c)) for c in cones]
    return make_fan(fan.rays[:j] + fan.rays[j + 1:], cones, validate="full"), fan.rays[j]


def test_contract_matches_the_rebuilt_fan():
    # star-subdivide random simplicial cones (and P3, which is complete) at
    # points inside cones, on walls and on boundary facets, then contract
    # every divisorial wall: the state step gives the rebuilt fan in rays,
    # cone order and support kind, and both refuse a star that is not
    # T+ * L.  Some contractions have a link wider than the wall's own zero
    # rays (a subdivided wall or boundary facet)
    rng = random.Random(1517)
    outcomes, wide = Counter(), 0
    for trial in range(120):
        dim = 2 + trial % 3
        if trial % 10 == 9:
            fan = P3
        else:
            rays = [(0,) * dim]
            while det(rays) == 0:
                rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
            rays = [primitive(r) for r in rays]
            fan = make_fan(rays, [tuple(range(dim))], validate="fast")
        for _ in range(rng.randint(1, 3)):
            cone = rng.choice(fan.max_cones)
            coeffs = [rng.randint(0, 2) for _ in cone]
            if sum(map(bool, coeffs)) < 2:
                continue  # zero or a ray multiple
            w = primitive(tuple(
                sum(c * fan.rays[i][k] for c, i in zip(coeffs, cone))
                for k in range(fan.dim)
            ))
            if w not in fan.rays:
                fan = star_subdivision(fan, w)
        for w in walls(fan):
            rel = wall_relation(fan, w)
            kind = classify(rel)
            if kind.kind != "divisorial":
                continue
            sub = _Subdivision(fan)
            step = sub.contract(rel, kind.ray)
            expected = _contracted_oracle(fan, rel, kind.ray)
            if expected is None:
                assert step is None and sub.fan() == fan
            else:
                # the step removed the star of the ray, and the state keeps
                # every other ray id, with a tombstone at the ray's own
                assert (sub.fan(), fan.rays[kind.ray]) == expected
                assert sorted(step[0]) == sorted(c for c in fan.max_cones if kind.ray in c)
                assert sub.rays == [None if i == kind.ray else r for i, r in enumerate(fan.rays)]
                assert sub.facets == _facet_map(sub)
                wide += len(fan.max_cones) - len(expected[0].max_cones) > len(rel.s_plus) - 1
            outcomes[expected is None, fan.support_kind] += 1
    assert {k for k, _ in outcomes} == {True, False}, outcomes
    assert {kind for _, kind in outcomes} == {"complete", "cone-supported"}, outcomes
    assert wide > 0


# fans pinched along a face: walking across facets from one cone misses
# the cones on the far side of the pinch, so no step of a fan state could
# find a star by that walk, and make_fan rejects the support
PINCHED = {
    # two opposite orthants meeting at the origin
    "opposite-orthants": (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
        [(0, 1, 2), (3, 4, 5)],
        (),
    ),
    # two 4-cones meeting only in the face (e1, e2)
    "four-fold": (
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, 0),
         (0, 0, 0, -1)],
        [(0, 1, 2, 3), (0, 1, 4, 5)],
        (0, 1),
    ),
    # the orthant blown up along e1 + e2, and a cone meeting it in that ray
    "blown-up-orthant": (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, -1), (2, 1, -1)],
        [(0, 2, 3), (1, 2, 3), (3, 4, 5)],
        (3,),
    ),
}


@pytest.mark.parametrize("name", PINCHED)
def test_make_fan_rejects_pinched_fans(name):
    rays, cones, face = PINCHED[name]
    walked = _walk_star(_facet_map(Fan(len(rays[0]), rays, cones, None)), cones[0], face)
    assert walked < {c for c in cones if set(face) <= set(c)}
    for level in ("fast", "full"):
        with pytest.raises(InvalidInputError, match=NOT_CONVEX):
            make_fan(rays, cones, validate=level)


def test_fans_equal_permutation_invariance():
    g = make_fan([(0, 1), (-1, -1), (1, 0)], [(0, 2), (0, 1), (1, 2)])
    assert fans_equal(P2, g)
    assert fans_equal(g, P2)


def test_fans_equal_detects_differences():
    assert not fans_equal(ORTHANT2, star_subdivision(ORTHANT2, (1, 1)))
    assert not fans_equal(ATIYAH_X, ATIYAH_Y)
    assert fans_equal(ATIYAH_X, ATIYAH_X)


def test_point_in_cone():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert point_in_cone((2, 3, 1), gens)
    assert not point_in_cone((-1, 0, 0), gens)
    # non-simplicial generator set
    gens4 = [(1, 0), (1, 1), (0, 1), (1, 2)]
    assert point_in_cone((5, 3), gens4)
    assert not point_in_cone((1, -1), gens4)


def oracle_in_cone(p, gens):
    """Caratheodory: p lies in the cone over spanning generators iff it lies
    in the cone of some independent n-subset, solved by its adjugate."""
    for sub in combinations(gens, len(p)):
        adj, d = adjugate(sub)
        if d and all(x * d >= 0 for x in vec_mat(p, adj)):
            return True
    return False


# outside points on which the equality form G.lam = p of the membership LP
# makes sympy's phase-one search cycle forever (the first) or return a
# point that violates G.lam = p (the second)
OUTSIDE_CONE = [
    ((3, 1, 0), [(-3, 2, 3), (0, 1, 1), (2, -2, 3), (3, 1, 2)]),
    ((-1, 2, 0, 3), [(-3, 1, 0, 1), (-1, 3, 3, 3), (0, 0, -2, 2), (2, -3, -3, 1),
                     (2, -2, -2, 3), (3, -3, 2, 3), (3, -2, 0, 1)]),
]


def test_point_in_cone_lp_matches_caratheodory_oracle():
    for p, gens in OUTSIDE_CONE:
        assert not oracle_in_cone(p, gens)
        assert not point_in_cone(p, gens)
    rng = random.Random(2718)
    verdicts = Counter()
    for _ in range(150):
        n = rng.randint(2, 4)
        # positive last coordinate keeps the cone pointed, so points fall
        # on both sides; more than n generators forces the LP branch
        gens = set()
        while len(gens) < n + rng.randint(1, 3):
            gens.add(tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (rng.randint(1, 3),))
        gens = sorted(gens)
        if mat_rank(gens) < n:
            continue
        if rng.random() < 0.5:
            p = tuple(
                sum(Fraction(rng.randint(0, 4), rng.randint(1, 3)) * g[j] for g in gens)
                for j in range(n)
            )
        else:
            p = tuple(rng.randint(-4, 4) for _ in range(n))
        verdict = point_in_cone(p, gens)
        assert verdict == oracle_in_cone(p, gens), (p, gens)
        verdicts[n, verdict] += 1
    assert all(verdicts[n, v] >= 5 for n in (2, 3, 4) for v in (True, False)), verdicts


def test_walls_deterministic_order():
    assert walls(P2) == walls(P2)
    ws = walls(ATIYAH_X)
    assert len(ws) == 1
    assert ws[0].shared == (0, 2)
