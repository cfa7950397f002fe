"""Pair discrepancy tests against brute-force lattice enumeration."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import corpus
from corpus import (
    extraction_pairs, flop_case, psi_linear, walked_k_compare, walked_k_equivalent,
)
from test_lattice import oracle_box_points_in_coords
from test_mmp import _bumped_corpus_case, _shuffled_rays
from toricmmp import pairs as pairs_module
from toricmmp.errors import InvalidInputError
from toricmmp.fan import _inward, in_support, make_fan, star_subdivision
from toricmmp.lattice import (
    _ZERO, LatticeBasis, adjugate, cofactor_kernel, det, dot, mat_rank, primitive, vec_mat,
)
from toricmmp.mckay import group_lattice, make_group, quotient_pair
from toricmmp.mmp import flop_decompose
from toricmmp.pairs import (
    ToricPair,
    _scaled_psi,
    cell_extreme_rays,
    is_canonical,
    is_nef,
    is_terminal,
    k_compare,
    k_equivalent,
    make_pair,
    min_discrepancy_witness,
    pl_eval,
    psi_heights,
)

# ---------------------------------------------------------------- oracles


def oracle_min_psi(pair, cap):
    """Brute-force minimum of psi over primitive non-ray lattice points of
    the support, exhaustive inside a box certified to contain {psi <= cap}:
    psi(x) >= min(psi_i) * sum(bary) bounds every coordinate of x."""
    fan = pair.fan
    psi = psi_heights(pair)
    maxc = max(abs(x) for r in fan.rays for x in r)
    bound = math.ceil(maxc * cap / min(psi)) + 1
    best = None
    for pt in product(range(-bound, bound + 1), repeat=fan.dim):
        if all(x == 0 for x in pt):
            continue
        if primitive(pt) != pt or pt in fan.rays:
            continue
        if not in_support(fan, pt):
            continue
        val = pl_eval(fan, psi, pt)
        if best is None or val < best:
            best = val
    return best


def oracle_box_points(rays):
    """Box points of a simplicial cone as (point, t) pairs: the subgroup of
    (Q/Z)^n generated by the rows of the Fraction inverse of the ray matrix,
    closed by search, so no Smith form and no adjugate is involved."""
    n = len(rays)
    A = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rays)]
    for c in range(n):
        piv = next(i for i in range(c, n) if A[i][c])
        A[c], A[piv] = A[piv], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for i in range(n):
            if i != c:
                A[i] = [x - A[i][c] * y for x, y in zip(A[i], A[c])]
    gens = [row[n:] for row in A]  # e_j = sum_i gens[j][i] * rays[i]
    zero = (Fraction(0),) * n
    seen, todo = {zero}, [zero]
    while todo:
        t = todo.pop()
        for g in gens:
            u = tuple((a + b) % 1 for a, b in zip(t, g))
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return [
        (tuple(int(sum(ti * r[j] for ti, r in zip(t, rays))) for j in range(n)), t)
        for t in seen if t != zero
    ]


def oracle_witness(pair):
    """min_discrepancy_witness as it was in Fraction arithmetic: psi of each
    box point as a Fraction sum, pair sums filtered by primitive."""
    psi = psi_heights(pair)
    fan = pair.fan
    best = None
    for cone in fan.max_cones:
        for point, bary in oracle_box_points(fan.ray_matrix(cone)):
            cand = (sum(t * psi[i] for t, i in zip(bary, cone)), point)
            if best is None or cand < best:
                best = cand
        for a, b in combinations(cone, 2):
            w = tuple(x + y for x, y in zip(fan.rays[a], fan.rays[b]))
            if primitive(w) != w:
                continue
            cand = (psi[a] + psi[b], w)
            if best is None or cand < best:
                best = cand
    return best


def random_cone_pair(rng, dim, coeff_pool, max_coord):
    while True:
        rays = tuple(
            tuple(rng.randint(0, max_coord) for _ in range(dim)) for _ in range(dim)
        )
        if det(rays) == 0:
            continue
        rays = tuple(primitive(r) for r in rays)
        if len(set(rays)) < dim or abs(det(rays)) > 12:
            continue
        fan = make_fan(rays, [tuple(range(dim))], validate="fast")
        coeffs = [rng.choice(coeff_pool) for _ in range(dim)]
        return make_pair(fan, coeffs)


# ------------------------------------------------------------ basic pairs

ORTHANT2 = make_fan([(1, 0), (0, 1)], [(0, 1)])
BLOWUP2 = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
ATIYAH_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
ATIYAH_X = make_fan(ATIYAH_RAYS, [(0, 1, 2), (0, 2, 3)])
ATIYAH_Y = make_fan(ATIYAH_RAYS, [(0, 1, 3), (1, 2, 3)])


def test_make_pair_validation():
    with pytest.raises(InvalidInputError):
        make_pair(ORTHANT2, [0])
    with pytest.raises(InvalidInputError):
        make_pair(ORTHANT2, [0, 1])  # coefficient 1 excluded
    with pytest.raises(InvalidInputError):
        make_pair(ORTHANT2, [0, Fraction(-1, 2)])
    p = make_pair(ORTHANT2, [0, Fraction(1, 2)])
    assert psi_heights(p) == (1, Fraction(1, 2))
    with pytest.raises(InvalidInputError, match="lattice dimension does not match the fan"):
        make_pair(ORTHANT2, [0, 0], LatticeBasis.standard(3))


def test_pairs_on_different_footings_are_not_compared():
    # every refusal of the shared check of k_equivalent, k_compare and
    # flop_decompose: another lattice, another dimension (only a pair built
    # by hand gets past the lattice test with it) and two cones of support
    x = make_pair(ORTHANT2, [0, 0])
    half = make_pair(ORTHANT2, [0, 0], LatticeBasis.from_rows([(Fraction(1, 2), 0), (0, 1)]))
    orthant3 = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    wedge = make_pair(make_fan([(1, 0), (1, 1)], [(0, 1)]), [0, 0])
    for y, message in ((half, "different lattices"), (wedge, "supports differ"),
                       (ToricPair(orthant3, (0, 0, 0), x.lattice), "different dimensions")):
        for compare in (k_equivalent, k_compare, flop_decompose):
            with pytest.raises(InvalidInputError, match=message):
                compare(x, y)


def _unshortcut_same_rays_and_coeffs(pair_x, pair_y):
    """pairs._same_rays_and_coeffs without its shortcuts: the lattices
    compared row by row, every foreign ray's support test, and coefficients
    compared through dicts keyed by ray."""
    fx, fy = pair_x.fan, pair_y.fan
    if pair_x.lattice != pair_y.lattice:
        raise InvalidInputError("pairs live on different lattices")
    if fx.dim != fy.dim:
        raise InvalidInputError("pairs have different dimensions")
    kx, ky = fx.support_kind, fy.support_kind
    if kx != ky:
        raise InvalidInputError("supports differ")
    if kx == "cone-supported":
        ox, oy = set(fx.rays), set(fy.rays)
        ok = all(in_support(fy, r) for r in fx.rays if r not in oy) and all(
            in_support(fx, r) for r in fy.rays if r not in ox
        )
        if not ok:
            raise InvalidInputError("supports differ")
    return dict(zip(fx.rays, pair_x.coeffs)) == dict(zip(fy.rays, pair_y.coeffs))


def _verdict(check, pair_x, pair_y):
    try:
        return check(pair_x, pair_y)
    except InvalidInputError as e:
        return str(e)


def test_same_rays_and_coeffs_matches_the_unshortcut_check():
    # corpus pairs with Y's rays as given and shuffled, with one coefficient
    # raised on one side, on another lattice, against one cone of X, and in
    # another dimension: one verdict and one refusal message either way
    rng, cases = random.Random(41), []
    for seed in range(40):
        px, py, _ = flop_case(seed)
        dim, n = px.fan.dim, len(px.fan.rays)
        k = rng.randrange(n)
        bumped = make_pair(py.fan, [Fraction(1, 2) if i == k else 0 for i in range(n)])
        other = LatticeBasis.from_rows(
            [[Fraction(int(i == j), 1 + (i == j == 0)) for j in range(dim)] for i in range(dim)])
        cone = make_pair(make_fan(px.fan.ray_matrix(px.fan.max_cones[0]), [range(dim)]),
                         [0] * dim)
        flat = ToricPair(make_fan([(1, 0), (0, 1)], [(0, 1)]), (0, 0), px.lattice)
        cases += [(px, py), (px, _shuffled_rays(py, rng)), (px, bumped),
                  (_shuffled_rays(bumped, rng), px), (px, make_pair(py.fan, py.coeffs, other)),
                  (cone, py), (px, cone), (px, flat)]
    verdicts = Counter()
    for px, py in cases:
        want = _verdict(_unshortcut_same_rays_and_coeffs, px, py)
        assert _verdict(pairs_module._same_rays_and_coeffs, px, py) == want
        verdicts[want] += 1
    assert verdicts == {True: 80, False: 80, "pairs live on different lattices": 40,
                        "supports differ": 80, "pairs have different dimensions": 40}


def test_make_pair_keeps_zero_coefficients_as_the_shared_zero():
    # so that comparing two pairs' coefficient tuples stops at identity
    for zero in (0, Fraction(0), Fraction(0, 7)):
        pair = make_pair(ORTHANT2, [zero, Fraction(1, 2)])
        assert pair.coeffs[0] is _ZERO and pair.coeffs == (0, Fraction(1, 2))
        assert type(pair.coeffs[1]) is Fraction


def test_pl_eval_homogeneous():
    p = make_pair(BLOWUP2, [0, Fraction(1, 2), Fraction(1, 3)])
    psi = psi_heights(p)
    rng = random.Random(3)
    for _ in range(20):
        x = (rng.randint(0, 7), rng.randint(0, 7))
        k = rng.randint(1, 5)
        assert pl_eval(BLOWUP2, psi, (k * x[0], k * x[1])) == k * pl_eval(BLOWUP2, psi, x)


def test_terminal_smooth_orthant():
    p = make_pair(ORTHANT2, [0, 0])
    assert is_terminal(p) and is_canonical(p)


def test_terminal_half_point():
    # cone of multiplicity 2 with box psi = 3/2
    fan = make_fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)])
    p = make_pair(fan, [0, 0, 0])
    assert min_discrepancy_witness(p)[0] == Fraction(3, 2)
    assert is_terminal(p)


def test_canonical_not_terminal():
    # both box points sit exactly on psi = 1
    fan = make_fan([(1, 0), (1, 3)], [(0, 1)])
    p = make_pair(fan, [0, 0])
    assert not is_terminal(p)
    assert is_canonical(p)
    assert min_discrepancy_witness(p) == (1, (1, 1))


def test_large_coefficients_break_terminality():
    # no box points at all, yet the ray-sum point has psi 5/6
    p = make_pair(ORTHANT2, [Fraction(1, 2), Fraction(2, 3)])
    assert min_discrepancy_witness(p) == (Fraction(5, 6), (1, 1))
    assert not is_terminal(p)
    assert not is_canonical(p)


def test_min_discrepancy_matches_bruteforce():
    rng = random.Random(20260816)
    wide = [0, 0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    narrow = [0, 0, Fraction(1, 4), Fraction(1, 2)]
    cases = [(2, wide, 3) for _ in range(12)] + [(3, narrow, 2) for _ in range(6)]
    for dim, pool, max_coord in cases:
        pair = random_cone_pair(rng, dim, pool, max_coord)
        wit = min_discrepancy_witness(pair)
        assert wit is not None
        cap = max(wit[0], 1)
        oracle = oracle_min_psi(pair, cap)
        assert oracle == wit[0]
        assert is_terminal(pair) == (oracle > 1)
        assert is_canonical(pair) == (oracle >= 1)


def test_witness_matches_fraction_oracle():
    # the integer scoring must return the oracle's (value, point), ties
    # included: extraction order depends on the point
    rng = random.Random(20261018)
    pool = [0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(6, 7)]
    pairs = [
        random_cone_pair(rng, dim, pool, 4) for dim in (2, 3, 4) for _ in range(25)
    ]
    seen = set()
    for r in range(2, 8):
        for ws in product(range(r), repeat=3):
            G = make_group(3, [(r, ws)])
            key = group_lattice(G).rows
            if key not in seen:
                seen.add(key)
                X = quotient_pair(G)
                pairs += [X] + [p for _, p, _, _ in extraction_pairs(X)]
    pairs += [
        quotient_pair(make_group(3, [(25, (1, 10, 22))])),
        quotient_pair(make_group(3, [(8, (3, 6, 1)), (5, (0, 0, 1))])),
    ]
    sum_wins = 0
    for pair in pairs:
        wit = min_discrepancy_witness(pair)
        assert wit == oracle_witness(pair)
        rays = pair.fan.rays
        sum_wins += wit[1] in {
            tuple(x + y for x, y in zip(rays[a], rays[b]))
            for c in pair.fan.max_cones for a, b in combinations(c, 2)
        }
    assert 0 < sum_wins < len(pairs)


def test_terminal_implies_canonical():
    rng = random.Random(99)
    pool = [0, Fraction(1, 3), Fraction(1, 2)]
    for _ in range(20):
        pair = random_cone_pair(rng, 2, pool, 3)
        if is_terminal(pair):
            assert is_canonical(pair)


# -------------------------------------------------------- K-equivalence


def test_atiyah_pairs_k_equivalent():
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    py = make_pair(ATIYAH_Y, [0, 0, 0, 0])
    assert k_equivalent(px, py)
    assert k_equivalent(py, px)
    assert k_equivalent(px, px)


def test_k_equivalent_rejects_coefficient_mismatch():
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    py = make_pair(ATIYAH_Y, [Fraction(1, 2), 0, 0, 0])
    assert not k_equivalent(px, py)


def test_k_equivalent_rejects_ray_mismatch():
    p = make_pair(ORTHANT2, [0, 0])
    q = make_pair(BLOWUP2, [0, 0, 0])
    assert not k_equivalent(p, q)


def test_k_equivalent_detects_psi_disagreement():
    # quadrilateral cone with a noncoplanar ray: the two diagonal
    # triangulations interpolate different functions
    rays = [(0, 0, 1), (1, 0, 1), (3, 3, 2), (0, 1, 1)]
    fx = make_fan(rays, [(0, 1, 2), (0, 2, 3)])
    fy = make_fan(rays, [(0, 1, 3), (1, 2, 3)])
    px = make_pair(fx, [0, 0, 0, 0])
    py = make_pair(fy, [0, 0, 0, 0])
    assert not k_equivalent(px, py)
    # the same shape with all rays at height one is a genuine flop
    qx = make_pair(ATIYAH_X, [0, 0, 0, 0])
    qy = make_pair(ATIYAH_Y, [0, 0, 0, 0])
    assert k_equivalent(qx, qy)


def test_k_equivalent_support_mismatch_raises():
    complete = make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    p = make_pair(complete, [0, 0, 0])
    q = make_pair(ORTHANT2, [0, 0])
    with pytest.raises(InvalidInputError):
        k_equivalent(p, q)


def test_cell_extreme_rays_identical_cones():
    rays = cell_extreme_rays(ORTHANT2, (0, 1), ORTHANT2, (0, 1))
    assert set(rays) == {(1, 0), (0, 1)}


def test_cell_extreme_rays_overlap():
    fan2 = make_fan([(1, 1), (-1, 1)], [(0, 1)], validate="fast")
    rays = cell_extreme_rays(ORTHANT2, (0, 1), fan2, (0, 1))
    assert set(rays) == {(1, 1), (0, 1)}
    # lower-dimensional intersection reports empty
    fan3 = make_fan([(1, -1), (-1, -1)], [(0, 1)], validate="fast")
    assert cell_extreme_rays(ORTHANT2, (0, 1), fan3, (0, 1)) == ()
    # cones sharing a facet are parted by its functional, which is 0 on the
    # shared ray, with no walk and no LP
    assert pairs_module._separated(((1, 0), (0, 1)), ((0, 1), (-1, 0)))
    assert not pairs_module._separated(((1, 0), (0, 1)), ((1, 1), (-1, 1)))


def unfiltered_cell_extreme_rays(fan_x, cone_x, fan_y, cone_y):
    """cell_extreme_rays without its pre-filter: the walk over every
    (n-1)-subset of the two cones' facet functionals."""
    n = fan_x.dim
    funcs = tuple(dict.fromkeys(
        primitive(_inward(adjugate(fan.ray_matrix(cone)), k))
        for fan, cone in ((fan_x, cone_x), (fan_y, cone_y)) for k in range(n)
    ))
    found = set()
    for sub in combinations(funcs, n - 1):
        v = cofactor_kernel(sub)
        signs = [dot(v, f) for f in funcs]
        if any(v) and all(s >= 0 for s in signs):
            found.add(primitive(v))
        elif any(v) and all(s <= 0 for s in signs):
            found.add(primitive([-x for x in v]))
    if len(found) < n or mat_rank(list(found)) < n:
        return ()
    return tuple(sorted(found))


def _prefilter_cone_pairs():
    """800 cone pairs: every cone pair of flop_case seeds 0-5, then pairs of
    seeded random simplicial cones in dimensions 2, 3 and 4."""
    cases = []
    for seed in range(6):
        px, py, _ = flop_case(seed)
        cases += [(px.fan, cx, py.fan, cy)
                  for cx in px.fan.max_cones for cy in py.fan.max_cones]
    rng = random.Random(4242)
    while len(cases) < 800:
        dim = rng.choice([2, 3, 4])
        fans = []
        while len(fans) < 2:
            rays = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim)]
            if det(rays) != 0:
                rays = [primitive(r) for r in rays]
                fans.append(make_fan(rays, [tuple(range(dim))], validate="fast"))
        cases.append((fans[0], tuple(range(dim)), fans[1], tuple(range(dim))))
    return cases


def test_cell_extreme_rays_prefilter_matches_unfiltered_walk(monkeypatch):
    walks = []
    real_kernel = pairs_module.cofactor_kernel

    def counted(rows):
        walks.append(rows)
        return real_kernel(rows)

    monkeypatch.setattr(pairs_module, "cofactor_kernel", counted)
    verdicts = Counter()
    for fx, cx, fy, cy in _prefilter_cone_pairs():
        walks.clear()
        got = cell_extreme_rays(fx, cx, fy, cy)
        assert got == unfiltered_cell_extreme_rays(fx, cx, fy, cy)
        verdicts["nonempty" if got else "walked" if walks else "filtered"] += 1
    assert all(verdicts[v] >= 20 for v in ("nonempty", "walked", "filtered")), verdicts


def test_exceeds_matches_the_signs_at_each_cells_extreme_rays():
    # wherever the walk finds a full-dimensional cell, the LP's answer in
    # each direction is the sign of m_x - m_y at the cell's extreme rays
    # (a linear form is positive somewhere on a cone iff at one of its
    # rays), so a wrong LP shows here even where a final verdict holds.
    # Heights are seeded; a quarter of the pairs carry one linear form
    rng, seen = random.Random(77), Counter()
    for fx, cx, fy, cy in _prefilter_cone_pairs():
        hx = [Fraction(rng.randint(-3, 6), rng.randint(1, 3)) for _ in fx.rays]
        hy = [Fraction(rng.randint(-3, 6), rng.randint(1, 3)) for _ in fy.rays]
        if rng.random() < 0.25:  # one linear form on both cones
            hy = [corpus._linear_eval(fx, cx, hx, r) for r in fy.rays]
        if not (cell := cell_extreme_rays(fx, cx, fy, cy)):
            continue
        diffs = [corpus._linear_eval(fx, cx, hx, e) - corpus._linear_eval(fy, cy, hy, e)
                 for e in cell]
        a = (fx.ray_matrix(cx), [hx[i] for i in cx])
        b = (fy.ray_matrix(cy), [hy[i] for i in cy])
        up, down = any(d > 0 for d in diffs), any(d < 0 for d in diffs)
        assert (pairs_module._exceeds(a, b), pairs_module._exceeds(b, a)) == (up, down)
        seen[up, down] += 1
    assert all(seen[k] >= 10 for k in product((False, True), repeat=2)), seen


# ------------------------------------------------------------- k_compare


def test_k_compare_blowup_convention():
    # blowing up lowers psi at the inserted ray, so K_Y + C is the larger
    # divisor on the common resolution
    x = make_pair(ORTHANT2, [0, 0])
    y = make_pair(BLOWUP2, [0, 0, 0])
    assert k_compare(x, y) == "Y_ge_X"
    assert k_compare(y, x) == "X_ge_Y"
    assert k_compare(x, x) == "equal"


def test_k_compare_incomparable():
    x = make_pair(ORTHANT2, [Fraction(1, 2), 0])
    y = make_pair(BLOWUP2, [0, 0, 0])
    assert k_compare(x, y) == "incomparable"


def test_k_compare_atiyah_equal():
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    py = make_pair(ATIYAH_Y, [0, 0, 0, 0])
    assert k_compare(px, py) == "equal"


# -------------------------------------------------------- bending walls


def _certificate_cases():
    """Pairs on a common support: corpus seeds 0-79, the bumped corpus,
    mixed plain/bumped pairs, a linear psi off the height (the square cone
    with coefficients (0, 1/2, 1/2, 0)) and orthant against blow-up."""
    cases = []
    for seed in range(80):
        px, py, _ = flop_case(seed)
        bx, by = _bumped_corpus_case(seed)
        cases += [(px, py), (bx, by)] + [(px, by)] * (seed < 20)
    sloped = [0, Fraction(1, 2), Fraction(1, 2), 0]
    cases.append((make_pair(ATIYAH_X, sloped), make_pair(ATIYAH_Y, sloped)))
    half = Fraction(1, 2)
    cases.append((make_pair(ORTHANT2, [half, half]), make_pair(BLOWUP2, [half, half, 0])))
    return cases


def _forced_walk(monkeypatch):
    """Make k_compare walk the cells of every pair: the wall test always
    finds a bending wall off the other fan's facets."""
    monkeypatch.setattr(pairs_module, "_bends_off", lambda pair, fan: True)


def test_bending_wall_test_matches_cell_walk(monkeypatch):
    # k_equivalent and k_compare with the wall test, then every verdict
    # from the cell walk
    cases = _certificate_cases()
    passed = [not pairs_module._bends_off(py, px.fan) for px, py in cases]
    same = [k_equivalent(px, py) for px, py in cases]
    order = [k_compare(px, py) for px, py in cases]
    assert [walked_k_equivalent(px, py) for px, py in cases] == same
    _forced_walk(monkeypatch)
    assert [k_compare(px, py) for px, py in cases] == order
    assert passed[-2] and same[-2] and order[-1] == "equal"
    # the test passes on some pairs but not all, and every verdict occurs
    assert 0 < sum(passed) < len(cases) and 0 < sum(same) < len(cases)
    assert {"equal", "X_ge_Y", "Y_ge_X", "incomparable"} <= set(order)


def _coefficient_slice(dim, count):
    """The pairs flop_case(seed, dim) for seeds below count, each with
    zero, one bumped (1/4, 1/2 or 3/4 on one seeded ray) or random
    coefficients in turn by seed, the same on both sides."""
    cases = []
    for seed in range(count):
        px, py, _ = flop_case(seed, dim)
        rng, rays = random.Random(seed), px.fan.rays
        bumped, c = rng.choice(rays), Fraction(rng.randrange(1, 4), 4)
        coeff = ({r: 0 for r in rays}, {r: c if r == bumped else 0 for r in rays},
                 {r: Fraction(rng.randrange(4), 4) for r in rays})[seed % 3]
        cases.append(tuple(make_pair(p.fan, [coeff[r] for r in p.fan.rays]) for p in (px, py)))
    return cases


SUSPENDED_RAYS = [r + (0,) for r in ATIYAH_RAYS] + [(0, 0, 0, 1), (0, 0, 0, -1)]


def _suspended(cones):
    """The suspension of an Atiyah fan: each cone joined with each apex
    (0, 0, 0, 1) and (0, 0, 0, -1)."""
    return make_fan(SUSPENDED_RAYS, [c + (apex,) for c in cones for apex in (4, 5)])


def _suspended_atiyah_cases():
    """The suspended Atiyah flop with zero boundary, 1/2 on the apex e4 and
    1/2 on ray 0.  Y's equator walls have defect psi(e4) + psi(-e4) > 0,
    and two of them are each covered by two facets of X, not by one, so the
    wall test cannot decide and the LPs do: K-equivalent, K-equivalent, not."""
    fx, fy = _suspended([(0, 1, 2), (0, 2, 3)]), _suspended([(0, 1, 3), (1, 2, 3)])
    half = Fraction(1, 2)
    return [(make_pair(fx, c), make_pair(fy, c))
            for c in ([0] * 6, [0, 0, 0, 0, half, 0], [half, 0, 0, 0, 0, 0])]


def test_suspended_atiyah_flop_falls_back_to_the_cell_walk(monkeypatch):
    # the wall test cannot decide the suspended Atiyah flop; k_equivalent
    # falls back to the LPs, not to the engine's walk, and gives the cell
    # walk oracle's True, True, False
    cases = _suspended_atiyah_cases()
    expected = [walked_k_equivalent(px, py) for px, py in cases]
    assert expected == [True, True, False]
    real, posed = pairs_module._exceeds, Counter()

    def counted(a, b):
        posed["lp"] += 1
        return real(a, b)

    monkeypatch.setattr(pairs_module, "_exceeds", counted)
    monkeypatch.setattr(pairs_module, "cell_extreme_rays", _forbidden)
    monkeypatch.setattr(pairs_module, "cofactor_kernel", _forbidden)
    for (px, py), verdict in zip(cases, expected):
        assert pairs_module._bends_off(py, px.fan)
        posed.clear()
        assert k_equivalent(px, py) is verdict
        assert posed["lp"] > 0


def _unskipped_k_compare(pair_x, pair_y):
    """k_compare from the cell walk over every cone pair, identical ones
    included."""
    fx, fy = pair_x.fan, pair_y.fan
    psix, psiy = psi_heights(pair_x), psi_heights(pair_y)
    values = [
        (corpus._linear_eval(fx, cx, psix, e), corpus._linear_eval(fy, cy, psiy, e))
        for cx in fx.max_cones for cy in fy.max_cones
        for e in corpus.cell_extreme_rays(fx, cx, fy, cy)
    ]
    values += [(psix[i], pl_eval(fy, psiy, r)) for i, r in enumerate(fx.rays)]
    values += [(pl_eval(fx, psix, r), psiy[i]) for i, r in enumerate(fy.rays)]
    lt, gt = any(a < b for a, b in values), any(a > b for a, b in values)
    return {(True, True): "incomparable", (True, False): "X_ge_Y",
            (False, True): "Y_ge_X", (False, False): "equal"}[lt, gt]


def test_k_compare_skipping_identical_cones_matches_the_unskipped_loop(monkeypatch):
    # with the wall test forced to fail, k_compare poses LPs only for
    # distinct cone pairs and gives the unskipped walk's verdict; some
    # cases do share a cone, so the skip is exercised
    cases = _certificate_cases()
    assert any(set(px.fan.ray_matrix(cx)) == set(py.fan.ray_matrix(cy))
               for px, py in cases for cx in px.fan.max_cones for cy in py.fan.max_cones)
    expected = [_unskipped_k_compare(px, py) for px, py in cases]
    real, posed = pairs_module._exceeds, Counter()

    def distinct_only(a, b):
        assert set(a[0]) != set(b[0])
        posed["lp"] += 1
        return real(a, b)

    _forced_walk(monkeypatch)
    monkeypatch.setattr(pairs_module, "_exceeds", distinct_only)
    monkeypatch.setattr(pairs_module, "cell_extreme_rays", _forbidden)
    monkeypatch.setattr(pairs_module, "cofactor_kernel", _forbidden)
    assert [k_compare(px, py) for px, py in cases] == expected
    assert posed["lp"] > 0


def _walked_once(monkeypatch):
    """Make the oracles walk each cone pair's cells once, in either order:
    cell_extreme_rays sorts its rays, so both orders give one answer."""
    walk, memo = corpus.cell_extreme_rays, {}

    def shared(fx, cx, fy, cy):
        if (fx, cx, fy, cy) not in memo:
            memo[fx, cx, fy, cy] = memo[fy, cy, fx, cx] = walk(fx, cx, fy, cy)
        return memo[fx, cx, fy, cy]

    monkeypatch.setattr(corpus, "cell_extreme_rays", shared)


def _forbidden(*_):
    raise AssertionError("an engine function walked cells")


@pytest.mark.parametrize("name", ["certificate", "dim3", "dim4", "dim5"])
def test_k_equivalent_and_k_compare_match_the_cell_walk(monkeypatch, name):
    # the walk oracles first, then the engine with the walk forbidden, in
    # both argument orders; dimension 3 answers a bending wall off X's
    # facets for free, dimension >= 4 and k_compare by LPs.  The suspended
    # Atiyah flop rides with the certificate cases
    cases = {"certificate": lambda: _certificate_cases() + _suspended_atiyah_cases(),
             "dim3": lambda: _coefficient_slice(3, 150), "dim4": lambda: _coefficient_slice(4, 150),
             "dim5": lambda: _coefficient_slice(5, 25)}[name]()
    cases += [(py, px) for px, py in cases]
    _walked_once(monkeypatch)
    same = [walked_k_equivalent(px, py) for px, py in cases]
    order = [walked_k_compare(px, py) for px, py in cases]
    monkeypatch.setattr(pairs_module, "cell_extreme_rays", _forbidden)
    monkeypatch.setattr(pairs_module, "cofactor_kernel", _forbidden)
    assert [k_equivalent(px, py) for px, py in cases] == same
    assert [k_compare(px, py) for px, py in cases] == order
    # True, False, linear and bending-True cases occur, and every k_compare
    # class (the 25 dimension-5 pairs have no incomparable one)
    linear = [psi_linear(px) for px, _ in cases]
    assert 0 < sum(same) < len(cases) and any(linear)
    assert any(s and not flat for s, flat in zip(same, linear))
    assert set(order) == {"equal", "X_ge_Y", "Y_ge_X"} | (
        set() if name == "dim5" else {"incomparable"})
    if name == "certificate":
        assert same[-3:] == [True, True, False]


# ------------------------------------------------------------------- nef


def test_is_nef_p2():
    p2 = make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert is_nef(p2, [1, 1, 1])
    assert not is_nef(p2, [-1, 0, 0])
    assert is_nef(p2, [0, 0, 0])


def test_is_nef_flat_across_subdivision():
    sub = star_subdivision(ORTHANT2, (1, 1))
    # heights of a global linear form stay nef, a raised center does not
    assert is_nef(sub, [0, 1, 1])
    assert not is_nef(sub, [0, 1, 2])
    assert is_nef(sub, [0, 1, Fraction(1, 2)])


def _check_cone_witness(rays, scaled, L, ties):
    """_cone_witness of the one-cone fan on rays against the least (psi
    value, point) over every sorted box point and every primitive pair sum,
    counting each pair sum in ties by how it compares with the least box
    value and whether it is 0, and each cone by whether more than one box
    point takes the least value."""
    n = len(rays)
    fan = make_fan(rays, [tuple(range(n))], validate="fast")
    cone = fan.max_cones[0]
    cands = [
        (sum(t * scaled[i] for t, i in zip(bary, cone)) / L, p)
        for p, bary in oracle_box_points_in_coords(fan.ray_matrix(cone))
    ]
    low = min(cands, default=(None,))[0]
    ties["box", sum(v == low for v, _ in cands) > 1] += bool(cands)
    for a, b in combinations(cone, 2):
        w = tuple(x + y for x, y in zip(fan.rays[a], fan.rays[b]))
        if math.gcd(*w) == 1:
            cands.append((v := Fraction(scaled[a] + scaled[b], L), w))
            if low is not None:
                ties["tie" if v == low else "win" if v < low else "lose", v != 0] += 1
    assert pairs_module._cone_witness(fan, cone, scaled, L) == min(cands, default=None)


def test_cone_witness_matches_materialized_box_points():
    # _cone_witness scores numerators and builds only the least-scored
    # points, and only the pair sums whose key is at most the least box
    # score; the reference builds every sorted box point and every
    # primitive pair sum, and takes the least (psi value, point).  Seeded
    # cones give pair sums that win, lose and tie at 0.  A pair sum tying
    # the box minimum above 0, where the points decide, is built: the cone
    # on e1, e2 and (1, 1, m), moved by a seeded unimodular map, has box
    # points (1, 1, k) of score (m - k)(P_1 + P_2) + k P_3, all equal to
    # the key m (P_1 + P_2) of e1 + e2 when P_3 = P_1 + P_2
    rng = random.Random(1414)
    checked, ties = 0, Counter()
    while checked < 60:
        n = rng.choice([2, 3, 4])
        rays = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        d = det(rays)
        if d == 0 or abs(d) > 1000 or any(primitive(r) != r for r in rays) \
                or len(set(rays)) < n:
            continue
        checked += 1
        bound = rng.choice([0, 2, 40])  # small bounds force ties, 0 ties all
        _check_cone_witness(rays, [rng.randint(-bound, bound) for _ in range(n)],
                            rng.randint(1, 6), ties)
    for _ in range(60):
        U = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(6):
            (i, j), c = rng.sample(range(3), 2), rng.choice([-2, -1, 1, 2])
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        p1, p2 = rng.choice([(1, 2), (-3, 1), (2, 2), (0, 5), (-1, -4)])
        base = [((1, 0, 0), p1), ((0, 1, 0), p2), ((1, 1, rng.randint(2, 12)), p1 + p2)]
        rng.shuffle(base)
        _check_cone_witness([vec_mat(v, U) for v, _ in base], [p for _, p in base],
                            rng.randint(1, 6), ties)
    assert ties["tie", True] >= 60 and ties["tie", False] and ties["win", True] \
        and ties["lose", True], ties
    # the quotient cones of SL groups (1/r)(1, k, r - 1 - k), r <= 60, three
    # seeded k for each r, under their own psi: here box numerators tie at
    # the least score, and the least point among them wins
    ties.clear()
    for r in range(3, 61):
        for k in rng.sample(range(1, r - 1), min(3, r - 2)):
            X = quotient_pair(make_group(3, [(r, (1, k, r - 1 - k))]))
            _check_cone_witness(X.fan.rays, *pairs_module._scaled_psi(X), ties)
    assert ties["box", True] >= 150, ties


def test_scaled_psi_matches_the_one_minus_c_route():
    # psi_i * L read off each coefficient p/q as (q - p) * (L / q), against
    # the Fraction route: psi = 1 - c, cleared over the lcm of its
    # denominators
    def fraction_route(pair):
        psi = [1 - c for c in pair.coeffs]
        L = math.lcm(*(h.denominator for h in psi))
        return [h.numerator * (L // h.denominator) for h in psi], L

    fan = make_fan([(1, 0), (1, 1), (0, 1), (-1, 2)], [(0, 1), (1, 2), (2, 3)])
    values = [0, Fraction(1, 2), Fraction(3, 4), Fraction(5, 7)]
    rng = random.Random(36)
    cases = list(product(values, repeat=4))
    cases += [[Fraction(rng.randrange(q), q) for q in (rng.randint(1, 30) for _ in range(4))]
              for _ in range(300)]
    for coeffs in cases:
        pair = make_pair(fan, coeffs)
        assert _scaled_psi(pair) == fraction_route(pair), coeffs
    assert _scaled_psi(make_pair(fan, [0] * 4)) == ([1] * 4, 1)
    assert _scaled_psi(make_pair(fan, [Fraction(5, 7), 0, Fraction(3, 4), 0])) == ([8, 28, 7, 28], 28)
