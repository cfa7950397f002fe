"""Seeded generator of K-equivalent height-one fan pairs.

Each case lifts a random planar or spatial point set to height one, picks
strictly convex integer heights (paraboloid plus jitter, retried until
generic), triangulates, and then applies one to six random regular
flips.  Both fans carry zero boundary, so every wall is crepant and the
two pairs are K-equivalent by construction.

Also holds the replay oracle: step records re-applied by public surgery;
extraction_pairs and mmp_pairs, which read the pair off the engine's own
state after each step of terminalize and relative_mmp; the relative-MMP
inputs (cyclic_mmp_inputs, square_mmp_inputs, and mmp_probe_pair, seeded
inputs of a given size); STAR_P3, a fixed fan off height one;
lp_fractions, which reads lp_maximize's integer vertex as Fractions;
_cell_values, psi of both pairs at the extreme rays of every cell of the
exact cell walk (pairs.cell_extreme_rays), which no engine function calls;
walked_k_equivalent and walked_k_compare, the K-equivalence and
K-comparison oracles of that walk, with no wall test and no LP; and
psi_linear, which tells a psi that is one linear form.
"""

import random
from fractions import Fraction
from itertools import product

from toricmmp.circuits import classify, wall_relation
from toricmmp.errors import InvalidInputError, NonProjectiveError
from toricmmp.fan import _solve, _Subdivision, make_fan, star_subdivision, walls
from toricmmp.lattice import adjugate
from toricmmp.linprog import lp_maximize
from toricmmp.mckay import group_lattice, make_group, quotient_pair
from toricmmp.mmp import (
    ExtractionStep,
    _extraction_steps,
    _mmp_steps,
    ample_heights,
    bistellar_flip,
    divisorial_contract,
    regular_triangulation,
    terminalize,
)
from toricmmp.pairs import (
    _heights_linear,
    _same_rays_and_coeffs,
    _scaled_psi,
    cell_extreme_rays,
    make_pair,
    pl_eval,
    psi_heights,
)

def lp_fractions(c, A, b, upper=None):
    """lp_maximize's (y, D) as (optimum, vertex) in Fractions: the vertex
    y / D and the optimum c.y / D."""
    y, D = lp_maximize(c, A, b, upper)
    assert D > 0 and all(type(v) is int for v in (D, *y))
    return Fraction(sum(Fraction(cj) * v for cj, v in zip(c, y)), D), \
        tuple(Fraction(v, D) for v in y)


# five star subdivisions of the complete fan of P^3: a projective fan whose
# ample_heights LP, posed over h in [-1, 1] with negative right-hand sides,
# once stopped a phase-one pivot rule at a point with y < 0
STAR_P3 = make_fan(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 0, 3), (3, -3, 1), (-3, -2, -2),
     (-1, -3, 3), (-3, 1, 0)],
    [(0, 1, 3), (1, 2, 4), (0, 1, 4), (0, 4, 5), (0, 3, 5), (2, 3, 6), (1, 3, 6), (2, 4, 7),
     (2, 3, 7), (4, 5, 7), (3, 5, 7), (2, 6, 8), (1, 6, 8), (1, 2, 8)],
)


def _height_one_points(rng, dim):
    base = dim - 1
    span = 4 if base == 2 else 3
    count = rng.randrange(dim + 2, dim + 5)
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(span) for _ in range(base)))
    return sorted(p + (1,) for p in pts)


def _triangulate(rng, rays):
    # paraboloid term keeps every point on the lower hull, jitter breaks ties
    for _ in range(50):
        heights = [
            16 * sum(x * x for x in r[:-1]) + rng.randrange(8) for r in rays
        ]
        try:
            return regular_triangulation(rays, heights)
        except InvalidInputError:
            continue
    return None


def _random_flips(rng, fan, target):
    done = 0
    for _ in range(target):
        cands = [
            w for w in walls(fan)
            if classify(wall_relation(fan, w)).kind == "flipping"
        ]
        rng.shuffle(cands)
        moved = False
        for w in cands:
            try:
                nxt = bistellar_flip(fan, w)
            except InvalidInputError:
                continue
            try:
                ample_heights(nxt)
            except NonProjectiveError:
                continue
            fan, moved, done = nxt, True, done + 1
            break
        if not moved:
            break
    return fan, done


def flop_case(seed, dim=None):
    """(pair_x, pair_y, flips): a K-equivalent pair separated by at least
    one and at most six regular flips, in dimension dim, or 3 or 4 drawn
    from the seed when dim is None.  Deterministic in (seed, dim)."""
    rng = random.Random(seed)
    dim = dim or rng.choice([3, 4])
    for _ in range(20):
        rays = _height_one_points(rng, dim)
        fx = _triangulate(rng, rays)
        if fx is None:
            continue
        fy, done = _random_flips(rng, fx, rng.randrange(1, 7))
        if done == 0:
            continue
        zeros = [0] * len(fx.rays)
        return make_pair(fx, zeros), make_pair(fy, zeros), done
    raise RuntimeError(f"no corpus case for seed {seed}")


def _linear_eval(fan, cone, heights, point):
    """The linear extension of the cone's heights at point, with no
    containment test."""
    num, m = _solve(fan.ray_matrix(cone), point)
    return sum(x * heights[i] for x, i in zip(num, cone)) / m


def _cell_values(pair_x, pair_y):
    """(psi_X, psi_Y) at the extreme rays of every full-dimensional
    intersection of a cone of X with a cone of Y, skipping identical cones:
    their cell is the cone itself, whose rays the callers compare."""
    fx, fy = pair_x.fan, pair_y.fan
    psix, psiy = psi_heights(pair_x), psi_heights(pair_y)
    for cx in fx.max_cones:
        rx = set(fx.ray_matrix(cx))
        for cy in fy.max_cones:
            if rx != set(fy.ray_matrix(cy)):
                for e in cell_extreme_rays(fx, cx, fy, cy):
                    yield _linear_eval(fx, cx, psix, e), _linear_eval(fy, cy, psiy, e)


def walked_k_equivalent(pair_x, pair_y):
    """k_equivalent decided by the cell walk alone, with no wall test."""
    return _same_rays_and_coeffs(pair_x, pair_y) and all(
        a == b for a, b in _cell_values(pair_x, pair_y))


def walked_k_compare(pair_x, pair_y):
    """k_compare decided by psi at every ray and every cell's extreme rays,
    with no wall test."""
    _same_rays_and_coeffs(pair_x, pair_y)
    fx, fy = pair_x.fan, pair_y.fan
    psix, psiy = psi_heights(pair_x), psi_heights(pair_y)
    values = [(psix[i], pl_eval(fy, psiy, r)) for i, r in enumerate(fx.rays)]
    values += [(pl_eval(fx, psix, r), psiy[i]) for i, r in enumerate(fy.rays)]
    values += _cell_values(pair_x, pair_y)
    lt, gt = any(a < b for a, b in values), any(a > b for a, b in values)
    return {(False, False): "equal", (True, False): "X_ge_Y",
            (False, True): "Y_ge_X", (True, True): "incomparable"}[lt, gt]


def psi_linear(pair):
    """Is psi one linear form?  _heights_linear off the first cone."""
    fan, cone = pair.fan, pair.fan.max_cones[0]
    return _heights_linear(fan.rays, cone, adjugate(fan.ray_matrix(cone)), _scaled_psi(pair)[0])


def replay(pair, steps):
    """[pair, pair after step 1, ...]: each step record applied by public
    surgery.  An ExtractionStep star-subdivides at its ray (coefficient 0);
    any other record names its wall by the shared ray vectors, which is
    flipped, or contracted when the record's kind is "divisorial"."""
    out = [pair]
    for st in steps:
        fan, coeffs = pair.fan, pair.coeffs
        if isinstance(st, ExtractionStep):
            fan, coeffs = star_subdivision(fan, st.ray), coeffs + (0,)
        else:
            target = set(st.wall)
            w = next(w for w in walls(fan) if {fan.rays[i] for i in w.shared} == target)
            if getattr(st, "kind", "flip") == "divisorial":
                contracted, removed, _ = divisorial_contract(fan, w)
                j = fan.rays.index(removed)
                fan, coeffs = contracted, coeffs[:j] + coeffs[j + 1:]
            else:
                fan = bistellar_flip(fan, w)
        pair = make_pair(fan, coeffs, pair.lattice)
        out.append(pair)
    return out


def extraction_pairs(pair):
    """(step, pair after it, cones removed, cones created) for each step of
    terminalize, the pair read off the state: its fan and, from the scaled
    psi heights, its coefficients."""
    sub = _Subdivision(pair.fan)
    scaled, L = _scaled_psi(pair)
    for st, gone, new in _extraction_steps(sub, scaled, L):
        coeffs = [1 - Fraction(s, L) for s in scaled]
        yield st, make_pair(sub.fan(), coeffs, pair.lattice), gone, new


def mmp_pairs(pair):
    """(step, pair after it, state) for each step of relative_mmp, the pair
    read off the state: its fan, and each ray's coefficient in pair."""
    sub, coeff = _Subdivision(pair.fan), dict(zip(pair.fan.rays, pair.coeffs))
    for st, _, _ in _mmp_steps(sub, *_scaled_psi(pair)):
        fan = sub.fan()
        yield st, make_pair(fan, [coeff[v] for v in fan.rays], pair.lattice), sub


def mmp_probe_pair(seed, n):
    """The pair over the regular triangulation of n random height-one
    points in dimension 3, heights near a paraboloid, with coefficients
    drawn from {0, 1/4, 1/2, 3/4}; None when the heights leave a flat wall.
    Deterministic in (seed, n)."""
    rng = random.Random(1009 * seed + n)
    side = 2 * int(n ** 0.5) + 1
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(side), rng.randrange(side), 1))
    rays = sorted(pts)
    heights = [x * x + y * y + Fraction(rng.randint(-20, 20), 97) for x, y, _ in rays]
    try:
        fan = regular_triangulation(rays, heights)
    except InvalidInputError:
        return None
    return make_pair(fan, [Fraction(rng.randrange(4), 4) for _ in rays])


def cyclic_mmp_inputs():
    """The pairs that mckay_pipeline hands to the relative MMP for every
    distinct cyclic 3-fold group with r <= 12: the terminalization with
    every coefficient dropped to zero, over the quotient cone."""
    groups = {}
    for r in range(1, 13):
        for ws in product(range(r), repeat=3):
            G = make_group(3, [(r, ws)])
            groups.setdefault(group_lattice(G).rows, G)
    out = []
    for G in groups.values():
        X = quotient_pair(G)
        Y, _ = terminalize(X)
        out.append(make_pair(Y.fan, [0] * len(Y.fan.rays), Y.lattice))
    return out


def square_mmp_inputs(seed, count):
    """Pairs over cones on lattice squares at height 1, triangulated
    near the heights x^2 + y^2, with random coefficients; their MMPs mix
    flips and contractions."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        side = rng.choice([2, 3, 4])
        corners = [(0, 0, 1), (side, 0, 1), (side, side, 1), (0, side, 1)]
        pts = set(corners)
        target = rng.randint(5, min(12, (side + 1) ** 2))
        while len(pts) < target:
            pts.add((rng.randint(0, side), rng.randint(0, side), 1))
        rays = sorted(pts)
        heights = [x * x + y * y + Fraction(rng.randint(-20, 20), 97) for x, y, _ in rays]
        try:
            fan = regular_triangulation(rays, heights)
        except InvalidInputError:
            continue  # flat wall: the perturbed heights are not generic
        coeffs = [rng.choice([0, 0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]) for _ in rays]
        out.append(make_pair(fan, coeffs))
    return out
