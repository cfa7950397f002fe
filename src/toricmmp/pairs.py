"""Log pairs on simplicial fans and their discrepancy calculus.

A pair is a fan plus one boundary coefficient per ray, each in [0,1).  The
log discrepancy function psi is the piecewise linear function with
psi(v_i) = 1 - d_i: singularity tests, K-equivalence, and divisor
comparison all reduce to exact evaluations of psi.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, inf, lcm
from operator import mul

from .circuits import _defect
from .errors import InvalidInputError, _exact_rationals
from .fan import Fan, _facet_map, _inward, _solve, _Subdivision, in_support, locate
from .lattice import (
    _ZERO,
    LatticeBasis,
    _box_numerators,
    adjugate,
    cofactor_kernel,
    dot,
    mat_rank,
    primitive,
    vec_add,
    vec_mat,
)


@dataclass(frozen=True)
class ToricPair:
    fan: Fan
    coeffs: tuple        # boundary coefficient per ray, each in [0,1)
    lattice: LatticeBasis


def make_pair(fan, coeffs, lattice=None):
    if lattice is None:
        lattice = LatticeBasis.standard(fan.dim)
    if lattice.dim != fan.dim:
        raise InvalidInputError("lattice dimension does not match the fan")
    cs = tuple(Fraction(c) if c else _ZERO for c in _exact_rationals(
        coeffs, "boundary coefficients must be exact rationals, not bool or float",
        len(fan.rays), "one boundary coefficient per ray required"))
    for c in cs:
        if not 0 <= c < 1:
            raise InvalidInputError(f"boundary coefficient {c} outside [0,1)")
    return ToricPair(fan, cs, lattice)


def psi_heights(pair):
    """Heights of the log discrepancy function: 1 - d_i at ray i."""
    return tuple(1 - c for c in pair.coeffs)


def pl_eval(fan, heights, point):
    """Evaluate the piecewise linear interpolation of ray heights at a
    support point."""
    hs = _exact_rationals(heights, "heights must be exact rationals, not bool or float",
                          len(fan.rays), "one height per ray required")
    ci, lam = locate(fan, point)
    return sum(l * Fraction(hs[i]) for l, i in zip(lam, fan.max_cones[ci]))


def _linear_eval(fan, cone, heights, point):
    # the linear extension of the cone's heights, no containment test
    num, m = _solve(fan.ray_matrix(cone), point)
    return sum(x * heights[i] for x, i in zip(num, cone)) / m


def min_discrepancy_witness(pair):
    """(value, point) minimizing psi over primitive non-ray lattice points
    of the support, or None when no candidate exists.

    The minimum of psi over such points is attained either at a box point
    of some maximal cone or at a pairwise sum of two rays of one cone:
    any lattice point splits as an integer ray combination plus a box
    point, psi is positive on rays, and a non-primitive pair sum rescales
    to a box point of the same cone.

    Candidates score as integers over m * L, m the cone's multiplicity and
    L the lcm of the psi denominators: sum(num_i * psi_i * L) at box point
    barycentrics num / m, m * (psi_a + psi_b) * L at a pair sum.  Only each
    cone's least (key, point) becomes a Fraction.
    """
    scaled, L = _scaled_psi(pair)
    wits = (_cone_witness(pair.fan, cone, scaled, L) for cone in pair.fan.max_cones)
    return min((w for w in wits if w is not None), default=None)


def _scaled_psi(pair):
    """(scaled, L): L the lcm of the psi denominators and scaled[i] the
    integer psi_i * L.  psi_i = 1 - p/q is (q - p)/q in lowest terms, so L
    is the lcm of the coefficients' denominators q and psi_i * L is
    (q - p) * (L / q)."""
    L = lcm(*(c.denominator for c in pair.coeffs))
    return [(c.denominator - c.numerator) * (L // c.denominator) for c in pair.coeffs], L


def _cone_witness(fan, cone, scaled, L):
    """The least (psi value, point) over the nonzero box points of one
    cone and the primitive sums of two of its rays, or None.  Only the box
    numerators of least score sum(num_i * P_i) become points, and only the
    pair sums whose key m (P_a + P_b) is at most that least score become
    sums: a larger key loses to a box point."""
    C = fan.ray_matrix(cone)
    m, nums = _box_numerators(C)
    P = [scaled[i] for i in cone]
    scores = [sum(map(mul, num, P)) for num in nums]
    low = min(scores, default=inf)
    keys = [(low, tuple(x // m for x in vec_mat(num, C)))
            for num, s in zip(nums, scores) if s == low]
    for a, b in combinations(cone, 2):
        key = m * (scaled[a] + scaled[b])
        if key <= low and gcd(*(w := vec_add(fan.rays[a], fan.rays[b]))) == 1:
            keys.append((key, w))
    if not keys:
        return None
    key, point = min(keys)
    return Fraction(key, m * L), point


def is_terminal(pair):
    """psi > 1 at every primitive lattice point that is not a ray."""
    wit = min_discrepancy_witness(pair)
    return wit is None or wit[0] > 1


def is_canonical(pair):
    """psi >= 1 at every primitive lattice point that is not a ray."""
    wit = min_discrepancy_witness(pair)
    return wit is None or wit[0] >= 1


# the cell walk solves one (n-1)-subset of the <= 2n facet functionals at a
# time: 2^14 admits C(16, 7) = 11,440, the dimension-8 worst case.  On a
# 2-core VM, one dimension-8 cone pair with 16 distinct functionals walks
# all 11,440 subsets in 5.6 s
MAX_CELL_SUBSETS = 2 ** 14


def cell_extreme_rays(fan_x, cone_x, fan_y, cone_y):
    """Primitive extreme rays of the intersection of two full-dimensional
    simplicial cones; empty when the intersection is lower-dimensional.
    More than MAX_CELL_SUBSETS facet subsets raise InvalidInputError before
    any enumeration."""
    n = fan_x.dim
    ux = [_inward(adjugate(fan_x.ray_matrix(cone_x)), k) for k in range(n)]
    uy = [_inward(adjugate(fan_y.ray_matrix(cone_y)), k) for k in range(n)]
    funcs = tuple(dict.fromkeys(primitive(u) for u in ux + uy))
    count = comb(len(funcs), n - 1)
    if count > MAX_CELL_SUBSETS:
        raise InvalidInputError(
            f"cell walk over {count} facet subsets exceeds the limit {MAX_CELL_SUBSETS}"
        )
    # a facet functional of one cone that is <= 0 on every ray of the other
    # confines the intersection to its hyperplane
    rx, ry = fan_x.ray_matrix(cone_x), fan_y.ray_matrix(cone_y)
    if any(all(dot(u, r) <= 0 for r in ry) for u in ux) or any(
        all(dot(u, r) <= 0 for r in rx) for u in uy
    ):
        return ()
    found = {}
    for sub in combinations(funcs, n - 1):
        v = cofactor_kernel(sub)
        if all(x == 0 for x in v):
            continue
        signs = [dot(v, f) for f in funcs]
        if all(s >= 0 for s in signs):
            found[primitive(v)] = True
        elif all(s <= 0 for s in signs):
            found[primitive([-x for x in v])] = True
    rays = tuple(found)
    if len(rays) < n or mat_rank(rays) < n:
        return ()
    return tuple(sorted(rays))


def _same_rays_and_coeffs(pair_x, pair_y):
    """The cheap half of K-equivalence: raise InvalidInputError unless the
    pairs share lattice, dimension and support, then say whether they
    carry the same coefficient on the same rays."""
    fx, fy = pair_x.fan, pair_y.fan
    if pair_x.lattice is not pair_y.lattice and pair_x.lattice != pair_y.lattice:
        raise InvalidInputError("pairs live on different lattices")
    if fx.dim != fy.dim:
        raise InvalidInputError("pairs have different dimensions")
    kx, ky = fx.support_kind, fy.support_kind
    if kx != ky:
        raise InvalidInputError("supports differ")
    if fx.rays == fy.rays:  # no ray of one fan to test in the other's support
        return pair_x.coeffs == pair_y.coeffs
    if kx == "cone-supported":
        # a fan's own ray is in its support: test only the other fan's rays
        ox, oy = set(fx.rays), set(fy.rays)
        ok = all(in_support(fy, r) for r in fx.rays if r not in oy) and all(
            in_support(fx, r) for r in fy.rays if r not in ox
        )
        if not ok:
            raise InvalidInputError("supports differ")
    return dict(zip(fx.rays, pair_x.coeffs)) == dict(zip(fy.rays, pair_y.coeffs))


def _heights_linear(rays, cone, kernel, scaled):
    """Are the integer heights scaled those of one linear form on the rays,
    a tombstone None skipped?  The form of cone, with kernel = (adj, d) its
    ray matrix's adjugate, is p.W / d for W = adj.(scaled on the cone)."""
    adj, d = kernel
    P = [scaled[i] for i in cone]
    W = [sum(map(mul, row, P)) for row in adj]
    return all(r is None or dot(r, W) == s * d for r, s in zip(rays, scaled))


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


def _bends_off(pair, fan):
    """Does psi of pair bend across a wall of its fan whose ray vectors are
    not a facet of fan (a ray fan lacks matches none)?  A wall is looked up
    first; only a miss reads its psi-defect, zero when its first cone's
    form takes psi's value at the other apex.  False means every bending
    wall is a facet of fan, so psi is linear on each cone of fan."""
    own, scaled = _Subdivision(pair.fan), _scaled_psi(pair)[0]
    index, facets = {r: i for i, r in enumerate(fan.rays)}, set(_facet_map(fan))
    return any(own.bend(f, scaled) for f, cs in own.facets.items() if len(cs) == 2
               and tuple(sorted(index.get(own.rays[i], -1) for i in f)) not in facets)


def k_equivalent(pair_x, pair_y):
    """Do the pairs share rays, coefficients, and log discrepancy function?

    Ray-set or coefficient mismatches return False.  Else, when no bending
    wall of Y misses X's facets (_bends_off), psi_Y is linear on each cone
    of X and agrees with psi_X at its rays: True.  In dimension <= 3 a
    missed wall meets a cone's interior (two planar cones over one ray set
    overlap only if equal), where psi_Y bends and psi_X does not: False.
    Dimension >= 4 decides the rest at the extreme rays of the
    full-dimensional pairwise cone intersections (_cell_values).
    """
    if not _same_rays_and_coeffs(pair_x, pair_y):
        return False
    if not _bends_off(pair_y, pair_x.fan):
        return True
    return pair_x.fan.dim > 3 and all(a == b for a, b in _cell_values(pair_x, pair_y))


def k_compare(pair_x, pair_y):
    """Compare K_X + B against K_Y + C as divisors on a common resolution.

    Returns "equal", "X_ge_Y", "Y_ge_X", or "incomparable".  Higher log
    canonical divisor means lower psi: psi_X <= psi_Y everywhere with a
    strict point reports X_ge_Y.

    When psi_Y bends only across facets of X (not _bends_off), psi_X -
    psi_Y is linear on each cone of X, so the ray loop over X's rays sees
    every sign, and the cell loop is skipped; so too with X and Y swapped.
    For the same reason _cell_values skips identical cones.
    """
    _same_rays_and_coeffs(pair_x, pair_y)  # for its footing and support checks
    fx, fy = pair_x.fan, pair_y.fan
    psix, psiy = psi_heights(pair_x), psi_heights(pair_y)
    values = [(psix[i], pl_eval(fy, psiy, r)) for i, r in enumerate(fx.rays)]
    values += [(pl_eval(fx, psix, r), psiy[i]) for i, r in enumerate(fy.rays)]
    if _bends_off(pair_y, fx) and _bends_off(pair_x, fy):
        values += _cell_values(pair_x, pair_y)
    lt, gt = any(a < b for a, b in values), any(a > b for a, b in values)
    return {(False, False): "equal", (True, False): "X_ge_Y",
            (False, True): "Y_ge_X", (True, True): "incomparable"}[lt, gt]


def is_nef(fan, heights):
    """Nonnegative defect across every wall."""
    hs = _exact_rationals(heights, "heights must be exact rationals, not bool or float",
                          len(fan.rays), "one height per ray required")
    return all(_defect(rel, hs) >= 0 for _, rel in _Subdivision(fan).relations())
