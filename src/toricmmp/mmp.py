"""Exact minimal model surgery on simplicial fans.

Four engines share the wall calculus: regular triangulation by placing and
flipping, decomposition of a K-equivalence into a flop sequence driven by a
pencil of height functions, the relative MMP over an affine base, and
terminalization by repeated discrepancy-one-or-less extractions.  All
scheduling ties are broken by a symbolic infinitesimal perturbation or by
explicit lexicographic rules, so every run is deterministic.

Every surgery is a step of one local fan state (fan._Subdivision): placing
a ray (star subdivision inside the support, joins to the boundary facets
that see it outside), or Reid's circuit step T+ * L -> T- * L, a flip or a
divisorial contraction.  Every engine loop keeps one state across its
steps instead of rebuilding the fan.  The flop sweep, regular
triangulation and the MMP give it only a key per wall and pop their next
wall from its one candidate queue (each wall's relation is computed once
per cone pair, and its key renewed on the facets each step touched); the
only make_fan call builds regular triangulation's seed cone.  The
extraction and MMP loops step a state their caller owns and yield steps
with the cones they removed and created, so the McKay pipeline carries
one state through both.  The relative MMP runs over the support cone of
its state: the only base over which X -> U_base is proper.
"""

from fractions import Fraction
from functools import cmp_to_key
from heapq import heappop, heappush
from math import gcd, lcm
from typing import NamedTuple

from .circuits import _defect, classify, wall_relation
from .errors import (
    BudgetExceededError,
    EngineInvariantError,
    InvalidInputError,
    NonProjectiveError,
    NotKEquivalentError,
    _exact_rationals,
)
from .fan import Fan, _exact_rays, _facet_map, _Subdivision, make_fan
from .lattice import MAX_MULTIPLICITY, mat_rank, primitive
from .linprog import lp_maximize
from .pairs import (
    ToricPair,
    _cone_witness,
    _heights_linear,
    _same_rays_and_coeffs,
    _scaled_psi,
    k_equivalent,
)


class FlopStep(NamedTuple):
    wall: tuple              # shared ray vectors of a crossing wall
    circuit: tuple           # the n+1 circuit ray vectors
    coeffs: tuple            # relation coefficients, aligned with circuit
    event_time: Fraction     # crossing time of the unperturbed pencil
    k_defect_check: Fraction  # discrepancy defect at the event, always 0


class MmpStep(NamedTuple):
    kind: str                # "flip" | "divisorial"
    wall: tuple              # shared ray vectors
    circuit: tuple
    coeffs: tuple
    defect: Fraction         # discrepancy defect that triggered the step
    removed_ray: tuple | None
    center: tuple | None     # the circuit's positive rays: the divisor's image


class ExtractionStep(NamedTuple):
    ray: tuple
    psi_value: Fraction      # log discrepancy of the extracted valuation


# ------------------------------------------------------------ projectivity


# the rows x columns of an ample heights LP: one row per wall, a column per
# ray and two more (README, Limits)
MAX_LP_SIZE = 2 ** 13


def ample_heights(fan):
    """Heights strictly convex across every wall, found by maximizing the
    worst wall defect t in [0, 1].  Raises NonProjectiveError when only
    flat-or-worse height functions exist.

    In standard form over y = (h + w, t, w) >= 0, with a homogenizing w in
    [0, 1] of objective weight 1: one row t - d(y) + d(1) w <= 0 per wall,
    d its defect, in walls() order, and the caps y_i <= 2, t <= 1 and w <=
    1 as the LP's bounds, not rows.  Every right-hand side is 0, so the
    origin is feasible.
    A box optimum t* > 0 over h in [-1, 1] makes (h + 1, t*, 1) feasible,
    and then t + w >= t* + 1 at the optimum forces t > 0.  An LP of more
    than MAX_LP_SIZE rows x columns raises InvalidInputError unsolved."""
    rels = ((rel.ray_indices, rel.coeffs) for _, rel in _Subdivision(fan).relations())
    H, D = _ample_heights(len(fan.rays), rels)
    return tuple(Fraction(h, D) for h in H)


def _ample_heights(n_rays, rels):
    """Heights strictly convex across the walls rels, (ray indices,
    coefficients) pairs in walls() order, as integers H over one
    denominator D > 0: the vertex of ample_heights' LP, h_i = y_i - w,
    over the least common denominator of y_1, ..., y_n and w, read off the
    LP's integer vertex with one gcd."""
    rels = list(rels)
    if not rels:
        return [0] * n_rays, 1
    if len(rels) * (n_rays + 2) > MAX_LP_SIZE:
        raise InvalidInputError(
            f"the ample heights LP of {len(rels)} walls x {n_rays + 2} columns is "
            f"past its stated limit of MAX_LP_SIZE = {MAX_LP_SIZE} rows x columns"
        )
    A = []  # the LP of ample_heights' docstring
    for indices, coeffs in rels:
        row = [0] * (n_rays + 2)
        for i, a in zip(indices, coeffs):
            row[i] = -a
        row[n_rays], row[-1] = 1, sum(coeffs)
        A.append(row)
    y, D = lp_maximize([0] * n_rays + [1, 1], A, [0] * len(A), [2] * n_rays + [1, 1])
    if y[n_rays] <= 0:
        raise NonProjectiveError("no strictly convex height function exists")
    W = y[-1]
    g = gcd(D, W, *y[:n_rays])
    return [(v - W) // g for v in y[:n_rays]], D // g


# -------------------------------------------------------------- surgeries


def bistellar_flip(fan, wall):
    """Replace the plus-side cones of the wall circuit by the minus side.

    The wall must be of flipping type and its circuit isolated: every cone
    spanned by the circuit minus one plus-ray is present in the fan.  This
    is a one-wall step: when the circuit's nonzero rays span further walls
    (their link is wider than the wall's own zero rays), flipping this wall
    alone would leave those walls on the old triangulation, and that raises
    InvalidInputError.  The engine's own loops flip the whole link.
    """
    rel = wall_relation(fan, wall)
    if classify(rel).kind != "flipping":
        raise InvalidInputError("wall is not of flipping type")
    sub = _Subdivision(fan)
    flipped = sub.flip(rel)
    if flipped is None:
        raise InvalidInputError("wall circuit is not isolated")
    if len(flipped[0]) > len(rel.s_plus):
        raise InvalidInputError("the flip across this wall changes the support kind")
    return sub.fan()


def divisorial_contract(fan, wall):
    """Contract the unique negative ray of a divisorial wall circuit;
    returns (fan, removed_ray, center_rays), the last the circuit's
    positive rays, which span the face the divisor maps onto, with the
    removed ray in its relative interior."""
    rel = wall_relation(fan, wall)
    kind = classify(rel)
    if kind.kind != "divisorial":
        raise InvalidInputError("wall is not of divisorial type")
    sub = _Subdivision(fan)
    if sub.contract(rel, kind.ray) is None:
        raise InvalidInputError("star of the contracted ray does not match the circuit")
    return sub.fan(), fan.rays[kind.ray], tuple(fan.rays[i] for i in rel.s_plus)


# ------------------------------------------------- regular triangulation


def _flips_to_convexity(sub, budget, n):
    """Flip away the negative-defect walls of the state sub, most negative
    first, until every wall is convex; returns the flips left of budget,
    regular_triangulation's limit of 10 n^2 for n rays.  The state keys a
    negative wall by its defect under regular_triangulation's heights and
    sorted facet vectors.  A circuit's walls share its defect and flip
    together (fan._Subdivision.flip).

    One pass per placement suffices (Edelsbrunner and Shah, "Incremental
    topological flipping works for regular triangulations", 1996): a wall
    whose circuit misses the placed ray was a wall of the regular
    triangulation before it, and flipping the walls whose circuit holds
    the ray reaches the regular triangulation with it.  So a negative wall
    that no flip executes is an invariant break."""
    for _, _, rel in iter(sub.pop, None):
        kind = classify(rel)
        if kind.kind == "divisorial":
            raise InvalidInputError(f"ray {sub.rays[kind.ray]} is not on the lower hull")
        if kind.kind == "fiber":
            raise InvalidInputError(
                "fiber-type wall: heights have no lower hull over this support"
            )
        if sub.flip(rel) is None:
            continue
        if budget == 0:
            raise BudgetExceededError(
                f"regular triangulation stopped at its stated limit of "
                f"10*n^2 = {10 * n ** 2} flips for n = {n} rays"
            )
        budget -= 1
    if sub.tried:
        raise EngineInvariantError("negative wall stuck with non-isolated circuit")
    return budget


def regular_triangulation(rays, heights):
    """Triangulate the cone over the rays along the lower hull of the
    lifted heights, by placing the rays one by one, each followed by flips
    to convexity.  One fan state (fan._Subdivision) takes every placement
    and flip from the seed cone, the only fan make_fan builds, to the
    result, whose every step ran the fast checks: so the result is the
    state's cones in its cone order, with its kind.  The rays pass
    make_fan's ray check (fan._exact_rays), with its messages, and take
    one exact height each, read as integers over the lcm of their
    denominators."""
    rays, dim = _exact_rays(rays)
    hs = _exact_rationals(heights, "heights must be exact rationals, not bool or float",
                          len(rays), "one height per ray required")

    seed = []
    for i, r in enumerate(rays):
        if mat_rank([rays[k] for k in seed] + [r]) == len(seed) + 1:
            seed.append(i)
        if len(seed) == dim:
            break
    if len(seed) < dim:
        raise InvalidInputError("rays do not span the ambient space")

    D, n = lcm(*(h.denominator for h in hs)), len(rays)
    order = seed + [k for k in range(n) if k not in seed]  # the rays by state id
    H = [hs[k].numerator * (D // hs[k].denominator) for k in order]
    budget = 10 * n ** 2  # a stated limit, not a proved bound
    sub = _Subdivision(make_fan([rays[i] for i in seed], [tuple(range(dim))]))
    vectors = sub.rays  # read by sub.score, which so holds no reference to sub
    sub.score_walls(lambda f, rel: (d, tuple(sorted(vectors[i] for i in f)))
                    if (d := _defect(rel, H)) < 0 else None)
    for k in order[dim:]:
        sub.place(rays[k])
        budget = _flips_to_convexity(sub, budget, n)

    if any(_defect(rel, H) == 0 for rel, _ in sub.walls.values()):
        raise InvalidInputError("heights are not generic: flat wall at convergence")
    cones = tuple(tuple(sorted(order[i] for i in c)) for c in sub.max_cones)
    return Fan(dim, rays, cones, sub.kind)


# ---------------------------------------------------------- flop sweeper


def flop_decompose(pair_x, pair_y):
    """Decompose a K-equivalence into the flop sequence swept out by the
    pencil between ample height functions of the two fans.

    Ties are collapsed by an infinitesimal lexicographic perturbation of
    the target heights, so each event is a single circuit.  Returns the
    tuple of FlopStep records; replaying their circuits on the first fan
    reproduces the second.

    A sweep that reaches Y certifies K-equivalence: rays and coefficients
    agree, and each event circuit has psi-defect 0, so psi is linear on its
    cones and the flip keeps it.  Only a sweep that fails with a
    NonProjectiveError or an EngineInvariantError asks k_equivalent: False
    raises NotKEquivalentError, True the sweep's error.  Any other refusal,
    such as an LP past MAX_LP_SIZE, is final, K-equivalent or not.  Only
    in dimension >= 4 does k_equivalent pose LPs (pairs._exceeds).
    """
    if not _same_rays_and_coeffs(pair_x, pair_y):
        raise NotKEquivalentError("pairs are not K-equivalent")
    try:
        return tuple(step for step, _ in _sweep(pair_x, pair_y))
    except (NonProjectiveError, EngineInvariantError):
        if not k_equivalent(pair_x, pair_y):
            raise NotKEquivalentError("pairs are not K-equivalent") from None
        raise


def _crosses(d1, coeffs):
    """Is the perturbed target defect, d1 plus coefficient a_i on eps^(i+1),
    negative?  Its sign is that of d1, or when d1 is 0 that of the first
    nonzero coefficient (the coefficients follow ascending ray index)."""
    return d1 < 0 or d1 == 0 and next(a for a in coeffs if a) < 0


def _earlier(e, f):
    """-1, 0 or 1 as the crossing time d0/q of event e is before, at or
    after that of event f: exact cross-multiplication, constant terms
    first, then the eps coefficients in order."""
    a, b = e[0] * f[1], f[0] * e[1]
    if a == b:
        a, b = [e[0] * x for x in f[2]], [f[0] * x for x in e[2]]
    return (a > b) - (a < b)


_by_time = cmp_to_key(_earlier)


def _sweep(pair_x, pair_y):
    """The steps of flop_decompose, with no K-equivalence check of its own,
    each yielded as (step, sub) with the local state it leaves.

    The state lives for the whole sweep: the fan under flips (sub, a
    fan._Subdivision) scores each wall by its event, and a flip rescores
    only the facets it touched, around one circuit.

    The state's relations, kept per pair of cones in X's ray indices,
    serve X's walls, Y's walls and every rescored facet, so each wall's
    relation is computed once.  Y's walls map into X's indices through the
    ray vectors; Y's heights are still posed in Y's own ray and walls()
    order, since the LP's vertex follows its row and column order.

    Events are integers.  _ample_heights hands over h0 and h1 as integers;
    over their common denominator D a wall's defects are d0 at t = 0 and
    d1 at t = 1.  The target heights carry a symbolic tie-breaker
    eps^(i+1) on ray i, so the target defect is d1
    plus the relation coefficient a_i on eps^(i+1); it is negative, and the
    wall crosses, when d1 < 0, or d1 = 0 and the first nonzero coefficient
    is negative.  A crossing wall's event is (d0, q, eps) with q = d0 - d1
    and eps[i] = -a_i, its crossing time d0/q(eps); times compare by
    cross-multiplication, lexicographically in eps (_earlier), the key of
    the state's queue.  So the next event is the least by (crossing time,
    facet), facet order being walls() order, and the walls popped next
    with an equal key are tied with it.

    Each circuit fires at most once.  Its perturbed defect is affine in t
    and generic, so it is positive before its crossing time and negative
    after it; once it has fired, no later fan of the sweep, which is
    strictly convex for the current heights, has a wall with that relation.
    So the events number at most the circuits among the rays, and the set
    of fired (circuit rays, coefficients) is the sweep's bound: a repeat is
    an invariant break, not an exhausted budget.

    The end check reads Y's cones through to_x, Y's ray index -> X's: the
    sweep has reached Y when its cones are Y's so mapped.  No fan is built
    for it, since flips move no ray and flop_decompose has found the two
    ray sets equal."""
    fx, fy = pair_x.fan, pair_y.fan
    n_rays = len(fx.rays)
    sub = _Subdivision(fx)
    H0, D0 = _ample_heights(n_rays, ((rel.ray_indices, rel.coeffs) for _, rel in sub.relations()))
    pos = {v: i for i, v in enumerate(fx.rays)}
    to_x = [pos[v] for v in fy.rays]
    to_y = sorted(range(n_rays), key=to_x.__getitem__)
    permuted, y_rels = fy.rays != fx.rays, []
    for f, cs in sorted(_facet_map(fy).items()):
        if len(cs) == 2:
            if permuted:  # into X's ray indices
                f, *cs = (tuple(sorted(to_x[i] for i in c)) for c in (f, *cs))
            rel = sub.relation(f, cs)
            idx = [to_y[i] for i in rel.ray_indices] if permuted else rel.ray_indices
            y_rels.append((idx, rel.coeffs))
    H1_y, D1 = _ample_heights(n_rays, y_rels)
    D = lcm(D0, D1)
    H0 = [h * (D // D0) for h in H0]
    H1 = [H1_y[j] * (D // D1) for j in to_y]
    scaled, L = _scaled_psi(pair_x)

    def event(f, rel):
        d1 = _defect(rel, H1)
        if not _crosses(d1, rel.coeffs):
            return None
        d0 = _defect(rel, H0)
        if d0 <= 0:
            raise EngineInvariantError("wall defect nonpositive before its event")
        eps = [0] * n_rays
        for i, a in zip(rel.ray_indices, rel.coeffs):
            eps[i] = -a
        return _by_time((d0, d0 - d1, eps))

    sub.score_walls(event)
    fired = set()
    for key, facet, rel in iter(sub.pop, None):
        tied = [rel]
        while (entry := sub.pop()) is not None and entry[0] == key:
            tied.append(entry[2])
        signatures = {(tuple(sub.rays[i] for i in r.ray_indices), r.coeffs) for r in tied}
        if len(signatures) > 1:
            raise EngineInvariantError("simultaneous events on distinct circuits")
        d0, q, _ = key.obj
        if k_defect := _defect(rel, scaled):  # an integer over L
            raise EngineInvariantError(
                f"event wall has discrepancy defect {Fraction(k_defect, L)}, expected 0"
            )
        # unreachable on valid input.  No divisorial event: a ray's gap to
        # the lower hull of the other rays is concave in t (that hull is a
        # min of affine functions) and positive at both strictly convex
        # ends, so every ray stays a lower-hull vertex along the pencil.
        # No fiber event: a fiber circuit sum a_i v_i = 0 with no a_i < 0
        # lies in no one cone, so its defect is positive at both strictly
        # convex ends, and, affine in t, never crosses
        if classify(rel).kind != "flipping":
            raise EngineInvariantError(
                "event wall is not of flipping type: "
                "inputs are not isomorphic in codimension one"
            )
        if sub.flip(rel) is None:
            raise EngineInvariantError("event circuit is not isolated")
        signature = signatures.pop()
        if signature in fired:
            raise EngineInvariantError("circuit fired twice in one sweep")
        fired.add(signature)
        if not 0 < d0 < q:  # the crossing time d0 / q, q >= d0 > 0
            raise EngineInvariantError(f"event time {Fraction(d0, q)} outside (0,1)")
        yield FlopStep(
            wall=tuple(sub.rays[i] for i in facet),
            circuit=signature[0],
            coeffs=rel.coeffs,
            event_time=Fraction(d0, q),
            k_defect_check=Fraction(0),
        ), sub
    if sub.max_cones.keys() != {tuple(sorted(map(to_x.__getitem__, c))) for c in fy.max_cones}:
        raise EngineInvariantError("sweep exhausted before reaching the target fan")


# ------------------------------------------------------------ relative MMP


def relative_mmp(pair):
    """Run the (K+B)-MMP of a pair over the affine base of its support
    cone, the only base over which its fan is proper.  Executes the
    positive-discrepancy-defect wall of largest defect each round (ties by
    smallest apex ray pair, skipping non-extremal walls) until K+B is nef
    over the base.  Returns (pair, steps)."""
    sub, coeff = _Subdivision(pair.fan), dict(zip(pair.fan.rays, pair.coeffs))
    steps = tuple(st for st, _, _ in _mmp_steps(sub, *_scaled_psi(pair)))
    if not steps:
        return pair, steps
    fan = sub.fan()
    return ToricPair(fan, tuple(map(coeff.get, fan.rays)), pair.lattice), steps


def _mmp_steps(sub, scaled, L):
    """The steps of relative_mmp, run on a state the caller owns and
    changed in place, each yielded with the ids of the cones it removed
    and created (a contraction's removed cones hold the contracted id).
    The state is the fan under flips and contractions (sub, a
    fan._Subdivision) and the integer psi heights scaled over one scale L,
    in the state's ray ids, which no contraction moves.  The state keys a
    wall of positive defect d by (-d, apex vectors); it reads each wall's
    defect sign off the kept kernels first and builds no other wall's
    relation.  A wall whose circuit step the state refused is popped again
    after each step until a step moves the cones around its negative rays
    (fan._Subdivision._circuit).
    The budget counts steps.
    A psi that is one linear form (pairs._heights_linear, off the first
    cone's kept kernel) returns at once: a wall relation sum a_i v_i = 0
    has defect sum a_i psi(v_i) = psi(sum a_i v_i) = 0, so no wall scores.
    So does the McKay pipeline's for G in SL(3), whose terminalization is
    crepant (Ito and Reid, "The McKay correspondence for finite subgroups
    of SL(3, C)", 1996)."""
    if sub.kind != "cone-supported":
        raise InvalidInputError("relative MMP needs a fan supported on a strictly convex cone")
    cone = next(iter(sub.max_cones))
    if _heights_linear(sub.rays, cone, sub.kernel(cone), scaled):
        return
    n = len(sub.rays)
    budget = 10 * n ** 2  # a stated limit, not a proved bound
    rays = sub.rays

    def score(f, rel):  # kept as sub.score, so it reads rays, not sub: no cycle
        return -_defect(rel, scaled), tuple(sorted(rays[i] for i in rel.ray_indices if i not in f))

    sub.score_walls(score, scaled)
    for (neg_d, _), f, rel in iter(sub.pop, None):
        if budget == 0:
            raise BudgetExceededError(
                f"relative MMP stopped at its stated limit of 10*n^2 = "
                f"{10 * n ** 2} steps for n = {n} rays"
            )
        kind = classify(rel)
        if kind.kind == "fiber":
            raise InvalidInputError(
                "fiber-type wall with positive defect: "
                "the pair is not birational over this base"
            )
        if kind.kind == "flipping":
            removed = center = None
        else:
            center, removed = tuple(sub.rays[i] for i in rel.s_plus), sub.rays[kind.ray]
        # read before a contraction tombstones the removed ray's id
        wall, circuit = (tuple(sub.rays[i] for i in c) for c in (f, rel.ray_indices))
        if (step := sub.flip(rel) if removed is None else sub.contract(rel, kind.ray)) is None:
            continue
        budget -= 1
        yield MmpStep(
            "flip" if removed is None else "divisorial", wall, circuit,
            rel.coeffs, Fraction(-neg_d, L), removed, center,
        ), *step
    if sub.tried:
        raise EngineInvariantError("no executable wall among positive defects")


# ---------------------------------------------------------- terminalize


def terminalize(pair):
    """Extract every valuation of log discrepancy at most one, worst
    first, assigning the new rays coefficient zero.  Returns (pair, steps)."""
    sub = _Subdivision(pair.fan)
    steps = tuple(st for st, _, _ in _extraction_steps(sub, *_scaled_psi(pair)))
    if not steps:
        return pair, steps
    coeffs = pair.coeffs + (Fraction(0),) * len(steps)
    return ToricPair(sub.fan(), coeffs, pair.lattice), steps


# box points, sum (m - 1) over the cones the extraction loop scores, cached
# or not: the cone of (1/999983)(1,2,999980) alone took 3.9 s, so a run in
# the limit enumerates for about 1 s.  The worst bench group, (1/211)(1,50,
# 160), scores 2,286, and SL groups (1/r)(a,b,-a-b) sampled to r = 181 9,555
MAX_EXTRACTION_BOX_POINTS = 2 ** 18


def _extraction_steps(sub, scaled, L):
    """The steps of terminalize, run on a state the caller owns and
    changed in place, each yielded with the cones it removed and created.

    The state is the fan under star subdivision (sub, a fan._Subdivision,
    which walks to the star of each new ray from the witness cone and
    checks only the facets a step touched) and the integer psi heights
    scaled over one scale L.  A new ray has coefficient zero, so it
    appends psi 1, that is L, to scaled; psi and its scale never change on
    old rays.  A heap of per-cone witness minima, in which a cone's entry
    goes stale when the cone is subdivided, lives across the steps, so a
    step scores only the cones it creates.  It stops at the first witness
    above psi 1, so it does not score a unimodular cone, whose only
    candidates are pair sums, when its two least heights sum above L.  Past
    MAX_EXTRACTION_BOX_POINTS, counted over every created cone, it raises
    InvalidInputError before the enumeration (a cone past
    MAX_MULTIPLICITY gets that limit's)."""
    heap, points = [], 0

    def score(cones):
        nonlocal points
        for cone in cones:
            m = abs(sub.kernel(cone)[1])
            points += m - 1
            if points > MAX_EXTRACTION_BOX_POINTS and m <= MAX_MULTIPLICITY:
                raise InvalidInputError(
                    f"terminalization exceeds the extraction limit of "
                    f"{MAX_EXTRACTION_BOX_POINTS} box points"
                )
            if m == 1 and sum(sorted(scaled[i] for i in cone)[:2]) > L:
                continue
            wit = _cone_witness(sub, cone, scaled, L)
            if wit is not None:
                heappush(heap, wit + (cone,))

    score(sub.max_cones)
    budget = 10 * len(sub.rays) ** 2
    while True:
        while heap and heap[0][2] not in sub.max_cones:
            heappop(heap)
        if not heap or heap[0][0] > 1:
            return
        if budget == 0:
            raise BudgetExceededError("extraction budget exhausted")
        budget -= 1
        val, pt, cone = heap[0]
        w = primitive(pt)
        scaled.append(L)
        gone, new = sub.subdivide(w, cone)
        score(new)
        yield ExtractionStep(ray=w, psi_value=val), gone, new
