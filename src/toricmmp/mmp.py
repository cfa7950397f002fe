"""Exact minimal model surgery on simplicial fans.

Four engines share the wall calculus: regular triangulation by placing and
flipping, decomposition of a K-equivalence into a flop sequence driven by a
pencil of height functions, the relative MMP over an affine base, and
terminalization by repeated discrepancy-one-or-less extractions.  All
scheduling ties are broken by a symbolic infinitesimal perturbation or by
explicit lexicographic rules, so every run is deterministic.

Terminalization keeps one local state across its steps instead of
rebuilding and rescanning the fan: a star subdivision touches only the
cones around its new ray, and only those are checked and scored.
"""

from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from .circuits import _relations, classify, defect, wall_relation
from .errors import (
    BudgetExceededError,
    EngineInvariantError,
    InvalidInputError,
    NonProjectiveError,
    NotKEquivalentError,
    ToricMmpError,
)
from .fan import (
    _boundary_facets,
    _facet_map,
    _Subdivision,
    fans_equal,
    in_support,
    make_fan,
    point_in_cone,
    star_subdivision,
)
from .lattice import dot, mat_rank, primitive
from .linprog import lp_maximize
from .pairs import (
    ToricPair,
    _cone_witness,
    _same_rays_and_coeffs,
    _scaled_psi,
    k_equivalent,
    make_pair,
    psi_heights,
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
    center: tuple | None     # ray vectors spanning the contraction center


class ExtractionStep(NamedTuple):
    ray: tuple
    psi_value: Fraction      # log discrepancy of the extracted valuation


# ------------------------------------------------------------ projectivity


def ample_heights(fan):
    """Heights strictly convex across every wall, found by maximizing the
    worst wall defect t over heights h in [-1, 1] and t in [0, 1].  Raises
    NonProjectiveError when only flat-or-worse height functions exist.

    In standard form over y = (h + 1, t) >= 0: one row t - defect_w(y - 1)
    <= 0 per wall, in walls() order, then the caps y_i <= 2 and t <= 1."""
    n_rays = len(fan.rays)
    A, b = [], []
    for _, rel in _relations(fan):
        row = [0] * (n_rays + 1)
        for i, a in zip(rel.ray_indices, rel.coeffs):
            row[i] = -a
        row[n_rays] = 1
        A.append(row)
        b.append(-sum(rel.coeffs))
    if not A:
        return (Fraction(0),) * n_rays
    A += [[int(i == k) for i in range(n_rays + 1)] for k in range(n_rays + 1)]
    b += [2] * n_rays + [1]
    opt, y = lp_maximize([0] * n_rays + [1], A, b)
    if opt <= 0:
        raise NonProjectiveError("no strictly convex height function exists")
    return tuple(v - 1 for v in y[:n_rays])


def _checked_convex_heights(fan, given, label):
    if given is None:
        return ample_heights(fan)
    hs = tuple(Fraction(h) for h in given)
    if len(hs) != len(fan.rays):
        raise InvalidInputError(f"{label}: one height per ray required")
    if any(defect(rel, hs) <= 0 for _, rel in _relations(fan)):
        raise InvalidInputError(f"{label}: heights are not strictly convex")
    return hs


# -------------------------------------------------------------- surgeries


def _flipped(fan, rel):
    """Fan after the bistellar move across rel, or None when some plus-side
    cone of the circuit is missing (circuit not isolated)."""
    circ = set(rel.ray_indices)
    plus = {tuple(sorted(circ - {i})) for i in rel.s_plus}
    if not plus <= set(fan.max_cones):
        return None
    minus = [tuple(sorted(circ - {j})) for j in rel.s_minus]
    cones = [c for c in fan.max_cones if c not in plus] + minus
    return make_fan(fan.rays, cones, validate="fast")


def bistellar_flip(fan, wall):
    """Replace the plus-side cones of the wall circuit by the minus side.

    The wall must be of flipping type and its circuit isolated: every cone
    spanned by the circuit minus one plus-ray is present in the fan.
    """
    rel = wall_relation(fan, wall)
    if classify(rel).kind != "flipping":
        raise InvalidInputError("wall is not of flipping type")
    out = _flipped(fan, rel)
    if out is None:
        raise InvalidInputError("wall circuit is not isolated")
    return out


def _contracted(fan, rel, j):
    """(fan, removed ray, center rays) after removing ray j of a divisorial
    circuit, or None when the star of j is not exactly the plus side of the
    circuit.  The center rays span the face the removed divisor maps onto."""
    circ = set(rel.ray_indices)
    star = {c for c in fan.max_cones if j in c}
    plus = {tuple(sorted(circ - {i})) for i in rel.s_plus}
    if star != plus:
        return None

    def shift(i):
        return i if i < j else i - 1

    cones = [
        tuple(sorted(shift(i) for i in c)) for c in fan.max_cones if j not in c
    ]
    cones.append(tuple(sorted(shift(i) for i in circ - {j})))
    rays = fan.rays[:j] + fan.rays[j + 1:]
    center = tuple(fan.rays[i] for i in sorted(rel.s_plus + rel.s_zero))
    return make_fan(rays, cones, validate="fast"), fan.rays[j], center


def divisorial_contract(fan, wall):
    """Contract the unique negative ray of a divisorial wall circuit.

    Returns (fan, removed_ray, center_rays) where center_rays spans the
    face the removed divisor maps onto.
    """
    rel = wall_relation(fan, wall)
    kind = classify(rel)
    if kind.kind != "divisorial":
        raise InvalidInputError("wall is not of divisorial type")
    out = _contracted(fan, rel, kind.ray)
    if out is None:
        raise InvalidInputError("star of the contracted ray does not match the circuit")
    return out


# ------------------------------------------------- regular triangulation


def _insert_ray(fan, r):
    """Place one ray: star subdivision inside the support, joins to all
    visible boundary facets outside it."""
    if in_support(fan, r):
        return star_subdivision(fan, r)
    new_idx = len(fan.rays)
    added = [
        tuple(sorted(facet + (new_idx,)))
        for facet, u in _boundary_facets(fan, _facet_map(fan))
        if dot(u, r) < 0
    ]
    if not added:
        raise EngineInvariantError("outside ray sees no boundary facet")
    return make_fan(fan.rays + (r,), list(fan.max_cones) + added, validate="fast")


def _negative_walls(fan, hmap):
    hs = tuple(hmap[v] for v in fan.rays)
    out = []
    for w, rel in _relations(fan):
        d = defect(rel, hs)
        if d < 0:
            key = tuple(sorted(fan.rays[i] for i in w.shared))
            out.append((d, key, rel))
    out.sort(key=lambda e: (e[0], e[1]))
    return out


def _flips_to_convexity(fan, hmap, budget, focus):
    """Flip away negative-defect walls, most negative first.  With a focus
    ray only circuits through it are touched; stalled walls are left for
    the global pass."""
    while True:
        cands = _negative_walls(fan, hmap)
        if focus is not None:
            cands = [
                e for e in cands
                if focus in tuple(fan.rays[i] for i in e[2].ray_indices)
            ]
        if not cands:
            return fan, budget
        for _, _, rel in cands:
            kind = classify(rel)
            if kind.kind == "divisorial":
                raise InvalidInputError(
                    f"ray {fan.rays[kind.ray]} is not on the lower hull"
                )
            if kind.kind == "fiber":
                raise InvalidInputError(
                    "fiber-type wall: heights have no lower hull over this support"
                )
            nxt = _flipped(fan, rel)
            if nxt is None:
                continue
            if budget == 0:
                raise BudgetExceededError("flip budget exhausted")
            budget -= 1
            fan = nxt
            break
        else:
            if focus is not None:
                return fan, budget
            raise EngineInvariantError("negative wall stuck with non-isolated circuit")


def regular_triangulation(rays, heights):
    """Triangulate the cone over the rays along the lower hull of the
    lifted heights, by incremental placing and flips to convexity."""
    rays = tuple(tuple(x) for x in rays)
    if not rays:
        raise InvalidInputError("no rays given")
    dim = len(rays[0])
    if len(set(rays)) != len(rays):
        raise InvalidInputError("duplicate ray")
    for r in rays:
        if len(r) != dim or any(not isinstance(x, int) for x in r):
            raise InvalidInputError("rays must be integer vectors of equal length")
        if primitive(r) != r:
            raise InvalidInputError(f"ray {r} is not primitive")
    hs = tuple(Fraction(h) for h in heights)
    if len(hs) != len(rays):
        raise InvalidInputError("one height per ray required")

    seed = []
    for i, r in enumerate(rays):
        if mat_rank([rays[k] for k in seed] + [r]) == len(seed) + 1:
            seed.append(i)
        if len(seed) == dim:
            break
    if len(seed) < dim:
        raise InvalidInputError("rays do not span the ambient space")

    hmap = dict(zip(rays, hs))
    budget = 10 * len(rays) ** 2
    fan = make_fan([rays[i] for i in seed], [tuple(range(dim))], validate="fast")
    for i in (k for k in range(len(rays)) if k not in seed):
        fan = _insert_ray(fan, rays[i])
        fan, budget = _flips_to_convexity(fan, hmap, budget, focus=rays[i])
    fan, budget = _flips_to_convexity(fan, hmap, budget, focus=None)

    final_hs = tuple(hmap[v] for v in fan.rays)
    if any(defect(rel, final_hs) == 0 for _, rel in _relations(fan)):
        raise InvalidInputError("heights are not generic: flat wall at convergence")
    pos = {v: k for k, v in enumerate(rays)}
    cones = [tuple(sorted(pos[fan.rays[i]] for i in c)) for c in fan.max_cones]
    return make_fan(rays, cones, validate="fast")


# ---------------------------------------------------------- flop sweeper


def flop_decompose(pair_x, pair_y, ample_x=None, ample_y=None):
    """Decompose a K-equivalence into the flop sequence swept out by the
    pencil between ample height functions of the two fans.

    Ties are collapsed by an infinitesimal lexicographic perturbation of
    the target heights, so each event is a single circuit.  Returns the
    tuple of FlopStep records; replaying their circuits on the first fan
    reproduces the second.

    A sweep that reaches Y certifies K-equivalence: rays and coefficients
    agree, and each event circuit has psi-defect 0, so psi is linear on its
    cones and the flip keeps it.  Only a failed sweep runs the cell walk
    k_equivalent: False raises NotKEquivalentError, True the sweep's error.
    """
    if not _same_rays_and_coeffs(pair_x, pair_y):
        raise NotKEquivalentError("pairs are not K-equivalent")
    try:
        return _sweep(pair_x, pair_y, ample_x, ample_y)
    except ToricMmpError:
        if not k_equivalent(pair_x, pair_y):
            raise NotKEquivalentError("pairs are not K-equivalent") from None
        raise


def _sweep(pair_x, pair_y, ample_x, ample_y):
    """flop_decompose's steps, with no K-equivalence check of its own."""
    fx, fy = pair_x.fan, pair_y.fan
    n_rays = len(fx.rays)
    h0 = _checked_convex_heights(fx, ample_x, "ampleX")
    h1_y = _checked_convex_heights(fy, ample_y, "ampleY")
    pos_y = {v: i for i, v in enumerate(fy.rays)}
    h1 = tuple(h1_y[pos_y[v]] for v in fx.rays)
    # The target heights carry a symbolic tie-breaker eps^(i+1) on ray i, so
    # a defect is the list of its eps-power coefficients, constant term
    # first, and compares with another by list order: lexicographic sign.
    zero = [0] * (n_rays + 1)
    psi = psi_heights(pair_x)

    def cross(e, f):  # f's q scaled by e's d0: compares crossing times d0/q
        return [e[0] * x for x in f[1]]

    cur = fx
    steps = []
    budget = 10 * n_rays * n_rays
    while True:
        events = []
        for w, rel in _relations(cur):
            d1 = [defect(rel, h1)] + [0] * n_rays
            for i, a in zip(rel.ray_indices, rel.coeffs):
                d1[i + 1] = a
            if d1 >= zero:
                continue  # never crosses zero before the target
            d0 = Fraction(defect(rel, h0))
            if d0 <= 0:
                raise EngineInvariantError("wall defect nonpositive before its event")
            q = [d0 - d1[0]] + [-x for x in d1[1:]]  # d0 - d1
            events.append((d0, q, w, rel))
        if not events:
            break
        # crossing time d0/q: minimize by exact cross-multiplication
        best = events[0]
        for ev in events[1:]:
            if cross(ev, best) < cross(best, ev):
                best = ev
        tied = [ev for ev in events if cross(ev, best) == cross(best, ev)]
        signatures = {
            (tuple(cur.rays[i] for i in ev[3].ray_indices), ev[3].coeffs)
            for ev in tied
        }
        if len(signatures) > 1:
            raise EngineInvariantError("simultaneous events on distinct circuits")
        d0, q, w, rel = best
        k_defect = Fraction(defect(rel, psi))
        if k_defect != 0:
            raise EngineInvariantError(
                f"event wall has discrepancy defect {k_defect}, expected 0"
            )
        if classify(rel).kind != "flipping":
            raise EngineInvariantError(
                "event wall is not of flipping type: "
                "inputs are not isomorphic in codimension one"
            )
        nxt = _flipped(cur, rel)
        if nxt is None:
            raise EngineInvariantError("event circuit is not isolated")
        if budget == 0:
            raise BudgetExceededError("flop step budget exhausted")
        budget -= 1
        event_time = d0 / q[0]
        if not 0 < event_time < 1:
            raise EngineInvariantError(f"event time {event_time} outside (0,1)")
        steps.append(
            FlopStep(
                wall=tuple(cur.rays[i] for i in w.shared),
                circuit=tuple(cur.rays[i] for i in rel.ray_indices),
                coeffs=rel.coeffs,
                event_time=event_time,
                k_defect_check=k_defect,
            )
        )
        cur = nxt
    if not fans_equal(cur, fy):
        raise EngineInvariantError("sweep exhausted before reaching the target fan")
    return tuple(steps)


# ------------------------------------------------------------ relative MMP


def _collect(pair, stepped):
    """(last pair, steps) from a generator of (step, pair after step, ...)."""
    steps = []
    for step, pair, *_ in stepped:
        steps.append(step)
    return pair, tuple(steps)


def relative_mmp(pair, base):
    """Run the (K+B)-MMP of a pair whose fan triangulates the cone over
    base.  Executes the positive-discrepancy-defect wall of largest defect
    each round (ties by smallest apex ray pair, skipping non-extremal
    walls) until K+B is nef over the base.  Returns (pair, steps)."""
    return _collect(pair, _mmp_pairs(pair, base))


def _mmp_pairs(pair, base):
    """The steps of relative_mmp, each yielded with the pair it leaves."""
    fan = pair.fan
    if fan.support_kind != "cone-supported":
        raise InvalidInputError("relative MMP needs a fan supported on a strictly convex cone")
    base = tuple(primitive(b) for b in base)
    if len(set(base)) != len(base):
        raise InvalidInputError("duplicate base generator")
    for b in base:
        if not in_support(fan, b):
            raise InvalidInputError("base cone exceeds the fan support")
    for r in fan.rays:
        if not point_in_cone(r, base):
            raise InvalidInputError("fan support exceeds the base cone")

    cur = pair
    budget = 10 * len(fan.rays) ** 2
    while True:
        psi = psi_heights(cur)
        cands = []
        for w, rel in _relations(cur.fan):
            d = defect(rel, psi)
            if d > 0:
                apexes = tuple(sorted((cur.fan.rays[w.apex_a], cur.fan.rays[w.apex_b])))
                cands.append((-d, apexes, w, rel))
        if not cands:
            break
        cands.sort(key=lambda e: (e[0], e[1]))
        if budget == 0:
            raise BudgetExceededError("step budget exhausted")
        budget -= 1
        for neg_d, _, w, rel in cands:
            kind = classify(rel)
            if kind.kind == "fiber":
                raise InvalidInputError(
                    "fiber-type wall with positive defect: "
                    "the pair is not birational over this base"
                )
            if kind.kind == "divisorial":
                out = _contracted(cur.fan, rel, kind.ray)
                if out is None:
                    continue
                new_fan, removed, center = out
                coeffs = cur.coeffs[:kind.ray] + cur.coeffs[kind.ray + 1:]
            else:
                new_fan, removed, center = _flipped(cur.fan, rel), None, None
                if new_fan is None:
                    continue
                coeffs = cur.coeffs
            break
        else:
            raise EngineInvariantError("no executable wall among positive defects")
        step = MmpStep(
            "flip" if removed is None else "divisorial",
            tuple(cur.fan.rays[i] for i in w.shared),
            tuple(cur.fan.rays[i] for i in rel.ray_indices),
            rel.coeffs, -neg_d, removed, center,
        )
        cur = make_pair(new_fan, coeffs, cur.lattice)
        yield step, cur


# ---------------------------------------------------------- terminalize


def terminalize(pair):
    """Extract every valuation of log discrepancy at most one, worst
    first, assigning the new rays coefficient zero.  Returns (pair, steps)."""
    return _collect(pair, _extraction_pairs(pair))


def _extraction_pairs(pair):
    """The steps of terminalize, each yielded with the pair it leaves and
    the cones it removed and created.

    One local state lives across the steps: the fan under star subdivision
    (fan._Subdivision, which walks to the star of each new ray from the
    witness cone and checks only the facets a step touched) and a heap of
    per-cone witness minima, in which a cone's entry goes stale when the
    cone is subdivided.  A new ray has coefficient zero, so psi and its
    scale never change on old rays, and a step scores only the cones it
    creates.  Building the yielded pair copies the cone tuple, the one
    part of a step that grows with the fan."""
    sub = _Subdivision(pair.fan)
    scaled, L = _scaled_psi(pair)
    heap = []

    def score(cones):
        for cone in cones:
            wit = _cone_witness(sub, cone, scaled, L)
            if wit is not None:
                heappush(heap, wit + (cone,))

    score(pair.fan.max_cones)
    coeffs = pair.coeffs
    budget = 10 * len(pair.fan.rays) ** 2
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
        coeffs += (Fraction(0),)
        step = ExtractionStep(ray=w, psi_value=val)
        yield step, ToricPair(sub.fan(), coeffs, pair.lattice), gone, new
