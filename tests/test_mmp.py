"""Engine tests: triangulation vs exhaustive hull oracle, flip surgery,
flop sweep, relative MMP, terminalization."""

import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import corpus
from corpus import (
    cyclic_mmp_inputs,
    flop_case,
    mmp_pairs,
    psi_linear,
    replay,
    square_mmp_inputs,
    walked_k_equivalent,
)

from toricmmp.circuits import classify, defect, wall_relation
from toricmmp.errors import (
    BudgetExceededError,
    EngineInvariantError,
    InvalidInputError,
    NonProjectiveError,
    NotKEquivalentError,
    ToricMmpError,
)
from toricmmp import fan as fan_module
from toricmmp import mmp as mmp_module
from toricmmp import pairs as pairs_module
from toricmmp.fan import (
    _facet_map,
    _holding,
    _inward,
    _Subdivision,
    fans_equal,
    make_fan,
    point_in_cone,
    walls,
)
from toricmmp.jsonio import dumps
from toricmmp.lattice import adjugate, det, dot, mat_inv, mat_rank, primitive
from toricmmp.mckay import make_group, mckay_pipeline, quotient_pair
from toricmmp.mmp import (
    _crosses,
    _extraction_steps,
    _mmp_steps,
    _sweep,
    ample_heights,
    bistellar_flip,
    divisorial_contract,
    flop_decompose,
    regular_triangulation,
    relative_mmp,
    terminalize,
)
from toricmmp.pairs import _scaled_psi, is_terminal, k_equivalent, make_pair, psi_heights

# ---------------------------------------------------------------- oracles


def oracle_lower_hull(rays, heights):
    """All independent n-subsets whose lifted hyperplane lies weakly below
    every other lifted ray, split into strict cells and flat certificates.
    For generic heights the strict cells are the regular triangulation."""
    n = len(rays[0])
    cells, flat = [], False
    for sub in combinations(range(len(rays)), n):
        M = [rays[i] for i in sub]
        if det(M) == 0:
            continue
        inv = mat_inv(M)
        u = tuple(
            sum(inv[j][k] * Fraction(heights[sub[k]]) for k in range(n))
            for j in range(n)
        )
        below = True
        tight = False
        for k, r in enumerate(rays):
            if k in sub:
                continue
            lift = sum(uj * rj for uj, rj in zip(u, r))
            if lift > heights[k]:
                below = False
                break
            if lift == heights[k]:
                tight = True
        if below and tight:
            flat = True
        elif below:
            cells.append(sub)
    return cells, flat


# ------------------------------------------------------------- fixtures

ORTHANT2 = make_fan([(1, 0), (0, 1)], [(0, 1)])
BLOWUP2 = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
ATIYAH_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
ATIYAH_X = make_fan(ATIYAH_RAYS, [(0, 1, 2), (0, 2, 3)])
ATIYAH_Y = make_fan(ATIYAH_RAYS, [(0, 1, 3), (1, 2, 3)])

# circuit v0 + v1 + v2 = v3 + v4 in dimension four
CIRC4_RAYS = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 0, 2)]
CIRC4_PLUS = [(1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4)]
CIRC4_MINUS = [(0, 1, 2, 4), (0, 1, 2, 3)]

PENTAGON = [(0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1), (0, 1, 1)]


# --------------------------------------------------------- ample heights


# star subdivisions of the fan of P^3 on whose ample_heights LP over h in
# [-1, 1] sympy's phase-one rule cycles
CYCLED_P3 = make_fan(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (3, -1, -2), (3, -2, -2), (-2, -1, -3),
     (-2, -2, 1)],
    [(0, 1, 2), (0, 1, 4), (0, 2, 5), (3, 4, 5), (0, 4, 5), (3, 4, 6), (1, 4, 6), (1, 3, 6),
     (1, 3, 7), (1, 2, 7), (3, 5, 7), (2, 5, 7)],
)


def test_ample_heights_strictly_convex():
    for fan in (BLOWUP2, ATIYAH_X, make_fan([(1, 0), (0, 1), (-1, -1)],
                                            [(0, 1), (1, 2), (0, 2)]),
                corpus.STAR_P3, CYCLED_P3):
        h = ample_heights(fan)
        for w in walls(fan):
            assert defect(wall_relation(fan, w), h) > 0


def test_ample_heights_no_walls():
    assert ample_heights(ORTHANT2) == (0, 0)


def test_ample_heights_nonprojective_pinwheel():
    # nested parallel triangles, pinwheel triangulation: the classical
    # example without a strictly convex support function
    rays = [(0, 0, 1), (4, 0, 1), (0, 4, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)]
    pin = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (2, 0, 5), (0, 5, 3), (3, 4, 5)]
    fan = make_fan(rays, pin)
    with pytest.raises(NonProjectiveError):
        ample_heights(fan)


# sha256 over the ample_heights vertices of both fans of corpus seeds 0-79:
# the flop sweep starts from this vertex, so a different optimal vertex of
# the same LP changes every downstream flop digest
AMPLE_CORPUS_SHA256 = "f48f88e3aeb0f60431323f4186aaffa5cf219ffc339c78b70fe9c8059b87d5d6"


def test_ample_heights_corpus_vertices_pinned():
    h = hashlib.sha256()
    for seed in range(80):
        px, py, _ = flop_case(seed)
        for pair in (px, py):
            h.update((",".join(map(str, ample_heights(pair.fan))) + ";").encode())
    assert h.hexdigest() == AMPLE_CORPUS_SHA256


# --------------------------------------------------------------- flips


def test_bistellar_flip_atiyah():
    flipped = bistellar_flip(ATIYAH_X, walls(ATIYAH_X)[0])
    assert fans_equal(flipped, ATIYAH_Y)
    back = bistellar_flip(flipped, walls(flipped)[0])
    assert fans_equal(back, ATIYAH_X)


def test_bistellar_flip_rejects_divisorial():
    with pytest.raises(InvalidInputError):
        bistellar_flip(BLOWUP2, walls(BLOWUP2)[0])


def test_bistellar_flip_4d_circuit():
    fp = make_fan(CIRC4_RAYS, CIRC4_PLUS)
    assert len(walls(fp)) == 3
    fm = bistellar_flip(fp, walls(fp)[0])
    assert fans_equal(fm, make_fan(CIRC4_RAYS, CIRC4_MINUS))
    assert fans_equal(bistellar_flip(fm, walls(fm)[0]), fp)


def test_bistellar_flip_requires_isolated_circuit():
    from toricmmp.fan import star_subdivision

    # subdividing the third plus cone at its ray sum keeps a wall of the
    # 5-ray circuit, but not that cone of its T+ * L
    fp = make_fan(CIRC4_RAYS, CIRC4_PLUS)
    fan = star_subdivision(fp, tuple(map(sum, zip(*fp.ray_matrix(CIRC4_PLUS[2])))))
    assert fan.support_kind == "cone-supported" and len(fan.max_cones) == 6
    w = next(
        w for w in walls(fan)
        if classify(rel := wall_relation(fan, w)).kind == "flipping"
        and len(rel.s_plus + rel.s_minus) == 5
    )
    with pytest.raises(InvalidInputError, match="wall circuit is not isolated"):
        bistellar_flip(fan, w)


def _boundary_facets(fan):
    fm = _facet_map(fan)
    return {frozenset(fan.rays[i] for i in f) for f, cs in fm.items() if len(cs) == 1}


def test_bistellar_flip_retriangulates_the_boundary():
    # corpus seed 7, first event: a circuit with a zero coefficient whose
    # nonzero rays span a boundary face of the support, so the flip
    # retriangulates that face; the boundary facets change, the support
    # kind does not, and the result is a fan
    px, py, _ = flop_case(7)
    step = flop_decompose(px, py)[0]
    assert 0 in step.coeffs
    fan = px.fan
    w = next(w for w in walls(fan) if {fan.rays[i] for i in w.shared} == set(step.wall))
    out = bistellar_flip(fan, w)
    assert _boundary_facets(out) != _boundary_facets(fan)
    assert out.support_kind == fan.support_kind == "cone-supported"
    full = make_fan(out.rays, out.max_cones, validate="full")
    assert full.support_kind == "cone-supported"


# ---------------------------------------------------------- contractions


def test_divisorial_contract_blowdown():
    out, removed, center = divisorial_contract(BLOWUP2, walls(BLOWUP2)[0])
    assert fans_equal(out, ORTHANT2)
    assert removed == (1, 1)
    assert set(center) == {(1, 0), (0, 1)}


def test_divisorial_contract_3d_star():
    from toricmmp.fan import star_subdivision

    orthant3 = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    sub = star_subdivision(orthant3, (1, 1, 1))
    w = walls(sub)[0]
    out, removed, center = divisorial_contract(sub, w)
    assert fans_equal(out, orthant3)
    assert removed == (1, 1, 1)
    assert len(center) == 3


def test_divisorial_contract_rejects_star_mismatch():
    from toricmmp.fan import star_subdivision

    # blow up the orthant, then refine one star cone: the star of (1,1,1)
    # now has four cones while the circuit's plus side has three
    orthant3 = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    sub = star_subdivision(star_subdivision(orthant3, (1, 1, 1)), (2, 2, 1))
    w = next(
        w for w in walls(sub)
        if {sub.rays[i] for i in w.shared} == {(0, 0, 1), (1, 1, 1)}
    )
    rel = wall_relation(sub, w)
    assert classify(rel).kind == "divisorial"
    with pytest.raises(InvalidInputError, match="star"):
        divisorial_contract(sub, w)


def test_divisorial_contract_rejects_flipping_wall():
    with pytest.raises(InvalidInputError):
        divisorial_contract(ATIYAH_X, walls(ATIYAH_X)[0])


# ------------------------------------------------- regular triangulation


def test_regular_triangulation_star_shape():
    rays = [(1, 0), (0, 1), (1, 1)]
    fan = regular_triangulation(rays, [0, 0, -1])
    assert fans_equal(fan, BLOWUP2)


def test_regular_triangulation_drops_high_ray():
    with pytest.raises(InvalidInputError, match="lower hull"):
        regular_triangulation([(1, 0), (0, 1), (1, 1)], [0, 0, 1])


def test_regular_triangulation_flat_is_nongeneric():
    with pytest.raises(InvalidInputError, match="generic"):
        regular_triangulation([(1, 0), (0, 1), (1, 1)], [0, 0, 0])


def test_regular_triangulation_rejects_ragged_rays():
    # the rays are make_fan's: its ray check, with its messages
    square = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    with pytest.raises(InvalidInputError, match="rays of mixed dimension"):
        regular_triangulation(square[:2] + [(1, 1), square[3]], [0, 0, 1, 0])


def test_regular_triangulation_insertion_order_independent():
    rays = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    hs = [Fraction(1, 7), 0, Fraction(1, 5), Fraction(1, 2)]
    base = regular_triangulation(rays, hs)
    rng = random.Random(11)
    idx = list(range(4))
    for _ in range(6):
        rng.shuffle(idx)
        permuted = regular_triangulation([rays[i] for i in idx], [hs[i] for i in idx])
        assert fans_equal(permuted, base)


def _triangulation_inputs(seed, count):
    """count seeded (rays, heights) whose rays span, in dimensions 2-4:
    height-one point sets, or general primitive integer rays, whose support
    may be complete or hold a line.  Most heights are 4|v|^2 plus a small
    jitter, which keeps most rays on the lower hull; the rest are random."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.choice([2, 3, 4])
        general = rng.random() < 0.5
        n = rng.randint(dim + general, dim + 4 + 2 * general)
        pts = set()
        while len(pts) < n:
            if general:
                v = tuple(rng.randint(-2, 2) for _ in range(dim))
                if any(v):
                    pts.add(primitive(v))
            else:
                span = 7 if dim == 2 else 3 if dim == 3 else 2
                pts.add(tuple(rng.randint(0, span) for _ in range(dim - 1)) + (1,))
        rays = sorted(pts)
        if mat_rank(rays) < dim:
            continue
        convex = rng.random() < 0.7
        heights = [
            4 * sum(x * x for x in r) + Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            if convex else Fraction(rng.randint(-30, 30), rng.randint(1, 5))
            for r in rays
        ]
        out.append((rays, heights))
    return out


def _placement_inputs(seed, count):
    """count seeded (rays, heights): 25 height-one points over [0, 4]^3,
    placed in a shuffled order, heights 4|v|^2 plus a small jitter.  A
    point placed inside the cones so far makes several negative walls at
    once, some of whose circuits are not yet isolated (a 3-2 flip around
    an edge of more than three cones), so their walls are refused and
    queued again; sorted, each point falls outside the cones so far."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        pts = set()
        while len(pts) < 25:
            pts.add(tuple(rng.randint(0, 4) for _ in range(3)) + (1,))
        rays = list(pts)
        rng.shuffle(rays)
        out.append((rays, [4 * sum(x * x for x in r) + Fraction(rng.randint(-6, 6),
                                                                rng.randint(1, 5))
                           for r in rays]))
    return out


def test_regular_triangulation_matches_hull_oracle():
    # height-one point sets, then general integer rays, whose triangulations
    # include complete fans and supports that hold a line: the cells are the
    # lower hull's, and the support kind is that of the validated fan
    rng = random.Random(20260816)
    cases = []
    for trial in range(60):
        dim = rng.choice([2, 2, 3, 3])
        count = rng.randint(dim, 8 if dim == 3 else 6)
        pts = set()
        while len(pts) < count:
            if dim == 2:
                pts.add((rng.randint(0, 7), 1))
            else:
                pts.add((rng.randint(0, 3), rng.randint(0, 3), 1))
        rays = sorted(pts)
        cases.append((rays, [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in rays]))
    kinds = Counter()
    for rays, heights in cases + _triangulation_inputs(20260816, 300):
        cells, flat = oracle_lower_hull(rays, heights)
        used = set()
        for c in cells:
            used.update(c)
        if flat:
            with pytest.raises(InvalidInputError):
                regular_triangulation(rays, heights)
        elif used != set(range(len(rays))):
            with pytest.raises(InvalidInputError, match="lower hull"):
                regular_triangulation(rays, heights)
        else:
            fan = regular_triangulation(rays, heights)
            assert set(fan.max_cones) == set(cells)
            assert fan.support_kind == make_fan(rays, cells, validate="full").support_kind
            if fan.support_kind == "cone-supported":  # does the support hold a line?
                line = any(point_in_cone(tuple(-x for x in r), rays) for r in rays)
                kinds["line" if line else "pointed"] += 1
            else:
                kinds[fan.support_kind] += 1
    assert min(kinds["complete"], kinds["line"], kinds["pointed"]) > 5, kinds


# sha256 over regular_triangulation on _triangulation_inputs(1, 500), one
# line per input: repr((rays, max_cones, support_kind)), or repr((error
# class, message)).  Recorded while each placed ray still rebuilt the fan
# and a global flip pass followed the per-ray passes: triangulating on one
# fan state keeps the cone order and the error texts, which the hull-oracle
# tests compare only as sets.
TRIANGULATION_SHA256 = "011ef08a6644c9a0da5a4e7e58bd37a15af11af42c31058187460b66a55777bd"


def test_regular_triangulation_outputs_pinned():
    h = hashlib.sha256()
    for rays, heights in _triangulation_inputs(1, 500):
        try:
            fan = regular_triangulation(rays, heights)
            out = (fan.rays, fan.max_cones, fan.support_kind)
        except ToricMmpError as e:
            out = (type(e).__name__, str(e))
        h.update((repr(out) + "\n").encode())
    assert h.hexdigest() == TRIANGULATION_SHA256


def test_regular_triangulation_rescores_only_touched_walls(monkeypatch):
    # the state's wall table of one triangulation is refreshed on the
    # facets each placement and flip touched: at every return of
    # _flips_to_convexity it equals every wall's relation and key, the
    # defect over the heights' common denominator with the sorted facet
    # vectors when negative and else None, recomputed from the state, with
    # far fewer relations computed than the 19,723 of a full rescan per
    # pass (10,977 of which held the ray just placed)
    computed, real_relation = [0], fan_module._relation
    real_flips, lifted = mmp_module._flips_to_convexity, {}

    def counted_relation(*args):
        computed[0] += 1
        return real_relation(*args)

    def key(f, rel, hs, vectors):
        d = defect(rel, hs)
        return (d, tuple(sorted(vectors[i] for i in f))) if d < 0 else None

    def checked_flips(sub, budget, n):
        budget = real_flips(sub, budget, n)
        before, hs = computed[0], [lifted[v] for v in sub.rays]
        fresh = _Subdivision(sub.fan()).relations()  # a new state, no kept relation
        assert sub.walls == {f: (rel, key(f, rel, hs, sub.rays)) for f, rel in fresh}
        computed[0] = before
        return budget

    monkeypatch.setattr(fan_module, "_relation", counted_relation)
    monkeypatch.setattr(mmp_module, "_flips_to_convexity", checked_flips)
    done = 0
    for rays, heights in _triangulation_inputs(1, 500):
        D = lcm(*(Fraction(h).denominator for h in heights))
        lifted = {r: Fraction(h) * D for r, h in zip(rays, heights)}
        try:
            regular_triangulation(rays, heights)
            done += 1
        except ToricMmpError:
            pass
    assert done > 300 and computed[0] < 10_977, (done, computed[0])


def test_regular_triangulation_builds_one_fan_state(monkeypatch):
    # placing a ray, inside the support or outside it, is a step of the one
    # state that the flips step too: make_fan is called for the seed cone
    # only, one state lives from it to the result, and the result is read
    # off that state
    calls, made, states = [], [], []
    real_triangulation = corpus.regular_triangulation

    def recording(rays, heights):
        calls.append((rays, heights))
        return real_triangulation(rays, heights)

    def counted_make_fan(*args, **kwargs):
        made.append(args)
        return make_fan(*args, **kwargs)

    class CountedState(_Subdivision):
        def __init__(self, fan):
            states.append(fan)
            super().__init__(fan)

    monkeypatch.setattr(corpus, "regular_triangulation", recording)
    for seed in range(20):
        flop_case(seed)
    monkeypatch.setattr(mmp_module, "make_fan", counted_make_fan)
    monkeypatch.setattr(mmp_module, "_Subdivision", CountedState)
    outside = 0
    for rays, heights in calls:
        del made[:], states[:]
        try:
            regular_triangulation(rays, heights)
        except InvalidInputError:
            continue
        assert (len(made), len(states)) == (1, 1)
        # the last ray is placed last; outside the others' cone, it is
        # joined to the boundary facets that see it
        outside += not point_in_cone(rays[-1], rays[:-1])
    assert outside > 10, outside


def test_regular_triangulation_result_passes_full_validation():
    # the result is read off the state whose every step ran the fast
    # checks; make_fan with full validation, which it no longer calls, is
    # the oracle for its rays, cone order and kind, on supports that the
    # placements closed (complete), on cones, pointed or not, and on the
    # 40-point triangulations of mmp_probe_pair
    fans = []
    for rays, heights in _triangulation_inputs(34, 300):
        try:
            fans.append(regular_triangulation(rays, heights))
        except InvalidInputError:
            pass
    fans += [p.fan for p in map(corpus.mmp_probe_pair, range(10), [40] * 10) if p]
    for fan in fans:
        assert fan == make_fan(fan.rays, fan.max_cones, validate="full")
    kinds = Counter(fan.support_kind for fan in fans)
    assert min(kinds["complete"], kinds["cone-supported"]) > 25, kinds


def test_regular_triangulation_link_flips_match_hull_oracle(monkeypatch):
    # the corpus triangulations of these seeds flip circuits with a zero
    # coefficient, whose walls flip together as one link step: each
    # triangulation is still the lower hull, and no flip changes the kind
    calls, widths = [], Counter()
    real_triangulation, real_flip = corpus.regular_triangulation, _Subdivision.flip

    def recording(rays, heights):
        calls.append((rays, heights))
        return real_triangulation(rays, heights)

    def counting(self, rel):
        step = real_flip(self, rel)
        if step is not None:
            widths[len(step[0]) > len(rel.s_plus)] += 1
        return step

    monkeypatch.setattr(corpus, "regular_triangulation", recording)
    for seed in (12, 23, 34, 38, 40):
        flop_case(seed)
    monkeypatch.setattr(_Subdivision, "flip", counting)
    for rays, heights in calls:
        cells, flat = oracle_lower_hull(rays, heights)
        if flat or {i for c in cells for i in c} != set(range(len(rays))):
            with pytest.raises(InvalidInputError):
                regular_triangulation(rays, heights)
        else:
            assert set(regular_triangulation(rays, heights).max_cones) == set(cells)
    assert widths[True] > 0, widths


# ------------------------------------------------------ kept fan state


def _fresh_boundary(sub):
    """(facet, inward functional) for every facet of the state in a single
    cone, in cone order and, in a cone, by the position of the ray it
    misses, each from a fresh adjugate: the scan of all cones that the
    state's kept boundary replaced."""
    for cone in sub.max_cones:
        for k in range(sub.dim):
            if len(sub.facets[facet := cone[:k] + cone[k + 1:]]) == 1:
                yield facet, _inward(adjugate.__wrapped__(sub.ray_matrix(cone)), k)


def _assert_kept_state(sub):
    """The state keeps adjugates of current cones only, each that of a fresh
    elimination, and the boundary of a fresh scan."""
    assert set(sub.kernels) <= set(sub.max_cones)
    for cone, kernel in sub.kernels.items():
        assert kernel == adjugate.__wrapped__(sub.ray_matrix(cone)), cone
    assert sub.boundary == dict(_fresh_boundary(sub))


def test_triangulation_state_matches_a_fresh_recomputation(monkeypatch):
    # after every placement and flip of regular_triangulation the kept
    # adjugates and boundary are a fresh recomputation's, and a ray placed
    # outside the support is joined to the facets that see it in the
    # fresh scan's order, which sets the order of the new cones
    real_place, real_flip = _Subdivision.place, _Subdivision.flip
    count = Counter()

    def checked_place(self, w):
        outside = _holding(self, w) is None
        seen = [f for f, u in _fresh_boundary(self) if dot(u, w) < 0]
        gone, new = real_place(self, w)
        if outside:
            w_idx = self.rays.index(w)
            assert new == [tuple(sorted(f + (w_idx,))) for f in seen]
            count["outside"] += 1
        _assert_kept_state(self)
        count["place"] += 1
        return gone, new

    def checked_flip(self, rel):
        step = real_flip(self, rel)
        _assert_kept_state(self)
        count["flip"] += step is not None
        return step

    monkeypatch.setattr(_Subdivision, "place", checked_place)
    monkeypatch.setattr(_Subdivision, "flip", checked_flip)
    for rays, heights in _triangulation_inputs(3, 120):
        try:
            regular_triangulation(rays, heights)
        except ToricMmpError:
            pass
    assert count["outside"] > 100 and count["flip"] > 100, count


def test_extraction_state_matches_a_fresh_recomputation():
    # every extraction of a slice of the quotient workload's groups keeps
    # the adjugates and boundary of a fresh recomputation
    steps = 0
    for r in range(2, 14):
        for ws in ((1, 1, r - 2), (1, 2, r - 3), (1, 3, 5), (2, 3, 7)):
            X = quotient_pair(make_group(3, [(r, ws)]))
            sub = _Subdivision(X.fan)
            _assert_kept_state(sub)
            for _ in _extraction_steps(sub, *_scaled_psi(X)):
                _assert_kept_state(sub)
                steps += 1
    assert steps > 100, steps


def test_the_mmp_loop_leaves_no_cycle_through_its_state():
    # the MMP keeps its wall score on the state; a score that read the
    # state would make a reference cycle, and every relative_mmp and
    # mckay_pipeline would leave its state to the cyclic collector
    G = make_group(3, [(7, (1, 2, 5))])
    Y, _ = terminalize(quotient_pair(G))
    pairs = [make_pair(Y.fan, [0] * len(Y.fan.rays), Y.lattice)] + square_mmp_inputs(7, 3)

    def live():
        return sum(isinstance(o, _Subdivision) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        for pair in pairs:
            sub = _Subdivision(pair.fan)
            state = weakref.ref(sub)
            list(_mmp_steps(sub, *_scaled_psi(pair)))
            del sub
            assert state() is None
        before = live()
        mckay_pipeline(G)
        assert any(relative_mmp(pair)[1] for pair in pairs)
        assert live() == before
    finally:
        gc.enable()


# ------------------------------------------------------- symbolic epsilon

# flop_decompose(*flop_case(seed)[:2]) in canonical JSON, recorded when the
# infinitesimal was still a polynomial class.  Each case has an event where
# the unperturbed pencil ties two circuits with different supports; the
# infinitesimal on the target heights splits the tie.
TIE_SPLIT_STEPS = {
    0: (
        '[{"circuit":[[0,1,2,1],[0,2,0,1],[1,0,0,1],[1,1,1,1],[1,1,2,1]],"coeffs":[-1,1,1,-4,3]'
        ',"event_time":"1/2","k_defect_check":0'
        ',"wall":[[0,1,2,1],[0,2,0,1],[1,1,1,1]]},'
        '{"circuit":[[0,2,0,1],[1,1,1,1],[1,1,2,1],[2,1,2,1],[2,2,0,1]],"coeffs":[1,0,-2,2,-1]'
        ',"event_time":"1/2","k_defect_check":0'
        ',"wall":[[1,1,1,1],[1,1,2,1],[2,2,0,1]]}]'
    ),
    16: (
        '[{"circuit":[[0,0,1,1],[0,1,0,1],[0,2,2,1],[1,1,1,1],[1,1,2,1]],"coeffs":[-1,2,-1,-3,3]'
        ',"event_time":"1/8","k_defect_check":0'
        ',"wall":[[0,0,1,1],[0,2,2,1],[1,1,1,1]]},'
        '{"circuit":[[0,1,0,1],[0,2,2,1],[1,1,1,1],[1,1,2,1],[1,2,2,1]],"coeffs":[1,-1,-2,1,1]'
        ',"event_time":"1/6","k_defect_check":0'
        ',"wall":[[0,1,0,1],[0,2,2,1],[1,1,1,1]]},'
        '{"circuit":[[0,0,1,1],[0,1,0,1],[1,0,2,1],[1,1,1,1],[1,1,2,1]],"coeffs":[-1,1,1,-1,0]'
        ',"event_time":"1/2","k_defect_check":0'
        ',"wall":[[0,0,1,1],[1,1,1,1],[1,1,2,1]]},'
        '{"circuit":[[0,0,1,1],[0,1,0,1],[0,2,2,1],[1,1,2,1],[1,2,2,1]],"coeffs":[2,-1,-1,-3,3]'
        ',"event_time":"1/2","k_defect_check":0'
        ',"wall":[[0,1,0,1],[0,2,2,1],[1,1,2,1]]}]'
    ),
    24: (
        '[{"circuit":[[0,0,0,1],[0,1,2,1],[0,2,1,1],[1,2,1,1],[2,0,1,1]],"coeffs":[-2,-2,7,-6,3]'
        ',"event_time":"2/5","k_defect_check":0'
        ',"wall":[[0,0,0,1],[0,1,2,1],[1,2,1,1]]},'
        '{"circuit":[[0,1,2,1],[1,2,1,1],[1,2,2,1],[2,0,1,1],[2,0,2,1]],"coeffs":[0,1,-1,-1,1]'
        ',"event_time":"1/2","k_defect_check":0'
        ',"wall":[[0,1,2,1],[1,2,2,1],[2,0,1,1]]},'
        '{"circuit":[[0,0,0,1],[0,0,2,1],[0,1,2,1],[0,2,1,1],[2,0,1,1]],"coeffs":[-1,3,-4,2,0]'
        ',"event_time":"5/8","k_defect_check":0'
        ',"wall":[[0,0,0,1],[0,1,2,1],[2,0,1,1]]},'
        '{"circuit":[[0,1,2,1],[0,2,1,1],[1,2,1,1],[2,0,1,1],[2,0,2,1]],"coeffs":[-2,3,-2,-1,2]'
        ',"event_time":"2/3","k_defect_check":0'
        ',"wall":[[0,1,2,1],[1,2,1,1],[2,0,1,1]]},'
        '{"circuit":[[0,1,2,1],[0,2,1,1],[1,2,1,1],[1,2,2,1],[2,0,2,1]],"coeffs":[-2,3,-3,1,1]'
        ',"event_time":"3/4","k_defect_check":0'
        ',"wall":[[0,1,2,1],[0,2,1,1],[1,2,1,1]]},'
        '{"circuit":[[0,0,2,1],[0,1,2,1],[0,2,1,1],[2,0,1,1],[2,0,2,1]],"coeffs":[1,-2,1,-1,1]'
        ',"event_time":"3/4","k_defect_check":0'
        ',"wall":[[0,0,2,1],[0,1,2,1],[2,0,1,1]]}]'
    ),
}


@pytest.mark.parametrize("seed", sorted(TIE_SPLIT_STEPS))
def test_flop_tie_break_output(seed):
    px, py, _ = flop_case(seed)
    expected = json.dumps(json.loads(TIE_SPLIT_STEPS[seed]), indent=2, sort_keys=True)
    assert dumps(flop_decompose(px, py)) == expected


# ------------------------------------------------------------ flop sweep

# One 4-ray circuit seen from two walls whose relations differ only in a
# zero-coefficient ray: (0,1,2,3,4) with (-2,1,0,2,-1) and (0,1,3,4,5) with
# (-2,1,2,-1,0).  The tie check keys on ray_indices, which include that ray,
# so the sweep reports two distinct simultaneous circuits.
TIED_RAYS = [[0, 1, 1, 1], [0, 1, 2, 1], [1, 0, 0, 1], [1, 1, 0, 1], [2, 1, 0, 1], [2, 2, 0, 1]]
TIED_X = [[0, 1, 2, 4], [0, 1, 4, 5], [0, 2, 3, 4], [0, 3, 4, 5]]
TIED_Y = [[0, 1, 2, 3], [0, 1, 3, 5], [1, 2, 3, 5], [1, 2, 4, 5]]


@pytest.mark.parametrize("shared", [(0, 2, 4), (0, 4, 5)])
def test_bistellar_flip_rejects_one_wall_of_a_wider_circuit(shared):
    # flipping one of the two walls alone would leave the other one on the
    # old triangulation: cones that overlap, which full validation rejects
    fan = make_fan(TIED_RAYS, TIED_X)
    w = next(w for w in walls(fan) if w.shared == shared)
    assert classify(wall_relation(fan, w)).kind == "flipping"
    with pytest.raises(InvalidInputError, match="support kind"):
        bistellar_flip(fan, w)


@pytest.mark.xfail(
    strict=True, raises=EngineInvariantError,
    reason="one circuit seen from two walls is taken for simultaneous events",
)
def test_flop_decompose_one_circuit_two_walls():
    px = make_pair(make_fan(TIED_RAYS, TIED_X), [0] * 6)
    py = make_pair(make_fan(TIED_RAYS, TIED_Y), [0] * 6)
    steps = flop_decompose(px, py)
    assert fans_equal(replay(px, steps)[-1].fan, py.fan)


def test_tied_pair_k_equivalence_needs_no_cell_walk(monkeypatch):
    # zero boundary at height one: psi is one linear form, so the fallback
    # answers without the cell walk and re-raises the sweep's error
    def no_walk(*_):
        raise AssertionError("the cell walk ran")

    monkeypatch.setattr(pairs_module, "cell_extreme_rays", no_walk)
    px = make_pair(make_fan(TIED_RAYS, TIED_X), [0] * 6)
    py = make_pair(make_fan(TIED_RAYS, TIED_Y), [0] * 6)
    assert k_equivalent(px, py)
    with pytest.raises(EngineInvariantError, match="simultaneous events on distinct circuits"):
        flop_decompose(px, py)


def test_flop_decompose_atiyah():
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    py = make_pair(ATIYAH_Y, [0, 0, 0, 0])
    steps = flop_decompose(px, py)
    assert len(steps) == 1
    s = steps[0]
    assert s.k_defect_check == 0
    assert 0 < s.event_time < 1
    assert set(s.circuit) == set(ATIYAH_RAYS)
    assert sorted(s.coeffs) == [-1, -1, 1, 1]


def test_flop_decompose_identity_is_empty():
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    assert flop_decompose(px, px) == ()


def test_flop_decompose_pentagon_two_flops():
    X = make_fan(PENTAGON, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    Y = make_fan(PENTAGON, [(1, 2, 3), (1, 3, 4), (0, 1, 4)])
    px = make_pair(X, [0] * 5)
    py = make_pair(Y, [0] * 5)
    steps = flop_decompose(px, py)
    assert len(steps) == 2
    assert steps[0].event_time < steps[1].event_time
    assert all(s.k_defect_check == 0 for s in steps)
    # replay through public surgery
    assert fans_equal(replay(px, steps)[-1].fan, Y)
    # reversed direction also works and is deterministic
    back = flop_decompose(py, px)
    assert len(back) == 2
    assert flop_decompose(px, py) == steps


def test_flop_decompose_rejects_non_k_equivalent():
    p = make_pair(ORTHANT2, [0, 0])
    q = make_pair(BLOWUP2, [0, 0, 0])
    with pytest.raises(NotKEquivalentError):
        flop_decompose(p, q)
    # same rays, noncoplanar heights: psi functions differ
    rays = [(0, 0, 1), (1, 0, 1), (3, 3, 2), (0, 1, 1)]
    fx = make_fan(rays, [(0, 1, 2), (0, 2, 3)])
    fy = make_fan(rays, [(0, 1, 3), (1, 2, 3)])
    with pytest.raises(NotKEquivalentError):
        flop_decompose(make_pair(fx, [0] * 4), make_pair(fy, [0] * 4))


def _bumped_corpus_case(seed):
    """flop_case(seed) with one seeded ray's coefficient raised to 1/4, 1/2
    or 3/4 on both sides: equal rays and coefficients, but psi stays linear
    across the flipped circuits only when none of them bends at that ray."""
    px, py, _ = flop_case(seed)
    rng = random.Random(seed)
    ray, c = rng.choice(px.fan.rays), Fraction(rng.randrange(1, 4), 4)

    def bump(p):
        return make_pair(p.fan, [c if r == ray else 0 for r in p.fan.rays], p.lattice)

    return bump(px), bump(py)


def test_flop_decompose_matches_cell_walk_on_bumped_corpus():
    verdicts = []
    for seed in range(80):
        px, py = _bumped_corpus_case(seed)
        verdicts.append(k_equivalent(px, py))
        if verdicts[-1]:
            steps = flop_decompose(px, py)
            assert fans_equal(replay(px, steps)[-1].fan, py.fan), seed
        else:
            with pytest.raises(NotKEquivalentError, match="pairs are not K-equivalent"):
                flop_decompose(px, py)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts are exercised


def test_dimension_three_k_equivalence_never_walks_cells(monkeypatch):
    # the bumped corpus's dimension-3 pairs, K-equivalent or not, are
    # decided by their walls alone, in k_equivalent and in the fallback of
    # flop_decompose after a failed sweep
    def no_walk(*_):
        raise AssertionError("the cell walk ran")

    cases = [c for c in map(_bumped_corpus_case, range(80)) if c[0].fan.dim == 3]
    expected = [walked_k_equivalent(px, py) for px, py in cases]
    monkeypatch.setattr(pairs_module, "cell_extreme_rays", no_walk)
    assert [k_equivalent(px, py) for px, py in cases] == expected
    assert 0 < sum(expected) < len(cases)
    for (px, py), same in zip(cases, expected):
        if not same:
            with pytest.raises(NotKEquivalentError, match="pairs are not K-equivalent"):
                flop_decompose(px, py)


# sha256 over dumps(flop_decompose(...)) of corpus seeds 0-79, one line per
# seed, recorded from the sweep that rebuilt the fan and rescanned every
# wall at each event: the sweep on one local state takes the same steps
FLOP_CORPUS_SHA256 = "dae1da6b38a1f1eaf6c51a5b5df45d299cfae059142104529246e9b20986810f"


def test_flop_decompose_corpus_outputs_pinned():
    h = hashlib.sha256()
    for seed in range(80):
        px, py, _ = flop_case(seed)
        h.update((dumps(flop_decompose(px, py)) + "\n").encode())
    assert h.hexdigest() == FLOP_CORPUS_SHA256


def test_sweep_computes_each_wall_relation_once(monkeypatch):
    # X's walls, Y's walls and every rescored facet share one relation per
    # pair of cones, named here by the ray vectors of both cones
    calls, real = [], fan_module._relation

    def counting(rays, cone_a, apex_a, apex_b, kernel):
        cone_b = tuple(i for i in cone_a if i != apex_a) + (apex_b,)
        calls.append(frozenset(frozenset(rays[i] for i in c) for c in (cone_a, cone_b)))
        return real(rays, cone_a, apex_a, apex_b, kernel)

    monkeypatch.setattr(fan_module, "_relation", counting)
    for seed in range(80):
        px, py, _ = flop_case(seed)
        calls.clear()
        flop_decompose(px, py)
        assert calls and len(calls) == len(set(calls)), seed


def _shuffled_rays(pair, rng):
    """The same pair with its rays in a seeded random order."""
    fan = pair.fan
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    cones = [tuple(sorted(new[i] for i in c)) for c in fan.max_cones]
    shuffled = make_fan([fan.rays[i] for i in order], cones, validate="fast")
    return make_pair(shuffled, [pair.coeffs[i] for i in order], pair.lattice)


# sha256 over dumps(flop_decompose(x, y')) of corpus seeds 0-79, y' the
# target pair with its rays shuffled (random.Random(seed)), one line per
# seed; recorded when Y's relations were computed in Y's own ray indices.
# Y's LP follows Y's ray order, so seed 30 differs from the unshuffled run
FLOP_SHUFFLED_Y_SHA256 = "2108905b3667ad4b95b920dcc20a48038e89943f0f88a8aa9a640f1d406a7d69"


def test_flop_decompose_with_shuffled_target_rays_pinned():
    h, moved = hashlib.sha256(), []
    for seed in range(80):
        px, py, _ = flop_case(seed)
        text = dumps(flop_decompose(px, _shuffled_rays(py, random.Random(seed))))
        if text != dumps(flop_decompose(px, py)):
            moved.append(seed)
        h.update((text + "\n").encode())
    assert moved == [30]
    assert h.hexdigest() == FLOP_SHUFFLED_Y_SHA256


def test_sweep_state_matches_rebuilt_fan(monkeypatch):
    # after every event the state's facet -> relation map is the relation
    # scan of the fully validated fan; no flip of the sweep rebuilds a fan
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep rebuilt a fan")

    cases = [flop_case(seed)[:2] for seed in range(80)]
    monkeypatch.setattr(mmp_module, "make_fan", forbidden)
    events = 0
    for seed, (px, py) in enumerate(cases):
        for _, sub in _sweep(px, py):
            fan = make_fan(sub.rays, list(sub.max_cones), validate="full")
            assert {f: rel for f, (rel, _) in sub.walls.items()} == {
                w.shared: wall_relation(fan, w) for w in walls(fan)
            }, seed
            events += 1
    assert events > 80


def test_sweep_end_check_matches_fans_equal(monkeypatch):
    # each sweep cut after c of its flips, against Y's rays as given and
    # shuffled: the end check through to_x raises exactly when the state's
    # fan is not Y by fans_equal, the check it replaces, with its message
    cases = []
    for seed in range(30):
        px, py, _ = flop_case(seed)
        for y in (py, _shuffled_rays(py, random.Random(seed))):
            cases.append((seed, px, y, len(flop_decompose(px, y))))
    cut, flips, states = [0], [], []
    real_flip, real_pop = _Subdivision.flip, _Subdivision.pop
    monkeypatch.setattr(_Subdivision, "flip",
                        lambda self, rel: flips.append(rel) or real_flip(self, rel))
    monkeypatch.setattr(_Subdivision, "pop", lambda self: states.append(self) or (
        None if len(flips) >= cut[0] else real_pop(self)))
    outcomes = Counter()
    for seed, px, y, events in cases:
        for cut[0] in range(events + 1):
            flips.clear()
            try:
                tuple(_sweep(px, y))
                raised = False
            except EngineInvariantError as e:
                assert str(e) == "sweep exhausted before reaching the target fan"
                raised = True
            assert raised is not fans_equal(states[-1].fan(), y.fan), (seed, cut)
            outcomes[raised] += 1
    assert outcomes[True] >= 30 and outcomes[False] == 60


def test_crossing_test_matches_the_perturbed_defect_vector():
    # the target defect as the list of its eps-power coefficients, constant
    # term first, negative in list order iff the wall crosses
    rng = random.Random(41)
    for _ in range(2000):
        n_rays = rng.randrange(5, 9)
        circuit = sorted(rng.sample(range(n_rays), rng.choice([4, 5])))
        coeffs = [rng.choice([-2, -1, 0, 0, 1, 2]) for _ in circuit]
        if not any(coeffs):
            continue
        d1 = rng.choice([-3, 0, 0, 0, 2])
        vector = [d1] + [0] * n_rays
        for i, a in zip(circuit, coeffs):
            vector[i + 1] = a
        assert _crosses(d1, coeffs) == (vector < [0] * (n_rays + 1))


def _empty_step(sub, rel):
    # a stand-in for _Subdivision.flip: a step that removes and creates no
    # cone, so the walls popped since the last step are queued again
    sub._replace((), (), "flip")
    return (), ()


def test_sweep_refuses_a_circuit_firing_twice(monkeypatch):
    # a flip that changes nothing, a step of no cones, leaves the fired
    # circuit as the next event
    monkeypatch.setattr(_Subdivision, "flip", _empty_step)
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    py = make_pair(ATIYAH_Y, [0, 0, 0, 0])
    with pytest.raises(EngineInvariantError, match="fired twice"):
        tuple(_sweep(px, py))


def test_successful_sweeps_never_run_the_cell_walk(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the cell walk ran on a successful decomposition")

    monkeypatch.setattr("toricmmp.mmp.k_equivalent", forbidden)
    monkeypatch.setattr("toricmmp.pairs.cell_extreme_rays", forbidden)
    for seed in range(80):
        px, py, _ = flop_case(seed)
        assert fans_equal(replay(px, flop_decompose(px, py))[-1].fan, py.fan), seed
    assert len(flop_decompose(make_pair(ATIYAH_X, [0] * 4), make_pair(ATIYAH_Y, [0] * 4))) == 1
    X = make_fan(PENTAGON, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    Y = make_fan(PENTAGON, [(1, 2, 3), (1, 3, 4), (0, 1, 4)])
    assert len(flop_decompose(make_pair(X, [0] * 5), make_pair(Y, [0] * 5))) == 2
    for seed, text in TIE_SPLIT_STEPS.items():
        px, py, _ = flop_case(seed)
        assert json.loads(dumps(flop_decompose(px, py))) == json.loads(text)


# ------------------------------------------------------------ relative MMP


def test_relative_mmp_already_minimal():
    p = make_pair(ORTHANT2, [0, 0])
    out, steps = relative_mmp(p)
    assert steps == ()
    assert out.fan is ORTHANT2


def test_relative_mmp_contracts_blowup():
    p = make_pair(BLOWUP2, [0, 0, 0])
    out, steps = relative_mmp(p)
    assert fans_equal(out.fan, ORTHANT2)
    assert len(steps) == 1
    assert steps[0].kind == "divisorial"
    assert steps[0].removed_ray == (1, 1)
    assert steps[0].defect == 1
    assert out.coeffs == (0, 0)


def test_relative_mmp_flip_then_stops():
    rays = [(0, 0, 1), (1, 0, 1), (3, 3, 2), (0, 1, 1)]
    fx = make_fan(rays, [(0, 1, 2), (0, 2, 3)])
    p = make_pair(fx, [0] * 4)
    out, steps = relative_mmp(p)
    assert [s.kind for s in steps] == ["flip"]
    assert fans_equal(out.fan, make_fan(rays, [(0, 1, 3), (1, 2, 3)]))
    # the other triangulation is already minimal
    out2, steps2 = relative_mmp(out)
    assert steps2 == ()


def test_divisorial_contract_center_is_the_positive_face():
    # the orthant blown up along (1, 1, 0): the divisor maps onto the line
    # V(cone(e1, e2)), not onto the point of the circuit's zero ray e3 too
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    fan = make_fan(rays, [(0, 2, 3), (1, 2, 3)])
    out, removed, center = divisorial_contract(fan, walls(fan)[0])
    assert removed == (1, 1, 0) and center == ((1, 0, 0), (0, 1, 0))
    assert fans_equal(out, make_fan(rays[:3], [(0, 1, 2)]))
    _, steps = relative_mmp(make_pair(fan, [0] * 4))
    assert [(s.kind, s.center) for s in steps] == [("divisorial", center)]


def test_relative_mmp_contracts_the_centre_of_a_square():
    # the centre ray's star is all four cones, T+ * L with L the two other
    # corners: one link contraction leaves the cone on the square
    rays = [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1), (1, 1, 1)]
    fan = make_fan(rays, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    out, steps = relative_mmp(make_pair(fan, [0, 0, 0, 0, Fraction(1, 2)]))
    assert [(s.kind, s.removed_ray) for s in steps] == [("divisorial", (1, 1, 1))]
    assert out.fan == make_fan(rays[:4], [(0, 1, 2), (0, 2, 3)], validate="full")


def test_relative_mmp_flop_wall_not_executed():
    px = make_pair(ATIYAH_X, [0, 0, 0, 0])
    out, steps = relative_mmp(px)
    assert steps == ()


def test_relative_mmp_validates_base():
    # the base is the support cone, so a complete fan has none
    complete = make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InvalidInputError, match="strictly convex cone"):
        relative_mmp(make_pair(complete, [0, 0, 0]))


def test_defect_sign_matches_the_relation_defect():
    # the MMP builds relations only for walls whose defect sign, read off
    # the first cone's kept kernel (_Subdivision.bend), is positive;
    # the sign of the defect of the wall's relation is the oracle.  Seeded
    # flop-corpus fans in dimensions 3 and 4 and McKay resolutions, under
    # random heights, a linear form's heights with one ray bumped, and
    # psi, each wall read from either cone, so walls of zero defect and
    # first cones of negative determinant both occur
    rng, seen = random.Random(3535), Counter()
    fans = [flop_case(seed)[0].fan for seed in range(40)]
    fans += [mckay_pipeline(make_group(3, [(r, (1, a, -1 - a))])).resolution.fan
             for r, a in ((7, 2), (10, 3), (12, 5), (13, 6))]
    fans += [mckay_pipeline(make_group(3, [(10, (1, 6, 8))])).resolution.fan]
    for fan in fans:
        u = [rng.randint(-3, 3) for _ in range(fan.dim)]
        bumped = [dot(u, r) for r in fan.rays]
        bumped[rng.randrange(len(bumped))] += rng.choice([-1, 1])
        for hs in ([rng.randint(-4, 4) for _ in fan.rays], bumped, [1] * len(fan.rays)):
            sub = _Subdivision(fan)
            sub.score_walls(lambda f, rel: None, hs)
            positive = set()
            for f, cs in list(sub.facets.items()):
                if len(cs) == 2:
                    d = defect(sub.relation(f), hs)
                    positive.update([f] if d > 0 else [])
                    for first in cs, cs[::-1]:
                        sub.facets[f] = list(first)
                        assert sub._positive(f) == (d > 0), (fan, hs, f)
                        bend = sub.bend(f, hs)  # the same sign, also of zero
                        assert (bend > 0) - (bend < 0) == (d > 0) - (d < 0)
                        seen[(d > 0) - (d < 0), sub.kernel(first[0])[1] > 0] += 1
            assert set(sub.walls) == positive
    assert len(seen) == 6 and min(seen.values()) > 100, seen


def test_mmp_state_matches_validated_fans(monkeypatch):
    # the relative MMP keeps one fan state across flips and contractions:
    # no step rebuilds a fan or re-validates a pair, and each yielded fan is
    # the fully validated fan of its rays and cones, in cone order and
    # support kind.  Each step's defect is that of its wall under the psi
    # of the pair before it, and the last pair has no positive defect.
    # After every step the state keeps at most one relation per current
    # wall, only current walls' relations as refused circuit steps, and
    # the adjugates and boundary of a fresh recomputation.
    def forbidden(*args, **kwargs):
        raise AssertionError("the MMP rebuilt a fan or a pair")

    def psi_defects(pair):
        psi = psi_heights(pair)
        return {
            frozenset(pair.fan.rays[i] for i in w.shared): defect(wall_relation(pair.fan, w), psi)
            for w in walls(pair.fan)
        }

    inputs = cyclic_mmp_inputs() + square_mmp_inputs(7, 150)
    monkeypatch.setattr(mmp_module, "make_fan", forbidden)
    monkeypatch.setattr(mmp_module, "make_pair", forbidden, raising=False)
    kinds = Counter()
    for pair in inputs:
        prev = pair
        for step, cur, sub in mmp_pairs(pair):
            assert len(sub.rels) <= len(sub.walls)
            assert sub.refused <= {rel for rel, _ in sub.walls.values()}
            _assert_kept_state(sub)
            fan = cur.fan
            assert fan == make_fan(fan.rays, fan.max_cones, validate="full")
            assert cur.lattice == pair.lattice
            assert step.defect == psi_defects(prev)[frozenset(step.wall)] > 0
            if step.kind == "divisorial":
                j = prev.fan.rays.index(step.removed_ray)
                assert cur.coeffs == prev.coeffs[:j] + prev.coeffs[j + 1:]
            else:
                assert cur.coeffs == prev.coeffs
            kinds[step.kind] += 1
            prev = cur
        assert all(d <= 0 for d in psi_defects(prev).values())
    assert kinds["divisorial"] > 100 and kinds["flip"] > 100, kinds


def _rescanned_mmp(pair):
    """(kind, wall vectors, defect) of each step of relative_mmp, chosen
    the slow way: every round builds a fresh state of the pair, rescans
    every wall's psi-defect and tries the positive ones in the MMP's
    candidate order, (-defect, apex vectors, facet)."""
    out = []
    while True:
        sub, psi = _Subdivision(pair.fan), psi_heights(pair)
        cands = sorted(
            (-d, tuple(sorted(pair.fan.rays[i] for i in rel.ray_indices if i not in f)), f, rel)
            for f, rel in sub.relations() if (d := defect(rel, psi)) > 0
        )
        if not cands:
            return out
        for neg_d, _, f, rel in cands:
            kind = classify(rel)
            if kind.kind == "flipping" and sub.flip(rel) is not None:
                break
            if kind.kind == "divisorial" and sub.contract(rel, kind.ray) is not None:
                break
        out.append((kind.kind, tuple(pair.fan.rays[i] for i in f), -neg_d))
        fan, coeff = sub.fan(), dict(zip(pair.fan.rays, pair.coeffs))
        pair = make_pair(fan, [coeff[v] for v in fan.rays], pair.lattice)


def test_relative_mmp_matches_a_full_rescan_per_round():
    # the state's candidate queue and its memory of refused
    # circuit steps pick, every round, the wall that a fresh state's full
    # rescan picks; at 40 points a round skips 3.5 refused walls on average
    kinds = Counter()
    for seed in range(4):
        if (pair := corpus.mmp_probe_pair(seed, 40)) is None:
            continue  # a flat wall
        _, steps = relative_mmp(pair)
        assert [("flipping" if s.kind == "flip" else s.kind, s.wall, s.defect)
                for s in steps] == _rescanned_mmp(pair), seed
        kinds.update(s.kind for s in steps)
    assert kinds["flip"] > 50 and kinds["divisorial"] > 50, kinds


def test_the_candidate_queue_pops_the_least_unpopped_wall(monkeypatch):
    # every pop of the fan state's candidate queue returns the least (key,
    # facet) among the scored walls not popped since the state's last step,
    # found by a full rescan of the wall table, in each of the three loops
    # that pop: seeded triangulations, the 80 flop_case sweeps and 40-point
    # relative-MMP probes.  Each loop pops again, after a step, some wall
    # it popped before it, so the step must have queued it again.  The
    # seeded triangulations pop again only 1 of 248 times, so five shuffled
    # placements (_placement_inputs) join them: counting the pops again
    # over seeds 0-5 of five inputs each gave 19-47, seed 0 27
    real_pop, real_replace = _Subdivision.pop, _Subdivision._replace
    since_step, ever = weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary()
    pops, again = Counter(), Counter()

    def replace(self, *args):
        since_step.pop(self, None)
        return real_replace(self, *args)

    def checked_pop(self):
        skip = since_step.setdefault(self, set())
        least = min(((key, f) for f, (_, key) in self.walls.items()
                     if key is not None and f not in skip), default=None)
        entry = real_pop(self)
        if entry is None:
            assert least is None, least
            return entry
        key, f, rel = entry
        assert (key, f) == least and self.walls[f] == (rel, key)
        skip.add(f)
        seen = ever.setdefault(self, set())
        again[loop] += (f, rel) in seen
        seen.add((f, rel))
        pops[loop] += 1
        return entry

    cases = [flop_case(seed)[:2] for seed in range(80)]
    probes = [corpus.mmp_probe_pair(seed, 40) for seed in range(4)]
    monkeypatch.setattr(_Subdivision, "pop", checked_pop)
    monkeypatch.setattr(_Subdivision, "_replace", replace)
    loop = "triangulation"
    for rays, heights in _triangulation_inputs(3, 200) + _placement_inputs(0, 5):
        try:
            regular_triangulation(rays, heights)
        except ToricMmpError:
            pass
    loop = "sweep"
    for px, py in cases:
        flop_decompose(px, py)
    loop = "mmp"
    for pair in probes:
        if pair is not None:  # None: a flat wall
            relative_mmp(pair)
    assert min(pops.values()) > 100 and len(pops) == 3, pops
    assert min(again.values()) > 0 and len(again) == 3, again
    assert again["triangulation"] >= 10, again


# sha256 over dumps((pair, steps)) of relative_mmp on cyclic_mmp_inputs()
# + square_mmp_inputs(7, 150), one line per input (1,321 inputs, 374
# contractions, 322 flips); recorded while a contraction re-indexed the
# rays after it and every round rescanned every wall
RELATIVE_MMP_SHA256 = "0a9f5c81dbad8dea430cc67314d9272e052fa1df3887c395a6f12f84524dbfb5"


def test_relative_mmp_outputs_pinned():
    h, kinds = hashlib.sha256(), Counter()
    for pair in cyclic_mmp_inputs() + square_mmp_inputs(7, 150):
        out, steps = relative_mmp(pair)
        kinds.update(s.kind for s in steps)
        h.update((dumps((out, steps)) + "\n").encode())
    assert kinds["divisorial"] >= 100 and kinds["flip"] >= 100, kinds
    assert h.hexdigest() == RELATIVE_MMP_SHA256


def test_a_linear_psi_ends_the_mmp_with_the_steps_of_the_full_loop(monkeypatch):
    # the early return for a linear psi against the loop that scores every
    # wall: the 1,321 pinned inputs, 565 of whose psi are linear, and the
    # pipeline's MMP input of each of the 870 SL groups (1/r)(1, k, r-1-k)
    # with r <= 60 and k <= (r-1)/2 (k and r-1-k swap two axes), all linear
    sl = []
    for r in range(3, 61):
        for k in range(1, (r - 1) // 2 + 1):
            Y, _ = terminalize(quotient_pair(make_group(3, [(r, (1, k, r - 1 - k))])))
            sl.append(make_pair(Y.fan, [0] * len(Y.fan.rays), Y.lattice))
    pinned = cyclic_mmp_inputs() + square_mmp_inputs(7, 150)

    def run(pair):
        sub = _Subdivision(pair.fan)
        steps = [(st, gone, new) for st, gone, new in _mmp_steps(sub, *_scaled_psi(pair))]
        return steps, sub.fan()

    fast = [run(pair) for pair in pinned + sl]
    linear = [psi_linear(pair) for pair in pinned + sl]
    monkeypatch.setattr(mmp_module, "_heights_linear", lambda *_: False)
    assert [run(pair) for pair in pinned + sl] == fast
    assert all(linear[len(pinned):]) and 100 < sum(linear[:len(pinned)]) < len(pinned), (
        sum(linear[:len(pinned)]))
    assert not any(steps for (steps, _), flat in zip(fast, linear) if flat)
    assert sum(len(steps) for steps, _ in fast) > 500


def test_mmp_and_flip_limits_name_their_value(monkeypatch):
    # a flip that changes nothing, a step of no cones, leaves the same wall
    # negative, so each loop runs to its stated 10*n^2 limit
    monkeypatch.setattr(_Subdivision, "flip", _empty_step)
    rays = [(0, 0, 1), (1, 0, 1), (3, 3, 2), (0, 1, 1)]
    p = make_pair(make_fan(rays, [(0, 1, 2), (0, 2, 3)]), [0] * 4)
    with pytest.raises(BudgetExceededError, match=r"limit of 10\*n\^2 = 160 steps for n = 4 rays"):
        relative_mmp(p)
    with pytest.raises(BudgetExceededError, match=r"limit of 10\*n\^2 = 160 flips for n = 4 rays"):
        regular_triangulation([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], [1, 0, 1, 0])


# ------------------------------------------------------------ terminalize


def test_terminalize_a2_cone():
    pair = make_pair(make_fan([(1, 0), (1, 3)], [(0, 1)]), [0, 0])
    out, steps = terminalize(pair)
    assert [(s.ray, s.psi_value) for s in steps] == [((1, 1), 1), ((1, 2), 1)]
    assert is_terminal(out)
    assert all(abs(det(out.fan.ray_matrix(c))) == 1 for c in out.fan.max_cones)
    assert out.coeffs == (0, 0, 0, 0)


def test_terminalize_ray_sum_extraction():
    pair = make_pair(ORTHANT2, [Fraction(1, 2), Fraction(2, 3)])
    out, steps = terminalize(pair)
    assert [(s.ray, s.psi_value) for s in steps] == [((1, 1), Fraction(5, 6))]
    assert is_terminal(out)
    assert out.coeffs == (Fraction(1, 2), Fraction(2, 3), 0)


def test_terminalize_terminal_is_noop():
    fan = make_fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)])
    pair = make_pair(fan, [0, 0, 0])
    out, steps = terminalize(pair)
    assert steps == ()
    assert out is pair


def test_terminalize_worst_first_order():
    # index-4 cone with a weighted ray: box psi values 7/8, 3/4, 5/8 at
    # (1,1), (1,2), (1,3); the deepest point goes first
    pair = make_pair(make_fan([(1, 0), (1, 4)], [(0, 1)]), [0, Fraction(1, 2)])
    out, steps = terminalize(pair)
    assert steps[0].ray == (1, 3)
    assert steps[0].psi_value == Fraction(5, 8)
    assert [s.ray for s in steps] == [(1, 3), (1, 1), (1, 2)]
    assert [s.psi_value for s in steps] == [Fraction(5, 8), 1, 1]
    assert is_terminal(out)
