"""Quotient pairs, the rank ledger pipeline, and dimension-two chains."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

from corpus import extraction_pairs, flop_case
from test_lattice import oracle_hermite_lower

from toricmmp import fan as fan_module
from toricmmp import mckay as mckay_module
from toricmmp import mmp as mmp_module
from toricmmp import pairs as pairs_module
from toricmmp.circuits import defect
from toricmmp.jsonio import dumps
from toricmmp.errors import BudgetExceededError, EngineInvariantError, InvalidInputError
from toricmmp.fan import (
    _facet_map,
    _solve,
    _Subdivision,
    _walk_star,
    fans_equal,
    make_fan,
    star_subdivision,
)
from toricmmp.lattice import (
    LatticeBasis,
    adjugate,
    det,
    mat_identity,
    mat_rank,
    primitive,
    vec_add,
    vec_mat,
)
from toricmmp.mckay import (
    MAX_CASE_A_ORDER,
    MAX_GROUP_DIM,
    MAX_HJ_CHAIN,
    boundary_divisor_pair,
    case_a_components,
    group_lattice,
    group_order,
    hj_resolution,
    is_sl,
    make_group,
    mckay_pipeline,
    quotient_pair,
    stack_rank,
)
from toricmmp.mmp import ExtractionStep, terminalize
from toricmmp.pairs import _scaled_psi, make_pair, min_discrepancy_witness

F = Fraction


def test_make_group_validation():
    with pytest.raises(InvalidInputError):
        make_group(0, [(2, ())])
    with pytest.raises(InvalidInputError):
        make_group(2, [(0, (1, 1))])
    with pytest.raises(InvalidInputError):
        make_group(2, [(3, (1,))])
    # weights live in [0, r)
    g = make_group(2, [(3, (4, -1))])
    assert g.gens == ((3, (1, 2)),)
    assert group_order(make_group(MAX_GROUP_DIM, [])) == 1
    with pytest.raises(InvalidInputError, match=f"exceeds the limit {MAX_GROUP_DIM}"):
        make_group(MAX_GROUP_DIM + 1, [])


def test_group_order_cyclic_and_product():
    assert group_order(make_group(2, [(3, (1, 1))])) == 3
    assert group_order(make_group(2, [(2, (0, 1))])) == 2
    assert group_order(make_group(2, [(2, (1, 0)), (2, (0, 1))])) == 4
    # the order counts the acting image: (1/4)(0, 2) acts through order 2
    assert group_order(make_group(2, [(4, (0, 2))])) == 2


def test_is_sl():
    assert is_sl(make_group(2, [(3, (1, 2))]))
    assert not is_sl(make_group(2, [(3, (1, 1))]))
    assert is_sl(make_group(3, [(3, (1, 1, 1))]))
    assert not is_sl(make_group(3, [(2, (1, 1, 1))]))
    assert is_sl(make_group(2, [(2, (1, 1)), (4, (1, 3))]))


def test_quotient_pair_third_11():
    X = quotient_pair(make_group(2, [(3, (1, 1))]))
    assert X.fan.rays == ((1, 0), (-1, 3))
    assert X.coeffs == (0, 0)
    assert X.lattice.determinant == F(1, 3)
    assert stack_rank(X) == 3


def test_quotient_pair_sixth_32():
    X = quotient_pair(make_group(2, [(6, (3, 2))]))
    assert X.fan.rays == ((1, 0), (0, 1))
    assert X.coeffs == (F(1, 2), F(2, 3))
    assert stack_rank(X) == 6


def test_stack_rank_rejects_nonstandard_coefficients():
    from toricmmp.pairs import make_pair

    X = quotient_pair(make_group(2, [(2, (1, 1))]))
    bad = make_pair(X.fan, (F(1, 3), 0), X.lattice)
    with pytest.raises(InvalidInputError, match="standard"):
        stack_rank(bad)


def test_rank_equals_order_sampled():
    rng = random.Random(20260816)
    for _ in range(60):
        n = rng.choice([2, 2, 3])
        r = rng.randrange(1, 9)
        ws = tuple(rng.randrange(r) for _ in range(n))
        G = make_group(n, [(r, ws)])
        assert stack_rank(quotient_pair(G)) == group_order(G)


# ------------------------------------------------------------ components


def test_case_a_components_small():
    assert case_a_components(1, 1) == ()
    assert case_a_components(2, 1) == (1,)
    assert case_a_components(3, 1) == (1, 2)
    assert case_a_components(5, 2) == (1, 3, 4)
    assert case_a_components(5, 5) == ()


def test_case_a_components_count():
    for r1 in range(1, 13):
        for s1 in range(1, r1 + 1):
            comps = case_a_components(r1, s1)
            assert len(comps) == r1 - s1
            assert all(1 <= l < r1 for l in comps)


def test_case_a_components_validation():
    with pytest.raises(InvalidInputError):
        case_a_components(3, 0)
    with pytest.raises(InvalidInputError):
        case_a_components(3, 4)
    with pytest.raises(InvalidInputError, match=f"limit of {MAX_CASE_A_ORDER}"):
        case_a_components(MAX_CASE_A_ORDER + 1, MAX_CASE_A_ORDER)


# --------------------------------------------------------------- pipeline


def test_pipeline_third_11():
    rep = mckay_pipeline(make_group(2, [(3, (1, 1))]))
    assert rep.order == 3 and not rep.sl
    assert rep.rank_quotient == 3 and rep.rank_resolution == 2
    (e,) = rep.ledger
    assert e.kind == "extraction"
    assert e.ray == (0, 1)
    assert e.psi_value == F(2, 3)
    assert (e.rank_before, e.rank_after) == (3, 2)
    assert e.center == (0, 1)


def test_pipeline_half_01():
    rep = mckay_pipeline(make_group(2, [(2, (0, 1))]))
    assert rep.order == 2
    (e,) = rep.ledger
    assert e.kind == "coefficient_drop"
    assert e.ray == (0, 1)
    assert e.center == (1,)
    assert e.components == (1,)
    assert (e.rank_before, e.rank_after) == (2, 1)
    assert rep.rank_resolution == 1


def test_pipeline_sixth_32():
    """Order six with both quasi-reflections and a discrepant extraction:
    the ledger spends 1+1+2+1 and the minimal model is the smooth chart."""
    rep = mckay_pipeline(make_group(2, [(6, (3, 2))]))
    assert rep.order == 6
    kinds = [e.kind for e in rep.ledger]
    assert kinds == ["extraction", "coefficient_drop", "coefficient_drop", "divisorial"]
    ext, d1, d2, div = rep.ledger
    assert ext.ray == (1, 1) and ext.psi_value == F(5, 6)
    assert (ext.rank_before, ext.rank_after) == (6, 5)
    assert d1.ray == (1, 0) and d1.components == (1,) and d1.rank_after == 4
    assert d2.ray == (0, 1) and d2.components == (1, 2) and d2.rank_after == 2
    assert div.ray == (1, 1) and div.rank_after == 1
    assert rep.rank_resolution == 1
    assert fans_equal(rep.resolution.fan, rep.quotient.fan)


def test_pipeline_half_111_terminal():
    rep = mckay_pipeline(make_group(3, [(2, (1, 1, 1))]))
    assert rep.order == 2 and rep.ledger == ()
    assert rep.rank_resolution == 2
    assert fans_equal(rep.resolution.fan, rep.quotient.fan)


def test_pipeline_third_111_crepant():
    rep = mckay_pipeline(make_group(3, [(3, (1, 1, 1))]))
    assert rep.sl
    (e,) = rep.ledger
    assert e.kind == "extraction" and e.psi_value == 1
    assert e.rank_before == e.rank_after == 3
    assert len(rep.resolution.fan.max_cones) == 3
    assert rep.rank_resolution == 3
    # smooth: rank equals the cone count exactly when every cone is unimodular
    assert all(
        abs(det(rep.resolution.fan.ray_matrix(c))) == 1
        for c in rep.resolution.fan.max_cones
    )


def test_pipeline_reflection_product():
    # (Z/2)^2 acting by sign changes: generated by quasi-reflections
    rep = mckay_pipeline(make_group(2, [(2, (1, 0)), (2, (0, 1))]))
    assert rep.order == 4
    kinds = [e.kind for e in rep.ledger]
    assert kinds == ["extraction", "coefficient_drop", "coefficient_drop", "divisorial"]
    assert rep.ledger[0].psi_value == 1
    assert rep.ledger[0].rank_before == rep.ledger[0].rank_after == 4
    assert rep.rank_resolution == 1


def test_pipeline_ledger_telescopes_sampled():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3])
        r = rng.randrange(2, 7)
        ws = tuple(rng.randrange(r) for _ in range(n))
        rep = mckay_pipeline(make_group(n, [(r, ws)]))
        spent = sum(e.rank_before - e.rank_after for e in rep.ledger)
        assert rep.order == rep.rank_resolution + spent
        for e in rep.ledger:
            assert e.rank_before >= e.rank_after
            if e.kind == "extraction":
                assert 0 < e.psi_value <= 1
                if e.psi_value == 1:
                    assert e.rank_before == e.rank_after
            assert e.center  # every locus meets the open quotient cone
        assert all(c == 0 for c in rep.resolution.coeffs)


def test_pipeline_stops_at_the_extraction_budget():
    # the SL group (1/211)(1, 50, 160) has 105 age-one elements, each one an
    # extraction, past terminalize's stated limit of 10 * 3^2 = 90; a proved
    # extraction bound (ROADMAP item 13) will change this pin
    with pytest.raises(BudgetExceededError, match="extraction budget exhausted"):
        mckay_pipeline(make_group(3, [(211, (1, 50, 160))]))


def test_pipeline_flip_ledgers():
    """The two smallest known groups whose MMP flips; the ledgers were
    recorded before the pipeline stopped replaying engine steps."""
    rep = mckay_pipeline(make_group(3, [(25, (1, 10, 22))]))
    assert rep.ledger == (
        ("extraction", (0, 0, 1), (0, 1, 2), 25, 14, F(14, 25), None),
        ("extraction", (-3, -2, 10), (0, 2), 14, 12, F(3, 5), None),
        ("extraction", (-1, -1, 5), (0, 2), 12, 12, 1, None),
        ("flip", (-8, -5, 26), (0, 1, 2), 12, 11, None, None),
    )
    assert (rep.order, rep.rank_resolution) == (25, 11)
    rep = mckay_pipeline(make_group(3, [(8, (3, 6, 1)), (5, (0, 0, 1))]))
    assert rep.ledger == (
        ("extraction", (-6, -5, 7), (0, 1, 2), 40, 22, F(11, 20), None),
        ("extraction", (-3, -3, 4), (0, 2), 22, 18, F(3, 5), None),
        ("coefficient_drop", (-7, -6, 8), (2,), 18, 10, None, (1, 2, 3, 4)),
        ("flip", (-5, -5, 7), (0, 1, 2), 10, 9, None, None),
        ("divisorial", (-6, -5, 7), (0, 1, 2), 9, 8, None, None),
    )
    assert (rep.order, rep.rank_resolution) == (40, 8)


def test_pipeline_recount_catches_a_wrong_rank_update(monkeypatch):
    # every step is priced by the cones it reports, so a step that
    # misreports them leaves the ledger off.  Reporting one created cone
    # twice counts its rank twice; (1/6)(0, 1, 4) takes no MMP step, and
    # on (1/8)(3,6,1) + (1/5)(0,0,1) the error rides through a drop, a
    # flip and a contraction, each priced by the cones it changes, to the
    # recount.  Leaving a created cone out of the report keeps it out of
    # the rank table, so the later step that removes it is an engine
    # invariant break, never a bare KeyError
    G = make_group(3, [(6, (0, 1, 4))])
    H = make_group(3, [(8, (3, 6, 1)), (5, (0, 0, 1))])
    assert [(e.kind, e.rank_before, e.rank_after) for e in mckay_pipeline(G).ledger] == [
        ("extraction", 6, 4), ("extraction", 4, 4), ("coefficient_drop", 4, 3),
    ]
    assert [e.kind for e in mckay_pipeline(H).ledger][2:] == [
        "coefficient_drop", "flip", "divisorial",
    ]
    extraction_steps = mckay_module._extraction_steps
    for misreport, message in (
        (lambda new: new + new[:1], "misses the stack rank of the resolution"),
        (lambda new: new[1:], "a step removed a cone that the rank ledger lacks"),
    ):
        def misreported(sub, scaled, L):
            steps = extraction_steps(sub, scaled, L)
            st, gone, new = next(steps)
            yield st, gone, misreport(list(new))
            yield from steps

        monkeypatch.setattr(mckay_module, "_extraction_steps", misreported)
        for group in (G, H):
            with pytest.raises(EngineInvariantError, match=message):
                mckay_pipeline(group)


def test_pipeline_prices_the_quotient_cone_against_the_order(monkeypatch):
    # the quotient cone is priced by the ledger's rule, |det| times its
    # m_i, and checked against the group order; a cone off by a factor, or
    # singular, of rank 0, is an engine invariant break
    G = make_group(3, [(7, (1, 2, 4))])
    quotient = mckay_module._quotient
    for rays in (((2, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (1, 1, 0))):
        def skewed(group, rays=rays):
            X, *rest = quotient(group)
            return replace(X, fan=replace(X.fan, rays=rays)), *rest

        monkeypatch.setattr(mckay_module, "_quotient", skewed)
        with pytest.raises(EngineInvariantError, match="stack rank of the quotient misses"):
            mckay_pipeline(G)


def _seeded_groups(seed, count, n, orders):
    """count seeded groups acting on C^n for each (lo, hi, k) in orders:
    k generators, each of an order in lo..hi with random weights."""
    rng = random.Random(seed)
    gens = []
    for lo, hi, k in orders:
        for _ in range(count):
            rs = [rng.randint(lo, hi) for _ in range(k)]
            gens.append([(r, tuple(rng.randrange(r) for _ in range(n))) for r in rs])
    return [make_group(n, g) for g in gens]


def _four_fold_slice():
    """4-folds (two named groups, cyclic with r in 10..40, and two
    generators of orders 2..6), cyclic 5-folds with r in 4..15, and
    two-generator 3-folds of orders 2..6."""
    groups = [
        make_group(4, [(22, (4, 9, 16, 4))]),
        make_group(4, [(4, (0, 3, 2, 1)), (6, (2, 4, 5, 4))]),
    ] + _seeded_groups(1, 150, 4, ((10, 40, 1), (2, 6, 2)))
    return groups + _seeded_groups(2, 100, 5, ((4, 15, 1),)) + _seeded_groups(3, 100, 3, ((2, 6, 2),))


def test_pipeline_four_fold_slice(monkeypatch):
    # every fan the MMP yields and every resolution is a valid fan, the MMP
    # ends with no positive psi-defect wall, and its steps include flips
    # and link contractions (a divisorial star wider than the circuit's own
    # plus cones), which the two named groups need, over _four_fold_slice
    groups = _four_fold_slice()
    steps, mmp_steps = Counter(), mckay_module._mmp_steps

    def checked(sub, scaled, L):
        prev = sub.fan()
        for st, removed, created in mmp_steps(sub, scaled, L):
            fan = sub.fan()
            assert fan == make_fan(fan.rays, fan.max_cones, validate="full")
            before = set(map(frozenset, map(prev.ray_matrix, prev.max_cones)))
            after = set(map(frozenset, map(fan.ray_matrix, fan.max_cones)))
            gone = before - after

            def vectors(cones):  # a contracted ray's id holds a tombstone
                return {frozenset(sub.rays[i] or st.removed_ray for i in c) for c in cones}

            # the yielded cone ids, read as ray vectors, are the step's own
            assert vectors(removed) == gone
            assert vectors(created) == after - before
            steps[st.kind, len(gone) > sum(a > 0 for a in st.coeffs)] += 1
            prev = fan
            yield st, removed, created
        psi = [1] * len(prev.rays)  # the MMP's coefficients are all 0
        assert all(defect(rel, psi) <= 0 for _, rel in _Subdivision(prev).relations())

    monkeypatch.setattr(mckay_module, "_mmp_steps", checked)
    for G in groups:
        rep = mckay_pipeline(G)
        fan = rep.resolution.fan
        assert fan == make_fan(fan.rays, fan.max_cones, validate="full")
    assert steps["divisorial", True] >= 2 and steps["flip", False] >= 1, steps


def test_pipeline_sl_is_crepant_sampled():
    rng = random.Random(11)
    seen = 0
    for r in range(2, 9):
        for a in range(r):
            for b in range(r):
                c = (-a - b) % r
                if gcd(gcd(a, r), gcd(b, gcd(c, r))) != 1:
                    continue
                if rng.random() < 0.6:
                    continue
                rep = mckay_pipeline(make_group(3, [(r, (a, b, c))]))
                assert rep.sl
                assert all(e.kind == "extraction" for e in rep.ledger)
                assert all(e.psi_value == 1 for e in rep.ledger)
                assert rep.rank_resolution == rep.order
                seen += 1
    assert seen >= 10


def _age_one_count(r, weights):
    """#{g in (1/r)(weights) : age g = sum frac(j w_i / r) = 1}, over the
    distinct group elements g = j w mod r."""
    elements = {tuple(j * w % r for w in weights) for j in range(1, r)}
    return sum(1 for g in elements if sum(Fraction(x, r) for x in g) == 1)


def test_sl_extractions_match_ito_reid_age_one_count():
    # Ito-Reid: the crepant divisors of C^3/G, one extraction each, are the
    # age-one elements of G.  Every distinct cyclic SL 3-fold group with
    # r <= 12 (118 of them, one per overlattice), then five large ones
    groups = {}
    for r in range(2, 13):
        for ws in product(range(r), repeat=3):
            if sum(ws) % r == 0:
                G = make_group(3, [(r, ws)])
                groups.setdefault(group_lattice(G).rows, G)
    groups = list(groups.values())
    assert len(groups) == 118
    groups += [make_group(3, [(r, (1, k, r - 1 - k))])
               for r, k in ((101, 5), (131, 7), (151, 20), (179, 33), (181, 2))]
    for G in groups:
        (r, ws), = G.gens
        rep = mckay_pipeline(G)
        assert rep.sl
        extractions = [e for e in rep.ledger if e.kind == "extraction"]
        assert len(extractions) == _age_one_count(r, ws), G


# --------------------------------------------------------------- boundary


def test_boundary_divisor_quarter_12():
    X = quotient_pair(make_group(2, [(4, (1, 2))]))
    assert X.coeffs == (F(1, 2), 0)
    D = boundary_divisor_pair(X, 0)
    assert D.fan.dim == 1
    assert D.coeffs == (F(1, 2),)


def test_boundary_divisor_validation():
    X = quotient_pair(make_group(2, [(3, (1, 1))]))
    sub = mckay_pipeline(make_group(2, [(3, (1, 1))])).resolution
    with pytest.raises(InvalidInputError, match="single-cone"):
        boundary_divisor_pair(sub, 0)
    with pytest.raises(InvalidInputError):
        boundary_divisor_pair(X, 5)


def oracle_imprimitivity(v, w):
    """gcd of the 2x2 minors of the two stacked rays."""
    n = len(v)
    g = 0
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(g, v[i] * w[j] - v[j] * w[i])
    return g


def test_boundary_coefficients_match_minor_oracle():
    rng = random.Random(321)
    trials = 0
    while trials < 40:
        n = rng.choice([2, 3])
        rays = []
        while len(rays) < n:
            v = tuple(rng.randrange(-3, 4) for _ in range(n))
            if any(v) and gcd(*v) == 1 and v not in rays:
                if mat_rank([list(r) for r in rays + [v]]) == len(rays) + 1:
                    rays.append(v)
        ms = [rng.choice([1, 1, 2, 3]) for _ in range(n)]
        from toricmmp.fan import make_fan
        from toricmmp.pairs import make_pair

        try:
            fan = make_fan(rays, [tuple(range(n))], validate="full")
        except InvalidInputError:
            continue
        pair = make_pair(fan, [1 - F(1, m) for m in ms])
        for k in range(n):
            D = boundary_divisor_pair(pair, k)
            others = [i for i in range(n) if i != k]
            for c_out, i in zip(D.coeffs, others):
                ci = oracle_imprimitivity(rays[k], rays[i])
                assert c_out == 1 - F(1, ci * ms[i])
        trials += 1


# ------------------------------------------------------------------- chains


HJ_TABLE = {
    (2, 1): (-2,),
    (3, 1): (-3,),
    (3, 2): (-2, -2),
    (5, 2): (-3, -2),
    (5, 3): (-2, -3),
    (7, 2): (-4, -2),
    (7, 3): (-3, -2, -2),
    (12, 5): (-3, -2, -3),
}


def test_hj_chain_table():
    for (r, a), chain in HJ_TABLE.items():
        fan, got = hj_resolution(r, a)
        assert got == chain
        assert len(fan.rays) == len(chain) + 2
        assert len(fan.max_cones) == len(chain) + 1


def test_hj_fans_are_smooth_and_match_pipeline():
    for r, a in [(3, 1), (5, 2), (7, 3), (11, 4)]:
        fan, chain = hj_resolution(r, a)
        assert all(abs(det(fan.ray_matrix(c))) == 1 for c in fan.max_cones)
        rep = mckay_pipeline(make_group(2, [(r, (1, a))]))
        assert fans_equal(fan, rep.resolution.fan)
        assert all(b <= -2 for b in chain)


def test_hj_validation():
    for r, a in [(4, 2), (3, 0), (3, 3), (2, 3)]:
        with pytest.raises(InvalidInputError):
            hj_resolution(r, a)


def test_hj_chain_limit(monkeypatch):
    # (1/r)(1, r - 1) has the chain (-2, ..., -2) of r - 1 curves: the limit
    # itself passes, one more raises before any fan is built
    r = MAX_HJ_CHAIN + 1
    fan, chain = hj_resolution(r, r - 1)
    assert chain == (-2,) * MAX_HJ_CHAIN and len(fan.max_cones) == MAX_HJ_CHAIN + 1

    def built(*_):
        raise AssertionError("a fan was built")

    monkeypatch.setattr(mckay_module, "make_fan", built)
    for r, a in ((r + 1, r), (2 * 10 ** 6 + 1, 2 * 10 ** 6), (10 ** 100 + 1, 10 ** 100)):
        with pytest.raises(InvalidInputError, match=f"limit of {MAX_HJ_CHAIN} curves"):
            hj_resolution(r, a)


def test_group_lattice_contains_integers():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([2, 3])
        r = rng.randrange(1, 10)
        B = group_lattice(make_group(n, [(r, tuple(rng.randrange(r) for _ in range(n)))]))
        for i in range(n):
            e = tuple(int(i == j) for j in range(n))
            assert all(x.denominator == 1 for x in B.coords(e))


def test_group_lattice_matches_fraction_rows():
    # the integer path of group_lattice against LatticeBasis.from_rows on the
    # Fraction generators (1/r)(w), with orders sharing and not sharing factors
    rng = random.Random(13)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 5])
        gens = []
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            r = rng.choice([1, 2, 3, 4, 6, 7, 9, 12, 30, 101])
            gens.append((r, tuple(rng.randrange(-r, 2 * r) for _ in range(n))))
        G = make_group(n, gens)
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rows += [tuple(F(w, r) for w in ws) for r, ws in G.gens]
        B = group_lattice(G)
        assert B == LatticeBasis.from_rows(rows)
        assert all(type(x) is F for row in B.rows for x in row)


def test_lattice_coords_match_fraction_coords(monkeypatch):
    # quotient_pair's axis rays and hj_resolution's rays in integer lattice
    # coordinates, against LatticeBasis.coords in Fraction arithmetic
    rng = random.Random(12)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        gens = []
        for _ in range(rng.choice([1, 2])):
            r = rng.randrange(1, 13)
            gens.append((r, tuple(rng.randrange(r) for _ in range(n))))
        G = make_group(n, gens)
        B = group_lattice(G)
        axes = [B.coords(tuple(int(i == j) for j in range(n))) for i in range(n)]
        assert quotient_pair(G).fan.rays == tuple(primitive(x) for x in axes)
    # hj_resolution's closed-form seed rays, and the chain they start, against
    # the Hermite basis of group_lattice, which hj_resolution no longer calls:
    # every coprime (r, a) with r <= 100, then a seeded sample up to 10^4
    pairs = [(r, a) for r in range(2, 101) for a in range(1, r) if gcd(r, a) == 1]
    rng, small = random.Random(21), len(pairs)
    while len(pairs) < small + 200:
        r = rng.randrange(101, 10 ** 4 + 1)
        a = rng.randrange(1, r)
        if gcd(r, a) == 1:
            pairs.append((r, a))
    bases = [group_lattice(make_group(2, [(r, (1, a))])) for r, a in pairs]

    def hermite(*_):
        raise AssertionError("hj_resolution Hermite-reduced a group lattice")

    monkeypatch.setattr(mckay_module, "group_lattice", hermite)
    for (r, a), B in zip(pairs, bases):
        fan, chain = hj_resolution(r, a)
        assert fan.rays[:2] == tuple(tuple(B.coords(p)) for p in [(0, 1), (F(1, r), F(a, r))])
        # the whole chain in integers: x.(r B) = r p at the boundary points p,
        # where r B is integral as its value at the two seed rays shows
        rB = [[int(v * r) for v in row] for row in B.rows]
        boundary = [(0, r), (1, a)]
        for b in chain:
            (x0, y0), (x1, y1) = boundary[-2:]
            boundary.append((-b * x1 - x0, -b * y1 - y0))
        assert [vec_mat(x, rB) for x in fan.rays] == boundary


def _fraction_setup(G):
    """The quotient set-up by the Fraction path: the basis of the Fraction
    generators, each axis point's coordinates from the basis scaled to
    integers, the order from its Fraction determinant, and m_i and the
    scaled psi read back out of the pair's coefficients."""
    rows = mat_identity(G.n) + [[F(w, r) for w in ws] for r, ws in G.gens]
    B = LatticeBasis.from_rows(rows)
    s = lcm(*(x.denominator for row in B.rows for x in row))
    adj, d = adjugate(tuple(tuple(int(x * s) for x in row) for row in B.rows))
    rays, mults = [], []
    for p in mat_identity(G.n):
        num = vec_mat(p, adj)
        assert not any(v * s % d for v in num)
        x = [v * s // d for v in num]
        mults.append(gcd(*x))
        rays.append(tuple(v // mults[-1] for v in x))
    X = make_pair(make_fan(rays, [tuple(range(G.n))]), [F(m - 1, m) for m in mults], B)
    order = 1 / B.determinant
    assert order.denominator == 1
    return X, int(order), mckay_module._standard_multiplicities(X), *_scaled_psi(X)


def _distinct_cyclic_groups(n, top):
    groups = {}
    for r in range(1, top + 1):
        for ws in product(range(r), repeat=n):
            G = make_group(n, [(r, ws)])
            groups.setdefault(group_lattice(G).rows, G)
    return list(groups.values())


def test_integer_setup_matches_the_fraction_path():
    # _quotient reads the pair, order, m_i and scaled psi off one Hermite
    # form; the Fraction path they replace is the oracle, on every distinct
    # cyclic 3-fold group with r <= 12 (1,171) and 4-fold group with r <= 5
    # (332), and on a seeded slice of two-generator groups
    threefolds, fourfolds = _distinct_cyclic_groups(3, 12), _distinct_cyclic_groups(4, 5)
    assert (len(threefolds), len(fourfolds)) == (1171, 332)
    rng, two = random.Random(30), []
    while len(two) < 300:
        n = rng.choice([2, 3, 4])
        gens = [(r, tuple(rng.randrange(r) for _ in range(n)))
                for r in (rng.randrange(2, 13), rng.randrange(2, 13))]
        two.append(make_group(n, gens))
    for G in threefolds + fourfolds + two:
        X, order, ms, scaled, L, H = mckay_module._quotient(G)
        assert (X, order, ms, scaled, L) == _fraction_setup(G), G
        assert make_fan(X.fan.rays, X.fan.max_cones, validate="full") == X.fan
        assert (quotient_pair(G), group_order(G)) == (X, order)
        # H / den is the basis, den the lcm of the orders
        den = lcm(*(r for r, _ in G.gens))
        assert tuple(tuple(F(x, den) for x in row) for row in H) == X.lattice.rows


def _hermite_groups():
    """Every distinct cyclic 3-fold group with r <= 12 (the quotient
    workload's 1,171) and 3,000 seeded groups with n <= 6 and one to three
    generators."""
    rng, groups = random.Random(35), _distinct_cyclic_groups(3, 12)
    for _ in range(3000):
        n, orders = rng.randint(1, 6), [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
        groups.append(make_group(n, [(r, [rng.randrange(r) for _ in range(n)]) for r in orders]))
    return groups


def test_group_hermite_matches_the_reversed_pass():
    # _group_hermite's insertion Hermite form of [den I; generators over
    # den], seeded with den I, against the reversed pass it replaced
    for G in _hermite_groups():
        den = lcm(*(r for r, _ in G.gens))
        rows = [[den * x for x in row] for row in mat_identity(G.n)]
        rows += [[w * (den // r) for w in ws] for r, ws in G.gens]
        assert mckay_module._group_hermite(G)[0] == oracle_hermite_lower(rows), G


def test_group_basis_matches_the_checked_public_build():
    # the basis LatticeBasis._from_hermite builds off the integer Hermite
    # form against the constructor's own Fraction check of H / den, and
    # against from_rows of the Fraction generators
    for G in _hermite_groups():
        H, den, B, _ = mckay_module._group_hermite(G)
        assert B == LatticeBasis(tuple(tuple(F(x, den) for x in row) for row in H)), G
        rows = mat_identity(G.n) + [[F(w, r) for w in ws] for r, ws in G.gens]
        assert B == LatticeBasis.from_rows(rows), G
        assert all(type(x) is F for row in B.rows for x in row)


@pytest.mark.parametrize("H, message", [
    (((1, 0, 0), (0, 1, 0)), "basis matrix must be square"),
    (((1, 0), (0, 1, 0)), "basis matrix must be square"),
    (((2, 0), (1, 0)), "basis rows not in canonical form"),
    (((-1, 0), (0, 1)), "basis rows not in canonical form"),
    (((2, 1), (0, 3)), "basis rows not in canonical form"),
    (((1, 0, 0), (0, 1, -1), (0, 0, 1)), "basis rows not in canonical form"),
    (((True, 0), (0, 1)), "basis entries must be exact rationals"),
    (((1, 0), (F(1, 2), 1)), "basis entries must be exact rationals"),
    (((1, 0), (0, F(1))), "basis entries must be exact rationals"),
])
def test_from_hermite_rejects_with_the_constructor_messages(H, message):
    # _from_hermite checks its integer form with the public constructor's
    # messages; the constructor raises the same on H itself, but for the
    # Fraction entries, which only the integer form refuses
    with pytest.raises(InvalidInputError, match=message):
        LatticeBasis._from_hermite(H, 3)
    if not any(type(x) is F for row in H for x in row):
        with pytest.raises(InvalidInputError, match=message):
            LatticeBasis(H)


def test_ledger_centres_match_the_barycentric_solve():
    # each ledger centre, read off the signs of x.H, against the support of
    # the barycentrics of a solve in the quotient cone's rays
    entries = 0
    for G in _distinct_cyclic_groups(3, 12)[::4] + [make_group(3, [(101, (1, 17, 83))])]:
        report = mckay_pipeline(G)
        rays = report.quotient.fan.rays
        for e in report.ledger:
            lam, _ = _solve(rays, e.ray)
            assert all(x >= 0 for x in lam)
            assert e.center == tuple(i for i, x in enumerate(lam) if x > 0)
            entries += 1
    assert entries > 500, entries


def _scan_star(fan, w):
    """(cone, face carrying w) for every maximal cone containing w, in
    cone order: the barycentric scan of every cone, the oracle for the
    star that _Subdivision walks."""
    out = []
    for cone in fan.max_cones:
        num, _ = _solve(fan.ray_matrix(cone), w)
        if all(x >= 0 for x in num):
            out.append((cone, {i for i, x in zip(cone, num) if x > 0}))
    return out


def _stack_rank_oracle(pair):
    # from scratch: |det| of the scaled rows m_i v_i, m_i = 1 / (1 - d_i)
    ms = [int(1 / (1 - d)) for d in pair.coeffs]
    return sum(
        abs(det([[ms[i] * x for x in pair.fan.rays[i]] for i in cone]))
        for cone in pair.fan.max_cones
    )


def test_extraction_loop_matches_from_scratch_rebuild():
    """At every step of the incremental extraction loop: the fan equals a
    fast-validated rebuild and the public star subdivision (cone order and
    support kind included), the witness equals min_discrepancy_witness,
    the walked star equals the barycentric scan from each of its cones, the
    face carrying the new ray is the same in every one, and the pipeline's incremental stack rank equals a from-scratch count."""
    groups = {}
    for r in range(2, 9):
        for ws in product(range(r), repeat=3):
            G = make_group(3, [(r, ws)])
            groups.setdefault(group_lattice(G).rows, G)
    groups = list(groups.values()) + [make_group(3, [(101, (1, 17, 83))])]
    steps = 0
    for G in groups:
        X = prev = quotient_pair(G)
        pairs = []
        for st, cur, gone, new in extraction_pairs(X):
            fan = cur.fan
            assert fan == make_fan(fan.rays, fan.max_cones, validate="fast")
            assert fan == star_subdivision(prev.fan, st.ray)
            assert cur.coeffs == prev.coeffs + (0,) and cur.lattice == X.lattice
            assert (st.psi_value, st.ray) == min_discrepancy_witness(prev)
            split = _scan_star(prev.fan, st.ray)
            assert len({frozenset(face) for _, face in split}) == 1  # one face around w
            facets = _facet_map(prev.fan)
            for cone, face in split:
                assert _walk_star(facets, cone, face) == {c for c, _ in split}
            assert gone == [c for c, _ in split]
            assert set(prev.fan.max_cones) - set(gone) | set(new) == set(fan.max_cones)
            pairs.append(cur)
            prev = cur
        steps += len(pairs)
        ranks = [e.rank_after for e in mckay_pipeline(G).ledger if e.kind == "extraction"]
        assert ranks == [_stack_rank_oracle(p) for p in pairs]
    assert len(groups) > 300 and steps > 500, (len(groups), steps)


def test_terminalize_builds_no_fan_from_scratch(monkeypatch):
    X = quotient_pair(make_group(3, [(101, (1, 17, 83))]))
    calls = []
    for module in (fan_module, mmp_module):
        def counted(*args, _make_fan=module.make_fan, **kwargs):
            calls.append(args)
            return _make_fan(*args, **kwargs)

        monkeypatch.setattr(module, "make_fan", counted)
    _, steps = terminalize(X)
    assert len(steps) == 50
    assert calls == []


def test_extraction_skip_matches_the_full_scorer(monkeypatch):
    # the extraction loop scores no unimodular cone whose two least heights
    # sum above L, as none of its candidates, pair sums only, is at psi <= 1.
    # The oracle scores every live cone with _cone_witness before each step
    # and takes the least (psi, point, cone).  Whole pipeline dumps and
    # terminalize steps agree on every cyclic 3-fold group with r <= 13,
    # the four-fold slice, SL groups of orders 101, 151 and 181, and
    # flop-corpus fans whose coefficients are 1/2 or 3/4, where psi <= 1/2
    # lets pair sums win, at psi 1 and below
    real, pair_sums = pairs_module._cone_witness, Counter()

    def full(sub, scaled, L):
        while True:
            wits = [w + (c,) for c in sub.max_cones if (w := real(sub, c, scaled, L)) is not None]
            if not wits or min(wits)[0] > 1:
                return
            val, pt, cone = min(wits)
            w = primitive(pt)
            if abs(sub.kernel(cone)[1]) == 1:
                pair_sums[val == 1] += any(vec_add(sub.rays[a], sub.rays[b]) == w
                                           for a, b in combinations(cone, 2))
            scaled.append(L)
            gone, new = sub.subdivide(w, cone)
            yield ExtractionStep(ray=w, psi_value=val), gone, new

    groups = _distinct_cyclic_groups(3, 13) + _four_fold_slice()
    groups += [make_group(3, [(r, (1, k, r - 1 - k))]) for r, k in ((101, 17), (151, 1), (181, 1))]
    rng, pairs = random.Random(33), []
    for seed in range(60):
        fan = flop_case(seed)[0].fan
        pairs.append(make_pair(fan, [rng.choice([F(1, 2), F(3, 4)]) for _ in fan.rays]))

    def outputs():
        return [dumps(mckay_pipeline(G)) for G in groups] + [dumps(terminalize(p)) for p in pairs]

    skipping = outputs()
    monkeypatch.setattr(mmp_module, "_extraction_steps", full)
    monkeypatch.setattr(mckay_module, "_extraction_steps", full)
    assert outputs() == skipping
    # unimodular cones gave pair sums at psi 1, the skip's edge, and below
    assert pair_sums[True] > 50 and pair_sums[False] > 50, pair_sums


def test_quotient_pair_matches_its_constructors():
    # _quotient builds its pair as it reads it; the public constructors
    # with full validation, which it no longer calls, are the oracle, on
    # every cyclic 3-fold group with r <= 12, every SL group
    # (1/r)(1, k, r-1-k) with r in {101, 151, 181}, and the four-fold slice
    groups = [make_group(3, [(r, ws)]) for r in range(1, 13) for ws in product(range(r), repeat=3)]
    groups += [make_group(3, [(r, (1, k, r - 1 - k))]) for r in (101, 151, 181) for k in range(r)]
    for G in groups + _four_fold_slice():
        X = mckay_module._quotient(G)[0]
        fan = make_fan(X.fan.rays, [tuple(range(G.n))], validate="full")
        assert X == make_pair(fan, X.coeffs, group_lattice(G)), G
        assert all(type(d) is F for d in X.coeffs)


def test_star_subdivision_needs_no_kind_scan(monkeypatch):
    # a star subdivision skips the scan of every ray against each new
    # boundary facet, since its ray lies in the cone it is walked from;
    # forced back on, the scan never raises, and the pipelines of the
    # small groups and seeded star_subdivision calls give the same dumps
    groups = _distinct_cyclic_groups(3, 12) + [make_group(3, [(101, (1, 17, 83))])]
    rng, calls = random.Random(34), []
    for seed in range(60):
        fan = flop_case(seed)[0].fan
        cone = rng.choice(fan.max_cones)
        # a point of the cone, often on a face of it
        lam = [rng.choice((0, 0, 1, 2)) for _ in cone]
        w = tuple(map(sum, zip(*([a * x for x in fan.rays[i]] for a, i in zip(lam, cone)))))
        if any(w) and primitive(w) not in fan.rays:
            calls.append((fan, w))

    def outputs():
        return [dumps(mckay_pipeline(G)) for G in groups] + [
            dumps(star_subdivision(fan, w)) for fan, w in calls]

    skipping = outputs()
    real_replace, real_keeps, scanned = _Subdivision._replace, _Subdivision._keeps_kind, []

    def scanning(sub, gone, new, what):
        if what != "star subdivision":
            return real_replace(sub, gone, new, what)
        sub._keeps_kind = lambda f: scanned.append(f) or real_keeps(sub, f)
        real_replace(sub, gone, new, "scanned star subdivision")  # any other label scans
        del sub._keeps_kind

    monkeypatch.setattr(_Subdivision, "_replace", scanning)
    assert outputs() == skipping
    assert len(calls) > 30 and len(scanned) > 2000, (len(calls), len(scanned))


def test_subdividing_from_a_cone_without_the_ray_is_an_engine_fault():
    # the premise the skipped kind scan rests on: w's numerators in the
    # cone it is walked from are >= 0, checked once per step
    fan = make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                   [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    for cone in fan.max_cones:
        for w in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            if not all(x >= 0 for x in _solve(fan.ray_matrix(cone), w)[0]):
                with pytest.raises(EngineInvariantError, match="outside the cone"):
                    _Subdivision(fan).subdivide(w, cone)
            else:
                assert _Subdivision(fan).subdivide(w, cone)[1]
    X = quotient_pair(make_group(3, [(7, (1, 2, 4))]))
    with pytest.raises(EngineInvariantError, match="outside the cone"):
        _Subdivision(X.fan).subdivide((-1, 0, 0), X.fan.max_cones[0])
