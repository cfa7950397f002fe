"""Acceptance suite.

Each criterion is one test that prints a single PASS or FAIL verdict line
(visible under -s, and on any failure) and asserts the full claim.  The
corpus cases are generated once per module from fixed seeds.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd
from types import SimpleNamespace

import pytest

from corpus import flop_case, replay
from test_mmp import oracle_lower_hull
from test_pairs import oracle_min_psi

from toricmmp.circuits import classify, defect, wall_relation
from toricmmp.errors import InvalidInputError
from toricmmp.fan import fans_equal, make_fan, walls
from toricmmp.jsonio import dumps, int_from_json
from toricmmp.lattice import LatticeBasis, box_points, cone_multiplicity, det, primitive
from toricmmp.mckay import (
    case_a_components,
    group_lattice,
    group_order,
    hj_resolution,
    make_group,
    mckay_pipeline,
    quotient_pair,
    stack_rank,
)
from toricmmp.mmp import (
    ample_heights,
    flop_decompose,
    regular_triangulation,
    relative_mmp,
    terminalize,
)
from toricmmp.pairs import is_terminal, make_pair, min_discrepancy_witness, psi_heights

F = Fraction


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def oracle_hj_expansion(n, d):
    """Hirzebruch-Jung continued fraction n/d = [b_1, ..., b_s] with every
    b_i >= 2, by repeated ceiling division."""
    out = []
    while d:
        b = -(-n // d)
        out.append(b)
        n, d = d, b * d - n
    return tuple(out)


@pytest.fixture(scope="module")
def corpus():
    return [flop_case(seed) for seed in range(100)]


def test_criterion_1_single_flop():
    with criterion(1, "the basic threefold flop decomposes into one flop"):
        rays = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
        fx = make_fan(rays, [(0, 1, 2), (0, 2, 3)])
        fy = make_fan(rays, [(0, 1, 3), (1, 2, 3)])
        px = make_pair(fx, [0] * 4)
        steps = flop_decompose(px, make_pair(fy, [0] * 4))
        assert len(steps) == 1
        (st,) = steps
        assert st.k_defect_check == 0
        assert 0 < st.event_time < 1
        assert sorted(st.circuit) == sorted(tuple(r) for r in rays)
        assert sorted(st.coeffs) == [-1, -1, 1, 1]
        assert fans_equal(replay(px, steps)[-1].fan, fy)


def test_criterion_2_corpus_decomposes(corpus):
    with criterion(2, "100 seeded corpus cases decompose and replay"):
        for px, py, _ in corpus:
            steps = flop_decompose(px, py)  # budget errors would surface here
            assert fans_equal(replay(px, steps)[-1].fan, py.fan)
            for st in steps:
                assert st.k_defect_check == 0
                assert 0 < st.event_time < 1
                # the recorded relation really annihilates the circuit
                n = len(st.circuit[0])
                combo = [
                    sum(a * v[k] for a, v in zip(st.coeffs, st.circuit))
                    for k in range(n)
                ]
                assert combo == [0] * n
            times = [st.event_time for st in steps]
            assert times == sorted(times)


def test_criterion_3_wall_sign_vs_survival(corpus):
    with criterion(3, "wall defect sign against the target decides survival"):
        checked = 0
        for px, py, _ in corpus:
            fx, fy = px.fan, py.fan
            assert fy.rays == fx.rays
            hy = ample_heights(fy)
            cones_y = set(fy.max_cones)
            psi = psi_heights(px)
            for w in walls(fx):
                rel = wall_relation(fx, w)
                survives = (
                    fx.max_cones[w.cone_a] in cones_y
                    and fx.max_cones[w.cone_b] in cones_y
                )
                if defect(rel, hy) <= 0:
                    assert not survives
                if not survives:
                    assert defect(rel, psi) == 0
                checked += 1
        assert checked >= 300


def test_criterion_4_rank_conservation():
    with criterion(4, "stack rank equals group order for every cyclic tuple, r <= 12"):
        seen = set()
        total = 0
        for n in (2, 3):
            for r in range(1, 13):
                for ws in product(range(r), repeat=n):
                    total += 1
                    G = make_group(n, [(r, ws)])
                    key = group_lattice(G).rows
                    if key in seen:
                        continue
                    seen.add(key)
                    assert stack_rank(quotient_pair(G)) == group_order(G)
        assert total == 6734
        assert len(seen) < total


def test_criterion_5_sl_crepant():
    with criterion(5, "SL quotients resolve crepantly with order many cones, r <= 12"):
        seen = set()
        for n in (2, 3):
            for r in range(1, 13):
                for head in product(range(r), repeat=n - 1):
                    ws = head + ((-sum(head)) % r,)
                    G = make_group(n, [(r, ws)])
                    key = group_lattice(G).rows
                    if key in seen:
                        continue
                    seen.add(key)
                    rep = mckay_pipeline(G)
                    assert rep.sl
                    assert all(e.kind == "extraction" for e in rep.ledger)
                    assert all(e.psi_value == 1 for e in rep.ledger)
                    assert rep.rank_resolution == rep.order
                    fan = rep.resolution.fan
                    assert all(
                        abs(det(fan.ray_matrix(c))) == 1 for c in fan.max_cones
                    )
                    assert len(fan.max_cones) == rep.order


def test_criterion_6_chains_match_pipeline():
    with criterion(6, "dimension-two chains match the pipeline, r <= 30"):
        for r in range(2, 31):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                fan, chain = hj_resolution(r, a)
                assert all(b <= -2 for b in chain)
                rep = mckay_pipeline(make_group(2, [(r, (1, a))]))
                assert fans_equal(fan, rep.resolution.fan)
                assert all(
                    abs(det(fan.ray_matrix(c))) == 1 for c in fan.max_cones
                )


def test_criterion_6_cone_count_identity():
    # s chain curves come from s + 2 boundary rays, so the fan has s + 1
    # cones; sum(b_i - 1) + 1 counts s + t instead, t the length of the dual
    # chain of r/(r - a) (Riemenschneider duality), and equals the cone
    # count only when t = 1, i.e. a = r - 1
    with criterion(
        "6 (cone-count clause)", "cones = s + 1 and sum(b_i - 1) + 1 = s + t"
    ):
        total = 0
        for r in range(2, 31):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                total += 1
                fan, chain = hj_resolution(r, a)
                b = tuple(-x for x in chain)
                expansion = oracle_hj_expansion(r, a)
                c = oracle_hj_expansion(r, r - a)
                where = f"(r, a) = {(r, a)}, b = {b}, c = {c}"
                assert b in (expansion, expansion[::-1]), (
                    f"{where}: chain differs from r/a = {expansion}"
                )
                assert len(fan.max_cones) == len(b) + 1, (
                    f"{where}: {len(fan.max_cones)} cones != s + 1 = {len(b) + 1}"
                )
                assert len(fan.rays) == len(b) + 2, (
                    f"{where}: {len(fan.rays)} rays != s + 2 = {len(b) + 2}"
                )
                lhs = sum(bi - 1 for bi in b) + 1
                assert lhs == len(b) + len(c), (
                    f"{where}: sum(b_i - 1) + 1 = {lhs} != s + t = {len(b) + len(c)}"
                )
                assert (lhs == len(fan.max_cones)) == (a == r - 1), (
                    f"{where}: sum(b_i - 1) + 1 = {lhs}, cones = "
                    f"{len(fan.max_cones)}; these should agree exactly "
                    f"when a = r - 1"
                )
        assert total == 277


def test_criterion_7_component_count():
    with criterion(7, "the sieve leaves exactly r1 - s1 residues, r1 <= 50"):
        for r1 in range(1, 51):
            for s1 in range(1, r1 + 1):
                comps = case_a_components(r1, s1)
                assert len(comps) == r1 - s1
                assert len(set(comps)) == len(comps)
                assert all(1 <= x < r1 for x in comps)


def _random_cone_pair_60(rng, dim):
    maxc = 4 if dim == 2 else 3
    pool = (0, F(1, 2), F(1, 3), F(2, 3))
    while True:
        rays = tuple(
            tuple(rng.randint(0, maxc) for _ in range(dim)) for _ in range(dim)
        )
        if det(rays) == 0:
            continue
        rays = tuple(primitive(r) for r in rays)
        if len(set(rays)) < dim or abs(det(rays)) > 60:
            continue
        fan = make_fan(rays, [tuple(range(dim))], validate="fast")
        return make_pair(fan, [rng.choice(pool) for _ in range(dim)])


def test_criterion_8_oracle_equivalences():
    with criterion(8, "implementation agrees with independent oracles"):
        rng = random.Random(815)
        std2, std3 = LatticeBasis.standard(2), LatticeBasis.standard(3)
        for trial in range(200):
            dim = 2 if trial % 3 else 3
            pair = _random_cone_pair_60(rng, dim)
            brute = oracle_min_psi(pair, cap=1)
            terminal = brute is None or brute > 1
            assert is_terminal(pair) == terminal
            if not terminal:
                wit = min_discrepancy_witness(pair)
                assert wit[0] == brute
            rays = pair.fan.ray_matrix(pair.fan.max_cones[0])
            std = std2 if dim == 2 else std3
            assert len(box_points(rays, std)) == cone_multiplicity(rays, std) - 1
        for trial in range(40):
            dim = rng.choice([2, 2, 3])
            count = rng.randint(dim, 8 if dim == 3 else 6)
            pts = set()
            while len(pts) < count:
                if dim == 2:
                    pts.add((rng.randint(0, 7), 1))
                else:
                    pts.add((rng.randint(0, 3), rng.randint(0, 3), 1))
            rays = sorted(pts)
            heights = [F(rng.randint(-60, 60), rng.randint(1, 7)) for _ in rays]
            cells, flat = oracle_lower_hull(rays, heights)
            used = {i for c in cells for i in c}
            if flat:
                with pytest.raises(InvalidInputError):
                    regular_triangulation(rays, heights)
            elif used != set(range(len(rays))):
                with pytest.raises(InvalidInputError, match="lower hull"):
                    regular_triangulation(rays, heights)
            else:
                fan = regular_triangulation(rays, heights)
                assert set(fan.max_cones) == set(cells)


def test_criterion_9_determinism(corpus):
    with criterion(9, "reruns are byte-identical and replays land exactly"):
        for seed in (0, 3, 7, 11):
            px1, py1, _ = flop_case(seed)
            px2, py2, _ = flop_case(seed)
            assert dumps(px1) == dumps(px2)
            assert dumps(py1) == dumps(py2)
            s1 = flop_decompose(px1, py1)
            s2 = flop_decompose(px2, py2)
            assert dumps({"steps": s1}) == dumps({"steps": s2})
            # replay from the parsed serialization, not the live objects
            parsed = [
                SimpleNamespace(
                    wall=[tuple(int_from_json(c) for c in v) for v in rec["wall"]]
                )
                for rec in json.loads(dumps({"steps": s1}))["steps"]
            ]
            assert dumps(replay(px1, parsed)[-1].fan) == dumps(py1.fan)
        G = make_group(3, [(11, (1, 3, 7))])
        assert dumps(mckay_pipeline(G)) == dumps(mckay_pipeline(G))


def test_criterion_9_engine_pairs_replay():
    # the pipeline builds its ledger from the pairs the engines yield, so
    # replaying the engines' step records is the oracle for those pairs
    with criterion(
        "9 (engine pairs)",
        "step records replay to the engines' fans and the ledger's ranks",
    ):
        groups, seen = [], set()
        for r in range(1, 8):
            for ws in product(range(r), repeat=3):
                G = make_group(3, [(r, ws)])
                key = group_lattice(G).rows
                if key not in seen:
                    seen.add(key)
                    groups.append(G)
        # the two 4-folds' MMPs contract across links, so a step's removed
        # cones hold the id the contraction tombstones
        groups += [
            make_group(3, [(25, (1, 10, 22))]),
            make_group(3, [(8, (3, 6, 1)), (5, (0, 0, 1))]),
            make_group(4, [(22, (4, 9, 16, 4))]),
            make_group(4, [(4, (0, 3, 2, 1)), (6, (2, 4, 5, 4))]),
        ]
        kinds = set()
        for G in groups:
            rep = mckay_pipeline(G)
            X = rep.quotient
            terminal, ext = terminalize(X)
            pairs = replay(X, ext)
            assert dumps(pairs[-1]) == dumps(terminal)
            work, drops = terminal, 0
            for i, d in enumerate(terminal.coeffs):
                if d:
                    coeffs = work.coeffs[:i] + (0,) + work.coeffs[i + 1:]
                    work = make_pair(work.fan, coeffs, work.lattice)
                    pairs.append(work)
                    drops += 1
            final, msteps = relative_mmp(work)
            mpairs = replay(work, msteps)
            assert dumps(mpairs[-1]) == dumps(final) == dumps(rep.resolution)
            pairs += mpairs[1:]
            ranks = [stack_rank(p) for p in pairs]
            assert [(e.rank_before, e.rank_after) for e in rep.ledger] == list(
                zip(ranks, ranks[1:])
            )
            assert [e.kind for e in rep.ledger] == (
                ["extraction"] * len(ext)
                + ["coefficient_drop"] * drops
                + [s.kind for s in msteps]
            )
            kinds.update(s.kind for s in msteps)
        assert kinds == {"flip", "divisorial"}
