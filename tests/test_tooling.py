"""Guards on the engine's shape: the benchmark tracer names engine functions
by (module, function), and every name must still exist and the flop sweep
must still call the LP by its name, or tracing, its metrics and the smoke
run break; every cache has a bound; the engine still generates the
benchmark's inputs and every op's output, whose digests the golden files
record; every stated limit and cache bound has its README value; small
cones still take the closed-form kernels, and a fan state builds no adjugate
for a current cone's relation but reads the kernel it keeps; ample_heights
poses its caps as LP bounds and builds no Fraction on the way to its
integer heights; the McKay pipeline carries one fan state, counts the stack rank from scratch
only on the resolution and reads its set-up once; it builds its quotient
without the public constructors, its star subdivisions run no kind scan,
and the extraction loop scores no unimodular cone that cannot hold a
candidate at psi <= 1; only three named engine functions
call make_fan or make_pair; a fan state computes each cone pair's wall
relation once and keeps at most one per current wall; the McKay
pipeline's MMP builds relations only for walls of positive defect, its
group Hermite form is one insertion pass, and its witness search builds
no pair sum that loses to a box point; only the gate module decides what
an exact number is; no engine module imports a name it never reads; and no
engine function reaches the cell walk."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import inf
from operator import mul
from pathlib import Path

from corpus import flop_case, mmp_probe_pair

import toricmmp
import toricmmp.circuits as circuits
import toricmmp.fan as fan
import toricmmp.lattice as lattice
import toricmmp.linprog as linprog
import toricmmp.mckay as mckay
import toricmmp.mmp as mmp
import toricmmp.pairs as pairs

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
SRC = Path(toricmmp.__file__).resolve().parent
# type tests outside errors.py's gates, each a dispatch that rejects no number
TYPE_DISPATCH = {
    ("jsonio", "to_jsonable"): "encodes by type: bool and str pass through as JSON values",
}
# the engine functions outside jsonio.py that call the public constructors,
# with what they call and why; every other fan or pair is read off a state
CONSTRUCTOR_CALLS = {
    ("mckay", "boundary_divisor_pair"): (
        ("make_fan", "make_pair"),
        'its dimension-1 input must still reach "fan needs at least one ray"'),
    ("mckay", "hj_resolution"): (
        ("make_fan",),
        "full validation of the chain waits on a steady surface workload (ROADMAP item 1)"),
    ("mmp", "regular_triangulation"): (
        ("make_fan",), "the seed cone, which every later step starts from"),
}


def test_tracer_tables_name_existing_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, fn) for mod, fn, _ in tracer.SPANNED + tracer.COUNTED]
    assert names
    missing = [
        (mod, fn) for mod, fn in names
        if not callable(getattr(importlib.import_module(f"toricmmp.{mod}"), fn, None))
    ]
    assert missing == []


def test_every_lru_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(toricmmp.__path__):
        mod = importlib.import_module(f"toricmmp.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert caches
    assert [name for name, size in caches.items() if size is None] == []


def test_every_bench_op_matches_its_golden_digest(monkeypatch, tmp_path):
    # the four bench universes and every op's output, run in-process through
    # the bench's own execute, against bench/golden: an engine change that
    # moves any output fails here, naming the first op that moved, and so
    # does one that moves an input (the flop inputs are built by
    # regular_triangulation and bistellar_flip).  The CLI ops' files are
    # written under tmp_path, never under bench/
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("workloads", "tracer", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    worker = importlib.import_module("worker")
    if cores:  # the worker pins its process to one core on import
        os.sched_setaffinity(0, cores)
    W = worker.W
    monkeypatch.chdir(tmp_path)
    for name, universe in W.make_universes().items():
        golden = json.loads((BENCH / "golden" / f"{name}.json").read_text())
        text = toricmmp.dumps(universe)
        assert W.digest(text) == golden["inputs"], f"the {name} universe moved"
        universe = json.loads(text)
        ids = range(len(universe["ops"]))
        prepared = W.prepare(name, universe, ids, tmp_path)
        for i in ids:
            _, out, _ = worker.execute(name, prepared[i], universe["ops"][i], True)
            assert W.digest(out) == golden["outputs"][i], f"{name} op {i} moved:\n{out[:400]}"


def _limit_value(text):
    """The number a README Limits value starts with: 32, 10,000, 10^6, 2^13."""
    base, _, power = text.split()[0].replace(",", "").partition("^")
    return int(base) ** int(power or 1)


def test_every_stated_limit_has_its_readme_value():
    # each README Limits row that names a module constant, or one of these
    # caches, pins its value, so a limit that drifts from its row fails here
    caches = {
        "box-numerator `lru_cache`": lattice._cached_box_numerators,
        "`adjugate` `lru_cache`": lattice.adjugate,
        "standard-basis `lru_cache`": lattice._standard,
    }
    readme = (SRC.parents[1] / "README.md").read_text()
    table = readme.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    pinned = {}
    for line in table.splitlines():
        if not line.startswith("| ") or line.startswith(("| name", "| ---")):
            continue
        name, value = (cell.strip() for cell in line.split("|")[1:3])
        if name in caches:
            pinned[name] = (caches[name].cache_info().maxsize, _limit_value(value))
        elif m := re.fullmatch(r"`(\w+)\.([A-Z_]+)`", name):
            module = importlib.import_module(f"toricmmp.{m[1]}")
            pinned[name] = (getattr(module, m[2]), _limit_value(value))
    assert {name: actual for name, (actual, _) in pinned.items()} == {
        name: stated for name, (_, stated) in pinned.items()
    }
    assert set(caches) < set(pinned) and len(pinned) >= 11


def test_flop_decompose_calls_the_traced_lp_name(monkeypatch):
    # the tracer spans linprog.lp_maximize by rebinding the names that hold
    # it; a sweep that reached the LP some other way would leave the
    # linprog.lp_maximize.* metrics reading 0
    px, py, _ = flop_case(0)
    calls, real = [], mmp.lp_maximize
    monkeypatch.setattr(mmp, "lp_maximize", lambda *a: calls.append(a) or real(*a))
    assert toricmmp.flop_decompose(px, py)
    assert len(calls) == 2


def test_ample_heights_poses_its_caps_as_bounds(monkeypatch):
    # one LP row per wall, and the caps y_i <= 2, t <= 1, w <= 1 as bounds;
    # a refactor back to cap rows would cost the flop workload about 20%
    # without failing any output check
    px, _, _ = flop_case(0)
    calls, real = [], mmp.lp_maximize
    monkeypatch.setattr(mmp, "lp_maximize", lambda *a: calls.append(a) or real(*a))
    mmp.ample_heights(px.fan)
    n, [(c, A, b, upper)] = len(px.fan.rays), calls
    assert len(A) == len(b) == len(fan.walls(px.fan)) > 0
    assert upper == [2] * n + [1, 1]


def test_ample_heights_builds_no_fraction(monkeypatch):
    # the LP hands over its vertex as integers over one denominator, and
    # _ample_heights reads (H, D) off it with one gcd; a read-out back
    # through a Fraction per vertex entry would cost the flop workload
    # about a tenth of its op time without failing any output check
    cases = [flop_case(seed)[:2] for seed in range(20)]
    built = Counter()

    def counting(module, real):
        return lambda *a: built.update([module]) or real(*a)

    for module in (linprog, mmp):
        monkeypatch.setattr(module, "Fraction", counting(module.__name__, Fraction), raising=False)
    solved = 0
    for pair in (pair for case in cases for pair in case):
        rels = [(rel.ray_indices, rel.coeffs) for _, rel in fan._Subdivision(pair.fan).relations()]
        H, D = mmp._ample_heights(len(pair.fan.rays), rels)
        assert D > 0 and all(type(v) is int for v in (D, *H))
        solved += bool(rels)
    assert solved == 40 and built == Counter()


def test_small_cones_take_the_closed_form_kernels(monkeypatch):
    # every cone of a McKay quotient 3-fold and of a surface resolution is
    # 3 x 3 or 2 x 2, whose adjugate has a closed form; a refactor that
    # routed them back to the generic elimination would cost the quotient
    # and surface workloads about 15% without failing any output check
    calls, real = [], lattice._eliminate
    monkeypatch.setattr(lattice, "_eliminate", lambda M: calls.append(M) or real(M))
    lattice.adjugate.cache_clear()
    report = toricmmp.mckay_pipeline(toricmmp.make_group(3, [(7, (1, 2, 4))]))
    assert report.rank_resolution == report.order == 7
    fan, chain = toricmmp.hj_resolution(7, 3)
    assert chain == (-3, -2, -2)
    assert calls == []
    # the spy sees the sizes that do take the elimination
    lattice.adjugate(((2, 0, 0, 1), (0, 3, 0, 0), (0, 0, 5, 0), (0, 0, 0, 7)))
    assert len(calls) == 1


def test_a_current_cone_relation_builds_no_adjugate(monkeypatch):
    # a fan state reads a current cone's relation off the kernel it keeps:
    # once every cone's kernel is read, no relation of its walls builds an
    # adjugate, and in a sweep an adjugate is built inside a relation only
    # for an input cone on its first read, then kept, or for a foreign cone
    # (one of Y's cones that X's state does not hold), then not kept.  A
    # return to an adjugate lookup per relation would cost the flop
    # workload a hash of each cone's rays and pass every output check
    cases = [flop_case(seed)[:2] for seed in range(20)]
    built, relation, seen, real = [], fan._Subdivision.relation, Counter(), lattice.adjugate
    for module in (fan, circuits):
        monkeypatch.setattr(module, "adjugate", lambda M: built.append(M) or real(M))
    for pair in (pair for case in cases for pair in case):
        sub = fan._Subdivision(pair.fan)
        for cone in sub.max_cones:
            sub.kernel(cone)
        built.clear()
        assert len(list(sub.relations())) == len(fan.walls(pair.fan)) > 0
        assert built == []

    def spy(sub, facet, cones=None):
        a = min(sub.facets[facet] if cones is None else cones)  # cone a, as the state picks it
        current, first_read, n = a in sub.max_cones, a not in sub.kernels, len(built)
        rel = relation(sub, facet, cones)
        assert len(built) - n <= (first_read if current else 1)
        assert (a in sub.kernels) == current
        seen["current" if current else "foreign"] += len(built) - n
        return rel

    monkeypatch.setattr(fan._Subdivision, "relation", spy)
    for px, py in cases:
        toricmmp.flop_decompose(px, py)
    assert seen["current"] > 0 and seen["foreign"] > 0, seen


def test_mckay_pipeline_carries_one_fan_state(monkeypatch):
    # one fan state goes from the quotient cone to the resolution, and the
    # stack rank is counted from scratch on the resolution only, the
    # quotient cone being priced by the ledger's rule; a pipeline that went
    # back to a pair per step would pass every output check
    states, ranks = [], []
    init, stack_rank = fan._Subdivision.__init__, mckay.stack_rank
    monkeypatch.setattr(fan._Subdivision, "__init__", lambda s, f: states.append(f) or init(s, f))
    monkeypatch.setattr(mckay, "stack_rank", lambda p: ranks.append(p) or stack_rank(p))
    report = toricmmp.mckay_pipeline(toricmmp.make_group(3, [(101, (1, 17, 83))]))
    assert len(report.ledger) == 50
    assert [f.max_cones for f in states] == [report.quotient.fan.max_cones]
    assert ranks == [report.resolution]


def test_no_state_for_one_cone_and_no_score_above_psi_one(monkeypatch):
    # the pipeline builds its one quotient cone without make_fan or
    # make_pair, and its extraction loop runs no kind scan (a star
    # subdivision keeps the support) and never scores a unimodular cone
    # whose two least heights sum above L.  A return of any of this wasted
    # work would pass every output check
    built, scans, scored = [], [], Counter()
    witness, keeps = mmp._cone_witness, fan._Subdivision._keeps_kind
    for module in (fan, mckay, mmp, pairs):
        for name in ("make_fan", "make_pair"):
            if (real := getattr(module, name, None)) is not None:
                monkeypatch.setattr(module, name,
                                    lambda *a, _r=real, **k: built.append(a) or _r(*a, **k))

    def scan(sub, facet):  # by the label of the step that asks
        scans.append(sys._getframe(1).f_locals["what"])
        return keeps(sub, facet)

    monkeypatch.setattr(fan._Subdivision, "_keeps_kind", scan)

    def spy(sub, cone, scaled, L):
        low = sum(sorted(scaled[i] for i in cone)[:2]) <= L
        scored[abs(sub.kernel(cone)[1]) == 1, low] += 1
        return witness(sub, cone, scaled, L)

    monkeypatch.setattr(mmp, "_cone_witness", spy)
    for G in (toricmmp.make_group(3, [(10, (1, 6, 8))]),
              toricmmp.make_group(3, [(101, (1, 17, 83))]),
              toricmmp.make_group(3, [(6, (0, 2, 3))])):
        toricmmp.mckay_pipeline(G)
    # (1/10)(1,6,8) scans one facet, on a contraction of its MMP
    assert built == [] and scans == ["contraction"]
    assert set(scored) <= {(True, True), (False, True), (False, False)}, scored
    assert scored[True, True] and scored[False, False], scored


def test_mckay_pipeline_reads_its_setup_once(monkeypatch):
    # the m_i, the order and the scaled psi come from one integer Hermite
    # form: a non-SL pipeline, here with a coefficient drop and MMP steps,
    # never scales psi from coefficients and reads the m_i back out of
    # them only in its one fresh stack-rank count; a pipeline that
    # re-derived its set-up would pass every output check
    scaled, callers = [], []
    real_scaled, real_ms = pairs._scaled_psi, mckay._standard_multiplicities

    def ms(pair):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_ms(pair)

    for info in pkgutil.iter_modules(toricmmp.__path__):  # every name bound to them
        mod = importlib.import_module(f"toricmmp.{info.name}")
        for name, obj in list(vars(mod).items()):
            if obj is real_scaled:
                monkeypatch.setattr(mod, name, lambda p: scaled.append(p) or real_scaled(p))
            elif obj is real_ms:
                monkeypatch.setattr(mod, name, ms)
    report = toricmmp.mckay_pipeline(toricmmp.make_group(3, [(10, (1, 6, 8))]))
    assert not report.sl
    assert {"coefficient_drop", "divisorial"} <= {e.kind for e in report.ledger}
    assert scaled == [] and callers == ["stack_rank"]


def test_a_fan_state_computes_each_wall_relation_once(monkeypatch):
    # the state keeps one relation per cone pair while both cones live,
    # and a contraction moves no ray id: the sweep's walls of X and of Y
    # and every rescored facet, the flip passes of a regular triangulation
    # and the relative MMP's rounds, across flips and contractions, all
    # read it.  The square pair's MMP takes two flips over three rounds of
    # eight walls, the square-centre pair one link contraction, the McKay
    # pipeline on (1/10)(1,6,8) two contractions, and the probe pair 37
    # flips and 22 contractions; a rescan that recomputed its relations, or
    # a contraction that dropped them, would pass every output check.  The
    # McKay pipeline on (1/101)(1,17,83), in SL(3), takes 50 extractions
    # and computes no relation at all: its psi is one linear form, so its
    # relative MMP has no wall to score
    calls, states, real = Counter(), [], fan._relation

    def counting(rays, cone_a, apex_a, apex_b, kernel):
        states.append(rays)  # a state's ray list, kept alive so its id is its own
        cone_b = tuple(i for i in cone_a if i != apex_a) + (apex_b,)
        cones = (frozenset(rays[i] for i in c) for c in (cone_a, cone_b))
        calls[id(rays), frozenset(cones)] += 1
        return real(rays, cone_a, apex_a, apex_b, kernel)

    px, py, _ = flop_case(0)
    monkeypatch.setattr(fan, "_relation", counting)
    flip_rays = [(0, 0, 1), (1, 0, 1), (3, 3, 2), (0, 1, 1)]
    square = [(x, y, 1) for x in range(3) for y in range(3)]
    square_cones = [(1, 2, 4), (0, 3, 4), (0, 1, 4), (2, 4, 5), (3, 4, 6), (4, 6, 7),
                    (4, 7, 8), (4, 5, 8)]
    centre = [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1), (1, 1, 1)]
    runs = [
        lambda: toricmmp.flop_decompose(px, py),
        lambda: toricmmp.regular_triangulation(
            square, [x * x + y * y + Fraction(x * y * y + 1, 97) for x, y, _ in square]),
        lambda: toricmmp.relative_mmp(toricmmp.make_pair(
            toricmmp.make_fan(flip_rays, [(0, 1, 2), (0, 2, 3)]), [0] * 4)),
        lambda: toricmmp.relative_mmp(toricmmp.make_pair(
            toricmmp.make_fan(square, square_cones), [0, 0, Fraction(1, 3)] + [0] * 5
            + [Fraction(2, 3)])),
        lambda: toricmmp.relative_mmp(toricmmp.make_pair(
            toricmmp.make_fan(centre, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]),
            [0, 0, 0, 0, Fraction(1, 2)])),
        lambda: toricmmp.mckay_pipeline(toricmmp.make_group(3, [(10, (1, 6, 8))])),
        lambda: toricmmp.relative_mmp(mmp_probe_pair(0, 40)),
    ]
    for run in runs:
        calls.clear()
        run()
        assert calls and max(calls.values()) == 1, calls.most_common(1)
    calls.clear()
    report = toricmmp.mckay_pipeline(toricmmp.make_group(3, [(101, (1, 17, 83))]))
    assert len(report.ledger) == 50 and {e.kind for e in report.ledger} == {"extraction"}
    assert not calls


def test_a_fan_state_keeps_one_relation_per_current_wall(monkeypatch):
    # a removed cone takes its walls' relations with it, so after a regular
    # triangulation the state holds at most one relation per wall it has
    # now; a state that kept every pair that was ever a wall held 644
    # relations for the 153 walls of this 60-point triangulation (the
    # relative MMP's state is checked after every step in test_mmp.py's
    # test_mmp_state_matches_validated_fans)
    rng = random.Random(60)
    pts = set()
    while len(pts) < 60:
        pts.add((rng.randrange(16), rng.randrange(16), 1))
    rays = sorted(pts)
    heights = [x * x + y * y + Fraction(rng.randint(-20, 20), 97) for x, y, _ in rays]
    states, place = [], fan._Subdivision.place

    def recording(sub, w):
        states.append(sub)
        return place(sub, w)

    monkeypatch.setattr(fan._Subdivision, "place", recording)
    toricmmp.regular_triangulation(rays, heights)
    sub = states[-1]
    assert 0 < len(sub.rels) <= len(sub.walls) > 100


def test_the_mckay_mmp_builds_relations_only_for_positive_walls(monkeypatch):
    # after the coefficient drop psi is 1 on every ray, so a relation's
    # defect is the sum of its coefficients; the pipeline's MMP reads each
    # wall's defect sign off the kept kernels first and builds a relation
    # only for a wall of positive defect, on (1/10)(1,6,8) and on a seeded
    # slice of non-SL groups, most of whose walls are not positive.  A
    # return to building every wall's relation would pass every output check
    built, signs = [], Counter()
    real_relation, real_positive = fan._relation, fan._Subdivision._positive

    def relation(*args):
        built.append(rel := real_relation(*args))
        return rel

    def positive(sub, f):
        signs[p := real_positive(sub, f)] += 1
        return p

    monkeypatch.setattr(fan, "_relation", relation)
    monkeypatch.setattr(fan._Subdivision, "_positive", positive)
    rng, groups = random.Random(3535), [toricmmp.make_group(3, [(10, (1, 6, 8))])]
    while len(groups) < 40:
        r = rng.randint(2, 12)
        G = toricmmp.make_group(3, [(r, [rng.randrange(r) for _ in range(3)])])
        groups += [] if mckay.is_sl(G) else [G]
    for G in groups:
        toricmmp.mckay_pipeline(G)
    assert built and all(sum(rel.coeffs) > 0 for rel in built)
    assert signs[False] > signs[True] > 0, signs


def test_the_group_hermite_form_is_one_insertion_pass(monkeypatch):
    # _group_hermite hands the insertion kernel only the generators over
    # den, once and as they are, seeded with the echelon basis den I, the
    # state that inserting the rows of den I first reaches, so H is the
    # same.  The reversed pass it replaced reversed the rows and columns,
    # reduced upward and reversed back, at about 1.6 times the cost on the
    # quotient workload's groups, and inserting den I's rows one by one
    # redoes work the seed skips; a return to either would pass every
    # output check
    calls, real = [], lattice._hermite

    def seeded(rows, n, basis=None):
        calls.append((rows, n, {j: list(b) for j, b in basis.items()}))
        return real(rows, n, basis)

    monkeypatch.setattr(lattice, "_hermite", seeded)
    H = mckay._group_hermite(toricmmp.make_group(3, [(10, (1, 6, 8)), (4, (1, 3, 0))]))[0]
    assert calls == [([[2, 12, 16], [5, 15, 0]], 3,
                      {0: [20, 0, 0], 1: [0, 20, 0], 2: [0, 0, 20]})]
    assert H == ((10, 0, 0), (5, 5, 0), (3, 3, 4))
    read = {n.id for n in ast.walk(ast.parse(Path(lattice.__file__).read_text()))
            if isinstance(n, ast.Name)}
    assert "reversed" not in read


def test_cone_witness_builds_no_pair_sum_that_loses(monkeypatch):
    # _cone_witness turns two rays into a pair sum only when its key m
    # (P_a + P_b) is at most the least box-point score, since a larger key
    # loses to a box point: over the McKay pipelines of a seeded slice of
    # the quotient workload's groups and the terminalizations of flop-corpus
    # pairs with coefficients 1/2 and 3/4, where pair sums win, every sum
    # it builds has such a key, and sums above it were there to skip.  A
    # return of the losing sums would pass every output check
    built, count = [], Counter()
    real_witness, real_add = pairs._cone_witness, pairs.vec_add

    def add(u, v):
        built.append(w := real_add(u, v))
        return w

    def witness(sub, cone, scaled, L):
        m, nums = lattice._box_numerators(sub.ray_matrix(cone))
        P = [scaled[i] for i in cone]
        low = min((sum(map(mul, num, P)) for num in nums), default=inf)
        keys = {real_add(sub.rays[a], sub.rays[b]): m * (scaled[a] + scaled[b])
                for a, b in combinations(cone, 2)}
        start = len(built)
        wit = real_witness(sub, cone, scaled, L)
        assert all(keys[w] <= low for w in built[start:])
        count["built"] += len(built) - start
        count["above"] += sum(k > low for k in keys.values())
        return wit

    monkeypatch.setattr(pairs, "vec_add", add)
    monkeypatch.setattr(mmp, "_cone_witness", witness)
    rng = random.Random(35)
    for _ in range(60):
        r = rng.randint(2, 12)
        G = toricmmp.make_group(3, [(r, [rng.randrange(r) for _ in range(3)])])
        toricmmp.mckay_pipeline(G)
    for seed in range(20):
        fan = flop_case(seed)[0].fan
        toricmmp.terminalize(toricmmp.make_pair(fan, [rng.choice([Fraction(1, 2), Fraction(3, 4)])
                                                      for _ in fan.rays]))
    assert count["built"] > 50 and count["above"] > 50, count


def _type_tests(tree):
    """(where, line) of every isinstance(..., bool|float|int) and every
    comparison of a type() with bool, float or int; where is the top-level
    function, Class.method, or <module> for other statements."""
    found = []
    for top in tree.body:
        units = [(f"{top.name}.{getattr(d, 'name', '<body>')}", d) for d in top.body] \
            if isinstance(top, ast.ClassDef) else [(getattr(top, "name", "<module>"), top)]
        for name, unit in units:
            for node in ast.walk(unit):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                    names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                elif isinstance(node, ast.Compare):
                    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                    names = names if "type" in names else set()
                else:
                    continue
                if names & {"bool", "float", "int"}:
                    found.append((name, node.lineno))
    return found


def test_only_the_gate_module_decides_what_an_exact_number_is():
    # errors._exact_ints and errors._exact_rationals are the one exactness
    # test, and errors._all_ints the one all-int fast-path test; another
    # isinstance(x, int) would let bool through again, and another
    # isinstance(x, (bool, float)) str
    probe = "def f(x):\n    return isinstance(x, (bool, float)) or type(x) is not int\n"
    assert _type_tests(ast.parse(probe)) == [("f", 2), ("f", 2)]
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.stem != "errors"
             for name, _ in _type_tests(ast.parse(path.read_text()))}
    assert found == set(TYPE_DISPATCH)


def _unused_imports(source):
    """(name, line) of every name the module source imports and never
    reads, but for `from __future__` and import lines marked # noqa: F401."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in \
                lines[node.lineno - 1] or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in read)


def test_every_import_is_read():
    # a name imported and never read is dead weight, and in cli.py an
    # import cost paid on every cold start; __init__.py re-exports
    probe = ("from __future__ import annotations\nimport os.path\nimport sympy  # noqa: F401\n"
             "from typing import NamedTuple, Sequence\nclass A(NamedTuple):\n    x: int\n")
    assert _unused_imports(probe) == [("Sequence", 4), ("os", 2)]
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
             for name, _ in _unused_imports(path.read_text())}
    assert found == set()


def _constructor_calls(tree):
    """(top-level function, name) of every call to make_fan or make_pair,
    by name or attribute, in a module's tree."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("make_fan", "make_pair"):
                    found.append((getattr(top, "name", "<module>"), name))
    return found


def test_only_named_engine_functions_call_the_public_constructors():
    # every other fan or pair the engine derives is read off the state
    # that built it; a return to re-validating one through make_fan or
    # make_pair would pass every output check.  jsonio.py builds the fans
    # and pairs of input files
    probe = "def f(x):\n    return make_pair(fan.make_fan(x), ())\nY = make_fan(())\n"
    assert sorted(_constructor_calls(ast.parse(probe))) == [
        ("<module>", "make_fan"), ("f", "make_fan"), ("f", "make_pair")]
    found = sorted((path.stem, top, name) for path in SRC.glob("*.py") if path.stem != "jsonio"
                   for top, name in _constructor_calls(ast.parse(path.read_text())))
    assert found == sorted((mod, top, name) for (mod, top), (names, _) in
                           CONSTRUCTOR_CALLS.items() for name in names)


def _walk_calls(tree):
    """(enclosing function, name) of every call to cell_extreme_rays,
    cofactor_kernel or det, by name or attribute, in a module's tree."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                name = isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None))
                if name in ("cell_extreme_rays", "cofactor_kernel", "det"):
                    found.append((getattr(fn, "name", "<lambda>"), name))
    return found


def test_no_engine_function_reaches_the_cell_walk():
    # k_equivalent and k_compare decide by exact LPs; the walk stays only
    # as the tests' reference and a bench tracer name, and each link of it
    # is called only by the link before
    probe = "def f(x):\n    return lattice.det(x) + g(lambda: cell_extreme_rays(x))\n"
    assert sorted(_walk_calls(ast.parse(probe))) == [
        ("<lambda>", "cell_extreme_rays"), ("f", "cell_extreme_rays"), ("f", "det")]
    found = sorted((path.stem, fn, name) for path in SRC.glob("*.py")
                   for fn, name in set(_walk_calls(ast.parse(path.read_text()))))
    assert found == [("lattice", "cofactor_kernel", "det"),
                     ("pairs", "cell_extreme_rays", "cofactor_kernel")]

