"""The four benchmark workloads: their input universes, the seeded plan of
ops a run executes, and the canonical output of one op.

A universe is the full, fixed input family of a workload, written once as
canonical JSON. Every op of a universe has a golden digest committed under
``bench/golden``. A run never sees anything but a seeded plan over its
universe, so a seed changes which ops run and in what order, never what an
op's correct output is.

Every plan is a systematic sample: the universe is sorted by a cost key
and cut into as many equal blocks as the run has ops, and the seed draws
one op from each block. Every seed therefore gets nearly the same cost
mix, which keeps run-to-run spread low.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import product
from math import gcd

import toricmmp as T
from toricmmp import cli as T_cli
from toricmmp.jsonio import dumps as canonical  # bound before any tracing

NAMES = ("flop", "quotient", "surface", "cli")

# Ops a run executes per requested second, calibrated so that a run takes
# about --seconds at the seed commit (2 cores, Python 3.11). Quotient adds
# its fixed heavy ops, about 11 s, on top.
FILL_RATE = {"flop": 13, "quotient": 50, "surface": 9, "cli": 1.8}

FLOP_CASES = 400
# k for the SL groups (1/r)(1,k,r-1-k). (1/211)(1,50,160) needs 105
# extractions; terminalize budgets 10 * 3**2 = 90, so this op is expected
# to raise BudgetExceededError.
SL_POOLS = {101: (5, 17, 29, 40), 151: (20, 33, 47, 60), 211: (50,)}
TERMINAL_POOLS = {1000: ((7, 13), (3, 11), (17, 29), (123, 457)),
                  10000: ((7, 13), (3, 11), (17, 29), (1234, 4567))}
CLI_POOL = 12

WORK = "bench/_work"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ plans


def plan(universe, name, seed, seconds, count=None):
    """Op ids of one run: one op drawn from each pool of fixed ops, in pool
    order, then in a seeded order one fill op drawn from each block of the
    cost-sorted universe. With a count, just count fill ops.

    The fixed ops run first, on caches that only the warm-up has touched:
    after a few hundred fill ops their time depends on which fill ops ran
    before them by up to a factor of two."""
    rng = random.Random(f"{name}-{seed}")
    keys = universe["keys"]
    fill = sorted(universe["fill"], key=lambda i: (keys[i], i))
    n = count or max(1, min(len(fill), round(FILL_RATE[name] * seconds)))
    order = [rng.choice(fill[j * len(fill) // n:(j + 1) * len(fill) // n]) for j in range(n)]
    rng.shuffle(order)
    if count:
        return order
    return [rng.choice(pool) for pool in universe["fixed"]] + order


# -------------------------------------------------------------- universes


def _op(kind, key, **args):
    return {"kind": kind, "key": key, **args}


def _universe(ops, fixed=()):
    fixed_ids = {i for pool in fixed for i in pool}
    return {
        "ops": [{k: v for k, v in op.items() if k != "key"} for op in ops],
        "keys": [op["key"] for op in ops],
        "fill": [i for i in range(len(ops)) if i not in fixed_ids],
        "fixed": [list(pool) for pool in fixed],
    }


def _flop_case(seed):
    """The seeded K-equivalent pair recipe: height-one points in dimension
    3 or 4, a regular triangulation from jittered paraboloid heights, then
    one to six random regular flips. Zero boundary keeps every wall
    crepant, so the two pairs are K-equivalent by construction."""
    rng = random.Random(seed)
    dim = rng.choice([3, 4])
    for _ in range(20):
        span = 4 if dim == 3 else 3
        count = rng.randrange(dim + 2, dim + 5)
        pts = set()
        while len(pts) < count:
            pts.add(tuple(rng.randrange(span) for _ in range(dim - 1)))
        rays = sorted(p + (1,) for p in pts)
        fx = None
        for _ in range(50):
            heights = [16 * sum(x * x for x in r[:-1]) + rng.randrange(8) for r in rays]
            try:
                fx = T.mmp.regular_triangulation(rays, heights)
                break
            except T.InvalidInputError:
                continue
        if fx is None:
            continue
        fy, done = fx, 0
        for _ in range(rng.randrange(1, 7)):
            cands = [w for w in T.walls(fy)
                     if T.classify(T.wall_relation(fy, w)).kind == "flipping"]
            rng.shuffle(cands)
            for w in cands:
                try:
                    nxt = T.bistellar_flip(fy, w)
                except T.InvalidInputError:
                    continue
                try:
                    T.ample_heights(nxt)
                except T.NonProjectiveError:
                    continue
                fy, done = nxt, done + 1
                break
            else:
                break
        if done:
            zeros = [0] * len(fx.rays)
            return T.make_pair(fx, zeros), T.make_pair(fy, zeros)
    raise RuntimeError(f"no flop case for seed {seed}")


def _flop_universe():
    ops = []
    for seed in range(FLOP_CASES):
        x, y = _flop_case(seed)
        ops.append(_op("flop", [x.fan.dim, len(x.fan.rays), len(x.fan.max_cones)],
                       x=T.pair_to_json(x), y=T.pair_to_json(y)))
    return _universe(ops)


def small_groups():
    """Every distinct cyclic 3-fold group (1/r)(w) with r <= 12, once per
    overlattice: 1,171 groups."""
    seen = {}
    for r in range(1, 13):
        for ws in product(range(r), repeat=3):
            G = T.make_group(3, [(r, ws)])
            seen.setdefault(T.group_lattice(G).rows, G)
    return list(seen.values())


def _quotient_universe():
    ops = [_op("mckay", G.gens[0][0], group=T.group_to_json(G)) for G in small_groups()]
    fixed = []
    for r, ks in SL_POOLS.items():
        fixed.append(range(len(ops), len(ops) + len(ks)))
        for k in ks:
            G = T.make_group(3, [(r, (1, k, r - 1 - k))])
            ops.append(_op("mckay", r, group=T.group_to_json(G)))
    for m, pool in TERMINAL_POOLS.items():
        fixed.append(range(len(ops), len(ops) + len(pool)))
        for a, b in pool:
            fan = T.make_fan([(1, 0, 0), (0, 1, 0), (a, b, m)], [(0, 1, 2)])
            ops.append(_op("terminal", m, pair=T.pair_to_json(T.make_pair(fan, (0, 0, 0)))))
    return _universe(ops, fixed)


def hj_length(r, a):
    """Length of the Hirzebruch-Jung continued fraction of r/a, the number
    of exceptional curves; with r, the cost key of a surface op."""
    n = 0
    while a:
        b = -(-r // a)
        r, a = a, b * a - r
        n += 1
    return n


def surface_cases():
    """Every coprime (r, a) with 0 < a < r <= 30: 277 cases."""
    return [(r, a) for r in range(2, 31) for a in range(1, r) if gcd(r, a) == 1]


def _surface_universe():
    return _universe([_op("hj", [hj_length(r, a), r], r=r, a=a) for r, a in surface_cases()])


def _malformed_pairs(good):
    """Pair files that the CLI must reject with exit 1 and a diagnosis."""
    bad = [
        {**good, "coeffs": [0.5] + good["coeffs"][1:]},
        {**good, "coeffs": ["1/2"] * (len(good["coeffs"]) - 1)},
        {**good, "coeffs": ["3/2"] + good["coeffs"][1:]},
        {**good, "rays": [[2 * x for x in good["rays"][0]]] + good["rays"][1:]},
        {**good, "rays": [[0] * good["dim"]] + good["rays"][1:]},
        {**good, "rays": good["rays"][:-1] + [good["rays"][0]]},
        {**good, "cones": good["cones"] + [good["cones"][0]]},
        {**good, "cones": [[0, 1, 99]] + good["cones"][1:]},
        {**good, "dim": good["dim"] + 1},
        {k: v for k, v in good.items() if k != "cones"},
        {**good, "extra": 1},
        {"n": 3, "gens": [{"r": 2, "weights": [1, 1, 0]}]},
    ]
    return [json.dumps(b, indent=2, sort_keys=True) for b in bad]


def _cli_universe(flop, quotient):
    """Six op kinds, CLI_POOL ops each, over files this benchmark writes."""
    files, ops = {}, []
    groups = [quotient["ops"][i]["group"] for i in quotient["fill"]]
    groups = [g for g in groups if g["gens"][0]["r"] >= 6]
    step = len(groups) // (5 * CLI_POOL)

    def write(name, obj):
        path = f"{WORK}/cli/{name}"
        files[path] = obj if isinstance(obj, str) else T.dumps(obj)
        return path

    def add(kind, argv, expect=0):
        ops.append(_op("cli", kind, argv=argv, expect=expect))

    hj = [(r, a) for r, a in surface_cases() if 9 <= r <= 13][::3][:CLI_POOL]
    for r, a in hj:
        add(0, ["hj", str(r), str(a), "--json"])
    for i in range(CLI_POOL):
        add(1, ["check", write(f"check-{i}.json", flop["ops"][i]["x"]), "--json"])
    for i in range(CLI_POOL):
        case = flop["ops"][CLI_POOL + i]
        add(2, ["flop-decompose", write(f"flop-{i}-x.json", case["x"]),
                write(f"flop-{i}-y.json", case["y"]), "--json"])
    for i in range(CLI_POOL):
        add(3, ["mckay", write(f"group-{i}.json", groups[i * step]), "--json"])
    for i in range(CLI_POOL):
        for j in range(4):
            write(f"batch-{i}/g{j}.json", groups[(CLI_POOL + 4 * i + j) * step])
        add(4, ["mckay", "--batch", f"{WORK}/cli/batch-{i}", "--json"])
    for i, text in enumerate(_malformed_pairs(flop["ops"][0]["x"])):
        add(5, ["check", write(f"bad-{i}.json", text), "--json"], expect=1)
    universe = _universe(ops)
    universe["files"] = files
    return universe


def make_universes():
    flop = _flop_universe()
    quotient = _quotient_universe()
    return {"flop": flop, "quotient": quotient, "surface": _surface_universe(),
            "cli": _cli_universe(flop, quotient)}


# ---------------------------------------------------------------- loading


def prepare(name, universe, ids, root):
    """Engine objects for the given ops, built untimed before the first op.
    Pairs load with fast validation: they were validated when generated."""
    if name == "cli":
        for rel, text in universe["files"].items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            if not path.exists() or path.read_text() != text:
                path.write_text(text)
        return {i: universe["ops"][i] for i in ids}
    out = {}
    for i in ids:
        op = universe["ops"][i]
        if op["kind"] == "flop":
            out[i] = (T.pair_from_json(op["x"], validate="fast"),
                      T.pair_from_json(op["y"], validate="fast"))
        elif op["kind"] == "mckay":
            out[i] = T.group_from_json(op["group"])
        elif op["kind"] == "terminal":
            out[i] = T.pair_from_json(op["pair"], validate="fast")
        else:
            out[i] = (op["r"], op["a"])
    return out


def warm_up(name, root, run_cli):
    """One small op outside the universe, so lazy imports and first-call
    costs land in set-up rather than in the first timed op."""
    if name == "flop":
        rays = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
        x = T.make_pair(T.make_fan(rays, [(0, 1, 2), (0, 2, 3)]), (0, 0, 0, 0))
        y = T.make_pair(T.make_fan(rays, [(0, 1, 3), (1, 2, 3)]), (0, 0, 0, 0))
        T.flop_decompose(x, y)
    elif name == "quotient":
        T.mckay_pipeline(T.make_group(2, [(6, (3, 2))]))
    elif name == "surface":
        T.hj_resolution(31, 12)
    else:
        run_cli(["hj", "31", "12", "--json"], root)


# -------------------------------------------------------------------- ops


def run_op(name, prepared):
    """Execute one library op through the package namespace, which the
    tracer rebinds; returns the engine's result."""
    if name == "flop":
        return T.flop_decompose(*prepared)
    if name == "surface":
        return T.hj_resolution(*prepared)
    if isinstance(prepared, T.ToricPair):
        return T.is_terminal(prepared)
    return T.mckay_pipeline(prepared)


def cli_text(code, out, err):
    return f"exit {code}\nstdout:\n{out}\nstderr:\n{err}"


def run_cli_subprocess(argv, root):
    """One `python -m toricmmp.cli` child; returns (exit code, text, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "toricmmp.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, cli_text(proc.returncode, proc.stdout, proc.stderr), proc.stderr


def run_cli_inprocess(argv, root):
    """`toricmmp.cli.main(argv)` with its output captured; paths in argv
    are relative to root, which must be the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = T_cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, cli_text(code, out.getvalue(), err.getvalue()), err.getvalue()
