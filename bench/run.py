"""Benchmark of the toricmmp engine: four seeded workloads, a golden
digest gate on every op's canonical output, and per-layer tracing.

    python3 bench/run.py --workload flop --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload flop --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --smoke
    python3 bench/run.py --write-golden

Run it from the root of a source checkout. It prints a report, then as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Workloads, metrics and the known
budget defect are described in bench/NOTES.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TAIL_LADDER = (99.9, 99.5, 99, 98, 97, 96, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)
SMOKE_OPS = 6
# Every op time this benchmark reports is scaled to one reference speed: the
# speed at which worker.probe() takes PROBE_REF_S, about its median time on
# a 2-core x86 VM with Python 3.11. A time t measured while the probes
# around it took p (their median) is reported as t * PROBE_REF_S / p. The
# report also prints the wall-clock figures. Set-up times are not scaled.
PROBE_REF_S = 0.5e-3


class BenchError(Exception):
    pass


def spawn(cfg, timeout=170):
    """Run one worker process to completion and return its JSON result."""
    cfg = dict(cfg, t0=time.monotonic())
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg['mode']} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def ensure_inputs(workloads):
    """Generate the inputs when any is missing or was made by other code;
    the worker still checks each against its golden digest."""
    def current(w):
        path = BENCH / "_work" / "inputs" / f"{w}.json"
        golden = json.loads((BENCH / "golden" / f"{w}.json").read_text())["inputs"]
        return path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest()[:16] == golden

    if not all(current(w) for w in workloads):
        spawn({"mode": "generate"}, timeout=800)


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least ten
    samples above it, or the maximum when there are too few samples."""
    s = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(s))
        if len(s) - rank >= 10:
            return f"p{p:g}", s[rank - 1]
    return "max", s[-1]


def at_ref(seconds, probe_s):
    """A time measured while the probe took probe_s, at reference speed."""
    return seconds * PROBE_REF_S / probe_s


def _outcome(res):
    ops = res["ops"]
    lat = [at_ref(op[1], op[4]) for op in ops]
    return {
        "ids": [op[0] for op in ops],
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[3]),
        "failures": sorted({op[3] for op in ops if op[3]}),
        "digest_ok": int(res["inputs_ok"] and all(op[2] for op in ops)),
        "wall_s": sum(op[1] for op in ops),
        "lat": lat,
        "ref_s": sum(lat),
    }


def end_to_end(workload, seed, seconds, count=None):
    """Untraced: two set-ups alone, one that goes on to measure, and two
    more after it, so the five set-up samples lie far apart in time. Each
    op time is scaled to reference speed by the probes taken around it."""
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "count": count}
    setups = [spawn(dict(cfg, mode="setup"))["setup_s"] for _ in range(2)]
    res = spawn(dict(cfg, mode="run"))
    setups += [res["setup_s"]] + [spawn(dict(cfg, mode="setup"))["setup_s"] for _ in range(2)]
    out = _outcome(res)
    lat, wall = out["lat"], [op[1] for op in res["ops"]]
    rank, tail_s = tail(lat)
    n = f"n={out['attempted']} ops"
    metrics = {
        "ops_per_s": (out["attempted"] / out["ref_s"], "1/s",
                      f"{n}; wall {out['attempted'] / out['wall_s']:.4g}"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms",
                      f"{n}; wall {statistics.median(wall) * 1e3:.4g}"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"{rank}, {n}; wall {tail(wall)[1] * 1e3:.4g}"),
        "setup_s": (statistics.median(setups), "s", f"median of n={len(setups)} set-ups"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB",
                        "n=1 process" if workload != "cli" else "max over CLI children"),
        "failed_frac": (out["failed"] / out["attempted"], "ratio",
                        f"{out['failed']} of {n}" + "".join(f" ({f})" for f in out["failures"])),
        "digest_ok": (out["digest_ok"], "bool", n),
    }
    return out, metrics


def _median_time(argv, runs):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_times(runs=3):
    """Median cumulative import time of toricmmp and of sympy, from
    `python -X importtime`."""
    argv = [sys.executable, "-X", "importtime", "-c", "import toricmmp"]
    samples = {"toricmmp": [], "sympy": []}
    for _ in range(runs):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples and parts[1].strip().isdigit():
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def traced(workload, seed, seconds, per_layer, count=None):
    """One untraced pass between two traced passes over the same plan, each
    in a fresh process, with library ops and CLI ops run in-process. The
    untraced pass sits in the middle so that a steady drift in machine speed
    cancels out of trace.overhead_frac."""
    cfg = {"workload": workload, "seed": seed, "seconds": max(1, seconds / 3), "count": count}
    first = spawn(dict(cfg, mode="trace", trace_index=1))
    base = spawn(dict(cfg, mode="run", inprocess=True))
    runs = [first, spawn(dict(cfg, mode="trace", trace_index=2))]
    out = _outcome(base)
    checks = {
        "traced digest equals untraced": all(
            [op[:1] + op[2:4] for op in r["ops"]] == [op[:1] + op[2:4] for op in base["ops"]]
            and _outcome(r)["digest_ok"] for r in runs) and out["digest_ok"],
        "calls repeat across traced runs": runs[0]["calls"] == runs[1]["calls"],
        "every rebound name restored": all(r["restored"] for r in runs),
    }
    calls = runs[0]["calls"]
    # a pass's spans are scaled by the pass's ratio of reference to wall time
    self_s = {k: statistics.mean(r["self_s"].get(k, 0.0) * o["ref_s"] / o["wall_s"]
                                 for r, o in zip(runs, map(_outcome, runs)))
              for k in set(runs[0]["self_s"]) | set(runs[1]["self_s"])}
    steps = sum(calls.get(f"mmp.{f}.steps", 0) for f in ("flop_decompose", "terminalize",
                                                          "relative_mmp"))
    cells = calls.get("pairs.cell_extreme_rays.calls", 0)
    imports = _import_times()
    derived = {
        "mmp.walls_per_step": calls.get("fan.walls.returned", 0) / steps if steps else 0.0,
        "pairs.cell_extreme_rays.nonempty_frac":
            calls.get("pairs.cell_extreme_rays.nonempty", 0) / cells if cells else 0.0,
        "cli.interpreter_s": _median_time([sys.executable, "-c", "pass"], 5),
        "cli.import_s": imports["toricmmp"],
        "cli.import_sympy_s": imports["sympy"],
        "trace.overhead_frac":
            statistics.mean(_outcome(r)["ref_s"] for r in runs) / out["ref_s"] - 1,
    }
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = self_s.get(name, 0.0)
        else:
            value = calls.get(name, 0)
        metrics[name] = (value, m["unit"], f"n={out['attempted']} ops")
    return out, metrics, checks


def report(workload, seed, out, metrics, checks):
    print(f"workload {workload}  seed {seed}  attempted {out['attempted']}  "
          f"failed {out['failed']}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<10} {note}")
    for name, ok in checks.items():
        print(f"  check: {name}: {'ok' if ok else 'FAILED'}")


def result_line(out, metrics, names, correct):
    return json.dumps({
        "correct": bool(correct),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    })


def run_one(args, spec, count=None):
    """Run one workload, print its report; returns (JSON line, metrics, out)."""
    if args.trace:
        out, metrics, checks = traced(args.workload, args.seed, args.seconds,
                                      spec["per_layer"], count)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        out, metrics = end_to_end(args.workload, args.seed, args.seconds, count)
        checks = {"every op matches its golden digest": out["digest_ok"] == 1}
        names = [m["name"] for m in spec["end_to_end"]]
    report(args.workload, args.seed, out, metrics, checks)
    correct = out["digest_ok"] == 1 and all(checks.values())
    return result_line(out, metrics, names, correct), metrics, out


def smoke(spec):
    """A few ops of every workload, untraced and traced: every metric is
    printed with its unit, and the malformed CLI input runs and, like every
    op, exits as expected (1 for it) with no traceback."""
    problems = []
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expected["failed_frac"] = "ratio"
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, seconds=1, trace=trace)
            line, metrics, out = run_one(args, spec, count=SMOKE_OPS)
            want = {m["name"]: m["unit"] for m in spec["per_layer"]} if trace else expected
            problems += [f"{workload}: {n} missing or not in {u}" for n, u in want.items()
                         if metrics.get(n, (0, None))[1] != u]
            if not json.loads(line)["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
            if workload == "cli":
                # library ops may fail as their golden digest records; a CLI
                # op may not exit other than expected or print a traceback
                if out["failed"]:
                    problems.append(f"cli trace={trace}: {out['failures']}")
                cli = json.loads((BENCH / "_work" / "inputs" / "cli.json").read_text())
                if not any(cli["ops"][i]["expect"] == 1 for i in out["ids"]):
                    problems.append("cli: the malformed pair file did not run")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None):
    if not (ROOT / "src" / "toricmmp" / "__init__.py").is_file():
        print(f"bench: no toricmmp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few ops of every workload")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate inputs and the golden digests")
    args = p.parse_args(argv)
    try:
        if args.write_golden:
            spawn({"mode": "generate"}, timeout=800)
            spawn({"mode": "golden"}, timeout=3000)
            return 0
        ensure_inputs(workloads)
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            p.error("--workload is required")
        line, _, _ = run_one(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
