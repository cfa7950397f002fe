"""One benchmark process. ``run.py`` starts it with one JSON argument and
reads one JSON object from its standard output.

Modes:
  generate  write every workload's universe under bench/_work/inputs
  golden    compute the golden digest of every op and write bench/golden
  setup     import, load inputs and warm up, then report the set-up time
  run       set up, then execute the planned ops, one at a time
  trace     as ``run``, with the engine traced and CLI ops run in-process
"""

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

# Every process of the benchmark stays on one core, so that the probes
# below, the ops and any CLI child they start all run on the same core.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

# A core of a shared 2-core x86 VM changes speed by up to 1.5x, in phases
# of one second to a minute, and each core on its own. So every op time
# measured here comes with the median time of a fixed probe run on the same
# core around it: PROBES before the first op and after each op, and from a
# timer every PROBE_EVERY_S while a library op runs. run.py scales each op
# time by its probes to one reference speed. Set-up is not scaled: its
# time, mostly imports, hardly follows the probe's.
PROBES = 2
PROBE_EVERY_S = 0.05
HILBERT = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
TRIPLES = [((i * 7919) % 1009, (i * 104729) % 997, i) for i in range(300)]


def probe():
    """Seconds taken by a fixed piece of pure-Python work that never calls
    the engine, of the kinds the engine does: exact elimination on the 6x6
    Hilbert matrix, sorting tuples, filling a tuple-keyed dict. The garbage
    collector is held off, so that the size of the engine's heap does not
    change the probe's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    a = [row[:] for row in HILBERT]
    for c in range(6):
        for r in range(c + 1, 6):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    rows = sorted(TRIPLES)
    {row[:2]: row[2] for row in sorted(rows, key=lambda row: row[1])}
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


class OpProbe:
    """Probes from an interval timer while a library op runs, in the op's
    own thread, so that an op that lasts seconds is scaled by the speed
    during it and not only at its edges. run.py never sees the probes' own
    time: it is taken out of the op's."""

    def __init__(self):
        self.samples = []  # (start, seconds)
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def arm(self):
        self.samples = []
        self.armed_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def disarm(self, elapsed):
        """Probe times inside the op that ran for elapsed seconds after
        arm(), not those in the untimed serialization after it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return [s for t, s in self.samples if t < self.armed_at + elapsed]

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import toricmmp  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

INPUTS = ROOT / W.WORK / "inputs"
GOLDEN = ROOT / "bench" / "golden"


def _write_atomic(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def generate():
    for name, universe in W.make_universes().items():
        _write_atomic(INPUTS / f"{name}.json", toricmmp.dumps(universe))
    return {}


def load(name):
    text = (INPUTS / f"{name}.json").read_text()
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    return json.loads(text), golden, W.digest(text) == golden["inputs"]


def execute(name, prepared, op, inprocess):
    """(seconds, canonical output text, failure or None) of one op. Only
    the op itself is timed, not the serialization of its result. Library
    ops fail by raising; CLI ops by an unexpected exit code or a traceback."""
    clock = time.perf_counter
    start = clock()
    if name == "cli":
        run = W.run_cli_inprocess if inprocess else W.run_cli_subprocess
        code, text, err = run(op["argv"], ROOT)
        elapsed = clock() - start
        if "Traceback" in err:
            return elapsed, text, "traceback"
        return elapsed, text, None if code == op["expect"] else f"exit {code}"
    try:
        result = W.run_op(name, prepared)
    except Exception as e:  # the benchmark records every failure and goes on
        return clock() - start, f"{type(e).__name__}: {e}", type(e).__name__
    elapsed = clock() - start
    return elapsed, W.canonical(result), None


def golden():
    for name in W.NAMES:
        text = (INPUTS / f"{name}.json").read_text()
        universe = json.loads(text)
        ids = range(len(universe["ops"]))
        prepared = W.prepare(name, universe, ids, ROOT)
        outputs = [W.digest(execute(name, prepared[i], universe["ops"][i], True)[1])
                   for i in ids]
        _write_atomic(GOLDEN / f"{name}.json", json.dumps(
            {"inputs": W.digest(text), "outputs": outputs}, indent=0) + "\n")
    return {}


def measure(cfg):
    name = cfg["workload"]
    universe, gold, inputs_ok = load(name)
    ids = W.plan(universe, name, cfg["seed"], cfg["seconds"], cfg.get("count"))
    prepared = W.prepare(name, universe, ids, ROOT)
    inprocess = cfg["mode"] == "trace" or cfg.get("inprocess", False)
    W.warm_up(name, ROOT, W.run_cli_inprocess if inprocess else W.run_cli_subprocess)
    setup_s = time.monotonic() - cfg["t0"]
    if cfg["mode"] == "setup":
        return {"setup_s": setup_s}
    tracer = Tracer() if cfg["mode"] == "trace" else None
    if tracer:
        tracer.install()
    # no timer while a CLI child runs, which it would slow, nor in traced
    # passes, whose spans would hold the probes' time
    timer = OpProbe() if cfg["mode"] == "run" and name != "cli" else None
    ops, before = [], [probe() for _ in range(PROBES)]
    try:
        for i in ids:
            if timer:
                timer.arm()
            elapsed, text, failure = execute(name, prepared[i], universe["ops"][i], inprocess)
            during = timer.disarm(elapsed) if timer else []
            after = [probe() for _ in range(PROBES)]
            ops.append([i, elapsed - sum(during), W.digest(text) == gold["outputs"][i], failure,
                        statistics.median(before + during + after)])
            before = after
    finally:
        restored = tracer.restore() if tracer else True
    who = resource.RUSAGE_CHILDREN if name == "cli" and not inprocess else resource.RUSAGE_SELF
    out = {
        "setup_s": setup_s,
        "ops": ops,
        "inputs_ok": inputs_ok,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer:
        calls, self_s = tracer.layer_metrics()
        tracer.write(ROOT / W.WORK / f"trace-{name}-{cfg['trace_index']}.jsonl")
        out.update(calls=calls, self_s=self_s, restored=restored)
    return out


def main():
    cfg = json.loads(sys.argv[1])
    mode = cfg["mode"]
    result = generate() if mode == "generate" else golden() if mode == "golden" else measure(cfg)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
