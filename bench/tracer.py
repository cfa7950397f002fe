"""Per-layer tracing of the toricmmp engine from outside the engine.

The tracer wraps public functions of the engine's modules. Because
``mmp``, ``mckay``, ``pairs`` and ``fan`` import these functions by name,
rebinding the home module alone would miss most calls, so every attribute
of ``toricmmp`` and its submodules that is the same function object is
rebound, and restored afterwards.

Spanned functions record (name, start, end, parent) in memory; a layer's
self time is its spans' duration minus the duration of the spans nested
directly inside them. Functions called thousands of times per op (``det``,
``cofactor_kernel`` and a few membership tests) only count calls: their
time stays in the caller's self time.
"""

import json
import sys
import time
from collections import Counter


def _steps(result):
    return len(result[1])  # terminalize and relative_mmp return (pair, steps)


# (module, function, (count name, its amount from one result) or None)
SPANNED = (
    ("linprog", "lp_maximize", None),
    ("fan", "make_fan", None),
    ("fan", "star_subdivision", None),
    ("fan", "walls", ("returned", len)),
    ("lattice", "box_points", ("points", len)),
    ("circuits", "wall_relation", None),
    ("pairs", "k_equivalent", None),
    ("pairs", "min_discrepancy_witness", None),
    ("mmp", "ample_heights", None),
    ("mmp", "flop_decompose", ("steps", len)),
    ("mmp", "terminalize", ("steps", _steps)),
    ("mmp", "relative_mmp", ("steps", _steps)),
    ("mckay", "mckay_pipeline", None),
    ("mckay", "stack_rank", None),
    ("mckay", "hj_resolution", None),
    ("jsonio", "pair_from_json", None),
    ("jsonio", "group_from_json", None),
    ("jsonio", "dumps", None),
    ("cli", "main", None),
)
COUNTED = (
    ("fan", "in_support", None),
    ("fan", "point_in_cone", None),
    ("lattice", "det", None),
    ("lattice", "cofactor_kernel", None),
    ("lattice", "smith_normal_form", None),
    ("lattice", "mat_inv", None),
    ("pairs", "cell_extreme_rays", ("nonempty", bool)),
)


def _modules():
    return [m for n, m in sys.modules.items() if n == "toricmmp" or n.startswith("toricmmp.")]


class Tracer:
    """Install with ``install()``, run the traced ops, then ``restore()``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._rebound = []       # (module, attribute, original)

    def _span(self, name, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name
            if name == "fan.make_fan":
                label = f"{name}.{kwargs.get('validate', 'full')}"
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (label, start, clock(), parent)
                stack.pop()
            if extra:
                counts[f"{name}.{extra[0]}"] += extra[1](result)
            return result

        return wrapper

    def _counter(self, name, fn, extra):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if extra:
                counts[f"{name}.{extra[0]}"] += extra[1](result)
            return result

        return wrapper

    def install(self):
        modules = _modules()
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for mod, fname, extra in table:
                orig = getattr(sys.modules[f"toricmmp.{mod}"], fname)
                wrapper = make(f"{mod}.{fname}", orig, extra)
                wrapper.traced = orig
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, orig))

    def restore(self):
        """Put back every rebound name; True when no wrapper is left."""
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        return not any(hasattr(val, "traced") for m in _modules() for val in vars(m).values())

    def layer_metrics(self):
        """Counts and self times aggregated by span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter(self.counts)
        self_s = Counter()
        for i, (label, start, end, _) in enumerate(self.spans):
            calls[f"{label}.calls"] += 1
            self_s[f"{label}.self_s"] += end - start - child[i]
        return dict(calls), dict(self_s)

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
