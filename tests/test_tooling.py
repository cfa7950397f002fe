"""The benchmark tracer names engine functions by (module, function); every
name must still exist, or tracing and the smoke run break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
