"""The names the benchmark's span tracer wraps must exist in the library.

``bench/tracing.py`` looks each traced function and cache up by name and
silently leaves out what it cannot find, so a refactor that renames one of
them would drop a per-layer metric without failing anything else.
"""
import importlib
import importlib.util
from pathlib import Path

from twistor_spectra import ktypes

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def library_attr(module, attr):
    return getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr, None)


def test_every_traced_name_is_callable():
    missing = [f"{m}.{a}" for m, a, _ in tracing.TRACED
               if not callable(library_attr(m, a))]
    assert missing == []


def test_every_cache_exposes_cache_info():
    missing = [f"{m}.{a}" for m, a in tracing.CACHES.values()
               if not callable(getattr(library_attr(m, a), "cache_info", None))]
    assert missing == []
    for m, a in tracing.CACHES.values():
        library_attr(m, a).cache_info()


def test_dirac_is_reached_through_the_shared_instance():
    assert callable(getattr(ktypes.DEFAULT_EIGENVALUES, "dirac", None))
