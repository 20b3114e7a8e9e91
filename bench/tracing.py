"""Span tracing of the library's layers, installed from outside the package.

The library is not modified.  ``install`` replaces each traced function with
a wrapper in every ``twistor_spectra`` module namespace that holds it, which
is where callers look the name up: the modules bind ``ratio_tagged``,
``block_coefficients``, ``case2_data`` and others by ``from ... import``.
``dirac`` is reached through the shared ``DEFAULT_EIGENVALUES`` instance, so
it is wrapped on that instance.

Spans nest on a stack.  A span's self time is its duration minus the time
covered by the spans it directly contains; time covered by outermost spans
is accumulated so the uncovered share of wall time can be reported.
"""
from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (module, attribute, span name); the attribute is looked up on the module
TRACED = [
    ("exact", "ratio_tagged", "exact.ratio_tagged"),
    ("exact", "evaluate_numeric", "exact.evaluate_numeric"),
    ("ktypes", "enumerate_ktypes", "ktypes.enumerate"),
    ("operators", "d_block", "operators.d_block"),
    ("operators", "case1_data", "operators.case1_data"),
    ("operators", "case2_data", "operators.case2_data"),
    ("operators", "case3_data", "operators.case3_data"),
    ("spectra", "calibrate_L", "spectra.calibrate"),
    ("spectra", "block_coefficients", "spectra.block_coefficients"),
    ("spectra", "mult1_quotient_matrix", "spectra.quotient_matrix"),
    ("spectra", "mult2_det_quotient_matrix", "spectra.quotient_matrix"),
    ("verify", "verify_mult1_quotients", "verify.mult1"),
    ("verify", "verify_mult2_quotients", "verify.mult2"),
    ("verify", "verify_case2_relation", "verify.case2"),
    ("verify", "verify_interface", "verify.interface"),
    ("verify", "resolve_block_factor_reading", "verify.resolve"),
    ("cli", "_rows_text", "cli.render"),
    ("cli", "_emit", "cli.render"),
    ("cli", "main", "cli.main"),
]

SUITE_SPANS = ("verify.mult1", "verify.mult2", "verify.case2", "verify.interface")

# the five module-level lru caches, by metric name: (module, attribute)
CACHES = {
    "z": ("spectra", "_z_cached"),
    "w": ("spectra", "_w_cached"),
    "corner": ("spectra", "_corner_pairs"),
    "block": ("spectra", "_block_coeffs"),
    "d": ("operators", "_d_entries"),
}

PACKAGE = "twistor_spectra"


class Tracer:
    """Per-name call counts, total and self time, plus suite edge counts."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.covered = 0.0
        self.edges: Dict[str, int] = {}
        self.skipped: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        for table in (calls, total, self_time):
            table.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]               # time covered by direct children
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered += dt
            if on_result is not None:
                on_result(name, result)
            return result
        return traced

    def count_suite(self, name: str, report) -> None:
        checks = getattr(report, "checks", ())
        self.edges[name] = self.edges.get(name, 0) + len(checks)
        skipped = sum(1 for c in checks if str(c.verdict).startswith("skipped"))
        self.skipped[name] = self.skipped.get(name, 0) + skipped

    def summary(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self": self.self_time,
                "covered": self.covered, "edges": self.edges,
                "skipped": self.skipped}


def _modules() -> List[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(original, replacement) -> int:
    """Replace ``original`` in every package namespace that holds it."""
    hits = 0
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> List[str]:
    """Wrap every traced name; returns the names that could not be found."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    missing = []
    for mod_name, attr, span in TRACED:
        fn = getattr(mods.get(mod_name), attr, None)
        if not callable(fn):
            missing.append(f"{mod_name}.{attr}")
            continue
        hook = tracer.count_suite if span in SUITE_SPANS else None
        _rebind(fn, tracer.wrap(span, fn, hook))

    cli = mods.get("cli")
    build = getattr(cli, "build_parser", None)
    if callable(build):
        wrapped_build = tracer.wrap("cli.parse", build)

        def build_parser():
            parser = wrapped_build()
            parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
            return parser
        _rebind(build, build_parser)
    else:
        missing.append("cli.build_parser")
    if cli is not None and getattr(cli, "json", None) is json:
        # the verify report is written by json.dump inside cmd_verify
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dump = tracer.wrap("cli.render", json.dump)
        proxy.dumps = tracer.wrap("cli.render", json.dumps)
        cli.json = proxy

    report_cls = getattr(mods.get("verify"), "SuiteReport", None)
    if report_cls is not None and callable(getattr(report_cls, "to_json", None)):
        report_cls.to_json = tracer.wrap("verify.report", report_cls.to_json)
    else:
        missing.append("verify.SuiteReport.to_json")

    eig = getattr(mods.get("ktypes"), "DEFAULT_EIGENVALUES", None)
    if eig is not None and callable(getattr(eig, "dirac", None)):
        eig.dirac = tracer.wrap("ktypes.dirac", eig.dirac)
    else:
        missing.append("ktypes.DEFAULT_EIGENVALUES.dirac")
    return missing


def cache_stats() -> Dict[str, dict]:
    """``cache_info()`` of the five module caches; absent ones are left out."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    out = {}
    for key, (mod_name, attr) in CACHES.items():
        info_fn = getattr(getattr(mods.get(mod_name), attr, None), "cache_info", None)
        if not callable(info_fn):
            continue
        try:
            info = info_fn()
            out[key] = {"hits": int(info.hits), "misses": int(info.misses),
                        "size": int(info.currsize)}
        except (AttributeError, TypeError, ValueError):
            continue
    return out
