"""Deliberate perturbation hooks.

The verification suites are only trustworthy if a wrong coefficient anywhere
actually flips a verdict.  Formula sites route their constants through
:func:`bump`, which is the identity unless a test has armed an offset with
:func:`inject`.  Production code never arms anything.

Sites: ``C1``-``C6`` (block coefficient factors), ``D11``-``D22`` and ``D33``
(operator block entries), ``Q1``/``Q2`` (quotient-matrix numerators) and
``DIRAC`` (the signed sphere Dirac eigenvalue, so an alternate eigenvalue
convention can be tried against the suites).
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Callable, Dict, Iterator

_ACTIVE: Dict[str, Fraction] = {}

# Every site that calls bump() registers its name here so tests can sweep
# the whole catalogue.
SITES = (
    "C1", "C2", "C3", "C4", "C5", "C6",
    "D11", "D12", "D21", "D22", "D33",
    "Q1", "Q2",
    "DIRAC",
)


def bump(name: str, value: Fraction) -> Fraction:
    if not _ACTIVE:
        return value
    off = _ACTIVE.get(name)
    return value if off is None else value + off


def memo(fn: Callable) -> Callable:
    """Unbounded memo for the library's tables.

    A function whose value passes a :func:`bump` site, directly or through
    another table, is memoized with this rather than ``lru_cache``: while
    any site is armed the call bypasses the cache, so perturbed values
    never populate it and every armed site is seen on every call; disarming
    restores the cached values.  The label tables in ``ktypes`` and
    ``operators`` are keyed on n and label values, never on r, so a
    long-lived process holds at most one entry per label (pair);
    ``spectra._block_coeffs`` is keyed per block, r included.
    ``cache_info`` is the underlying lru_cache's.
    """
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def call(*args):
        return fn(*args) if _ACTIVE else cached(*args)
    call.cache_info = cached.cache_info
    return call


@contextmanager
def inject(name: str, delta: Fraction = Fraction(1)) -> Iterator[None]:
    """Temporarily add ``delta`` to every value flowing through site ``name``."""
    if name not in SITES:
        raise KeyError(f"unknown perturbation site {name!r}")
    _ACTIVE[name] = Fraction(delta)
    try:
        yield
    finally:
        _ACTIVE.pop(name, None)
