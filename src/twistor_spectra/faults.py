"""Deliberate perturbation hooks, and the library's memo tables.

The verification suites are only trustworthy if a wrong coefficient anywhere
actually flips a verdict.  Formula sites route their constants through
:func:`bump`, which is the identity unless a test has armed an offset with
:func:`inject`; a site passing a numerator over ``scale`` gets ``offset *
scale`` added, so the offset moves the value itself.  Production code never
arms anything, and the block kernel makes no site call while :data:`ARMED`
is empty.  Every table is a :func:`memo`, and arming or disarming a site
empties them all, so armed runs use the production tables and no perturbed
value outlives its fault.

The tables keyed on r are :func:`run_memo` tables and live for one command:
``cli.main`` empties them as a command starts (:func:`start_run`).  The
label tables and ``spectra._ratio_template`` live as long as the process.

Sites: ``C1``-``C6`` (block coefficient factors), ``D11``-``D22`` and ``D33``
(operator block entries), ``Q1``/``Q2`` (quotient-matrix numerators),
``DIRAC`` (the signed sphere Dirac eigenvalue, so an alternate eigenvalue
convention can be tried against the suites) and ``E11`` (the (1,1) entry of
the first-order block that the block factor's reading is checked against).
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Union

# the armed sites' offsets, empty in production; a kernel that runs per row
# reads it to skip its sites' calls when nothing is armed
ARMED: Dict[str, Fraction] = {}
_TABLES: List[Callable] = []        # every memo table, in declaration order
_RUN_TABLES: List[Callable] = []    # the run_memo ones, emptied by start_run

# Every site that calls bump() registers its name here so tests can sweep
# the whole catalogue.
SITES = (
    "C1", "C2", "C3", "C4", "C5", "C6",
    "D11", "D12", "D21", "D22", "D33",
    "Q1", "Q2",
    "DIRAC",
    "E11",
)


def bump(name: str, value: Union[int, Fraction], scale: int = 1) -> Union[int, Fraction]:
    if not ARMED:
        return value
    off = ARMED.get(name)
    return value if off is None else value + off * scale


def memo(fn: Callable) -> Callable:
    """Unbounded ``lru_cache`` of ``fn``, returned as is and listed in ``_TABLES``.

    A table may hold values that passed a :func:`bump` site, so
    :func:`inject` empties every table on arming and on disarming.  A plain
    memo lives as long as the process: the label tables (``label_dirac``,
    ``_d_entries``) are keyed on n and label values, never on r, so a
    long-lived process holds at most one entry per label, and
    ``_ratio_template`` is keyed on a pattern.
    """
    table = lru_cache(maxsize=None)(fn)
    _TABLES.append(table)
    return table


def run_memo(fn: Callable) -> Callable:
    """A :func:`memo` keyed on r (``spectra``'s ``_z_cached``, ``_w_cached``,
    ``_corner_pairs``, ``_block_coeffs``), which :func:`start_run` empties too."""
    table = memo(fn)
    _RUN_TABLES.append(table)
    return table


def start_run() -> None:
    """Empty the :func:`run_memo` tables, and no other, as a command starts, so
    a long-lived process holds only the last command's r-keyed entries (and
    can still read its ``cache_info()``).  An armed fault stays armed."""
    for table in _RUN_TABLES:
        table.cache_clear()


@contextmanager
def inject(name: str, delta: Fraction = Fraction(1)) -> Iterator[None]:
    """Temporarily add ``delta`` to every value flowing through site ``name``."""
    if name not in SITES:
        raise KeyError(f"unknown perturbation site {name!r}")
    ARMED[name] = Fraction(delta)
    for table in _TABLES:
        table.cache_clear()
    try:
        yield
    finally:
        ARMED.pop(name, None)
        for table in _TABLES:
            table.cache_clear()
