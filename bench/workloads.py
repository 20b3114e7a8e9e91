"""Seeded workload generators.

Each generator takes the seed as an argument and yields only CLI argument
lists; the program under test never sees the seed.  Inputs are drawn from
fixed catalogues whose outputs are recorded in ``expected.json``, so every
operation of every seed is checked.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, List, Tuple

GRID_N = (4, 6, 8)
GRID_R = ("1/2", "1", "3/2", "5/2", "7/3")

# acceptance window of one verify slice, and the wide tabulation window
VERIFY_WINDOW = ["--f-min=-19/2", "--f-max=19/2", "--j-max=11/2"]
TABULATE_WINDOW = ["--f-min=-99/2", "--f-max=99/2", "--j-max=21/2"]

# one block of the query stream: 17 neighbors, 16 block, 16 spectrum and one
# calibrate query.  The shares are an assumption, since nothing records how
# often users send each command: the three lookups about equally, and
# calibration, a query some twenty times heavier, rarely.
QUERY_BLOCK = (("neighbors",) * 17 + ("block",) * 16 + ("spectrum",) * 16
               + ("calibrate",))
QUERY_SIZES = {"neighbors": 800, "block": 800, "spectrum": 600, "calibrate": 160}


def grid_key(n: int, r: str) -> str:
    return f"{n} {r}"


def grid_order(seed: int, workload: str) -> Iterator[Tuple[int, str]]:
    """Endless seeded walk over the 15 (n, r) grid slices.

    Each round of 15 is stratified: every consecutive triple holds one slice
    per n, so a run that stops early still sees the three dimensions evenly.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        per_n = {n: rng.sample(GRID_R, len(GRID_R)) for n in GRID_N}
        for k in range(len(GRID_R)):
            for n in rng.sample(GRID_N, len(GRID_N)):
                yield n, per_n[n][k]


def verify_argv(n: int, r: str, out: str) -> List[str]:
    return ["verify", f"--n={n}", f"--r={r}", *VERIFY_WINDOW, f"--out={out}"]


def tabulate_argv(n: int, r: str, out: str) -> List[str]:
    return ["spectrum", f"--n={n}", f"--r={r}", *TABULATE_WINDOW,
            "--format=csv", f"--out={out}"]


def _off_grid_r() -> List[str]:
    grid = {Fraction(r) for r in GRID_R}
    values = sorted({Fraction(p, q) for q in range(1, 8) for p in range(1, 4 * q)}
                    - grid)
    return [str(v) for v in random.Random("off-grid r").sample(values, 30)]


def _half(k: int) -> str:
    return f"{2 * k + 1}/2"


def query_catalogue() -> List[List[str]]:
    """All queries the query-mix stream can send, in a fixed order.

    r is drawn half from the grid and half from thirty values off it, so a
    long-lived process sees both cache reuse and fresh keys.
    """
    rng = random.Random("query catalogue")
    r_values = list(GRID_R) + _off_grid_r()

    def common() -> List[str]:
        r = rng.choice(GRID_R) if rng.random() < 0.5 else rng.choice(r_values[5:])
        return [f"--n={rng.choice(GRID_N)}", f"--r={r}"]

    def label(q: int) -> List[str]:
        return [f"--f={_half(rng.randrange(-10, 10))}",
                f"--j={_half(q + rng.randrange(0, 6 - q))}",
                f"--eps={rng.choice((1, -1))}", f"--xi={rng.choice((1, -1))}"]

    out: List[List[str]] = []
    for _ in range(QUERY_SIZES["neighbors"]):
        q = rng.choice((0, 1))
        out.append(["neighbors", *common(), *label(q), f"--q={q}",
                    f"--format={rng.choice(('table', 'table', 'json'))}"])
    for _ in range(QUERY_SIZES["block"]):
        out.append(["block", *common(), *label(0),
                    f"--format={rng.choice(('table', 'json', 'csv'))}"])
    for _ in range(QUERY_SIZES["spectrum"]):
        f = _half(rng.randrange(-10, 10))
        out.append(["spectrum", *common(), f"--f-min={f}", f"--f-max={f}",
                    f"--j-max={rng.choice(('7/2', '9/2', '11/2'))}",
                    f"--format={rng.choice(('table', 'json', 'csv'))}"])
    for _ in range(QUERY_SIZES["calibrate"]):
        a = rng.choice(("3/2", "5/2"))
        out.append(["calibrate", *common(), f"--f-min=-{a}", f"--f-max={a}",
                    f"--j-max={rng.choice(('5/2', '7/2'))}",
                    f"--xi-solve={rng.choice((1, -1))}"])
    return out


def query_stream(seed: int) -> Iterator[int]:
    """Endless seeded stream of catalogue indices for the query-mix client.

    Within each command the draw is skewed towards the front of its part of
    the catalogue (index = size * u**2), so a few queries repeat often and
    the rest arrive mostly fresh.
    """
    rng = random.Random(f"query-mix:{seed}")
    offsets, start = {}, 0
    for cmd in ("neighbors", "block", "spectrum", "calibrate"):
        offsets[cmd] = start
        start += QUERY_SIZES[cmd]
    while True:
        for cmd in rng.sample(QUERY_BLOCK, len(QUERY_BLOCK)):
            yield offsets[cmd] + int(QUERY_SIZES[cmd] * rng.random() ** 2)
