"""Benchmark of the twistor-spectra CLI: end to end, and layer by layer.

Run from the root of a checkout::

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

The benchmark imports the library from the checkout's ``src`` (nothing needs
installing), makes every input from ``--seed``, runs one worker process at a
time with no threads, measures for about ``--seconds`` seconds and checks
every output against ``bench/expected.json``.  Scratch files go to
``.bench_work/`` in the checkout and are removed at the end.

Workloads
---------
``verify-grid``
    Cold ``twistor-spectra verify --out`` runs, one (n, r) slice of the
    acceptance grid each: n in {4, 6, 8}, r in {1/2, 1, 3/2, 5/2, 7/3},
    f in [-19/2, 19/2], j <= 11/2, both xi and eps.  Each slice gets a fresh
    interpreter, because the library's lru caches are process-global and a
    reused process would measure warm hits that a CLI user never gets.  This
    is the real workload, and every layer does work in it.  The seed orders
    the slices; every consecutive triple holds one slice per n.
``query-mix``
    One long-lived process answers a seeded closed-loop stream of single
    queries through ``cli.main`` with one client: 34 % ``neighbors``, 32 %
    ``block``, 32 % single-column ``spectrum`` and 2 % small-window
    ``calibrate``.  r is half from the grid and half off it and queries
    repeat with a skewed draw, so the caches see both reuse and fresh keys.
    Latency here is set by the CLI layer and warm cache lookups; the suites
    never run and calibration sets the tail.  200 warm-up queries are not
    timed.  The mix is an assumption, not a measurement: nothing records
    how often users send each command.  The three lookups get about equal
    shares, calibration is rare and heavy, and the skew
    (``workloads.query_stream``) and the on/off-grid split of r are chosen
    so that both cache hits and misses occur.  The run prints each
    command's share of the total latency; at seed 3 on a 2-core Xeon
    (Python 3.11.7) it was neighbors 19 %, block 17 %, spectrum 44 % and
    calibrate 21 %.  Because the calibrate share is a guess that would move
    the rate almost one for one, ``items_per_s`` counts the lookups only.
``tabulate-wide``
    Cold ``spectrum --format csv --out`` over f in [-99/2, 99/2], j <= 21/2
    (8400 rows) for one grid (n, r) each.  It uses the exact layer
    differently, with long telescoping chains to a distant base row plus
    ``evaluate_numeric``, every block-coefficient call misses the cache, and
    it bypasses the suites and calibration entirely.

End-to-end metrics (``--trace 0``)
----------------------------------
Every workload reports every metric below; an operation is one cold CLI
run (a slice or a tabulation) or one query.

``setup_s`` (s, lower is better)
    Median time from starting a worker process until ``twistor_spectra`` is
    imported and the first operation can start, over 30 import probes that
    every workload starts before its work (a run lasts ``--seconds`` plus
    about 3 s for them).
``items_per_s`` (1/s, higher)
    Work completed per second: checked edges, summed over the four suites
    and all verdicts, on verify-grid (``edges_per_s``); K-type rows on
    tabulate-wide (``rows_per_s``); on query-mix, lookups answered
    (``neighbors``, ``block``, ``spectrum``) over the sum of their latencies
    (``lookups_per_s``, closed loop, one client).  Calibration's cost is
    gated on verify-grid, where its share of the work is the real one.
``op_p50_ms`` (ms, lower)
    Median time of one operation, from process start to exit for a cold
    run: ``slice_p50_s`` on verify-grid (in ms here), ``query_p50_ms`` on
    query-mix.
``peak_rss_mb`` (MB, lower)
    Peak resident memory of a worker: the mean over the run's cold workers,
    or, on query-mix, read after a fixed 6000 timed queries.
``rss_growth_mb`` (MB, lower)
    Resident memory after the work minus before it: after the operation
    minus after import on cold workloads; on query-mix after 6000 timed
    queries minus after warm-up, which is the unbounded growth of the
    module caches in a long-lived process.

Times are scaled to a nominal machine speed.  Each worker times a fixed
``fractions`` loop that uses no library code (``worker.reference``): every
0.1 s during a cold run, before and after each window of 50 queries on
query-mix, and right after import in each set-up probe.  A time is
multiplied by ``REF_NOMINAL_S`` over the median reference time measured
during it.  On a shared host the speed of the same code drifts by tens of
percent within seconds, and the reference drifts with it, so the scaled
times are what two runs can compare: over ten seeds on a 2-core Xeon
(Python 3.11.7), the quartile spread over the median of ``items_per_s`` was
2.6 % scaled against 14 % unscaled on query-mix, 4.5 % against 8.2 % on
verify-grid and 4.5 % against 13 % on tabulate-wide.  The unscaled times
are printed too.

``failed_frac`` is printed by name on every workload.  It is 0 on a correct
program, so it is carried by ``failed`` / ``attempted`` in the result line
rather than as a metric.  ``query_p99_ms`` (scaled) is printed on
query-mix, which has over 5000 queries per run; cold workloads run about
ten operations, too few for a tail percentile, and every end-to-end metric
must exist on every workload, so the tail is not one of them.

An operation fails when its exit code is not 0, when a verify report does
not say ``"ok": true``, or when its output bytes differ from the digest
recorded in ``bench/expected.json`` (``bench/record.py`` rewrites it).

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run starts each cold operation twice, untraced and then traced
with spans around calls into each module's public functions (installed by
``bench/tracing.py``; the library is not modified).  On query-mix an
untraced stream runs for a third of ``--seconds`` and a traced stream then
answers the same queries.  Counts and times are per operation (per query
on query-mix); ``.s`` is self time, the span's time minus its child spans.
Per-layer times are not scaled.

- exact: ``exact.ratio_tagged.{calls,s}``, ``exact.evaluate_numeric.{calls,s}``
- ktypes: ``ktypes.dirac.{calls,s}``, ``ktypes.enumerate.s``
- operators: ``operators.case{1,2,3}_data.{calls,s}``, ``operators.d_block.calls``
- spectra: ``spectra.calibrate.{calls,s,total_s}``,
  ``spectra.block_coefficients.{calls,s}``, ``spectra.quotient_matrix.s``,
  ``spectra.{z,w,corner,block,d}_cache.hit_ratio`` (hits over lookups of
  the five lru caches, 0 with no lookups),
  ``spectra.block_cache.wasted_misses`` (misses minus entries: singular
  results recomputed), ``spectra.cache_entries`` (entries held at the end
  of a cold operation or of the stream).  A cache that is gone or renamed
  leaves its metrics out.
- verify: ``verify.{mult1,mult2,case2,interface}.{s,total_s,edges}``,
  ``verify.case2.skip_frac``, ``verify.resolve.s``, ``verify.report.s``
  (``SuiteReport.to_json``)
- cli: ``cli.parse_ms`` (``build_parser`` plus ``parse_args``),
  ``cli.render.s`` (row rendering, ``json.dump`` of the report, writing),
  ``cli.report_bytes`` (bytes written to the file and standard output),
  ``cli.self.s`` (``cli.main`` minus every span inside it)
- trace: ``trace.overhead_frac`` (traced minus untraced wall time, over
  untraced), ``trace.uncovered_frac`` (share of traced wall time that no
  span covers: interpreter start, import and exit on cold workloads)

Output
------
Human-readable lines (every metric, the workload's own names for them, the
unscaled times and, on query-mix, each command's query count, median
latency and share of the total latency), then a ``context`` line
(workload, seed, machine: nproc, Python version, CPU model and load average
at start; sample counts), then as the last line one JSON object::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"setup_s": {"value": 0.081, "unit": "s"}, ...}}

Metric names and units are read from ``BENCHMARK.json``: the end-to-end
list with ``--trace 0``, the per-layer list with ``--trace 1``.  The exit
code is 0 when every output is correct, 1 when a result was printed but
some operation failed, and 2 without a result when the checkout cannot be
benchmarked.  ``--smoke`` lowers the minimum work for the benchmark's own
tests (``python3 -m pytest bench``) and fails unless every named metric
is emitted.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKLOADS = ("verify-grid", "query-mix", "tabulate-wide")
WORKER_TIMEOUT_S = 120
QUERY_WARMUP = 200
QUERY_CHECKPOINT = 6000          # timed queries before the memory reading
SETUP_PROBES = 30                # import probes per run, for setup_s
# nominal time of the worker's reference loop; times are scaled to it
REF_NOMINAL_S = 0.0014


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# workers


def spawn(args: List[str]) -> Tuple[Optional[dict], float, float, str]:
    """Run one worker to completion: (result, spawn time, wall s, stderr)."""
    # bytecode caching stays on, as for an installed package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, t0, time.monotonic() - t0, "timed out\n" + err
    wall = time.monotonic() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, t0, wall, err
    try:
        return json.loads(lines[-1]), t0, wall, err
    except json.JSONDecodeError:
        return None, t0, wall, err


def probe() -> Tuple[float, float]:
    """Import the library once in a worker: (setup time, reference time)."""
    result, t0, _, err = spawn(["probe"])
    if result is None:
        raise BenchError(f"cannot import twistor_spectra from {ROOT / 'src'}:\n{err}")
    if Path(result["src"]).resolve() != (ROOT / "src" / "twistor_spectra").resolve():
        raise BenchError(f"imported twistor_spectra from {result['src']}, "
                         f"not from this checkout")
    return result["ready"] - t0, result["ref_s"]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cold workloads: verify-grid and tabulate-wide


def check_cold(workload: str, path: Path, want: str) -> Tuple[bool, int, str]:
    """(correct, items, reason) for one cold operation's output file."""
    if not path.exists():
        return False, 0, "no output file"
    digest_ok = sha256(path) == want
    if workload == "verify-grid":
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            items = sum(sum(s["counts"].values()) for s in report["suites"].values())
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return False, 0, f"unreadable report: {exc!r}"
        if report.get("ok") is not True:
            return False, items, "report is not ok"
    else:
        with open(path, "rb") as fh:
            items = sum(1 for _ in fh) - 1
    return digest_ok, items, "" if digest_ok else "output digest differs"


def cold_op(workload: str, n: int, r: str, want: str, trace: bool) -> dict:
    """One cold CLI run in a fresh worker, timed and checked."""
    out = WORK / f"{workload}.out"
    if out.exists():
        out.unlink()
    build = workloads.verify_argv if workload == "verify-grid" else workloads.tabulate_argv
    argv = build(n, r, str(out))
    result, _, wall, err = spawn(["cold", json.dumps(argv)] + (["--trace"] if trace else []))
    op = {"key": workloads.grid_key(n, r), "wall_s": wall, "items": 0, "ok": False}
    if result is None:
        op["reason"] = "worker failed: " + err.strip()[-500:]
        return op
    op.update(result)
    op["wall_s"] = wall - result["ref_spent_s"]
    op["scale"] = REF_NOMINAL_S / result["ref_s"]
    if result["code"] != 0:
        op["reason"] = f"exit code {result['code']}"
        return op
    op["ok"], op["items"], op["reason"] = check_cold(workload, out, want)
    op["out_bytes"] = out.stat().st_size if out.exists() else 0
    return op


def run_cold(workload: str, seed: int, seconds: float, trace: bool,
             expected: dict) -> dict:
    order = workloads.grid_order(seed, workload)
    ops, traced = [], []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        n, r = next(order)
        want = expected[workloads.grid_key(n, r)]
        ops.append(cold_op(workload, n, r, want, False))
        if trace:
            traced.append(cold_op(workload, n, r, want, True))
    return {"ops": ops, "traced": traced}


def op_times(ops: List[dict], scaled: bool) -> List[float]:
    return [op["wall_s"] * (op["scale"] if scaled else 1) for op in ops
            if "scale" in op]


def timing_metrics(ops: List[dict], setups: List[Tuple[float, float]],
                   scaled: bool) -> Dict[str, float]:
    """Time metrics, scaled to the nominal reference speed unless ``scaled`` is off.

    ``setups`` holds (setup time, reference time) per import probe; each
    setup time is scaled by its own probe's reference.
    """
    walls = op_times(ops, scaled)
    return {
        "setup_s": median([t * (REF_NOMINAL_S / ref if scaled else 1)
                           for t, ref in setups]),
        "items_per_s": sum(op["items"] for op in ops if "scale" in op) / sum(walls),
        "op_p50_ms": 1000 * median(walls),
        "op_p99_ms": 1000 * percentile(walls, 0.99),
    }


def cold_metrics(run: dict, scaled: bool = True) -> Dict[str, float]:
    done = [op for op in run["ops"] if "scale" in op]
    if not done:
        return {}
    m = timing_metrics(done, run["setups"], scaled)
    # a mean, not a median: slices differ in memory, and a median would jump
    # between them as the seed changes which slices a run reaches
    m["peak_rss_mb"] = statistics.mean(op["peak_rss_mb"] for op in done)
    m["rss_growth_mb"] = statistics.mean(op["rss_growth_mb"] for op in done)
    return m


# ---------------------------------------------------------------------------
# query-mix


def stream_worker(seed: int, seconds: float, checkpoint: int, warmup: int,
                  max_queries: int = 0, trace: bool = False):
    args = ["stream", "--seed", str(seed), "--seconds", str(seconds),
            "--min-queries", str(checkpoint), "--warmup", str(warmup)]
    if max_queries:
        args += ["--max-queries", str(max_queries)]
    if trace:
        args.append("--trace")
    return spawn(args)


def check_stream(result: Optional[dict], expected: List[str]) -> List[dict]:
    """One op record per timed query, checked against the recorded digests."""
    if result is None:
        return []
    commands = [argv[0] for argv in workloads.query_catalogue()]
    ops = []
    refs, window = result["ref_s"], result["window"]
    for i, (index, latency, got) in enumerate(zip(
            result["indices"], result["latency_s"], result["digests"])):
        ok = got == expected[index]
        # the reference was timed before and after each window of queries
        k = i // window
        ops.append({"key": index, "cmd": commands[index], "wall_s": latency,
                    "ok": ok, "items": 1,
                    "scale": 2 * REF_NOMINAL_S / (refs[k] + refs[k + 1]),
                    "reason": "" if ok else "output digest differs"})
    return ops


def run_query_mix(seed: int, seconds: float, trace: bool, expected: List[str],
                  smoke: bool) -> dict:
    # a traced run reports no memory, so it needs no fixed query count
    checkpoint = 100 if smoke else 0 if trace else QUERY_CHECKPOINT
    warmup = 20 if smoke else QUERY_WARMUP
    budget = seconds / 3 if trace else seconds
    result, _, _, err = stream_worker(seed, budget, checkpoint, warmup)
    ops = check_stream(result, expected)
    out = {"ops": ops, "stream": result, "traced": [],
           "error": "" if result else "stream worker failed: " + err.strip()[-500:]}
    if trace and ops:
        traced, _, _, err = stream_worker(seed, 0, checkpoint, warmup,
                                          max_queries=len(ops), trace=True)
        traced_ops = check_stream(traced, expected)
        out["traced"] = traced_ops
        out["traced_stream"] = traced
        if traced is None:
            out["error"] = "traced stream worker failed: " + err.strip()[-500:]
    return out


def query_metrics(run: dict, scaled: bool = True) -> Dict[str, float]:
    stream = run["stream"]
    if stream is None:
        return {}
    m = timing_metrics(run["ops"], run["setups"], scaled)
    # the rate counts lookups only; calibrate's cost is gated on verify-grid,
    # where its share of the work comes from the real workload, not a guess
    lookups = [op for op in run["ops"] if op["cmd"] != "calibrate"]
    m["items_per_s"] = len(lookups) / sum(op_times(lookups, scaled))
    m["peak_rss_mb"] = stream["peak_rss_mb"]
    m["rss_growth_mb"] = stream["rss_growth_mb"]
    return m


# ---------------------------------------------------------------------------
# per-layer metrics from traced workers


def layer_metrics(payloads: List[dict], n_ops: int,
                  traced_wall: float) -> Dict[str, float]:
    """Per-operation layer figures summed over traced worker payloads.

    A span whose function could not be wrapped (gone or renamed) has no
    entry in ``calls`` and leaves its metrics out rather than report 0.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    edges: Dict[str, int] = {}
    skipped: Dict[str, int] = {}
    caches: Dict[str, Dict[str, int]] = {}
    covered = 0.0
    out_bytes = 0
    for p in payloads:
        tr = p["trace"]
        for table, src in ((calls, tr["calls"]), (self_s, tr["self"]),
                           (total_s, tr["total"]), (edges, tr["edges"]),
                           (skipped, tr["skipped"])):
            for k, v in src.items():
                table[k] = table.get(k, 0) + v
        covered += tr["covered"]
        out_bytes += p.get("stdout_bytes", 0) + p.get("out_bytes", 0)
        for name, info in p["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "size": 0})
            for k in acc:
                acc[k] += info[k]
    per = 1.0 / n_ops
    m: Dict[str, float] = {}
    tables = {"calls": calls, "s": self_s, "total_s": total_s, "edges": edges}

    def put(span: str, fields: str) -> None:
        if span in calls:
            for field in fields.split():
                m[f"{span}.{field}"] = tables[field].get(span, 0) * per

    for span in ("exact.ratio_tagged", "exact.evaluate_numeric", "ktypes.dirac",
                 "operators.case1_data", "operators.case2_data",
                 "operators.case3_data", "spectra.block_coefficients"):
        put(span, "calls s")
    put("operators.d_block", "calls")
    put("spectra.calibrate", "calls s total_s")
    for span in ("ktypes.enumerate", "spectra.quotient_matrix", "verify.resolve",
                 "verify.report", "cli.render"):
        put(span, "s")
    for suite in ("mult1", "mult2", "case2", "interface"):
        put(f"verify.{suite}", "s total_s edges")
    if "verify.case2" in calls:
        case2_edges = edges.get("verify.case2", 0)
        m["verify.case2.skip_frac"] = (skipped.get("verify.case2", 0) / case2_edges
                                       if case2_edges else 0.0)
    for name, acc in caches.items():
        lookups = acc["hits"] + acc["misses"]
        m[f"spectra.{name}_cache.hit_ratio"] = acc["hits"] / lookups if lookups else 0.0
    if "block" in caches:
        m["spectra.block_cache.wasted_misses"] = \
            (caches["block"]["misses"] - caches["block"]["size"]) * per
    if caches:
        m["spectra.cache_entries"] = sum(acc["size"] for acc in caches.values()) * per
    if "cli.parse" in calls:
        m["cli.parse_ms"] = 1000 * total_s["cli.parse"] * per
    if "cli.main" in calls:
        m["cli.self.s"] = self_s["cli.main"] * per
    m["cli.report_bytes"] = out_bytes * per
    m["trace.uncovered_frac"] = (traced_wall - covered) / traced_wall
    return m


def traced_layers(workload: str, run: dict) -> Dict[str, float]:
    traced = [op for op in run["traced"] if "scale" in op]
    if not traced:
        return {}
    raw_wall = sum(op["wall_s"] for op in traced)
    if workload == "query-mix":
        if run.get("traced_stream") is None:
            return {}
        m = layer_metrics([run["traced_stream"]], len(traced), raw_wall)
        # cache figures are per stream, not per query
        for name in ("spectra.cache_entries", "spectra.block_cache.wasted_misses"):
            if name in m:
                m[name] *= len(traced)
    else:
        m = layer_metrics(traced, len(traced), raw_wall)
    scaled = [sum(op["wall_s"] * op["scale"] for op in ops if "scale" in op)
              for ops in (traced, run["ops"])]
    m["trace.overhead_frac"] = scaled[0] / scaled[1] - 1
    return m


# ---------------------------------------------------------------------------
# helpers and the entry point


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": load}


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def load_expected() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    fingerprint = hashlib.sha256(
        json.dumps(workloads.query_catalogue()).encode()).hexdigest()
    if expected["query-mix"]["catalogue_sha256"] != fingerprint:
        raise BenchError("the query catalogue changed; rerun bench/record.py")
    return expected


# the end-to-end metrics under the names the workloads give them
ALIASES = {
    "verify-grid": {"edges_per_s": ("items_per_s", 1, "1/s"),
                    "slice_p50_s": ("op_p50_ms", 0.001, "s")},
    "query-mix": {"lookups_per_s": ("items_per_s", 1, "1/s"),
                  "query_p50_ms": ("op_p50_ms", 1, "ms"),
                  "query_p99_ms": ("op_p99_ms", 1, "ms")},
    "tabulate-wide": {"rows_per_s": ("items_per_s", 1, "1/s")},
}


def run(workload: str, seed: int, seconds: float, trace: bool, expected: dict,
        smoke: bool) -> Tuple[dict, Dict[str, float], Dict[str, float]]:
    """(run record, metrics, the time metrics unscaled)."""
    probes = 0 if trace else 3 if smoke else SETUP_PROBES
    setups = [probe() for _ in range(probes)]
    if workload == "query-mix":
        record = run_query_mix(seed, seconds, trace, expected[workload]["digests"],
                               smoke)
        metric_fn = query_metrics
    else:
        record = run_cold(workload, seed, seconds, trace, expected[workload])
        metric_fn = cold_metrics
    record["setups"] = setups
    if trace:
        return record, traced_layers(workload, record), {}
    return record, metric_fn(record), metric_fn(record, scaled=False)


def print_command_shares(ops: List[dict]) -> None:
    """Queries, median latency and share of all latency, per command."""
    total = sum(op_times(ops, True))
    for cmd in workloads.QUERY_SIZES:
        times = op_times([op for op in ops if op["cmd"] == cmd], True)
        if times:
            print(f"  {cmd:<12} {len(times):6d} queries  p50 "
                  f"{1000 * median(times):8.3f} ms  {sum(times) / total:6.1%} of latency")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal work; fail unless every named metric is emitted")
    args = parser.parse_args(argv)
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "machine": machine()}
    try:
        spec = load_spec()
        expected = load_expected()
        WORK.mkdir(exist_ok=True)
        probe()                          # also warms the bytecode cache
        record, values, raw = run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), expected, args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    ops = record["ops"] + record["traced"]
    failures = [op for op in ops if not op["ok"]]
    if record.get("error"):
        failures.append({"key": "-", "reason": record["error"]})
    attempted = max(1, len(ops))
    failed = min(attempted, len(failures))
    for op in failures[:5]:
        print(f"FAILED {op['key']}: {op.get('reason', '')}", file=sys.stderr)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if math.isfinite(values.get(m["name"], math.nan))}
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not emitted: {', '.join(missing)}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {len(failures) / attempted:.6g} share")
    if not args.trace:
        for alias, (name, scale, unit) in ALIASES[args.workload].items():
            if name in values:
                print(f"  {alias:<40} {values[name] * scale:.6g} {unit}  (= {name})")
        if args.workload == "query-mix":
            print_command_shares(record["ops"])
        print("  unscaled times on this machine:")
        for name in ("setup_s", "items_per_s", "op_p50_ms"):
            if name in raw:
                print(f"    {name:<38} {raw[name]:.6g}")
    context["samples"] = {"operations": len(record["ops"]),
                          "traced_operations": len(record["traced"]),
                          "setup_probes": len(record["setups"])}
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if args.smoke and missing:
        return 1
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
