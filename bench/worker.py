"""One benchmark worker process; ``run.py`` starts it.

Usage::

    python3 bench/worker.py probe
    python3 bench/worker.py cold '<argv as JSON>' [--trace]
    python3 bench/worker.py catalogue
    python3 bench/worker.py stream --seed N --seconds S --min-queries M
                                   --warmup W [--max-queries Q] [--trace]

The worker imports ``twistor_spectra`` from the checkout's ``src``.
``probe`` reports the moment it became ready for a first operation
(``ready``, on the system-wide monotonic clock, so the parent can subtract
its spawn time) and the reference time just after.  ``cold`` runs one CLI
command.  ``stream`` answers a seeded query stream
through ``cli.main`` in this one long-lived process, one query at a time.
``catalogue`` answers every query the stream can send, in order, so that
``record.py`` can store their digests.  Every timed mode also times a fixed
reference loop during its work (``ref_s``), which ``run.py`` uses to cancel
changes in the speed of a shared machine; the time spent in it
(``ref_spent_s``) is left out of every latency.  The last line of standard
output is one JSON object with the results.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import twistor_spectra.cli  # noqa: E402  (setup is timed up to here)

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WINDOW = 50           # stream queries between two reference timings
SAMPLE_S = 0.1        # interval of reference timings during a cold run


REF_SPENT = [0.0]     # wall time this process spent in reference()


def reference(reps: int = 1) -> float:
    """Median time of a fixed exact-arithmetic loop that uses no library code.

    The library spends its time in the same ``fractions`` and ``math.gcd``
    code, so the loop slows down with it when other tenants load the host.
    The cyclic garbage collector is paused, so that the size of this
    process's heap (the library caches) does not change the timing.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            total = Fraction(0)
            for i in range(1, 600):
                total += Fraction(1, i % 97 + 1)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    REF_SPENT[0] += sum(times)
    return statistics.median(times)


def rss_mb() -> float:
    """Current resident set size."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    """High-water resident set size of this process image.

    ``ru_maxrss`` is not used where ``VmHWM`` exists: on Linux it carries the
    parent's resident size at fork across ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(text: str, code: int) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


def call(argv):
    """Run one CLI command; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = twistor_spectra.cli.main(argv)
        except SystemExit as exc:   # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def start_trace(enabled: bool):
    if not enabled:
        return None, []
    tracer = tracing.Tracer()
    return tracer, tracing.install(tracer)


def trace_payload(tracer, missing) -> dict:
    if tracer is None:
        return {}
    return {"trace": tracer.summary(), "missing": missing,
            "caches": tracing.cache_stats()}


def run_cold(argv, trace: bool) -> dict:
    """One CLI command, with the reference timed every SAMPLE_S during it.

    A cold run lasts seconds, longer than the machine keeps one speed, so
    timings before and after it would not describe it.  A traced run is not
    sampled, so that no reference time lands inside a span.
    """
    tracer, missing = start_trace(trace)
    rss0 = rss_mb()
    refs = [reference(3)]
    signal.signal(signal.SIGALRM, lambda *_: refs.append(reference()))
    if not trace:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        code, text = call(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    refs.append(reference(3))
    out = {"code": code, "stdout_bytes": len(text.encode()),
           "rss_growth_mb": rss_mb() - rss0, "peak_rss_mb": peak_rss_mb(),
           "ref_s": statistics.median(refs), "ref_spent_s": REF_SPENT[0]}
    out.update(trace_payload(tracer, missing))
    return out


def run_stream(seed: int, seconds: float, min_queries: int, warmup: int,
               max_queries: int, trace: bool) -> dict:
    catalogue = workloads.query_catalogue()
    stream = workloads.query_stream(seed)
    for _ in range(warmup):
        call(catalogue[next(stream)])
    gc.collect()
    rss_warm = rss_mb()
    tracer, missing = start_trace(trace)     # spans cover the timed queries only
    indices, latencies, digests, refs = [], [], [], []
    out_bytes = 0
    checkpoint = None
    t_start = time.perf_counter()
    while True:
        done = len(indices)
        if done % WINDOW == 0:
            refs.append(reference(3))
        if max_queries:
            if done >= max_queries:
                break
        elif done >= min_queries and time.perf_counter() - t_start >= seconds:
            break
        if done == min_queries:
            gc.collect()
            checkpoint = (rss_mb() - rss_warm, peak_rss_mb())
        index = next(stream)
        t0 = time.perf_counter()
        code, text = call(catalogue[index])
        latencies.append(time.perf_counter() - t0)
        indices.append(index)
        digests.append(digest(text, code))
        out_bytes += len(text.encode())
    if len(latencies) % WINDOW:
        refs.append(reference(3))
    if checkpoint is None:
        gc.collect()
        checkpoint = (rss_mb() - rss_warm, peak_rss_mb())
    out = {"indices": indices, "latency_s": latencies,
           "digests": digests, "ref_s": refs, "window": WINDOW,
           "rss_growth_mb": checkpoint[0], "peak_rss_mb": checkpoint[1],
           "stdout_bytes": out_bytes}
    out.update(trace_payload(tracer, missing))
    return out


def main(args) -> dict:
    trace = "--trace" in args
    args = [a for a in args if a != "--trace"]
    mode = args[0]
    if mode == "probe":
        return {"ready": READY, "ref_s": reference(5),
                "src": os.path.dirname(twistor_spectra.cli.__file__)}
    if mode == "cold":
        return run_cold(json.loads(args[1]), trace)
    if mode == "catalogue":
        digests = []
        for argv in workloads.query_catalogue():
            code, text = call(argv)
            digests.append(digest(text, code))
        return {"digests": digests}
    if mode == "stream":
        opts = dict(zip(args[1::2], args[2::2]))
        return run_stream(int(opts["--seed"]), float(opts["--seconds"]),
                          int(opts["--min-queries"]), int(opts["--warmup"]),
                          int(opts.get("--max-queries", 0)), trace)
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
