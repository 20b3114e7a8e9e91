"""The benchmark's own tests: ``python3 -m pytest bench`` from the repo root.

They run every workload in ``--smoke`` mode, so they take about half a
minute, and are not part of the library's test suite.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_named_metric(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "failed_frac" in proc.stdout


def checkout_copy(tmp_path):
    """BENCHMARK.json, bench/ and src/ copied into a fresh checkout."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("workload", ["tabulate-wide", "query-mix"])
def test_tampered_expectation_counts_as_failed(tmp_path, workload):
    checkout = checkout_copy(tmp_path)
    path = checkout / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    if workload == "query-mix":
        expected[workload]["digests"] = ["0" * 16] * len(expected[workload]["digests"])
    else:
        n, r = next(workloads.grid_order(5, workload))
        expected[workload][workloads.grid_key(n, r)] = "0" * 64
    path.write_text(json.dumps(expected))
    proc, result = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                         "--smoke", cwd=checkout)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    frac = [line.split()[1] for line in proc.stdout.splitlines()
            if line.split()[:1] == ["failed_frac"]]
    assert float(frac[0]) > 0


def test_no_result_without_the_program(tmp_path):
    checkout_copy(tmp_path)
    shutil.rmtree(tmp_path / "src")
    proc, result = bench("--workload", "verify-grid", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_generators_are_seeded():
    take = lambda it, k: [next(it) for _ in range(k)]  # noqa: E731
    assert take(workloads.query_stream(7), 50) == take(workloads.query_stream(7), 50)
    assert take(workloads.query_stream(7), 50) != take(workloads.query_stream(8), 50)
    first = take(workloads.grid_order(7, "verify-grid"), 15)
    assert sorted(first) == sorted((n, r) for n in workloads.GRID_N for r in workloads.GRID_R)
    for k in range(0, 15, 3):
        assert sorted(n for n, _ in first[k:k + 3]) == list(workloads.GRID_N)


def test_self_time_subtracts_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert tracer.total["outer"] >= tracer.total["inner"]
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"])
    assert tracer.covered == tracer.total["outer"]


def test_missing_cache_is_left_out(monkeypatch):
    from twistor_spectra import spectra
    assert set(tracing.cache_stats()) == set(tracing.CACHES)
    monkeypatch.delattr(spectra, "_z_cached")
    monkeypatch.setattr(spectra, "_w_cached", object())
    assert set(tracing.cache_stats()) == set(tracing.CACHES) - {"z", "w"}


def test_unwrapped_span_is_left_out():
    trace = {"calls": {"exact.ratio_tagged": 4, "cli.main": 2},
             "self": {"exact.ratio_tagged": 0.5, "cli.main": 1.0},
             "total": {"exact.ratio_tagged": 0.5, "cli.main": 1.5},
             "covered": 1.5, "edges": {}, "skipped": {}}
    m = run.layer_metrics([{"trace": trace, "caches": {}}], 2, 2.0)
    assert m["exact.ratio_tagged.calls"] == 2 and m["cli.self.s"] == 0.5
    assert m["trace.uncovered_frac"] == 0.25
    assert "operators.case3_data.calls" not in m
    assert "spectra.cache_entries" not in m
