"""Record the outputs the benchmark checks against, into ``expected.json``.

Run from the root of a checkout, only when the program's output is meant to
change::

    python3 bench/record.py

Each grid slice and tabulation runs cold in its own worker; the query
catalogue is answered in order by one worker.  Every recorded operation must
exit 0, and every verify report must say ``"ok": true``.
"""
import hashlib
import json
import shutil
import sys

import run
import workloads


def record_cold(workload: str) -> dict:
    digests = {}
    out = run.WORK / f"{workload}.out"
    build = workloads.verify_argv if workload == "verify-grid" else workloads.tabulate_argv
    for n in workloads.GRID_N:
        for r in workloads.GRID_R:
            result, _, _, err = run.spawn(["cold", json.dumps(build(n, r, str(out)))])
            if result is None or result["code"] != 0:
                sys.exit(f"{workload} {n} {r} failed: {err}")
            if workload == "verify-grid":
                with open(out, encoding="utf-8") as fh:
                    if json.load(fh)["ok"] is not True:
                        sys.exit(f"verify {n} {r} is not ok")
            digests[workloads.grid_key(n, r)] = run.sha256(out)
            print(workload, n, r, digests[workloads.grid_key(n, r)][:12], flush=True)
    return digests


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    try:
        expected = {w: record_cold(w) for w in ("verify-grid", "tabulate-wide")}
        result, _, _, err = run.spawn(["catalogue"])
        if result is None:
            sys.exit(f"query catalogue failed: {err}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    catalogue = workloads.query_catalogue()
    fingerprint = hashlib.sha256(json.dumps(catalogue).encode()).hexdigest()
    expected["query-mix"] = {"catalogue_sha256": fingerprint,
                             "digests": result["digests"]}
    with open(run.BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
