"""Self-test of the benchmark.

usage: python3 perfbench/selftest.py

Checks that
* ``BENCHMARK.json`` matches the metrics ``run.py`` reports;
* every workload runs, passes its correctness checks and reports exactly
  the declared end-to-end metrics (short ``--trace 0`` runs);
* two traced runs with one seed give identical call counts, and report
  exactly the declared per-layer metrics;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from summary import ROOT, run_workload

#: Units of the per-layer metrics that are counts or ratios of counts, which
#: must repeat exactly for a seed (times, and time ratios in s/s, need not).
EXACT_UNITS = ("count", "ratio")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        code, _, result = run_workload(workload, seed=7, seconds=1)
        if result is None:
            problems.append(f"{workload}: untraced run exited {code}")
            continue
        if set(result["metrics"]) != end_to_end:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"{workload}: correctness checks failed")

        counts = []
        for _ in range(2):
            code, _, result = run_workload(workload, seed=7, seconds=1, trace=1)
            if result is None:
                problems.append(f"{workload}: traced run exited {code}")
                break
            if set(result["metrics"]) != per_layer:
                problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
            counts.append({k: v["value"] for k, v in result["metrics"].items() if k in exact})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            problems.append(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: checked", flush=True)

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = run_workload(spec["workloads"][0]["name"], seed=7, seconds=1,
                                       root=bare)
        if code == 0 or result is not None:
            problems.append("benchmark ran without a gkraman source tree")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
