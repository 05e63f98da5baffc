"""Print every end-to-end metric of every workload, by name with its unit,
together with the correctness-check result and the failures by cause.

usage: python3 perfbench/summary.py [--seed N] [--seconds S]

Each workload runs in its own ``run.py`` process with ``--trace 0``, exactly
as a benchmark run measures it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(name: str, seed: int, seconds: float, trace: int = 0, root: Path = ROOT):
    """Run one workload; returns (exit code, detail dict or None, result dict or None)."""
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2][len("detail: "):]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    for workload in spec["workloads"]:
        code, detail, result = run_workload(workload["name"], args.seed, args.seconds)
        print(f"== {workload['name']}: {workload['why']}")
        if result is None:
            print(f"   benchmark run failed (exit {code})")
            all_correct = False
            continue
        all_correct &= result["correct"]
        print(f"   correct: {result['correct']}  attempted: {result['attempted']}  "
              f"failed: {result['failed']}  {detail['failures'] or ''}")
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            print(f"   {metric['name']:<22} {value['value']:>14.4f} {value['unit']}")
        tail = detail["tail"]
        print(f"   {'tail':<22} " + (f"{tail['ms']:.4f} ms at p{tail['percentile']:.1f} of "
                                      f"{tail['samples']} samples" if tail else
                                      "n/a (fewer than 11 samples)"))
        print(f"   {'fail_ratio':<22} {detail['fail_ratio']:>14.4f}")
        print(f"   {'ok_units_per_s':<22} {detail['ok_units_per_s']:>14.4f} 1/s")
        print(f"   {'raw op.mean_ms':<22} {detail['raw_op_mean_ms']:>14.4f} ms "
              f"(host slowdown {detail['host_slowdown']:.3f})")
        print(f"   {'raw setup_s':<22} {detail['raw_setup_s']:>14.4f} s")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
