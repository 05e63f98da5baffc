"""gkraman benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding ``src/gkraman``.  The last line
of stdout is the result, ``{"correct", "attempted", "failed", "metrics"}``;
the line before it (``detail: {...}``) carries provenance, the workload's
rationale, sample counts, the tail percentile and the failures by cause.

``--trace 0`` measures the end-to-end metrics: the workload's seeded cycle of
operations is replayed in order, closed-loop with one client, until
``--seconds`` of operation time have been spent (and at least one whole
cycle).  Each operation's time is the median over the passes it got; the
cycle time is their sum, so the figures describe the same mix of operations
however many passes a run makes.  ``setup_s`` is the median wall time of
fresh processes doing what precedes the first operation: ``import gkraman``
for the subprocess workloads, the in-process set-up (imports, spectrum
builds, input generation) for the others.  Times are corrected for the
host's speed by the references of ``hostspeed.py``, timed around every block
of work; raw times go to the detail line.  No wrappers are installed.

``--trace 1`` measures the per-layer metrics: a fixed number of operations is
replayed alternately untraced and with every public gkraman function wrapped
in a span (in-process, or in each child process), so call counts repeat
exactly for a seed and ``trace.overhead_ratio`` is traced over untraced wall
time.  The spans are written to ``.perfbench_out/trace-<workload>-seed<N>.json``.

Operations whose outputs disagree with the independent references in
``checks.py`` make ``correct`` false.  Operations that raise or exit with
the wrong code count as failed and are kept in the mix.  ``attempted`` and
``failed`` count distinct operations of the cycle, so they repeat for a seed.
"""

import time

T_START = time.time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One BLAS thread, here and in every child, unless the caller set one: with
# one client, a second thread only spins on these small matrices.  On a
# 2-core VM `gkraman verify` took 6.3-7.0 s with one thread, 7.8-8.2 s and
# twice the CPU time with two, and up to 55 s when another process held the
# second core.
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")


class BenchmarkError(Exception):
    """The benchmark itself cannot run (not a failure of an operation)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int, scratch: Path):
    """Import, build spectra and generate inputs in this process."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    numpy_done = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[name](ROOT, seed, scratch)
    workload.setup()
    workload.startup["import_numpy_s"] = numpy_done - start
    workload.startup.setdefault("import_gkraman_s", 0.0)
    return workload


def probe(spawn, reference) -> tuple[list[float], list[float], list]:
    """Raw and host-speed corrected wall times, and records, of
    ``SETUP_PROBES`` calls of ``spawn``, each starting a fresh process."""
    raw, corrected, records = [], [], []

    def timed_spawn():
        start = time.perf_counter()
        records.append(spawn())
        return time.perf_counter() - start

    for _ in range(SETUP_PROBES):
        wall, scale = reference.around(timed_spawn)
        raw.append(wall)
        corrected.append(wall * scale)
    return raw, corrected, records


def probe_set_up(name: str, seed: int, reference) -> tuple[list[float], list[float], list]:
    """Fresh processes that only do the in-process set-up; their records
    carry the startup timings."""
    def spawn():
        spawned = time.time()
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        record["interp_s"] = record.pop("t_start") - spawned
        return record
    return probe(spawn, reference)


def probe_import(workload, reference) -> tuple[list[float], list[float], list]:
    """Fresh ``import gkraman`` processes: what a subprocess workload's
    program does before its first operation."""
    def spawn():
        proc = workload.run_python(["-c", "import gkraman"])
        if proc.returncode != 0:
            raise BenchmarkError(f"import gkraman failed:\n{proc.stderr}")
    return probe(spawn, reference)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Tally:
    """Outcomes of a sequence of operations, indexed by position in the cycle.

    ``attempted`` and ``failed`` count the cycle's distinct operations, each
    once however many passes it got, so they are the same on every run of a
    seed; an operation fails if any of its passes fails, under the cause of
    its first failure.
    """

    def __init__(self, cycle: int):
        self.times: list[list[float]] = [[] for _ in range(cycle)]
        self.raw: list[list[float]] = [[] for _ in range(cycle)]
        self.oks: list[list[bool]] = [[] for _ in range(cycle)]
        self.first_cause: dict[int, str] = {}
        self.wrong = 0
        self.busy = 0.0
        self.children: list[dict] = []

    def add(self, workload, index: int, outcome, elapsed: float):
        self.record(index, judged(workload, index, outcome), elapsed)

    def record(self, index: int, verdict: tuple, elapsed: float, scale: float = 1.0):
        """Record one judged pass: ``elapsed`` raw, ``elapsed * scale`` corrected."""
        cause, wrong, child = verdict
        self.times[index].append(elapsed * scale)
        self.raw[index].append(elapsed)
        self.oks[index].append(cause is None)
        self.busy += elapsed
        self.wrong += wrong
        if cause is not None:
            self.first_cause.setdefault(index, cause)
        if child is not None:
            self.children.append(child)

    @property
    def all_times(self) -> list[float]:
        return [t for times in self.times for t in times]

    @property
    def passes(self) -> int:
        return sum(map(len, self.times))

    @property
    def attempted(self) -> int:
        return sum(1 for times in self.times if times)

    @property
    def failed(self) -> int:
        return len(self.first_cause)

    @property
    def causes(self) -> Counter:
        return Counter(self.first_cause.values())

    def cycle_s(self, raw: bool = False) -> float:
        """Time of one pass of the cycle: each operation's median over its passes."""
        return sum(statistics.median(times) for times in (self.raw if raw else self.times))

    def ok_per_cycle(self, weights=None) -> float:
        """Successful operations (or work units) per pass of the cycle."""
        weights = weights or [1] * len(self.oks)
        return sum(w * sum(ok) / len(ok) for w, ok in zip(weights, self.oks))


def judged(workload, index: int, outcome) -> tuple:
    """(failure cause or None, whether a reported success is wrong, the
    child's trace record or None) of one outcome."""
    return (*workload.judge(workload.ops[index], outcome), getattr(outcome, "child", None))


def timed_op(workload, index: int, tracer=None):
    start = time.perf_counter()
    outcome = workload.execute(workload.ops[index], tracer)
    return outcome, time.perf_counter() - start


def run_op(workload, index: int, tally: Tally, tracer=None):
    outcome, elapsed = timed_op(workload, index, tracer)
    tally.add(workload, index, outcome, elapsed)  # checks run outside the timed region


def closed_loop(workload, seconds: float, reference) -> Tally:
    """Replay the cycle in order until ``seconds`` of operation time are
    spent, and at least one whole cycle, in blocks of about the reference's
    ``BLOCK_S``; the reference, timed around each block, corrects the block's
    times for the host's speed."""
    cycle = len(workload.ops)
    tally = Tally(cycle)
    i = 0

    def run_block():
        nonlocal i
        block, spent = [], 0.0
        while (not block or spent < reference.BLOCK_S) and \
                (tally.busy + spent < seconds or i < cycle):
            outcome, elapsed = timed_op(workload, i % cycle)
            # Checks run outside the timed region, at once, so no outcome is
            # kept: keeping a block's outcomes raised peak RSS by up to 40%.
            block.append((i % cycle, judged(workload, i % cycle, outcome), elapsed))
            spent += elapsed
            i += 1
        return block

    while tally.busy < seconds or i < cycle:
        block, scale = reference.around(run_block)
        for index, verdict, elapsed in block:
            tally.record(index, verdict, elapsed, scale)
    return tally


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"ms": 1e3 * sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_run(workload, tracer) -> tuple[Tally, float]:
    """Replay the first ``traced_ops`` operations alternately untraced and
    traced, so drift and warm caches favour neither; returns the traced
    tally and the traced over untraced time."""
    plain, traced = Tally(workload.traced_ops), Tally(workload.traced_ops)
    for i in range(workload.traced_ops):
        run_op(workload, i, plain)
        if workload.in_process:
            tracer.install()
            try:
                run_op(workload, i, traced)
            finally:
                tracer.uninstall()
        else:
            run_op(workload, i, traced, tracer)
    return traced, traced.busy / plain.busy


def layer_metrics(tracer, startups: list[dict], overhead: float) -> dict:
    summary = tracer.summary()

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def mean(name, key="total_s", scale=1e6):
        return scale * summary[name][key] / calls(name) if calls(name) else 0.0

    def per(count, base):
        return count / base if base else 0.0

    def median_ms(key):
        values = [r[key] for r in startups if r.get(key)]
        return 1e3 * statistics.median(values) if values else 0.0

    states_built = calls("states.nonlinear_cs") + calls("states.gkcs")
    runs = calls("protocol.run_protocol")
    verifies = calls("verify.run_all_suites")
    points = sum(tracer.notes.get("grid_points", []))
    n_trunc = tracer.notes.get("n_trunc", [])
    under_sweep = sum(summary[n]["under"].get("evolution.equivalence_experiment", 0)
                      for n in ("evolution.closed_form_I", "evolution.closed_form_eff")
                      if n in summary)
    decompose = summary.get("protocol.decompose_superposition")
    oracle_total = summary.get("evolution.oracle_evolve", {}).get("total_s", 0.0)

    metrics = {
        "cli.interp_ms": median_ms("interp_s"),
        "cli.import_numpy_ms": median_ms("import_numpy_s"),
        "cli.import_gkraman_ms": median_ms("import_gkraman_s"),
        "cli.main_ms": mean("cli.main", scale=1e3),
        "deformation.get_spec_us": mean("deformation.get_spec"),
        "deformation.get_spec_calls": calls("deformation.get_spec"),
        "fockspace.choose_truncation_us": mean("fockspace.choose_truncation"),
        "fockspace.choose_truncation_calls_per_state": per(calls("fockspace.choose_truncation"),
                                                           states_built),
        "fockspace.n_trunc_p50": statistics.median(n_trunc) if n_trunc else 0,
        "fockspace.n_trunc_max": max(n_trunc, default=0),
        "states.gkcs_us": mean("states.gkcs"),
        "states.gkcs_calls": calls("states.gkcs"),
        "states.nonlinear_cs_us": mean("states.nonlinear_cs"),
        "evolution.closed_form_coeffs_us": mean("evolution.closed_form_coeffs"),
        "evolution.closed_form_coeffs_calls": calls("evolution.closed_form_coeffs"),
        "evolution.closed_form_eff_us": mean("evolution.closed_form_eff"),
        "evolution.closed_form_eff_calls": calls("evolution.closed_form_eff"),
        "protocol.inject_atom_us": mean("protocol.inject_atom"),
        "protocol.inject_atom_calls": calls("protocol.inject_atom"),
        "protocol.inject_atom_calls_per_run": per(calls("protocol.inject_atom"), runs),
        "protocol.decompose_superposition_us": mean("protocol.decompose_superposition"),
        "protocol.decompose_fail_ratio": per(decompose["errors"].get("IllConditioned", 0),
                                             decompose["calls"]) if decompose else 0.0,
        "protocol.report_lines_us": mean("protocol.protocol_report_lines"),
        "protocol.run_protocol_self_us": mean("protocol.run_protocol", "self_s"),
        "evolution.closed_form_I_us": mean("evolution.closed_form_I"),
        "evolution.closed_form_I_calls": calls("evolution.closed_form_I"),
        "evolution.closed_form_calls_per_point": per(under_sweep, points),
        "evolution.equivalence_experiment_self_ms": mean("evolution.equivalence_experiment",
                                                         "self_s", 1e3),
        "evolution.oracle_evolve_s": per(oracle_total, verifies),
        "evolution.oracle_steps": per(sum(tracer.notes.get("oracle_steps", [])), verifies),
        "hamiltonian.build_H_I_us": mean("hamiltonian.build_H_I"),
        "hamiltonian.build_H_I_calls": calls("hamiltonian.build_H_I"),
    }
    for suite in ("spectrum", "eigenstate", "temporal_stability", "action_identity",
                  "hermiticity", "propagator", "collapse"):
        metrics[f"verify.{suite}_ms"] = mean(f"verify.{suite}_suite", scale=1e3)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    sha = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gkraman").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def run(args, spec: dict, scratch: Path) -> tuple[dict, dict]:
    from hostspeed import Process
    from workloads import WORKLOADS
    in_process = WORKLOADS[args.workload].in_process
    process_reference = Process()
    setup_raw, setup_walls, probes = [], [], []
    if in_process:
        setup_raw, setup_walls, probes = probe_set_up(args.workload, args.seed,
                                                      process_reference)
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
        if in_process:
            # Set up under the tracer so spectrum builds and input states show.
            workload.import_gkraman()
            tracer.install()
            try:
                workload.setup()
            finally:
                tracer.uninstall()
        else:
            workload.setup()
    else:
        workload = set_up(args.workload, args.seed, scratch)
        if not in_process:
            setup_raw, setup_walls, _ = probe_import(workload, process_reference)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    detail = {"workload": workload.name, "why": why, "operation": workload.operation,
              "provenance": provenance(args.seed)}

    if args.trace:
        tally, overhead = traced_run(workload, tracer)
        metrics = layer_metrics(tracer, probes or tally.children, overhead)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"detail": detail, "summary": tracer.summary()})
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        tally = closed_loop(workload, args.seconds, workload.reference())
        cycle_s = tally.cycle_s()
        metrics = {"setup_s": statistics.median(setup_walls),
                   "peak_rss_mb": peak_rss_mb(workload),
                   "op.mean_ms": 1e3 * cycle_s / len(workload.ops),
                   "op.ok_per_s": tally.ok_per_cycle() / cycle_s}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units_per_cycle = [workload.work_units(op) for op in workload.ops]
        detail.update(cycle_ops=len(workload.ops), measured_s=tally.busy,
                      ok_units_per_s=tally.ok_per_cycle(units_per_cycle) / cycle_s,
                      fail_ratio=tally.failed / tally.attempted, tail=tail(tally.all_times),
                      raw_op_mean_ms=1e3 * tally.cycle_s(raw=True) / len(workload.ops),
                      host_slowdown=tally.cycle_s(raw=True) / cycle_s,
                      raw_setup_s=statistics.median(setup_raw), setup_samples_s=setup_walls)

    detail.update(samples=tally.passes, failures=dict(tally.causes), wrong_results=tally.wrong)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return detail, result


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in this process, print startup timings and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gkraman" / "__init__.py").is_file():
        print(f"perfbench: no gkraman source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            workload = set_up(args.workload, args.seed, scratch)
            print(json.dumps(dict(workload.startup, t_start=T_START)))
            return 0
        detail, result = run(args, spec, scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
