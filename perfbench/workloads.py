"""The benchmark's four workloads: input generation, one operation, and its check.

Every workload is closed-loop with one client.  ``setup`` builds a fixed,
seeded cycle of operations; the runner replays the cycle in order.  Each
workload stresses a different part of gkraman, so an optimisation of one
layer shows on one workload and leaves the others unchanged:

* ``cli_cold`` - fresh ``python -m gkraman`` processes: interpreter start,
  ``import gkraman`` and ``cli`` dominate; the physics barely registers.
* ``protocol_ladder`` - in-process ``run_protocol``: ``protocol``, ``states``
  and the effective closed form do all the work.
* ``detuning_sweep`` - in-process ``equivalence_experiment``: the
  interaction-picture closed forms are the whole cost.
* ``verify`` - ``gkraman verify``: the only workload that runs the
  ``hamiltonian`` builders and the stepping oracle.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import hostspeed

SPECTRA = ("harmonic", "squared", "poschl_teller")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _latin_hypercube(rng, n, dims):
    """dims rows of n points in [0, 1), one point in each of n equal strata."""
    return (np.array([rng.permutation(n) for _ in range(dims)]) + rng.uniform(size=(dims, n))) / n


def _polar(rng, modulus):
    return complex(modulus * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


class Workload:
    """Base: ``ops`` is the operation cycle, ``traced_ops`` how many of them
    one traced pass replays (a fixed number, so counts repeat exactly)."""

    name = ""
    operation = ""
    in_process = True
    traced_ops = 0
    #: Reference that corrects the operation times for the host's speed.
    reference = hostspeed.Kernel

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.ops: list = []
        self.startup: dict = {}

    def import_gkraman(self):
        start = time.perf_counter()
        sys.path.insert(0, str(self.root / "src"))
        import gkraman
        src = (self.root / "src" / "gkraman").resolve()
        if Path(gkraman.__file__).resolve().parent != src:
            raise RuntimeError(f"imported gkraman from {gkraman.__file__}, not {src}")
        self.startup["import_gkraman_s"] = time.perf_counter() - start
        self.gk = gkraman

    def setup(self):
        raise NotImplementedError

    def execute(self, op, tracer=None):
        """Run one operation; returns an outcome for ``judge``.  Timed."""
        raise NotImplementedError

    def judge(self, op, outcome) -> tuple[str | None, bool]:
        """(failure cause or None, True when a reported success is wrong)."""
        raise NotImplementedError

    def work_units(self, op) -> int:
        return 1


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

@dataclass
class ProtocolOp:
    spectrum: str
    config: object
    g: float
    delta: float
    tau: float
    epsilons: tuple


class ProtocolLadder(Workload):
    name = "protocol_ladder"
    operation = "one run_protocol + protocol_report_lines call"
    traced_ops = 720

    #: |z| ranges giving n_trunc of about 5-50 at the default tail tolerance.
    Z_RANGE = {"harmonic": (0.12, 3.6), "squared": (0.15, 22.0), "poschl_teller": (0.2, 22.0)}
    MAX_ATOMS = 12
    REPEATS = 10

    def setup(self):
        self.import_gkraman()
        gk, rng = self.gk, self.rng
        kappa = rng.uniform(0.5, 2.0)
        specs = {s: gk.get_spec(s, kappa=kappa) for s in SPECTRA}
        self.e = {s: checks.spectrum(s, kappa) for s in SPECTRA}
        ops = []
        for spectrum in SPECTRA:
            z_lo, z_hi = (math.log(v) for v in self.Z_RANGE[spectrum])
            for atoms in range(1, self.MAX_ATOMS + 1):
                for ladder in (True, False):
                    # Latin hypercube within each cell, so every seed covers the
                    # same spread of n_trunc and lambda tau.
                    cube = _latin_hypercube(rng, self.REPEATS, 4)
                    for log_z, g, delta, tau in zip(z_lo + cube[0] * (z_hi - z_lo),
                                                    0.5 + 1.5 * cube[1], 10 + 40 * cube[2],
                                                    0.2 + 1.8 * cube[3]):
                        z = _polar(rng, math.exp(log_z))
                        g, delta, tau = float(g), float(delta), float(tau)
                        eps = ((1.0,) * atoms if ladder else
                               tuple(complex(*rng.normal(size=2)) for _ in range(atoms)))
                        config = gk.ProtocolConfig(z=z, spec=specs[spectrum],
                                                   params=gk.RamanParams(g, g, delta),
                                                   tau=tau, epsilons=eps)
                        ops.append(ProtocolOp(spectrum, config, g, delta, tau, config.epsilons))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, op, tracer=None):
        try:
            result = self.gk.run_protocol(op.config)
            return result, self.gk.protocol_report_lines(result)
        except Exception as exc:  # the failure is the measurement
            return exc

    def judge(self, op, outcome):
        if isinstance(outcome, Exception):
            return type(outcome).__name__, False
        result, lines = outcome
        problem = (checks.check_protocol(result, self.e[op.spectrum], op.config.z, op.g,
                                         op.delta, op.tau, op.epsilons, op.config.tail_tol)
                   or checks.check_report_lines(lines, len(op.epsilons)))
        return (f"check: {problem}", True) if problem else (None, False)


@dataclass
class SweepOp:
    spectrum: str
    spec: object
    field: object
    g1: float
    g2: float
    atom: tuple
    deltas: np.ndarray
    times: np.ndarray
    spot: list


class DetuningSweep(Workload):
    name = "detuning_sweep"
    operation = "one equivalence_experiment on a 10x10 delta x t grid"
    traced_ops = 3

    #: |z| ranges giving n_trunc of about 9-40; grid k of the cycle draws |z|
    #: from stratum k of its spectrum's range, so every seed spans it evenly.
    Z_RANGE = {"harmonic": (0.35, 3.1), "squared": (0.8, 16.0), "poschl_teller": (1.0, 17.0)}
    CYCLE = 6
    GRID = 10
    SPOT_CHECKS = 8

    def setup(self):
        self.import_gkraman()
        gk, rng = self.gk, self.rng
        kappa = rng.uniform(0.5, 2.0)
        specs = {s: gk.get_spec(s, kappa=kappa) for s in SPECTRA}
        self.e = {s: checks.spectrum(s, kappa) for s in SPECTRA}
        for k in range(self.CYCLE):
            spectrum = SPECTRA[k % 3]
            lo, hi = (math.log(v) for v in self.Z_RANGE[spectrum])
            z = _polar(rng, math.exp(lo + (k + rng.uniform()) * (hi - lo) / self.CYCLE))
            spec = specs[spectrum]
            field_state = gk.nonlinear_cs(z, spec, gk.choose_truncation(z, spec))
            atom = rng.normal(size=2) + 1j * rng.normal(size=2)
            atom = tuple(complex(a) for a in atom / np.linalg.norm(atom))
            t_max = rng.uniform(0.5, 3.0)
            spot = [(int(i), int(j)) for i, j in
                    rng.integers(0, self.GRID, size=(self.SPOT_CHECKS, 2))]
            self.ops.append(SweepOp(
                spectrum, spec, field_state, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), atom,
                np.geomspace(rng.uniform(3, 8), rng.uniform(60, 150), self.GRID),
                np.linspace(t_max / self.GRID, t_max, self.GRID), spot))

    def work_units(self, op):
        return len(op.deltas) * len(op.times)

    def execute(self, op, tracer=None):
        try:
            return self.gk.equivalence_experiment(op.deltas, op.g1, op.g2, op.spec, op.field,
                                                  op.atom, op.times)
        except Exception as exc:  # the failure is the measurement
            return exc

    def judge(self, op, outcome):
        if isinstance(outcome, Exception):
            return type(outcome).__name__, False
        if len(outcome) != self.work_units(op):
            return "check: row count", True
        amps = op.field.amplitudes
        for i, j in op.spot:
            problem = checks.check_sweep_row(outcome[i * self.GRID + j], self.e[op.spectrum],
                                             amps, op.g1, op.g2, op.atom)
            if problem:
                return f"check: {problem}", True
        return None, False


# ---------------------------------------------------------------------------
# Subprocess workloads
# ---------------------------------------------------------------------------

@dataclass
class CliOp:
    command: str
    path: Path
    kind: str                       # "valid" or the out-of-range key
    values: dict
    e: np.ndarray


@dataclass
class Finished:
    code: int
    stdout: str
    stderr: str
    child: dict | None = None


class SubprocessWorkload(Workload):
    in_process = False
    reference = hostspeed.Process

    def run_python(self, argv: list[str]) -> subprocess.CompletedProcess:
        """A fresh interpreter on ``argv``, importing gkraman from the source tree."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run([sys.executable, *argv], cwd=self.root, env=env,
                              capture_output=True, text=True, stdin=subprocess.DEVNULL,
                              timeout=150)

    def run_cli(self, args: list[str], tracer=None) -> Finished:
        if tracer is None:
            proc = self.run_python(["-m", "gkraman", *args])
            return Finished(proc.returncode, proc.stdout, proc.stderr)
        trace_file = self.scratch / "child-trace.json"
        spawned = time.time()
        proc = self.run_python([str(Path(__file__).with_name("child.py")), str(trace_file), *args])
        child = None
        if trace_file.exists():
            child = json.loads(trace_file.read_text())
            trace_file.unlink()
            child["interp_s"] = child.pop("t_start") - spawned
            tracer.merge(child)
        return Finished(proc.returncode, proc.stdout, proc.stderr, child)


def _cause(done: Finished) -> str:
    cause = f"exit {done.code}"
    if "Traceback (most recent call last)" in done.stderr:
        last = done.stderr.strip().splitlines()[-1]
        cause += ": " + last.split(":", 1)[0].rsplit(".", 1)[-1]
    return cause


class CliCold(SubprocessWorkload):
    name = "cli_cold"
    operation = "one fresh python -m gkraman state/protocol/equivalence process"
    traced_ops = 25

    #: One cycle: every fifth scenario is schema-valid but out of range.
    CYCLE = 25
    OUT_OF_RANGE = (("tau_nan", "protocol"), ("delta_inf", "protocol"),
                    ("g1_negative", "equivalence"), ("n_trunc_beyond_cache", "state"),
                    ("tail_tol_2", "protocol"))
    SPECTRA = SPECTRA + ("tabulated",)
    Z_RANGE = {"harmonic": (0.12, 3.0), "squared": (0.15, 15.0),
               "poschl_teller": (0.2, 15.0), "tabulated": (0.15, 4.0)}

    def setup(self):
        rng = self.rng
        power = rng.uniform(1.2, 1.8)
        table = np.arange(301, dtype=float) ** power
        table_path = self.scratch / "spectrum.txt"
        table_path.write_text("".join(f"{float(v)!r}\n" for v in table))
        kappa = rng.uniform(0.5, 2.0)
        e = {s: checks.spectrum(s, kappa, table) for s in self.SPECTRA}
        valid = 0
        for slot in range(self.CYCLE):
            if slot % 5 == 4:
                kind, command = self.OUT_OF_RANGE[slot // 5]
            else:
                kind, command = "valid", ("state", "protocol", "equivalence")[valid % 3]
                step = valid // 3
                valid += 1
            spectrum = self.SPECTRA[slot % 4]
            values = {"kappa": kappa} if spectrum == "poschl_teller" else {}
            if spectrum == "tabulated":
                values["spectrum_table"] = str(table_path)
            else:
                values["spectrum"] = spectrum
            z = _polar(rng, _log_uniform(rng, *self.Z_RANGE[spectrum]))
            values.update(z_re=z.real, z_im=z.imag)
            if command == "state":
                if rng.uniform() < 0.5:
                    values.update(family="gk", alpha=rng.uniform(-2.0, 2.0))
            else:
                g = rng.uniform(0.5, 2.0)
                values.update(g1=g, g2=g if command == "protocol" else rng.uniform(0.5, 2.0))
            if command == "protocol":
                atoms = 1 + step % 5 if kind == "valid" else int(rng.integers(1, 6))
                ladder = (step // 5) % 2 == 0 if kind == "valid" else True
                values.update(delta=rng.uniform(10, 50), tau=rng.uniform(0.2, 2.0),
                              epsilons=[1.0] * atoms if ladder else
                              [complex(*rng.normal(size=2)) for _ in range(atoms)])
            elif command == "equivalence":
                atom = rng.normal(size=2) + 1j * rng.normal(size=2)
                values.update(deltas=list(np.geomspace(rng.uniform(3, 8), rng.uniform(40, 120),
                                                       int(rng.integers(2, 5)))),
                              times=list(np.linspace(0.1, rng.uniform(0.5, 2.5),
                                                     int(rng.integers(2, 5)))),
                              atom_g=complex(atom[0]), atom_e=complex(atom[1]))
            values.update({"tau_nan": {"tau": float("nan")}, "delta_inf": {"delta": float("inf")},
                           "g1_negative": {"g1": -1.0},
                           "n_trunc_beyond_cache": {"n_trunc": 100000},
                           "tail_tol_2": {"tail_tol": 2.0}}.get(kind, {}))
            path = self.scratch / f"scenario-{slot:02d}.cfg"
            path.write_text("".join(f"{k} = {self._fmt(v)}\n" for k, v in values.items()))
            self.ops.append(CliOp(command, path, kind, values, e[spectrum]))

    @staticmethod
    def _fmt(value) -> str:
        """Exact text for a scenario value (repr round-trips floats bit for bit)."""
        if isinstance(value, list):
            return ", ".join(CliCold._fmt(v) for v in value)
        if isinstance(value, complex):
            return repr(complex(value))
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    def execute(self, op, tracer=None):
        return self.run_cli([op.command, "--config", str(op.path), "--out", "-"], tracer)

    def judge(self, op, done: Finished):
        if op.kind != "valid":
            ok = done.code in (2, 3, 4) and "Traceback" not in done.stderr
            return (None, False) if ok else (f"{op.kind}: {_cause(done)}", False)
        if done.code != 0 or "Traceback" in done.stderr:
            return f"{op.command}: {_cause(done)}", False
        try:
            problem = getattr(self, f"_check_{op.command}")(op, done.stdout.splitlines())
        except (ValueError, IndexError) as exc:
            problem = f"unparseable output ({exc})"
        return (f"{op.command}: check: {problem}", True) if problem else (None, False)

    def _ref_size(self, op) -> tuple[complex, float, int]:
        v = op.values
        z, tol = complex(v["z_re"], v["z_im"]), v.get("tail_tol", 1e-12)
        return z, tol, checks.truncation(op.e, z, tol)[0]

    def _check_state(self, op, lines):
        z, tol, _ = self._ref_size(op)
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        n = len(rows)
        if lines[0] != "n,amplitude_re,amplitude_im" or not np.array_equal(rows[:, 0], np.arange(n)):
            return "layout"
        amps = rows[:, 1] + 1j * rows[:, 2]
        if abs(np.linalg.norm(amps) - 1.0) > checks.TOL:
            return "not normalized"
        if not checks.truncation_ok(op.e, z, tol, n):
            return "truncation"
        ref = checks.gk_state(op.e, z, op.values.get("alpha", 0.0), n)
        return "amplitudes" if 1.0 - checks.fidelity(amps, ref) > checks.TOL else None

    def _check_protocol(self, op, lines):
        v = op.values
        z, _, n = self._ref_size(op)
        eps = [complex(x) for x in v["epsilons"]]
        problem = checks.check_report_lines(lines, len(eps))
        if problem:
            return problem
        probs, fields, alphas = checks.protocol_reference(op.e, z, n, v["g1"], v["delta"],
                                                          v["tau"], eps)
        for line, p, f, a in zip(lines[1:], probs, fields, alphas):
            _, _, _, p_out, a_out, fid_out = (float(x) for x in line.split(","))
            if abs(p_out - p) > checks.TOL or abs(a_out - a) > checks.TOL * max(1, abs(a)):
                return "detection probability or label"
            if abs(fid_out - checks.fidelity(f, checks.gk_state(op.e, z, a, n))) > checks.TOL:
                return "fidelity to GK state"
        return None

    def _check_equivalence(self, op, lines):
        v = op.values
        z, _, n = self._ref_size(op)
        field_amps = checks.gk_state(op.e, z, 0.0, n)
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if len(rows) != len(v["deltas"]) * len(v["times"]):
            return "row count"
        atom = (v["atom_g"], v["atom_e"])
        for delta, t, infid, leak, flag in rows:
            if t == 0.0:
                continue
            ref = checks.sweep_point(op.e, field_amps, v["g1"], v["g2"], delta, atom, t)
            if abs(infid - ref[0]) > checks.TOL or abs(leak - ref[1]) > checks.TOL:
                return "infidelity or upper-level population"
            if bool(flag) != ref[2]:
                return "validity flag"
        return None


class Verify(SubprocessWorkload):
    name = "verify"
    operation = "one gkraman verify process (fixed built-in suites; the seed changes nothing)"
    traced_ops = 1
    reference = hostspeed.Sampled  # 6 s in a child: sampled while it runs

    def setup(self):
        self.ops = ["verify"]

    def execute(self, op, tracer=None):
        return self.run_cli([op], tracer)

    def judge(self, op, done: Finished):
        lines = done.stdout.strip().splitlines()
        if done.code == 0 and lines and lines[-1] == "verify: all suites passed":
            return None, False
        return _cause(done), done.code == 1


WORKLOADS = {w.name: w for w in (CliCold, ProtocolLadder, DetuningSweep, Verify)}
