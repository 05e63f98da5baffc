"""Command-line front end.

Subcommands::

    gkraman state       --config FILE [--out FILE]   dump a coherent-state amplitude table
    gkraman protocol    --config FILE [--out FILE]   run the atom-injection scheme
    gkraman equivalence --config FILE [--out FILE]   interaction vs effective propagator sweep
    gkraman verify      [--config FILE] [--verbose]  run the invariant suites

Configs are flat ``key = value`` text files ('#' starts a comment); lists are
comma-separated.  Exit codes: 0 success, 1 verification failure, 2 config
error or out-of-range value, 3 divergent state expansion, 4 improbable
postselection.  Each handler imports the modules its command runs, and only those.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import deformation
from .deformation import DeformationSpec
from .errors import DetectionImprobable, DivergentSeries, NonPhysicalSpectrum
from .fockspace import _FMT, DEFAULT_DETECTION_FLOOR, DEFAULT_TAIL_TOL, _n_trunc_for
from .states import GKLabel, gkcs, nonlinear_cs


class ConfigError(ValueError):
    """A scenario file violates the documented schema."""


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def _as_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _list_of(convert):
    return lambda text: tuple(convert(part) for part in text.split(",") if part.strip())


def _as_choice(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text
    return convert


def _key(default, parse):
    """A scenario key: its default and the parser of its text value."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class ScenarioConfig:
    """Parsed scenario file; every command reads the subset it needs."""

    spectrum: str = _key("harmonic", _as_choice(*sorted(deformation.REGISTRY)))
    spectrum_table: str | None = _key(None, str)
    kappa: float = _key(1.0, float)
    z_re: float = _key(0.0, float)
    z_im: float = _key(0.0, float)
    alpha: float = _key(0.0, float)
    family: str | None = _key(None, _as_choice("nonlinear", "gk"))
    g1: float | None = _key(None, float)
    g2: float | None = _key(None, float)
    delta: float | None = _key(None, float)
    tau: float | None = _key(None, float)
    epsilons: tuple[complex, ...] = _key((), _list_of(_as_complex))
    n_trunc: int | None = _key(None, int)
    tail_tol: float = _key(DEFAULT_TAIL_TOL, float)
    detection_floor: float = _key(DEFAULT_DETECTION_FLOOR, float)
    deltas: tuple[float, ...] = _key((), _list_of(float))
    times: tuple[float, ...] = _key((), _list_of(float))
    atom_g: complex = _key(2.0 ** -0.5, _as_complex)
    atom_e: complex = _key(2.0 ** -0.5, _as_complex)
    out: str | None = _key(None, str)

    @property
    def z(self) -> complex:
        return complex(self.z_re, self.z_im)

    def require(self, *names: str):
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"missing required key(s): {', '.join(missing)}")


#: Scenario key -> parser of its text value.
_SCHEMA = {f.name: f.metadata["parse"] for f in fields(ScenarioConfig)}


def load_scenario(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            parsed = _SCHEMA[key](value)
            numbers = parsed if isinstance(parsed, tuple) else (parsed,)
            if any(isinstance(x, (float, complex)) and not cmath.isfinite(x) for x in numbers):
                raise ValueError(f"{value!r} is not finite")
            values[key] = parsed
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return ScenarioConfig(**values)


def build_spec(config: ScenarioConfig) -> DeformationSpec:
    try:
        if config.spectrum_table is not None:
            return deformation.load_spectrum_table(config.spectrum_table)
        return deformation.get_spec(config.spectrum, kappa=config.kappa)
    except (NonPhysicalSpectrum, OSError, ValueError) as exc:
        raise ConfigError(f"invalid spectrum: {exc}") from None


def _write(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_state(config: ScenarioConfig, out_path: str | None) -> int:
    """Dump the requested coherent-state amplitudes as CSV rows (n, Re, Im)."""
    spec = build_spec(config)
    family = config.family or ("gk" if config.alpha != 0.0 else "nonlinear")
    n_trunc = _n_trunc_for(config.z, spec, config.tail_tol, config.n_trunc)
    if family == "gk":
        state = gkcs(GKLabel(config.z, config.alpha), spec, n_trunc)
    else:
        state = nonlinear_cs(config.z, spec, n_trunc)
    lines = ["n,amplitude_re,amplitude_im"]
    for n, amp in enumerate(state.amplitudes):
        lines.append(f"{n},{_FMT(amp.real)},{_FMT(amp.imag)}")
    _write(lines, out_path)
    return 0


def cmd_protocol(config: ScenarioConfig, out_path: str | None) -> int:
    """Run the injection scheme and emit the per-atom / decomposition report."""
    from .hamiltonian import RamanParams
    from .protocol import ProtocolConfig, protocol_report_lines, run_protocol
    spec = build_spec(config)
    config.require("g1", "g2", "delta", "tau")
    protocol_config = ProtocolConfig(
        z=config.z, spec=spec,
        params=RamanParams(config.g1, config.g2, config.delta),
        tau=config.tau, epsilons=config.epsilons,
        n_trunc=config.n_trunc, tail_tol=config.tail_tol,
        detection_floor=config.detection_floor)
    result = run_protocol(protocol_config)
    _write(protocol_report_lines(result), out_path)
    return 0


def cmd_equivalence(config: ScenarioConfig, out_path: str | None) -> int:
    """Sweep the detuning grid and emit the infidelity CSV."""
    from .evolution import equivalence_csv_lines, equivalence_experiment
    spec = build_spec(config)
    config.require("g1", "g2")
    if not config.deltas or not config.times:
        raise ConfigError("equivalence needs non-empty 'deltas' and 'times' lists")
    n_trunc = _n_trunc_for(config.z, spec, config.tail_tol, config.n_trunc)
    rows = equivalence_experiment(config.deltas, config.g1, config.g2, spec,
                                  nonlinear_cs(config.z, spec, n_trunc),
                                  (config.atom_g, config.atom_e), config.times)
    _write(equivalence_csv_lines(rows), out_path)
    return 0


def cmd_verify(config: ScenarioConfig | None, verbose: bool) -> int:
    """Run the invariant suites; exit 0 only when every check passes."""
    from . import verify
    extra_specs = []
    results = []
    if config is not None:
        try:
            extra_specs.append(build_spec(config))
        except ConfigError as exc:
            results.append(verify.CheckResult("spectrum", f"configured spectrum: {exc}",
                                              1.0, 0.5))
    results += verify.run_all_suites(extra_specs)

    width = max(len(r.check) for r in results) + 2
    by_suite: dict[str, list[verify.CheckResult]] = {}
    for r in results:
        by_suite.setdefault(r.suite, []).append(r)
    all_passed = True
    for suite, rows in by_suite.items():
        suite_ok = all(r.passed for r in rows)
        all_passed &= suite_ok
        print(f"[{'PASS' if suite_ok else 'FAIL'}] {suite} ({len(rows)} checks)")
        for r in rows:
            if verbose or not r.passed:
                status = "ok" if r.passed else "FAIL"
                print(f"    {r.check:<{width}} residual {r.residual:.3e} "
                      f"(tol {r.tolerance:.1e}) {status}")
    print(f"verify: {'all suites passed' if all_passed else 'FAILURES detected'}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkraman",
        description="Truncated-Fock-space simulator for Gazeau-Klauder state "
                    "generation via intensity-dependent Raman interaction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("state", True), ("protocol", True),
                               ("equivalence", True), ("verify", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="scenario file")
        if name == "verify":
            p.add_argument("--verbose", action="store_true")
        else:
            p.add_argument("--out", default=None, help="output path ('-' = stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            config = load_scenario(args.config) if args.config else None
            return cmd_verify(config, args.verbose)
        config = load_scenario(args.config)
        out_path = args.out if args.out is not None else config.out
        handler = {"state": cmd_state, "protocol": cmd_protocol,
                   "equivalence": cmd_equivalence}[args.command]
        return handler(config, out_path)
    except DivergentSeries as exc:
        print(f"divergent series: {exc}", file=sys.stderr)
        return 3
    except DetectionImprobable as exc:
        print(f"detection improbable: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # ConfigError, and out-of-range values the model rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
