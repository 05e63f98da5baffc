import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkraman
from gkraman.cli import _SCHEMA, ConfigError, load_scenario, main

LAM = 1.0 * 1.0 / 25.0  # g^2 / delta for the protocol configs below


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# state command
# ---------------------------------------------------------------------------

def test_state_vacuum_single_row(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "spectrum = harmonic\nz_re = 0\n")
    out = tmp_path / "state.csv"
    assert main(["state", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == "n,amplitude_re,amplitude_im"
    assert rows == [["0", "1", "0"]]


def test_state_canonical_amplitude(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "spectrum = harmonic\nz_re = 1.0\n")
    out = tmp_path / "state.csv"
    assert main(["state", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out)
    amp3 = float(rows[3][1])
    assert abs(amp3 - math.exp(-0.5) / math.sqrt(6.0)) < 1e-9
    assert float(rows[3][2]) == 0.0


def test_state_gk_phase(tmp_path):
    cfg = _write(tmp_path, "s.cfg",
                 "spectrum = squared\nz_re = 1.0\nalpha = 0.3\nfamily = gk\n")
    out = tmp_path / "state.csv"
    assert main(["state", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out)
    amp2 = complex(float(rows[2][1]), float(rows[2][2]))
    assert abs(np.angle(amp2) - (-1.2)) < 1e-12


def test_state_output_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "spectrum = squared\nz_re = 0.9\nz_im = 0.2\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["state", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["state", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_state_out_key_in_config(tmp_path):
    out = tmp_path / "via_config.csv"
    cfg = _write(tmp_path, "s.cfg", f"spectrum = harmonic\nz_re = 0\nout = {out}\n")
    assert main(["state", "--config", cfg]) == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# protocol command
# ---------------------------------------------------------------------------

PROTOCOL_CFG = """
spectrum = squared
z_re = 0.8
g1 = 1.0
g2 = 1.0
delta = 25.0
tau = 0.6
epsilons = 1, 1, 1
"""


def test_protocol_report_all_plus_one(tmp_path):
    cfg = _write(tmp_path, "p.cfg", PROTOCOL_CFG)
    out = tmp_path / "report.txt"
    assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    atom_rows = [line.split(",") for line in lines[1:4]]
    alphas = [float(row[4]) for row in atom_rows]
    expected = [-2 * LAM * 0.6, -4 * LAM * 0.6, -6 * LAM * 0.6]
    np.testing.assert_allclose(alphas, expected, atol=1e-12)
    fidelities = [float(row[5]) for row in atom_rows]
    assert all(f >= 1 - 1e-10 for f in fidelities)


def test_protocol_generic_eps_ratio(tmp_path):
    cfg = _write(tmp_path, "p.cfg", PROTOCOL_CFG.replace("epsilons = 1, 1, 1",
                                                         "epsilons = 0.5"))
    out = tmp_path / "report.txt"
    assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comp = {row.split(",")[0]: complex(float(row.split(",")[1]), float(row.split(",")[2]))
            for row in lines if row.startswith(("alpha_", "nonlinear"))}
    ratio = comp["alpha_1"] / comp["nonlinear"]
    assert abs(ratio - 3.0) < 1e-8  # (1 + eps) / (1 - eps) at eps = 0.5


def test_protocol_detection_improbable_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "p.cfg", PROTOCOL_CFG + "detection_floor = 0.6\n")
    assert main(["protocol", "--config", cfg, "--out", "-"]) == 4
    assert "atom 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# equivalence command
# ---------------------------------------------------------------------------

EQUIV_CFG = """
spectrum = harmonic
z_re = 1.0
g1 = 1.0
g2 = 1.0
deltas = 10, 100, 1000
times = 0.0, 1.0
"""


def test_equivalence_csv(tmp_path):
    cfg = _write(tmp_path, "e.cfg", EQUIV_CFG)
    out = tmp_path / "equiv.csv"
    assert main(["equivalence", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == "delta,t,infidelity,max_i_population,validity_flag"
    assert len(rows) == 6
    by_point = {(float(r[0]), float(r[1])): r for r in rows}
    for delta in (10.0, 100.0, 1000.0):
        assert float(by_point[(delta, 0.0)][2]) == 0.0
    infids = [float(by_point[(d, 1.0)][2]) for d in (10.0, 100.0, 1000.0)]
    assert infids[0] > infids[1] > infids[2]
    assert all(r[4] == "0" for r in rows)


def test_equivalence_validity_flag_set(tmp_path):
    cfg = _write(tmp_path, "e.cfg", EQUIV_CFG.replace("deltas = 10, 100, 1000",
                                                      "deltas = 5"))
    out = tmp_path / "equiv.csv"
    assert main(["equivalence", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out)
    assert all(r[4] == "1" for r in rows)


def test_equivalence_tiny_atom_amplitude(tmp_path):
    # 1e-200 |g> is the state |g>, although the squared amplitudes underflow.
    # The atom pair is rescaled by a power of two, exactly, so the two runs
    # differ only by the rounding of 1e-200 / 2^-664 against 1 / 2^1.
    rows = {}
    for atom_g in ("1", "1e-200"):
        cfg = _write(tmp_path, "e.cfg", EQUIV_CFG + f"atom_g = {atom_g}\natom_e = 0\n")
        out = tmp_path / "equiv.csv"
        assert main(["equivalence", "--config", cfg, "--out", str(out)]) == 0
        _, rows[atom_g] = _rows(out)
    assert len(rows["1e-200"]) == len(rows["1"]) == 6
    np.testing.assert_allclose(np.array(rows["1e-200"], dtype=float),
                               np.array(rows["1"], dtype=float), rtol=1e-14, atol=1e-15)


def test_equivalence_subnormal_atom_amplitude(tmp_path):
    # 1e-320 |g> is |g> too; a subnormal amplitude is rescaled without underflow
    rows = {}
    for atom_g in ("1", "1e-320"):
        cfg = _write(tmp_path, "e.cfg", EQUIV_CFG + f"atom_g = {atom_g}\natom_e = 0\n")
        out = tmp_path / "equiv.csv"
        assert main(["equivalence", "--config", cfg, "--out", str(out)]) == 0
        _, rows[atom_g] = _rows(out)
    np.testing.assert_allclose(np.array(rows["1e-320"], dtype=float),
                               np.array(rows["1"], dtype=float), rtol=0, atol=1e-15)


def test_equivalence_requires_grid(tmp_path):
    cfg = _write(tmp_path, "e.cfg", "spectrum = harmonic\nz_re = 1.0\ng1 = 1\ng2 = 1\n")
    assert main(["equivalence", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_clean_build_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out


def test_verify_verbose_lists_residuals(capsys):
    assert main(["verify", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "residual" in out


def test_verify_reports_nonphysical_spectrum(tmp_path, capsys):
    table = _write(tmp_path, "bad.txt", "0.1\n1\n2\n")
    cfg = _write(tmp_path, "v.cfg", f"spectrum_table = {table}\n")
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "spectrum" in out
    assert "FAIL" in out


def _fresh(code: str):
    """Run code in a fresh interpreter importing this gkraman; the JSON it prints last."""
    src = str(Path(gkraman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


#: Prints which of the listed modules are loaded, as JSON.
_LOADED = "import json, sys; print(json.dumps([m for m in {} if m in sys.modules]))"


#: Every submodule of the package, qualified, but for __init__ and __main__.
_SUBMODULES = sorted(f"gkraman.{p.stem}" for p in Path(gkraman.__file__).parent.glob("*.py")
                     if not p.stem.startswith("__"))


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is a test-only reference.
    # The package loads no submodule by itself, so each is imported here.
    assert _fresh(f"import {', '.join(_SUBMODULES)}; " + _LOADED.format(["scipy"])) == []


def test_import_loads_no_submodule():
    assert _fresh("import gkraman; " + _LOADED.format(["numpy"] + _SUBMODULES)) == []


def test_state_command_loads_only_its_modules(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "spectrum = squared\nz_re = 0.8\nalpha = 0.3\n")
    argv = ["state", "--config", cfg, "--out", str(tmp_path / "s.csv")]
    unused = ["gkraman.evolution", "gkraman.hamiltonian", "gkraman.protocol", "gkraman.verify"]
    assert _fresh(f"from gkraman import cli; assert cli.main({argv!r}) == 0; "
                  + _LOADED.format(unused)) == []


def test_verify_command_leaves_numpy_random_unloaded():
    assert _fresh("from gkraman import cli; assert cli.main(['verify']) == 0; "
                  + _LOADED.format(["numpy.random"])) == []


def test_public_names_are_their_home_module_attributes():
    # resolved through the package first, in a process that has imported no submodule
    code = ("import importlib, json, gkraman\n"
            "print(json.dumps([n for n in gkraman.__all__ if getattr(gkraman, n) is not\n"
            "    getattr(importlib.import_module(gkraman._HOME[n]), n)]))")
    assert _fresh(code) == []
    assert len(gkraman.__all__) == 39


def test_package_names_follow_their_home_module(monkeypatch):
    # the package caches no lookup, so a patched home attribute shows through it
    from gkraman import protocol
    assert gkraman.run_protocol is protocol.run_protocol
    patched = object()
    monkeypatch.setattr(protocol, "run_protocol", patched)
    assert gkraman.run_protocol is patched


# ---------------------------------------------------------------------------
# config schema and exit codes
# ---------------------------------------------------------------------------

def test_public_surface():
    names = gkraman.__all__
    assert len(names) <= 39
    assert len(set(names)) == len(names)
    for name in names:
        getattr(gkraman, name)
    for gone in ("decompose_superposition", "IllConditioned", "oracle_evolve", "f_of_n",
                 "tabulated"):
        assert not hasattr(gkraman, gone)


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "spectrum = harmonic\nbogus = 1\n")
    assert main(["state", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_line_without_equals_sign_is_rejected(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "z_re = 1\nspectrum harmonic\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: expected 'key = value', "
                                          r"got 'spectrum harmonic'"):
        load_scenario(cfg)


def test_bad_value_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "spectrum = harmonic\nz_re = not-a-number\n")
    assert main(["state", "--config", cfg]) == 2


def test_bad_spectrum_name_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "spectrum = cubic\n")
    assert main(["state", "--config", cfg]) == 2


def test_missing_required_key_exit_2(tmp_path):
    cfg = _write(tmp_path, "p.cfg", "spectrum = harmonic\nz_re = 0.5\ntau = 0.6\n")
    assert main(["protocol", "--config", cfg]) == 2


def test_missing_config_file_exit_2(tmp_path):
    assert main(["state", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_duplicate_key_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "z_re = 1\nz_re = 2\n")
    assert main(["state", "--config", cfg]) == 2


@pytest.mark.parametrize("command, base, override", [
    ("protocol", PROTOCOL_CFG, "tau = nan"),
    ("protocol", PROTOCOL_CFG, "delta = inf"),
    ("protocol", PROTOCOL_CFG, "epsilons = nan"),
    ("protocol", PROTOCOL_CFG, "tail_tol = 2"),
    ("state", "spectrum = squared\nz_re = 0.8\n", "n_trunc = 0"),
    ("state", "spectrum = squared\nz_re = 0.8\n", "n_trunc = 100000"),
    ("equivalence", EQUIV_CFG, "g1 = -1"),
    ("state", "spectrum = squared\nz_re = 0.8\n", "alpha = nan"),
    ("state", "spectrum = squared\nz_re = 0.8\n", "z_re = nan"),
    ("equivalence", EQUIV_CFG, "times = nan"),
    ("equivalence", EQUIV_CFG, "atom_g = nan"),
    ("state", "spectrum = squared\nz_re = 0\n", "n_trunc = 100000"),
    ("equivalence", EQUIV_CFG, "g1 = 1e300"),
    ("equivalence", EQUIV_CFG, "deltas = 1e300"),
    ("protocol", PROTOCOL_CFG, "epsilons = 1e300j"),
    ("equivalence", EQUIV_CFG, "atom_e = 1e300j"),
    ("equivalence", EQUIV_CFG.replace("10, 100, 1000", "10, 100"), "times = 1e308"),
    ("state", "spectrum = squared\nz_re = 0.8\n", "alpha = 1e308"),
    ("protocol", PROTOCOL_CFG.replace("25.0", "40").replace("1, 1, 1", "1, 1"), "tau = 1e308"),
    # each filter phase e_n G tau / delta is finite; the label -4 lambda tau is not
    ("protocol", PROTOCOL_CFG.replace("25.0", "1"), "tau = 1e306"),
])
def test_out_of_range_value_exit_2(tmp_path, capsys, command, base, override):
    # the overridden key replaces its line in the base scenario, or is appended
    key = override.split("=")[0].strip()
    lines = [line for line in base.splitlines() if not line.startswith(key + " ")]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(lines + [override]) + "\n")
    assert main([command, "--config", cfg, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


@pytest.mark.parametrize("command, keys", [
    ("equivalence", "deltas = 10\ntimes = 0, 1\n"),
    ("equivalence", "deltas = 10\ntimes = 0\n"),
    ("protocol", "delta = 10\ntau = 1\nepsilons = 1\n"),
])
def test_overflowing_rabi_frequency_blames_couplings(tmp_path, capsys, command, keys):
    # e_2 (g1^2 + g2^2) = 2e308 overflows whatever t or tau is
    table = _write(tmp_path, "steep.txt", "0\n1\n1e308\n")
    cfg = _write(tmp_path, "o.cfg",
                 f"spectrum_table = {table}\nn_trunc = 3\ng1 = 1\ng2 = 1\n{keys}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: couplings g1 = 1, g2 = 1 and spectrum 'steep' "
                            "(e_2 = 1e+308) make e_n (g1^2 + g2^2) + delta^2 / 4 overflow\n")


@pytest.mark.parametrize("command, base, override, message", [
    ("equivalence", EQUIV_CFG, "g1 = 1e-200\ng2 = 1e-200",
     "couplings g1 = 1e-200, g2 = 1e-200 make g1^2 + g2^2 underflow"),
    ("equivalence", EQUIV_CFG, "deltas = 1e-300",
     "detuning delta = 1e-300 makes delta^2 underflow"),
    ("protocol", PROTOCOL_CFG, "g1 = 1e-200\ng2 = 1e-200",
     "couplings g1 = 1e-200, g2 = 1e-200 make g1^2 + g2^2 underflow"),
], ids=["equivalence-couplings", "equivalence-detuning", "protocol-couplings"])
def test_underflowing_squares_exit_2(tmp_path, capsys, command, base, override, message):
    keys = {line.split("=")[0].strip() for line in override.splitlines()}
    lines = [line for line in base.splitlines() if line.split("=")[0].strip() not in keys]
    cfg = _write(tmp_path, "u.cfg", "\n".join(lines + [override]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("bad_line", ["nan", "inf"])
def test_nonfinite_spectrum_table_exit_2(tmp_path, capsys, bad_line):
    table = _write(tmp_path, "table.txt", f"0\n1\n{bad_line}\n3\n")
    cfg = _write(tmp_path, "s.cfg", f"spectrum_table = {table}\nz_re = 0.5\n")
    assert main(["state", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_divergent_series_exit_3(tmp_path, capsys):
    table = _write(tmp_path, "bounded.txt",
                   "\n".join(str(n / (n + 1.0)) for n in range(128)))
    cfg = _write(tmp_path, "d.cfg", f"spectrum_table = {table}\nz_re = 1.5\n")
    assert main(["state", "--config", cfg]) == 3
    assert "divergent" in capsys.readouterr().err.lower()


def test_huge_z_is_divergent_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "z.cfg", "spectrum = squared\nz_re = -1e300\n")
    assert main(["state", "--config", cfg]) == 3
    assert "divergent" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [["state", "--config", "s.cfg", "--verbose"],
                                  ["verify", "--out", "x"]])
def test_flags_only_on_the_commands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scenario_parsing_types(tmp_path):
    cfg = load_scenario(_write(tmp_path, "t.cfg", """
spectrum = poschl_teller
kappa = 2.0
z_re = 0.4
z_im = -0.1
epsilons = 1, 0.5+0.25j, -1
deltas = 1, 2.5
atom_e = 0.6+0.8j
"""))
    assert cfg.z == 0.4 - 0.1j
    assert cfg.epsilons == (1 + 0j, 0.5 + 0.25j, -1 + 0j)
    assert cfg.deltas == (1.0, 2.5)
    assert cfg.atom_e == 0.6 + 0.8j


# ---------------------------------------------------------------------------
# exit-code contract over generated scenario files
# ---------------------------------------------------------------------------

_NONFINITE = ("nan", "inf", "-inf", "nanj", "1+infj")
_REALS = ("0", "-1", "0.5", "1", "25", "1e-200", "1e-300", "1e300", "-1e300", "1e308",
          "nan", "inf", "-inf")
_COMPLEXES = ("0", "-1", "0.6+0.8j", "1e-320", "1e300j", "nan", "inf", "nanj", "1+infj")


def _csv_of(pool):
    return st.lists(st.sampled_from(pool), max_size=3).map(", ".join)


_VALUES = {
    "spectrum": st.sampled_from(["harmonic", "squared", "poschl_teller", "cubic"]),
    "family": st.sampled_from(["nonlinear", "gk", "coherent"]),
    "n_trunc": st.sampled_from(["0", "-3", "1", "12", "100000", "1e300"]),
    "atom_g": st.sampled_from(_COMPLEXES),
    "atom_e": st.sampled_from(_COMPLEXES),
    "epsilons": _csv_of(_COMPLEXES),
    "deltas": _csv_of(_REALS),
    "times": _csv_of(_REALS),
    **{key: st.sampled_from(_REALS)
       for key in ("kappa", "z_re", "z_im", "alpha", "g1", "g2", "delta", "tau",
                   "tail_tol", "detection_floor")},
}
#: Keys whose values are parsed as floats or complex numbers
_NUMERIC = set(_VALUES) - {"spectrum", "family", "n_trunc"}


def test_generated_scenarios_cover_the_schema():
    assert set(_VALUES) == set(_SCHEMA) - {"out", "spectrum_table"}


#: Runs every command to exit 0; generated scenarios drop and override its keys.
_BASE = {"spectrum": "squared", "z_re": "0.8", "g1": "1", "g2": "1", "delta": "25",
         "tau": "0.6", "epsilons": "1, 0.5", "deltas": "10, 100", "times": "0, 1"}


@st.composite
def _scenarios(draw):
    dropped = draw(st.lists(st.sampled_from(sorted(_BASE)), unique=True, max_size=2))
    changed = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True, max_size=4))
    scenario = {key: value for key, value in _BASE.items() if key not in dropped}
    scenario.update({key: draw(_VALUES[key]) for key in changed})
    return scenario


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scenarios())
# squares that underflow, and a subnormal atom amplitude, which the draws rarely reach
@example({**_BASE, "g1": "1e-200", "g2": "1e-200"})
@example({**_BASE, "deltas": "1e-300"})
@example({**_BASE, "atom_g": "1e-320", "atom_e": "0"})
def test_exit_code_contract_on_generated_scenarios(scenario):
    # never raises; exits 0, 2, 3 or 4; exits 2 on any non-finite number; and
    # prints no non-finite field when it exits 0
    text = "".join(f"{key} = {value}\n" for key, value in scenario.items())
    nonfinite = any(part.strip() in _NONFINITE
                    for key, value in scenario.items() if key in _NUMERIC
                    for part in value.split(","))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), "g.cfg", text)
        for command in ("state", "protocol", "equivalence"):
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                code = main([command, "--config", cfg])
            assert code in (0, 2, 3, 4), (command, text)
            if nonfinite:
                assert code == 2, (command, text)
            if code == 0:
                fields = out.getvalue().replace("\n", ",").split(",")
                assert not {"nan", "inf", "-inf"} & set(fields), (command, text)
