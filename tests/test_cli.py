import math

import numpy as np
import pytest

from gkraman.cli import load_scenario, main

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


# ---------------------------------------------------------------------------
# config schema and exit codes
# ---------------------------------------------------------------------------

def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "spectrum = harmonic\nbogus = 1\n")
    assert main(["state", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


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


def test_divergent_series_exit_3(tmp_path, capsys):
    table = _write(tmp_path, "bounded.txt",
                   "\n".join(str(n / (n + 1.0)) for n in range(128)))
    cfg = _write(tmp_path, "d.cfg", f"spectrum_table = {table}\nz_re = 1.5\n")
    assert main(["state", "--config", cfg]) == 3
    assert "divergent" in capsys.readouterr().err.lower()


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
