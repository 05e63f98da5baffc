"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 8a asserts the doubling-law label -2^m lambda tau that the
m = 1, 2 cases suggest; it is expected to fail (strict xfail) because each
postselected atom advances the label by the same -2 lambda tau, so labels
accumulate additively (-2m lambda tau) and the two laws agree at m = 1, 2
only.  Criterion 8b asserts the additive label at the same tolerance.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from gkraman import deformation
from gkraman.cli import main
from gkraman.deformation import deformed_lower
from gkraman.evolution import (closed_form_eff, closed_form_I,
                               equivalence_experiment, rotating_frame_I)
from gkraman.fockspace import (AtomFieldState, choose_truncation, fidelity,
                               mean_excitation)
from gkraman.hamiltonian import RamanParams, build_H_eff
from gkraman.protocol import ProtocolConfig, inject_atom, run_protocol
from gkraman.states import GKLabel, action_identity_check, evolve_free, gkcs, nonlinear_cs

TIGHT = 1e-20  # tail tolerance for residual-level criteria
Z_GRID = (0.3, 0.8, 1.2)


def _specs():
    return [deformation.harmonic(), deformation.squared(), deformation.poschl_teller(1.0)]


def _report(num: str, name: str, ok: bool, detail: str):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# ---------------------------------------------------------------------------
# 1. eigenstate relation
# ---------------------------------------------------------------------------

def test_criterion_01_eigenstate_property():
    worst = 0.0
    for spec in _specs():
        for z in Z_GRID:
            n_trunc = choose_truncation(z, spec, TIGHT)
            state = nonlinear_cs(z, spec, n_trunc)
            residual = float(np.linalg.norm(
                deformed_lower(spec, state) - z * state.amplitudes))
            worst = max(worst, residual)
    ok = worst < 1e-8
    _report("01", "eigenstate relation over 9 (spectrum, z) cases", ok,
            f"worst residual {worst:.3e} < 1e-08")
    assert ok


# ---------------------------------------------------------------------------
# 2. temporal stability
# ---------------------------------------------------------------------------

def test_criterion_02_temporal_stability():
    worst_gap = 0.0
    for spec in _specs():
        for z in Z_GRID:
            n_trunc = choose_truncation(z, spec, TIGHT)
            for alpha in (-0.4, 0.0, 0.6):
                for t in (0.2, 0.7, 1.5):
                    start = gkcs(GKLabel(z, alpha), spec, n_trunc)
                    target = gkcs(GKLabel(z, alpha + t), spec, n_trunc)
                    gap = 1.0 - fidelity(evolve_free(start, spec, t), target)
                    worst_gap = max(worst_gap, abs(gap))
    stable_ok = worst_gap < 1e-12

    drift_spec = deformation.squared()
    n_trunc = choose_truncation(1.0, drift_spec, TIGHT)
    state = nonlinear_cs(1.0, drift_spec, n_trunc)
    drift_fid = fidelity(evolve_free(state, drift_spec, 0.7), state)
    witness_ok = drift_fid <= 1.0 - 1e-3

    ok = stable_ok and witness_ok
    _report("02", "temporal stability (3x3x3 grid per spectrum) + instability witness",
            ok, f"worst stability gap {worst_gap:.3e} < 1e-12; "
                f"nonlinear drift fidelity {drift_fid:.6f} <= 1 - 1e-3")
    assert ok


# ---------------------------------------------------------------------------
# 3. action identity
# ---------------------------------------------------------------------------

def test_criterion_03_action_identity():
    worst = 0.0
    for spec in _specs():
        for z in Z_GRID:
            gap = abs(action_identity_check(GKLabel(z, 0.2), spec) - z ** 2)
            worst = max(worst, gap)
    ok = worst < 1e-8
    _report("03", "action identity <H> = |z|^2 over 9 cases", ok,
            f"worst deviation {worst:.3e} < 1e-08")
    assert ok


# ---------------------------------------------------------------------------
# 4 + 5. closed forms vs oracles; unitarity and vacuum invariance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def propagator_draws():
    rng = np.random.default_rng(2024)
    specs = _specs()
    worst_int = worst_eff = worst_norm = 0.0
    vacuum_bit_identical = True
    for _ in range(50):
        spec = specs[rng.integers(len(specs))]
        params = RamanParams(g1=rng.uniform(0.5, 2.0), g2=rng.uniform(0.5, 2.0),
                             delta=rng.uniform(5.0, 50.0))
        z = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        n_trunc = choose_truncation(z, spec)
        field = nonlinear_cs(z, spec, n_trunc)
        theta = rng.uniform(0, math.pi)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        initial = AtomFieldState.product(math.cos(theta), math.sin(theta) * phase, field)
        t = rng.uniform(0.1, 0.5)

        exact = closed_form_I(initial, params, spec, t)
        rotated = rotating_frame_I(initial, params, spec, t)
        worst_int = max(worst_int,
                        float(np.linalg.norm(exact.amplitudes - rotated.amplitudes)))

        eff = closed_form_eff(initial, params, spec, t)
        u = expm(-1j * t * build_H_eff(params, spec, n_trunc))
        eff_exact = u @ initial.amplitudes[:2].reshape(-1)
        worst_eff = max(worst_eff,
                        float(np.linalg.norm(eff.amplitudes[:2].reshape(-1) - eff_exact)))

        for out in (exact, rotated, eff):
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(out.amplitudes)) - 1.0))
        for out in (exact, eff):
            vacuum_bit_identical &= (out.g[0] == initial.g[0]) and (out.e[0] == initial.e[0])
    return worst_int, worst_eff, worst_norm, vacuum_bit_identical


def test_criterion_04_closed_forms_vs_oracles(propagator_draws):
    worst_int, worst_eff, _, _ = propagator_draws
    ok = worst_int < 1e-12 and worst_eff < 1e-10
    _report("04", "closed forms vs oracles over 50 random draws", ok,
            f"interaction vs rotating-frame exponential {worst_int:.3e} < 1e-12; "
            f"effective vs exponential {worst_eff:.3e} < 1e-10")
    assert ok


def test_criterion_05_unitarity_and_vacuum_invariance(propagator_draws):
    _, _, worst_norm, vacuum_bit_identical = propagator_draws
    ok = worst_norm < 1e-10 and vacuum_bit_identical
    _report("05", "norm preservation and bit-identical vacuum sector", ok,
            f"worst norm deviation {worst_norm:.3e} < 1e-10; "
            f"vacuum amplitudes bit-identical: {vacuum_bit_identical}")
    assert ok


# ---------------------------------------------------------------------------
# 6. large-detuning equivalence
# ---------------------------------------------------------------------------

def test_criterion_06_large_detuning_equivalence():
    spec = deformation.harmonic()
    n_trunc = choose_truncation(1.0, spec)
    field = nonlinear_cs(1.0, spec, n_trunc)  # nbar = |z|^2 = 1
    atom = (2 ** -0.5, 2 ** -0.5)
    nbar = mean_excitation(field)
    big_g = 2.0

    infids, leaks, bounds = [], [], []
    for delta in (10.0, 100.0, 1000.0):
        t = delta  # t = 1/lambda with lambda = g^2/delta, g = 1
        row = equivalence_experiment([delta], 1.0, 1.0, spec, field, atom, [t])[0]
        infids.append(row.infidelity)
        leaks.append(row.max_i_population)
        bounds.append(4.0 * nbar * 1.0 * big_g / delta ** 2)

    ok = (infids[1] < 1e-2 and infids[2] < 1e-4
          and infids[0] > infids[1] > infids[2]
          and all(leak < bound for leak, bound in zip(leaks, bounds)))
    _report("06", "interaction/effective equivalence at large detuning", ok,
            f"infidelities {infids[0]:.3e} > {infids[1]:.3e} > {infids[2]:.3e}, "
            f"thresholds (1e-2, 1e-4); leakage within 4 nbar G / delta^2")
    assert ok


# ---------------------------------------------------------------------------
# 7. single-atom collapse
# ---------------------------------------------------------------------------

def _collapse_case(n_extra: int = 0):
    spec = deformation.squared()
    params = RamanParams(1.0, 1.0, 25.0)
    z, tau = 0.8, 0.6
    lam = params.effective_coupling
    n_trunc = choose_truncation(z, spec) + n_extra
    field = nonlinear_cs(z, spec, n_trunc)
    p_plus, collapsed = inject_atom(field, 1.0, params, spec, tau)
    fid_plus = fidelity(collapsed, gkcs(GKLabel(z, -2 * lam * tau), spec, n_trunc))
    p_minus, unchanged = inject_atom(field, -1.0, params, spec, tau)
    fid_minus = fidelity(unchanged, field)
    return p_plus, fid_plus, p_minus, fid_minus


def test_criterion_07_single_atom_collapse():
    p_plus, fid_plus, p_minus, fid_minus = _collapse_case()
    ok = (abs(p_plus - 0.5) < 1e-12 and fid_plus >= 1 - 1e-12
          and abs(p_minus - 0.5) < 1e-12 and fid_minus >= 1 - 1e-12)
    _report("07", "single-atom collapse (eps = +1, -1)", ok,
            f"P_e {p_plus:.15f}, GK fidelity {fid_plus:.15f}; "
            f"eps=-1 P_e {p_minus:.15f}, unchanged fidelity {fid_minus:.15f}")
    assert ok


# ---------------------------------------------------------------------------
# 8. N-atom protocol
# ---------------------------------------------------------------------------

def _protocol_case(n_extra: int = 0):
    spec = deformation.squared()
    params = RamanParams(1.0, 1.0, 25.0)
    z, tau = 0.8, 0.6
    lam = params.effective_coupling
    n_trunc = choose_truncation(z, spec) + n_extra

    three = run_protocol(ProtocolConfig(z=z, spec=spec, params=params, tau=tau,
                                        epsilons=(1.0, 1.0, 1.0), n_trunc=n_trunc))
    fid_stated = fidelity(three.final_field,
                          gkcs(GKLabel(z, -8 * lam * tau), spec, n_trunc))
    fid_corrected = fidelity(three.final_field,
                             gkcs(GKLabel(z, -6 * lam * tau), spec, n_trunc))

    two = run_protocol(ProtocolConfig(z=z, spec=spec, params=params, tau=tau,
                                      epsilons=(0.5, 0.25), n_trunc=n_trunc))
    return fid_stated, fid_corrected, two


@pytest.mark.xfail(strict=True, reason=(
    "the doubling-law label -2^m lambda tau contradicts the dynamics: each "
    "postselected atom advances the label by -2 lambda tau, so the N = 3 "
    "field carries -6 lambda tau and cannot match the -8 lambda tau state"))
def test_criterion_08a_three_atoms_match_doubling_label_law():
    fid_stated, _, _ = _protocol_case()
    _report("08a", "N = 3 all-eps-one field vs the doubling-law label -8*lambda*tau",
            fid_stated >= 1 - 1e-10,
            f"fidelity {fid_stated:.12f}; expected failure: labels accumulate "
            f"additively (-2m lambda tau)")
    assert fid_stated >= 1 - 1e-10


def test_criterion_08b_n_atom_protocol_corrected_label_and_decomposition():
    fid_stated, fid_corrected, two = _protocol_case()
    ladder_ok = fid_corrected >= 1 - 1e-10

    predicted = np.array([(1 + 0.5) * (1 + 0.25),
                          2 * (1 - 0.5 * 0.25),
                          (1 - 0.5) * (1 - 0.25)])
    got = np.array(two.coefficients)
    rel = np.max(np.abs((got / got[0]) / (predicted / predicted[0]) - 1.0))
    decomp_ok = rel < 1e-8 and two.residual < 1e-10

    ok = ladder_ok and decomp_ok
    _report("08b", "N-atom protocol: corrected N = 3 label; N = 2 decomposition",
            ok, f"N=3 fidelity vs -6*lambda*tau {fid_corrected:.15f} >= 1 - 1e-10 "
                f"(as-stated -8*lambda*tau gives {fid_stated:.12f}); "
                f"coefficient ratios within {rel:.3e} (tol 1e-8), "
                f"residual {two.residual:.3e} < 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# 9. truncation robustness
# ---------------------------------------------------------------------------

def test_criterion_09_truncation_robustness():
    worst = 0.0
    base_c, wide_c = _collapse_case(0), _collapse_case(8)
    for a, b in zip(base_c, wide_c):
        worst = max(worst, abs(a - b))

    for n_extra_pair in ((0, 8),):
        runs = []
        for n_extra in n_extra_pair:
            _, fid_corrected, two = _protocol_case(n_extra)
            runs.append([fid_corrected] + [rec.fidelity_to_gkcs for rec in two.atoms])
        for a, b in zip(*runs):
            worst = max(worst, abs(a - b))

    ok = worst < 1e-10
    _report("09", "criteria 7-8 fidelities stable under n_trunc + 8", ok,
            f"worst fidelity shift {worst:.3e} < 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# 10. CLI contract
# ---------------------------------------------------------------------------

def test_criterion_10_cli_exit_codes(tmp_path):
    results = {}
    results["verify clean -> 0"] = main(["verify"]) == 0

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("spectrum = harmonic\nbogus_key = 1\n")
    results["schema violation -> 2"] = main(["state", "--config", str(bad_cfg)]) == 2

    table = tmp_path / "bounded.txt"
    table.write_text("\n".join(str(n / (n + 1.0)) for n in range(128)))
    div_cfg = tmp_path / "div.cfg"
    div_cfg.write_text(f"spectrum_table = {table}\nz_re = 1.5\n")
    results["divergent series -> 3"] = main(["state", "--config", str(div_cfg)]) == 3

    floor_cfg = tmp_path / "floor.cfg"
    floor_cfg.write_text("spectrum = squared\nz_re = 0.8\ng1 = 1\ng2 = 1\n"
                         "delta = 25\ntau = 0.6\nepsilons = 1\n"
                         "detection_floor = 0.6\n")
    results["improbable detection -> 4"] = main(
        ["protocol", "--config", str(floor_cfg), "--out", "-"]) == 4

    ok = all(results.values())
    _report("10", "CLI exit-code contract", ok,
            "; ".join(f"{k}: {v}" for k, v in results.items()))
    assert ok
