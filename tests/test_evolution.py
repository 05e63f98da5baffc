import cmath
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from gkraman.errors import InitialExcitedLevel
from gkraman.evolution import (EquivalenceRow, closed_form_eff, closed_form_I,
                               equivalence_csv_lines,
                               equivalence_experiment, oracle_evolve,
                               rabi_frequencies, rotating_frame_I)
from gkraman.fockspace import AtomFieldState, FieldState, choose_truncation, fidelity
from gkraman.hamiltonian import RamanParams, build_H_eff, build_H_I
from gkraman.states import nonlinear_cs


def _steps_for(delta: float, t: float, target: float) -> int:
    # calibrated midpoint-propagator budget: error ~ K delta t^3 / steps^2, K <~ 1
    return max(200, math.ceil(math.sqrt(4.0 * delta * t ** 3 / target)))


def _random_joint_state(rng, spec, z_mag):
    z = z_mag * np.exp(1j * rng.uniform(0, 2 * math.pi))
    n_trunc = choose_truncation(z, spec)
    field = nonlinear_cs(z, spec, n_trunc)
    theta = rng.uniform(0, math.pi)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return AtomFieldState.product(math.cos(theta), math.sin(theta) * phase, field)


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

def test_coeffs_identity_at_t_zero(squared_spec):
    # both sector maps are the identity at t = 0, exactly
    rng = np.random.default_rng(3)
    initial = _random_joint_state(rng, squared_spec, 0.8)
    for delta in (18.0, -18.0):
        p = RamanParams(1.4, 0.6, delta)
        for propagate in (closed_form_I, closed_form_eff):
            out = propagate(initial, p, squared_spec, 0.0)
            np.testing.assert_array_equal(out.amplitudes, initial.amplitudes)


def test_rabi_frequencies_positive_and_match_definition(registry_specs):
    p = RamanParams(0.9, 1.7, -12.0)
    for spec in registry_specs:
        rabi = rabi_frequencies(p, spec, 10)
        assert np.all(rabi > 0)
        expected = np.sqrt(spec.e_values[:10] * p.coupling_sq_sum + p.delta ** 2 / 4)
        np.testing.assert_allclose(rabi, expected, rtol=1e-15)


def test_sector_maps_are_isometries(registry_specs):
    # the (g,e) -> (g,i,e) interaction map and the 2x2 effective map preserve
    # norm: their images of the |g,n>, |e,n> basis are orthonormal
    rng = np.random.default_rng(7)
    n_trunc = 12
    basis = [AtomFieldState.product(c_g, c_e, FieldState.fock(n, n_trunc))
             for c_g, c_e in ((1.0, 0.0), (0.0, 1.0)) for n in range(n_trunc)]
    for _ in range(50):
        spec = registry_specs[rng.integers(len(registry_specs))]
        p = RamanParams(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(5, 50))
        t = rng.uniform(0, 3)
        for propagate in (closed_form_I, closed_form_eff):
            cols = np.column_stack([propagate(b, p, spec, t).amplitudes.ravel() for b in basis])
            np.testing.assert_allclose(cols.conj().T @ cols, np.eye(2 * n_trunc), atol=1e-10)


def test_rabi_large_detuning_taylor_bounds(harmonic_spec):
    # |rabi/delta - 1/2| < e_n G / delta^2 and
    # |rabi - delta/2 - e_n G / delta| < (e_n G)^2 / delta^3 for n >= 1
    p = RamanParams(1.0, 1.0, 200.0)
    n_trunc = 20
    rabi = rabi_frequencies(p, harmonic_spec, n_trunc)
    e_g = harmonic_spec.e_values[:n_trunc] * p.coupling_sq_sum
    assert rabi[0] == p.delta / 2
    for n in range(1, n_trunc):
        assert abs(rabi[n] / p.delta - 0.5) < e_g[n] / p.delta ** 2
        assert abs(rabi[n] - p.delta / 2 - e_g[n] / p.delta) < e_g[n] ** 2 / p.delta ** 3


# ---------------------------------------------------------------------------
# interaction-picture closed form
# ---------------------------------------------------------------------------

def test_closed_form_I_t_zero_exact(harmonic_spec):
    rng = np.random.default_rng(2)
    initial = _random_joint_state(rng, harmonic_spec, 0.9)
    out = closed_form_I(initial, RamanParams(1, 1, 20), harmonic_spec, 0.0)
    np.testing.assert_array_equal(out.amplitudes, initial.amplitudes)


def test_closed_form_I_vacuum_field_is_stationary(squared_spec):
    p = RamanParams(1.2, 0.9, 15.0)
    initial = AtomFieldState.product(0.6, 0.8, FieldState.fock(0, 1))
    for t in (0.3, 1.7, 12.0):
        out = closed_form_I(initial, p, squared_spec, t)
        np.testing.assert_array_equal(out.amplitudes, initial.amplitudes)


def test_closed_form_I_worked_single_photon_case(harmonic_spec):
    # scalar transcription of the sector-1 coefficients, independent of the
    # vectorized implementation
    p = RamanParams(1.0, 1.0, 20.0)
    t = 0.5
    rabi = math.sqrt(1 * 2 + 20.0 ** 2 / 4)  # ~ 10.0995
    assert abs(rabi - 10.099504938362077) < 1e-12
    half_neg = cmath.exp(-0.5j * p.delta * t)
    half_pos = cmath.exp(0.5j * p.delta * t)
    cos_r, sin_r = math.cos(rabi * t), math.sin(rabi * t)
    a2 = half_neg * (-0.5 * half_pos + 0.5 * cos_r + 1j * 20 * 0.5 / (2 * rabi) * sin_r)
    a3 = half_neg * (0.5 * half_pos + 0.5 * cos_r + 1j * 20 * 0.5 / (2 * rabi) * sin_r)
    b2 = half_pos * (-1j * 1.0 / rabi * sin_r)

    initial = AtomFieldState.product(0.0, 1.0, FieldState.fock(1, 3))
    out = closed_form_I(initial, p, harmonic_spec, t)
    assert abs(out.g[1] - a2) < 1e-14
    assert abs(out.e[1] - a3) < 1e-14
    assert abs(out.i[0] - b2) < 1e-14

    # and the stepping oracle agrees
    steps = _steps_for(p.delta, t, 1e-8)
    stepped = oracle_evolve(lambda tm: build_H_I(p, harmonic_spec, tm, 3), initial, t, steps)
    assert np.linalg.norm(out.amplitudes - stepped.amplitudes) < 1e-7


def test_closed_form_I_rejects_upper_level_population(harmonic_spec):
    amps = np.zeros((3, 2), dtype=complex)
    amps[2, 0] = 1.0
    state = AtomFieldState(amps)
    with pytest.raises(InitialExcitedLevel):
        closed_form_I(state, RamanParams(1, 1, 10), harmonic_spec, 0.1)


def test_closed_form_I_conserves_sector_populations(squared_spec):
    rng = np.random.default_rng(4)
    p = RamanParams(1.1, 1.6, 22.0)
    initial = _random_joint_state(rng, squared_spec, 0.8)
    out = closed_form_I(initial, p, squared_spec, 0.9)
    n_trunc = initial.n_trunc
    for n in range(n_trunc):
        before = abs(initial.g[n]) ** 2 + abs(initial.e[n]) ** 2
        after = abs(out.g[n]) ** 2 + abs(out.e[n]) ** 2
        if n >= 1:
            after += abs(out.i[n - 1]) ** 2
        assert abs(before - after) < 1e-12


# ---------------------------------------------------------------------------
# effective closed form
# ---------------------------------------------------------------------------

def test_closed_form_eff_matches_matrix_exponential(registry_specs):
    rng = np.random.default_rng(9)
    for _ in range(12):
        spec = registry_specs[rng.integers(len(registry_specs))]
        p = RamanParams(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(5, 50))
        initial = _random_joint_state(rng, spec, rng.uniform(0.2, 1.0))
        t = rng.uniform(0.1, 2.0)
        got = closed_form_eff(initial, p, spec, t)
        u = expm(-1j * t * build_H_eff(p, spec, initial.n_trunc).matrix)
        expected = u @ initial.amplitudes[:2].reshape(-1)
        assert np.linalg.norm(got.amplitudes[:2].reshape(-1) - expected) < 1e-10
        assert np.all(got.i == 0)


def test_closed_form_eff_stationary_antisymmetric_atom(harmonic_spec):
    # (|e> - |g>)/sqrt(2) spans the zero eigenvalue of sigma_x + 1
    p = RamanParams(1.0, 1.0, 20.0)
    field = nonlinear_cs(0.9, harmonic_spec, 16)
    initial = AtomFieldState.product(-2 ** -0.5, 2 ** -0.5, field)
    out = closed_form_eff(initial, p, harmonic_spec, 4.2)
    np.testing.assert_allclose(out.amplitudes, initial.amplitudes, atol=1e-12)


def test_closed_form_eff_symmetric_phase(harmonic_spec):
    # symmetric atom on |1>: pure phase exp(i e_1 G t / delta) = exp(0.1 i)
    p = RamanParams(1.0, 1.0, 20.0)
    initial = AtomFieldState.product(2 ** -0.5, 2 ** -0.5, FieldState.fock(1, 2))
    out = closed_form_eff(initial, p, harmonic_spec, 1.0)
    expected = initial.amplitudes * cmath.exp(0.1j)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)


def test_closed_form_eff_composition(squared_spec):
    rng = np.random.default_rng(11)
    p = RamanParams(0.8, 1.3, 17.0)
    initial = _random_joint_state(rng, squared_spec, 0.7)
    t1, t2 = 0.37, 1.21
    once = closed_form_eff(initial, p, squared_spec, t1 + t2)
    twice = closed_form_eff(closed_form_eff(initial, p, squared_spec, t1),
                            p, squared_spec, t2)
    np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# stepping oracle
# ---------------------------------------------------------------------------

def test_oracle_steps_validation(harmonic_spec):
    initial = AtomFieldState.product(1.0, 0.0, FieldState.fock(0, 2))
    with pytest.raises(ValueError):
        oracle_evolve(lambda t: build_H_I(RamanParams(1, 1, 10), harmonic_spec, t, 2),
                      initial, 1.0, steps=0)


def test_oracle_time_independent_steps_invariance(squared_spec):
    rng = np.random.default_rng(13)
    p = RamanParams(1.0, 1.5, 25.0)
    initial = _random_joint_state(rng, squared_spec, 0.8)
    builder = lambda _t: build_H_eff(p, squared_spec, initial.n_trunc)
    one = oracle_evolve(builder, initial, 0.9, steps=1)
    many = oracle_evolve(builder, initial, 0.9, steps=9)
    assert np.linalg.norm(one.amplitudes - many.amplitudes) < 1e-12


def test_oracle_second_order_convergence(harmonic_spec):
    p = RamanParams(1.3, 0.8, 8.0)
    rng = np.random.default_rng(15)
    initial = _random_joint_state(rng, harmonic_spec, 0.9)
    t = 0.6
    exact = closed_form_I(initial, p, harmonic_spec, t)
    builder = lambda tm: build_H_I(p, harmonic_spec, tm, initial.n_trunc)
    errors = [np.linalg.norm(oracle_evolve(builder, initial, t, s).amplitudes
                             - exact.amplitudes)
              for s in (150, 300, 600)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_oracle_norm_preservation(squared_spec):
    p = RamanParams(1.0, 1.0, 30.0)
    rng = np.random.default_rng(21)
    initial = _random_joint_state(rng, squared_spec, 0.9)
    out = oracle_evolve(lambda tm: build_H_I(p, squared_spec, tm, initial.n_trunc),
                        initial, 0.8, steps=400)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_oracle_reproduces_closed_form_on_random_draws(registry_specs):
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        spec = registry_specs[rng.integers(len(registry_specs))]
        p = RamanParams(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(5, 50))
        initial = _random_joint_state(rng, spec, rng.uniform(0.2, 1.0))
        t = rng.uniform(0.1, 0.3)
        exact = closed_form_I(initial, p, spec, t)
        got = rotating_frame_I(initial, p, spec, t)
        worst = max(worst, float(np.linalg.norm(exact.amplitudes - got.amplitudes)))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# large-detuning equivalence
# ---------------------------------------------------------------------------

def test_equivalence_t_zero_row_is_exactly_zero(harmonic_spec):
    field = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec))
    rows = equivalence_experiment([50.0], 1.0, 1.0, harmonic_spec, field,
                                  (2 ** -0.5, 2 ** -0.5), [0.0])
    assert rows[0].infidelity == 0.0
    assert rows[0].max_i_population == 0.0


def test_equivalence_improves_with_detuning(harmonic_spec):
    # criterion-6 setup: g1 = g2 = 1, f = 1, nbar = 1, t = 1/lambda = delta
    field = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec))
    atom = (2 ** -0.5, 2 ** -0.5)
    infids = []
    for delta in (10.0, 100.0, 1000.0):
        row = equivalence_experiment([delta], 1.0, 1.0, harmonic_spec, field,
                                     atom, [delta])[0]
        infids.append(row.infidelity)
        assert row.max_i_population < 4 * 1.0 * 2.0 / delta ** 2
    assert infids[0] > infids[1] > infids[2]
    assert infids[1] < 1e-2
    assert infids[2] < 1e-4


def test_equivalence_leak_matches_sampled_propagation(registry_specs):
    # reference: the worst upper-level population of full closed_form_I
    # propagations at the 32 sample times
    atom = (0.6, 0.48 + 0.64j)
    for spec in registry_specs:
        field = nonlinear_cs(1.1, spec, choose_truncation(1.1, spec))
        initial = AtomFieldState.product(atom[0], atom[1], field)
        for delta, t in ((4.0, 2.3), (-30.0, 0.7)):
            params = RamanParams(0.9, 1.4, delta)
            row = equivalence_experiment([delta], 0.9, 1.4, spec, field, atom, [t])[0]
            expected = max(closed_form_I(initial, params, spec, s).level_population("i")
                           for s in np.linspace(0.0, t, 33)[1:])
            assert abs(row.max_i_population - expected) < 1e-14


def test_equivalence_grid_matches_pointwise_propagators(registry_specs):
    # every row against one closed_form_I and one closed_form_eff call, and a
    # D x T grid against D * T separate 1 x 1 grids: the broadcast couples no points
    rng = np.random.default_rng(29)
    for spec in registry_specs:
        for _ in range(3):
            z = rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            field = nonlinear_cs(z, spec, choose_truncation(z, spec))
            atom = tuple(complex(c) for c in rng.normal(size=2) + 1j * rng.normal(size=2))
            initial = AtomFieldState.product(atom[0], atom[1], field)
            g1, g2 = rng.uniform(0.5, 2.0, size=2)
            deltas = rng.choice([-1.0, 1.0], size=3) * rng.uniform(2.0, 200.0, size=3)
            times = [0.0, -0.0, *rng.uniform(-3.0, 3.0, size=4)]
            rows = equivalence_experiment(deltas, g1, g2, spec, field, atom, times)
            assert len(rows) == len(deltas) * len(times)
            for row, (delta, t) in zip(rows, itertools.product(deltas, times)):
                assert (row.delta, row.t) == (delta, t)
                assert row == equivalence_experiment([delta], g1, g2, spec, field, atom, [t])[0]
                params = RamanParams(g1, g2, delta)
                expected = 1.0 - fidelity(closed_form_I(initial, params, spec, t),
                                          closed_form_eff(initial, params, spec, t))
                assert abs(row.infidelity - expected) < 1e-13


def test_equivalence_monotone_at_fixed_time(harmonic_spec):
    field = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec))
    rows = equivalence_experiment([20.0, 60.0, 180.0], 1.0, 1.0, harmonic_spec,
                                  field, (0.8, 0.6), [1.5])
    infids = [r.infidelity for r in rows]
    assert infids[0] > infids[1] > infids[2]


def test_equivalence_validity_flag(harmonic_spec):
    # 4 nbar f^2(nbar) >= 0.1 delta^2 / G flips the flag (nbar = 1, G = 2)
    field = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec))
    rows = equivalence_experiment([5.0, 100.0], 1.0, 1.0, harmonic_spec, field,
                                  (2 ** -0.5, 2 ** -0.5), [0.5])
    assert rows[0].validity_violated is True
    assert rows[1].validity_violated is False


def test_equivalence_csv_format():
    rows = [EquivalenceRow(10.0, 0.5, 1.25e-3, 2e-4, False),
            EquivalenceRow(100.0, 0.5, 1.5e-5, 2e-6, True)]
    lines = equivalence_csv_lines(rows)
    assert lines[0] == "delta,t,infidelity,max_i_population,validity_flag"
    assert lines[1] == "10,0.5,0.00125,0.0002,0"
    assert lines[2] == "100,0.5,1.5e-05,2e-06,1"
