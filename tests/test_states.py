import cmath
import math

import numpy as np
import pytest

from gkraman import deformation
from gkraman.deformation import deformed_lower
from gkraman.evolution import closed_form_eff, rabi_frequencies
from gkraman.fockspace import AtomFieldState, FieldState, choose_truncation, fidelity
from gkraman.hamiltonian import RamanParams
from gkraman.states import (GKLabel, action_identity_check, evolve_free,
                            gk_nonlinearity, gkcs, nonlinear_cs)

TIGHT = 1e-20  # tail tolerance keeping truncation-edge effects below 1e-9


# ---------------------------------------------------------------------------
# nonlinear coherent states
# ---------------------------------------------------------------------------

def test_nonlinear_cs_vacuum(squared_spec):
    s = nonlinear_cs(0.0, squared_spec, 6)
    np.testing.assert_array_equal(s.amplitudes, FieldState.fock(0, 6).amplitudes)


def test_nonlinear_cs_canonical_amplitude(harmonic_spec):
    # oracle: canonical coherent amplitude e^{-|z|^2/2} z^n / sqrt(n!)
    s = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec, TIGHT))
    expected = math.exp(-0.5) / math.sqrt(6.0)
    assert abs(s.amplitudes[3] - expected) < 1e-12


def test_nonlinear_cs_eigenstate_property(registry_specs):
    for spec in registry_specs:
        for z in (0.3, 0.8, 1.5):
            n_trunc = choose_truncation(z, spec, TIGHT)
            s = nonlinear_cs(z, spec, n_trunc)
            residual = np.linalg.norm(deformed_lower(spec, s) - z * s.amplitudes)
            assert residual < 1e-8, (spec.name, z, residual)


def test_nonlinear_cs_complex_label(harmonic_spec):
    z = 0.7 * cmath.exp(0.9j)
    s = nonlinear_cs(z, harmonic_spec, 24)
    # phases follow n arg(z); magnitudes follow |z|
    ref = nonlinear_cs(abs(z), harmonic_spec, 24)
    np.testing.assert_allclose(np.abs(s.amplitudes), np.abs(ref.amplitudes), atol=1e-15)
    assert abs(cmath.phase(s.amplitudes[3]) - 3 * 0.9) < 1e-12


# ---------------------------------------------------------------------------
# Gazeau-Klauder states
# ---------------------------------------------------------------------------

def test_gkcs_alpha_zero_equals_spectrum_weighted_state(squared_spec):
    for z in (0.5, 1.0):
        a = gkcs(GKLabel(z, 0.0), squared_spec, 24)
        b = nonlinear_cs(z, squared_spec, 24)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_gkcs_magnitudes_match_nonlinear(squared_spec, pt_spec):
    for spec in (squared_spec, pt_spec):
        a = gkcs(GKLabel(0.9, 1.7), spec, 24)
        b = nonlinear_cs(0.9, spec, 24)
        np.testing.assert_allclose(np.abs(a.amplitudes), np.abs(b.amplitudes), atol=1e-14)


def test_gkcs_phase_offset(squared_spec):
    # alpha = 0.3 puts amplitude_2 at phase -0.3 * e_2 = -1.2 rad
    a = gkcs(GKLabel(1.0, 0.3), squared_spec, 20)
    b = nonlinear_cs(1.0, squared_spec, 20)
    phase = cmath.phase(a.amplitudes[2] / b.amplitudes[2])
    assert abs(phase - (-1.2)) < 1e-12


def test_gkcs_is_nonlinear_cs_with_gk_nonlinearity(squared_spec):
    # rebuild amplitudes through z^n / (sqrt(n!) prod_k f_GK(alpha, k)),
    # independent of the package's log-domain path
    z, alpha, n_trunc = 0.8, 0.6, 22
    weights = np.empty(n_trunc, dtype=complex)
    weights[0] = 1.0
    fgk_prod = 1.0 + 0.0j
    for n in range(1, n_trunc):
        fgk_prod *= gk_nonlinearity(alpha, n, squared_spec)
        weights[n] = z ** n / (math.sqrt(math.factorial(n)) * fgk_prod)
    rebuilt = weights / np.linalg.norm(weights)
    state = gkcs(GKLabel(z, alpha), squared_spec, n_trunc)
    np.testing.assert_allclose(rebuilt, state.amplitudes, atol=1e-12)


def test_gk_nonlinearity_values(harmonic_spec, squared_spec):
    assert gk_nonlinearity(0.0, 4, squared_spec) == 2.0
    # linear spectrum: gap e_n - e_{n-1} = 1, f = 1
    val = gk_nonlinearity(0.7, 9, harmonic_spec)
    assert abs(val - cmath.exp(0.7j)) < 1e-15
    # e_3 - e_2 = 5 for the squared spectrum
    val = gk_nonlinearity(0.5, 3, squared_spec)
    assert abs(val - math.sqrt(3) * cmath.exp(2.5j)) < 1e-14


def test_gk_nonlinearity_starts_at_n_1(squared_spec):
    assert gk_nonlinearity(0.3, 1, squared_spec) == cmath.exp(0.3j)
    with pytest.raises(ValueError, match="n >= 1"):
        gk_nonlinearity(0.3, 0, squared_spec)


# ---------------------------------------------------------------------------
# action identity
# ---------------------------------------------------------------------------

def test_action_identity_vacuum(squared_spec):
    assert action_identity_check(GKLabel(0.0, 0.0), squared_spec) == 0.0


def test_action_identity_telescoping_oracle(harmonic_spec):
    # independent series oracle: sum e_n |z|^{2n}/[e_n]! = |z|^2 sum |z|^{2m}/[e_m]!
    z = 1.5
    weights = [z ** (2 * n) / math.factorial(n) for n in range(60)]
    lhs = math.fsum(n * w for n, w in enumerate(weights))
    rhs = z ** 2 * math.fsum(weights)
    assert abs(lhs - rhs) < 1e-9 * rhs
    assert abs(action_identity_check(GKLabel(z, 0.4), harmonic_spec) - 2.25) < 1e-8


def test_action_identity_registry(registry_specs):
    for spec in registry_specs:
        for z in (0.3, 0.9, 1.2):
            got = action_identity_check(GKLabel(z, 0.1), spec)
            assert abs(got - z ** 2) < 1e-8, (spec.name, z, got)


# ---------------------------------------------------------------------------
# free evolution and temporal stability
# ---------------------------------------------------------------------------

def test_evolve_free_t_zero_is_identity(squared_spec):
    s = gkcs(GKLabel(1.0, 0.2), squared_spec, 20)
    np.testing.assert_array_equal(evolve_free(s, squared_spec, 0.0).amplitudes,
                                  s.amplitudes)


def test_temporal_stability_grid(registry_specs):
    for spec in registry_specs:
        for z in (0.4, 0.9, 1.2):
            n_trunc = choose_truncation(z, spec, TIGHT)
            for alpha in (-0.5, 0.0, 0.8):
                for t in (0.3, 0.7, 2.1):
                    start = gkcs(GKLabel(z, alpha), spec, n_trunc)
                    target = gkcs(GKLabel(z, alpha + t), spec, n_trunc)
                    fid = fidelity(evolve_free(start, spec, t), target)
                    assert fid >= 1.0 - 1e-12, (spec.name, z, alpha, t, fid)


def test_nonlinear_cs_is_not_temporally_stable(squared_spec):
    n_trunc = choose_truncation(1.0, squared_spec, TIGHT)
    s = nonlinear_cs(1.0, squared_spec, n_trunc)
    fid = fidelity(evolve_free(s, squared_spec, 0.7), s)
    assert fid <= 1.0 - 1e-3


def test_harmonic_nonlinear_cs_recovers_stability(harmonic_spec):
    # with a linear spectrum the nonlinear state is itself a GK state
    n_trunc = choose_truncation(1.0, harmonic_spec, TIGHT)
    s = nonlinear_cs(1.0, harmonic_spec, n_trunc)
    target = gkcs(GKLabel(1.0, 0.7), harmonic_spec, n_trunc)
    assert fidelity(evolve_free(s, harmonic_spec, 0.7), target) >= 1.0 - 1e-12


def test_label_continuity(squared_spec):
    # numerical continuity: infidelity shrinks quadratically with label shifts
    z, alpha, n_trunc = 0.9, 0.4, 24
    base = gkcs(GKLabel(z, alpha), squared_spec, n_trunc)
    for delta in (1e-2, 1e-3):
        shifted = gkcs(GKLabel(z + delta, alpha + delta), squared_spec, n_trunc)
        assert 1.0 - fidelity(base, shifted) < 50 * delta ** 2


def test_divergent_label_rejected():
    from gkraman import deformation
    from gkraman.errors import DivergentSeries
    bounded = deformation.DeformationSpec("bounded", [n / (n + 1.0) for n in range(64)])
    with pytest.raises(DivergentSeries):
        nonlinear_cs(1.2, bounded, 16)
    with pytest.raises(DivergentSeries):
        gkcs(GKLabel(1.2, 0.1), bounded, 16)


@pytest.mark.parametrize("make_spec", [
    deformation.squared,
    lambda: deformation.DeformationSpec("table", [0.0, 1.0, 3.0, 6.0, 10.0]),
], ids=["squared", "tabulated"])
def test_n_trunc_at_exactly_the_cache_depth(make_spec):
    # a basis of n_trunc levels needs e_0 .. e_{n_trunc - 1}: n_cache + 1 levels
    # fit the cache, n_cache + 2 do not
    spec = make_spec()
    params = RamanParams(1.0, 1.3, 20.0)
    for n_trunc in (spec.n_cache + 1, spec.n_cache + 2):
        joint = AtomFieldState.product(0.6, 0.8, FieldState.fock(1, n_trunc))
        calls = [lambda: nonlinear_cs(0.5, spec, n_trunc),
                 lambda: gkcs(GKLabel(0.5, 0.3), spec, n_trunc),
                 lambda: rabi_frequencies(params, spec, n_trunc),
                 lambda: closed_form_eff(joint, params, spec, 0.7)]
        for call in calls:
            if n_trunc == spec.n_cache + 1:
                call()
            else:
                with pytest.raises(ValueError, match="cache depth"):
                    call()
