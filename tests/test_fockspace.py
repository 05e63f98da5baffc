import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkraman import deformation
from gkraman.errors import DimensionMismatch, DivergentSeries, ZeroVector
from gkraman.fockspace import (AtomFieldState, FieldState, choose_truncation,
                               fidelity, mean_excitation, normalize)
from gkraman.states import nonlinear_cs

finite_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


def _pad(state: FieldState, n_trunc: int) -> FieldState:
    v = np.zeros(n_trunc, dtype=complex)
    v[:state.n_trunc] = state.amplitudes
    return normalize(v)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_unit_vector_unchanged():
    s = normalize([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(s.amplitudes, [1, 0, 0])


def test_normalize_rescales_scalar_multiple():
    s = normalize([2.0, 0.0, 0.0])
    np.testing.assert_array_equal(s.amplitudes, [1, 0, 0])


def test_normalize_random_vector_against_direct_sum():
    rng = np.random.default_rng(42)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = normalize(v)
    # independent oracle: norm by explicit summation of |v_n|^2
    norm_sq = math.fsum(abs(x) ** 2 for x in s.amplitudes)
    assert abs(norm_sq - 1.0) < 1e-12
    expected = v / math.sqrt(math.fsum(abs(x) ** 2 for x in v))
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-14)


def test_normalize_zero_vector_raises():
    with pytest.raises(ZeroVector):
        normalize([0.0, 0.0])
    with pytest.raises(ZeroVector):
        normalize([1e-301, 0.0])


def test_norm_checks_reject_nan():
    # NaN compares False both ways, so the checks must be written to fail on it
    for build in (lambda: FieldState([math.nan, 0.0]),
                  lambda: AtomFieldState(np.full((3, 2), math.nan)),
                  lambda: normalize([math.nan, 1.0])):
        with pytest.raises(ValueError, match="not finite") as excinfo:
            build()
        assert not isinstance(excinfo.value, ZeroVector)


def test_normalize_rejects_two_row_array():
    with pytest.raises(ValueError, match=r"unsupported amplitude shape \(2, 3\)"):
        normalize(np.ones((2, 3)))


@pytest.mark.parametrize("build, message", [
    (lambda: FieldState(np.ones((2, 2)) / 2.0), "field amplitudes must be a non-empty 1-d"),
    (lambda: FieldState([]), "field amplitudes must be a non-empty 1-d"),
    (lambda: AtomFieldState(np.ones((2, 3)) / 6 ** 0.5), r"joint amplitudes must have shape \(3"),
    (lambda: FieldState([0.6, 0.6]), r"field state is not normalized \(norm = 0\.84"),
    (lambda: AtomFieldState(np.ones((3, 1))), r"joint state is not normalized \(norm = 1\.73"),
], ids=["field-2d", "field-empty", "joint-2-rows", "field-norm", "joint-norm"])
def test_state_amplitude_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_fock_index_outside_basis():
    for n in (-1, 3):
        with pytest.raises(ValueError, match=rf"fock index {n} outside basis 0\.\.2"):
            FieldState.fock(n, 3)


def test_normalize_joint_shape_dispatch():
    v = np.zeros((3, 4), dtype=complex)
    v[1, 2] = 2.0
    s = normalize(v)
    assert isinstance(s, AtomFieldState)
    assert s.e[2] == 1.0
    assert np.sum(np.abs(s.e) ** 2) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_complex, min_size=1, max_size=24))
def test_normalize_idempotent(values):
    v = np.array(values)
    if np.linalg.norm(v) < 1e-150:
        v[0] += 1.0
    once = normalize(v)
    twice = normalize(once.amplitudes)
    np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-14)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_self_is_one():
    rng = np.random.default_rng(1)
    s = normalize(rng.normal(size=12) + 1j * rng.normal(size=12))
    assert abs(fidelity(s, s) - 1.0) < 1e-12


def test_fidelity_orthogonal_fock_states():
    assert fidelity(FieldState.fock(0, 4), FieldState.fock(1, 4)) == 0.0


def test_fidelity_canonical_coherent_pair_gaussian_overlap(harmonic_spec):
    # oracle: |<a|b>|^2 = exp(-|a-b|^2) for canonical coherent states
    a = nonlinear_cs(0.0, harmonic_spec, 32)
    b = nonlinear_cs(1.0, harmonic_spec, 32)
    assert abs(fidelity(a, b) - math.exp(-1.0)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_complex, min_size=2, max_size=12),
       st.lists(finite_complex, min_size=2, max_size=12))
def test_fidelity_symmetric_and_bounded(xs, ys):
    n = min(len(xs), len(ys))
    vx, vy = np.array(xs[:n]), np.array(ys[:n])
    if np.linalg.norm(vx) < 1e-150:
        vx[0] += 1.0
    if np.linalg.norm(vy) < 1e-150:
        vy[0] += 1.0
    a, b = normalize(vx), normalize(vy)
    f = fidelity(a, b)
    assert f == fidelity(b, a)
    assert -1e-12 <= f <= 1.0 + 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(FieldState.fock(0, 4), FieldState.fock(0, 5))


# ---------------------------------------------------------------------------
# mean_excitation
# ---------------------------------------------------------------------------

def test_mean_excitation_vacuum():
    assert mean_excitation(FieldState.fock(0, 3)) == 0.0


def test_mean_excitation_two_level_mix():
    s = normalize([1.0, 0.0, 1.0])
    assert abs(mean_excitation(s) - 1.0) < 1e-14


def test_mean_excitation_canonical_cs_poisson_mean(harmonic_spec):
    # oracle: Poisson mean |z|^2
    n_trunc = choose_truncation(1.5, harmonic_spec, 1e-16)
    s = nonlinear_cs(1.5, harmonic_spec, n_trunc)
    assert abs(mean_excitation(s) - 2.25) < 1e-10


# ---------------------------------------------------------------------------
# choose_truncation
# ---------------------------------------------------------------------------

def test_choose_truncation_vacuum(harmonic_spec, squared_spec):
    assert choose_truncation(0.0, harmonic_spec) == 1
    assert choose_truncation(0.0, squared_spec) == 1


def _poisson_tail_cutoff(lam_num: int, tail_tol_exp: int) -> int:
    # independent oracle: exact rational Poisson weights lam^n / n!
    from fractions import Fraction
    weights = [Fraction(lam_num ** n, math.factorial(n)) for n in range(160)]
    total = sum(weights)
    tol = Fraction(1, 10 ** tail_tol_exp)
    for n_keep in range(1, 160):
        if sum(weights[n_keep:], Fraction(0)) / total < tol:
            return n_keep
    raise AssertionError("oracle did not converge")


def test_choose_truncation_matches_poisson_tail_oracle(harmonic_spec):
    got = choose_truncation(2.0, harmonic_spec, 1e-12)
    assert got == _poisson_tail_cutoff(4, 12)


def test_choose_truncation_squared_spectrum_partial_sum_oracle(harmonic_spec, squared_spec):
    # weights |z|^{2n} / [e_n]! with [e_n]! = (n!)^2, exact integers
    weights = [1.0 / math.factorial(n) ** 2 for n in range(80)]
    total = math.fsum(weights)
    expected = next(n for n in range(1, 80)
                    if math.fsum(weights[n:]) / total < 1e-12)
    got = choose_truncation(1.0, squared_spec, 1e-12)
    assert got == expected
    # faster-than-Poisson decay cannot need a larger basis
    assert got <= choose_truncation(1.0, harmonic_spec, 1e-12)


@pytest.mark.parametrize("z", [0.4, 1.0, 1.7])
def test_choose_truncation_monotone_in_tail_tol(z, harmonic_spec):
    tols = [1e-14, 1e-10, 1e-6, 1e-2]
    sizes = [choose_truncation(z, harmonic_spec, tol) for tol in tols]
    assert sizes == sorted(sizes, reverse=True)


def test_choose_truncation_divergent_for_bounded_spectrum():
    # e_n -> 1, so the expansion diverges for |z| >= 1
    bounded = deformation.DeformationSpec("bounded", [n / (n + 1.0) for n in range(200)])
    with pytest.raises(DivergentSeries):
        choose_truncation(1.5, bounded)
    assert choose_truncation(0.3, bounded) >= 1


def test_choose_truncation_stability_under_padding(harmonic_spec):
    # growing the basis by 8 moves any fidelity by less than 10 * tail_tol
    tail_tol = 1e-12
    z = 1.3
    n = choose_truncation(z, harmonic_spec, tail_tol)
    wide = n + 16
    reference = _pad(nonlinear_cs(0.9, harmonic_spec, wide), wide)
    fid_n = fidelity(_pad(nonlinear_cs(z, harmonic_spec, n), wide), reference)
    fid_n8 = fidelity(_pad(nonlinear_cs(z, harmonic_spec, n + 8), wide), reference)
    assert abs(fid_n - fid_n8) < 10 * tail_tol


def test_choose_truncation_beyond_cache_remainder():
    # on short prefixes of the squared spectrum the geometric bound on the terms
    # beyond the cache decides N; the true tail is taken over n = 0 .. 512 of the
    # full spectrum, with [e_n]! = (n!)^2 from lgamma
    log_e_fact = 2.0 * np.array([math.lgamma(n + 1) for n in range(513)])
    full = deformation.squared()
    checked = 0
    for top in (8, 12, 19):
        prefix = deformation.DeformationSpec("prefix", full.e_values[:top + 1])
        for tail_tol in (1e-2, 1e-3):
            for z in np.linspace(0.05 * top, 0.99 * top, 400):
                try:
                    n = choose_truncation(z, prefix, tail_tol)
                except DivergentSeries:
                    continue
                log_w = 2.0 * np.arange(513) * math.log(z) - log_e_fact
                tail = math.exp(np.logaddexp.reduce(log_w[n:]) - np.logaddexp.reduce(log_w))
                assert tail <= tail_tol, (top, tail_tol, z, n, tail)
                checked += 1
    assert checked > 1000
    # a point where the remainder bound alone moves N from 18 to 19
    prefix = deformation.DeformationSpec("prefix", full.e_values[:20])
    assert choose_truncation(10.16015, prefix, 1e-3) == 19


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

def test_top_kept_level_tracks_tail_tol(harmonic_spec):
    # at the minimal basis size the last kept weight sits just above the
    # dropped tail (~ tail_tol / decay ratio), so the witness tracks tail_tol
    # in order of magnitude and shrinks as the tolerance tightens
    s = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec))
    top = abs(s.amplitudes[-1]) ** 2
    assert top < 1e-10
    tight = nonlinear_cs(1.0, harmonic_spec, choose_truncation(1.0, harmonic_spec, 1e-16))
    tight_top = abs(tight.amplitudes[-1]) ** 2
    assert tight_top < 1e-14
    assert tight_top < top


def test_states_are_immutable():
    s = FieldState.fock(0, 3)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_atom_field_product_state():
    field = FieldState.fock(1, 3)
    joint = AtomFieldState.product(0.6, 0.8, field)
    assert abs(joint.g[1] - 0.6) < 1e-15
    assert abs(joint.e[1] - 0.8) < 1e-15
    assert np.all(joint.i == 0)
    assert abs(np.linalg.norm(joint.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ZeroVector):
        AtomFieldState.product(0.0, 0.0, field)
