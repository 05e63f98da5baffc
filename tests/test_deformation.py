import math

import numpy as np
import pytest

from gkraman import deformation
from gkraman.deformation import (DEFAULT_N_CACHE, DeformationSpec, deformed_lower, get_spec,
                                 harmonic, load_spectrum_table, poschl_teller, squared)
from gkraman.errors import NonPhysicalSpectrum
from gkraman.fockspace import FieldState, choose_truncation
from gkraman.states import nonlinear_cs


# ---------------------------------------------------------------------------
# spectrum validation
# ---------------------------------------------------------------------------

def test_e0_must_vanish():
    with pytest.raises(NonPhysicalSpectrum):
        DeformationSpec("bad", np.arange(9) + 0.1)


def test_spectrum_must_be_positive():
    with pytest.raises(NonPhysicalSpectrum):
        DeformationSpec("bad", -np.arange(9.0))


def test_spectrum_must_increase_strictly():
    with pytest.raises(NonPhysicalSpectrum):
        DeformationSpec("bad", np.minimum(np.arange(9.0), 3.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectrum_must_be_finite(bad):
    with pytest.raises(NonPhysicalSpectrum, match="not finite"):
        DeformationSpec("bad", [0.0, 1.0, bad, 3.0])


def test_registry_monotonicity_exact(registry_specs):
    for spec in registry_specs:
        assert np.all(np.diff(spec.e_values) > 0)
        assert spec.e_values[0] == 0.0


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.37])
def test_registry_tables_bit_exact(kappa):
    # the registry tables against the per-n Python formulas, entry by entry
    ns = range(DEFAULT_N_CACHE + 1)
    for spec, formula in ((harmonic(), lambda n: float(n)),
                          (squared(), lambda n: float(n) ** 2),
                          (poschl_teller(kappa), lambda n: float(n) * (float(n) + 2.0 * kappa))):
        assert spec.n_cache == DEFAULT_N_CACHE
        np.testing.assert_array_equal(spec.e_values, [formula(n) for n in ns])


def test_spec_keeps_a_private_read_only_table():
    table = np.array([0.0, 1.0, 3.0])
    spec = DeformationSpec("copy", table)
    table[2] = 2.0
    assert spec.e_values[2] == 3.0 and spec.n_cache == 2
    with pytest.raises(ValueError):
        spec.e_values[1] = 0.5


def test_poschl_teller_kappa_must_be_positive():
    with pytest.raises(ValueError, match="kappa must be positive"):
        poschl_teller(kappa=0.0)
    assert poschl_teller(kappa=1e-9).e_values[1] == 1.0 + 2e-9


# ---------------------------------------------------------------------------
# f and the factorials
# ---------------------------------------------------------------------------

def test_f_values_spot_values(harmonic_spec, squared_spec):
    assert harmonic_spec.f_values[5] == 1.0
    assert squared_spec.f_values[4] == 2.0
    # e_n = n (n + 1)
    assert abs(poschl_teller(0.5).f_values[3] - 2.0) < 1e-15


def test_f_factorial_conventions(harmonic_spec, squared_spec):
    assert math.exp(harmonic_spec.log_f_factorials[0]) == 1.0
    assert math.exp(squared_spec.log_f_factorials[0]) == 1.0
    for n in (1, 3, 7, 20):
        assert abs(math.exp(harmonic_spec.log_f_factorials[n]) - 1.0) < 1e-14


def test_f_factorial_squared_direct_product_oracle(squared_spec):
    expected = math.prod(math.sqrt(k) for k in range(1, 5))  # = sqrt(24)
    assert abs(math.exp(squared_spec.log_f_factorials[4]) - expected) < 1e-12 * expected


def test_e_factorial_values(harmonic_spec, squared_spec):
    assert math.exp(harmonic_spec.log_e_factorials[0]) == 1.0
    assert abs(math.exp(harmonic_spec.log_e_factorials[4]) - 24.0) < 1e-12 * 24
    assert abs(math.exp(squared_spec.log_e_factorials[3]) - 36.0) < 1e-12 * 36  # 1 * 4 * 9


def test_factorial_identity_up_to_128(registry_specs):
    # [e_n]! = n! ([f(n)]!)^2, accumulated through independent caches
    for spec in registry_specs:
        for n in range(129):
            lhs = spec.log_e_factorials[n]
            rhs = spec.log_factorials[n] + 2.0 * spec.log_f_factorials[n]
            assert abs(math.expm1(rhs - lhs)) < 1e-10, (spec.name, n)


def test_cache_bound_is_enforced(harmonic_spec):
    with pytest.raises(ValueError):
        harmonic_spec.e_at(harmonic_spec.n_cache + 1)


# ---------------------------------------------------------------------------
# deformed lowering operator
# ---------------------------------------------------------------------------

def test_deformed_lower_annihilates_vacuum(squared_spec):
    out = deformed_lower(squared_spec, FieldState.fock(0, 5))
    assert np.all(out == 0)


def test_deformed_lower_single_photon_harmonic(harmonic_spec):
    out = deformed_lower(harmonic_spec, FieldState.fock(1, 5))
    np.testing.assert_allclose(out, [1, 0, 0, 0, 0], atol=1e-15)


def test_deformed_lower_matches_plain_lowering_for_harmonic(harmonic_spec):
    rng = np.random.default_rng(3)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    state = v / np.linalg.norm(v)
    lowering = np.diag(np.sqrt(np.arange(1, 9)), k=1)
    np.testing.assert_allclose(deformed_lower(harmonic_spec, state),
                               lowering @ state, atol=1e-14)


def test_deformed_lower_eigenstate_residual(squared_spec):
    z = 0.8
    n_trunc = choose_truncation(z, squared_spec, 1e-20)
    state = nonlinear_cs(z, squared_spec, n_trunc)
    residual = np.linalg.norm(deformed_lower(squared_spec, state) - z * state.amplitudes)
    assert residual < 1e-10


# ---------------------------------------------------------------------------
# tabulated spectra
# ---------------------------------------------------------------------------

def test_tabulated_roundtrip(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# test spectrum\n0\n1.5\n\n3.25\n7.0 # inline comment\n")
    spec = load_spectrum_table(path)
    np.testing.assert_allclose(spec.e_values, [0, 1.5, 3.25, 7.0])
    assert spec.n_cache == 3


def test_tabulated_rejects_bad_first_value(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("0.1\n1\n2\n")
    with pytest.raises(NonPhysicalSpectrum):
        load_spectrum_table(path)


def test_tabulated_rejects_garbage(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("0\nnot-a-number\n")
    with pytest.raises(ValueError):
        load_spectrum_table(path)


def test_tabulated_needs_two_entries():
    with pytest.raises(ValueError, match="at least e_0 and e_1"):
        DeformationSpec("short", [0.0])
    assert DeformationSpec("shortest", [0.0, 1.0]).n_cache == 1


def test_tabulated_must_be_one_dimensional():
    with pytest.raises(ValueError, match="must be 1-d"):
        DeformationSpec("grid", [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="must be 1-d"):
        DeformationSpec("scalar", 0.0)


def test_get_spec_registry():
    assert get_spec("harmonic").name == "harmonic"
    assert get_spec("poschl_teller", kappa=2.0).e_values[1] == 5.0
    with pytest.raises(ValueError):
        get_spec("unknown")


def test_e_at_interpolates(harmonic_spec, squared_spec):
    assert harmonic_spec.e_at(1.5) == 1.5
    assert abs(squared_spec.e_at(2.0) - 4.0) < 1e-14


def test_e_at_rejects_negative_excitation(squared_spec):
    assert squared_spec.e_at(0.0) == 0.0
    with pytest.raises(ValueError, match="non-negative"):
        squared_spec.e_at(-0.5)
