import math

import numpy as np
import pytest

from gkraman.hamiltonian import RamanParams, build_H_eff, build_H_I

PARAMS = RamanParams(g1=1.3, g2=0.7, delta=25.0)


def _index(level, n, n_trunc):
    """Row of |level, n> in a builder's matrix: levels (g, e, i), or (g, e) for H_eff."""
    return "gei".index(level) * n_trunc + n


def _random_params(rng):
    return RamanParams(g1=rng.uniform(0.5, 2.0), g2=rng.uniform(0.5, 2.0),
                       delta=rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 50.0))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_derived_quantities():
    p = RamanParams(1.5, 0.8, 12.0)
    assert p.coupling_sq_sum == 1.5 ** 2 + 0.8 ** 2
    assert abs(p.effective_coupling * p.delta - p.g1 * p.g2) < 1e-14 * p.g1 * p.g2
    assert p.stark_shift_g == 1.5 ** 2 / 12.0
    assert p.stark_shift_e == 0.8 ** 2 / 12.0


def test_params_validation():
    with pytest.raises(ValueError):
        RamanParams(0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        RamanParams(1.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        RamanParams(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# interaction-picture builder
# ---------------------------------------------------------------------------

def test_h_i_vacuum_only_is_zero(harmonic_spec):
    m = build_H_I(PARAMS, harmonic_spec, t=0.7, n_trunc=1)
    assert m.shape == (3, 3) and m.dtype == np.complex128
    assert np.all(m == 0)


def test_h_i_first_sector_plain_couplings(harmonic_spec):
    m = build_H_I(PARAMS, harmonic_spec, t=0.0, n_trunc=2)
    g1_elem = m[_index("i", 0, 2), _index("g", 1, 2)]
    g2_elem = m[_index("i", 0, 2), _index("e", 1, 2)]
    assert g1_elem == PARAMS.g1
    assert g2_elem == PARAMS.g2


def test_h_i_entrywise_oracle(squared_spec):
    # independent element-by-element construction
    t, n_trunc = 0.3, 4
    m = build_H_I(PARAMS, squared_spec, t, n_trunc)
    expected = np.zeros((3 * n_trunc, 3 * n_trunc), dtype=complex)
    for n in range(1, n_trunc):
        coupling = math.sqrt(n) * math.sqrt(n ** 2 / n)  # sqrt(n) f(n)
        up = np.exp(1j * PARAMS.delta * t)
        gi, ei, ii = n, n_trunc + n, 2 * n_trunc + n - 1
        expected[ii, gi] = PARAMS.g1 * coupling * up
        expected[gi, ii] = np.conj(expected[ii, gi])
        expected[ii, ei] = PARAMS.g2 * coupling * up
        expected[ei, ii] = np.conj(expected[ii, ei])
    np.testing.assert_allclose(m, expected, atol=1e-14)


def test_h_i_block_structure(registry_specs):
    # no matrix element may connect different excitation sectors
    n_trunc = 6
    for spec in registry_specs:
        m = build_H_I(PARAMS, spec, t=1.1, n_trunc=n_trunc)
        allowed = np.zeros(m.shape, dtype=bool)
        np.fill_diagonal(allowed, True)
        for n in range(1, n_trunc):
            for a, b in ((("g", n), ("i", n - 1)), (("e", n), ("i", n - 1))):
                allowed[_index(*a, n_trunc), _index(*b, n_trunc)] = True
                allowed[_index(*b, n_trunc), _index(*a, n_trunc)] = True
        assert np.all(m[~allowed] == 0)


# ---------------------------------------------------------------------------
# effective Hamiltonian
# ---------------------------------------------------------------------------

def test_h_eff_harmonic_coupling_is_number_weighted_sigma_x(harmonic_spec):
    n_trunc = 5
    m = build_H_eff(PARAMS, harmonic_spec, n_trunc)
    assert m.shape == (10, 10) and m.dtype == np.complex128
    lam = PARAMS.effective_coupling
    for n in range(n_trunc):
        assert m[_index("g", n, n_trunc), _index("e", n, n_trunc)] == -lam * n
    assert np.all(m[_index("g", 0, n_trunc)] == 0)


def test_h_eff_squared_coupling_spot_value(squared_spec):
    m = build_H_eff(PARAMS, squared_spec, 5)
    # n f^2(n) = e_3 = 9
    assert m[_index("g", 3, 5), _index("e", 3, 5)] == -9 * PARAMS.effective_coupling


def test_h_eff_stark_diagonal_values(harmonic_spec, pt_spec):
    m = build_H_eff(PARAMS, pt_spec, 4)
    # e_2 = 2 * (2 + 2) = 8 for kappa = 1
    assert m[_index("g", 2, 4), _index("g", 2, 4)] == -8 * PARAMS.stark_shift_g
    assert m[_index("e", 2, 4), _index("e", 2, 4)] == -8 * PARAMS.stark_shift_e
    assert m[_index("g", 0, 4), _index("g", 0, 4)] == 0
    equal = RamanParams(1.1, 1.1, 9.0)
    m_eq = build_H_eff(equal, harmonic_spec, 4)
    lam = equal.effective_coupling
    for n in range(4):
        assert abs(m_eq[_index("g", n, 4), _index("g", n, 4)] + n * lam) < 1e-15


def test_h_eff_equal_coupling_block_eigenvalues(squared_spec):
    # 2x2 diagonalization oracle: eigenvalues {0, -2 lambda e_n} per block
    p = RamanParams(1.2, 1.2, 30.0)
    n_trunc = 5
    m = build_H_eff(p, squared_spec, n_trunc)
    for n in range(n_trunc):
        idx = [_index("g", n, n_trunc), _index("e", n, n_trunc)]
        block = m[np.ix_(idx, idx)]
        eig = np.sort(np.linalg.eigvalsh(block))
        e_n = n ** 2
        expected = np.sort([0.0, -2.0 * p.effective_coupling * e_n])
        np.testing.assert_allclose(eig, expected, atol=1e-12)


def test_h_eff_harmonic_reduces_to_plain_form(harmonic_spec):
    # the f = 1 limit: -lambda n sigma_x - n diag(lambda1, lambda2)
    n_trunc = 4
    m = build_H_eff(PARAMS, harmonic_spec, n_trunc)
    expected = np.zeros_like(m)
    for n in range(n_trunc):
        g, e = n, n_trunc + n
        expected[g, e] = expected[e, g] = -PARAMS.effective_coupling * n
        expected[g, g] = -PARAMS.stark_shift_g * n
        expected[e, e] = -PARAMS.stark_shift_e * n
    np.testing.assert_allclose(m, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# global properties
# ---------------------------------------------------------------------------

def test_hermiticity_over_random_draws(registry_specs):
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = registry_specs[rng.integers(len(registry_specs))]
        p = _random_params(rng)
        t = rng.uniform(0, 4)
        for m in (build_H_I(p, spec, t, 7), build_H_eff(p, spec, 7)):
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
