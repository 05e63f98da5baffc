import math

import numpy as np
import pytest
from scipy.linalg import expm

from gkraman.errors import DetectionImprobable, DimensionMismatch
from gkraman.fockspace import FieldState, choose_truncation, fidelity
from gkraman.hamiltonian import RamanParams, build_H_eff
from gkraman.protocol import ProtocolConfig, inject_atom, protocol_report_lines, run_protocol
from gkraman.states import GKLabel, evolve_free, gkcs, nonlinear_cs
from oracles import IllConditioned, decompose_superposition

PARAMS = RamanParams(g1=1.0, g2=1.0, delta=25.0)
LAM = PARAMS.effective_coupling
Z, TAU = 0.8, 0.6


@pytest.fixture(scope="module")
def field(squared_spec):
    return nonlinear_cs(Z, squared_spec, choose_truncation(Z, squared_spec))


def _detection_oracle(field, epsilon, spec, tau):
    # independent projection oracle: evolve the joint state by the exact
    # matrix exponential of the effective Hamiltonian, then condition on |e>
    n_trunc = field.n_trunc
    scale = 1.0 / math.sqrt(1.0 + abs(epsilon) ** 2)
    joint = np.concatenate((epsilon * scale * field.amplitudes,
                            scale * field.amplitudes))
    evolved = expm(-1j * tau * build_H_eff(PARAMS, spec, n_trunc)) @ joint
    e_row = evolved[n_trunc:]
    p_e = float(np.sum(np.abs(e_row) ** 2))
    return p_e, e_row / np.linalg.norm(e_row)


# ---------------------------------------------------------------------------
# single-atom collapse
# ---------------------------------------------------------------------------

def test_eps_plus_one_collapses_to_gk_state(field, squared_spec):
    p_e, collapsed = inject_atom(field, 1.0, PARAMS, squared_spec, TAU)
    assert abs(p_e - 0.5) < 1e-12
    target = gkcs(GKLabel(Z, -2 * LAM * TAU), squared_spec, field.n_trunc)
    assert fidelity(collapsed, target) >= 1 - 1e-12
    # amplitude moduli survive the eps = 1 collapse entrywise
    np.testing.assert_allclose(np.abs(collapsed.amplitudes),
                               np.abs(field.amplitudes), atol=1e-12)


def test_eps_minus_one_leaves_field_unchanged(field, squared_spec):
    p_e, unchanged = inject_atom(field, -1.0, PARAMS, squared_spec, TAU)
    assert abs(p_e - 0.5) < 1e-12
    assert fidelity(unchanged, field) >= 1 - 1e-12


def test_zero_interaction_time_is_inert(field, squared_spec):
    p_e, collapsed = inject_atom(field, 0.37, PARAMS, squared_spec, 0.0)
    assert fidelity(collapsed, field) >= 1 - 1e-12
    assert p_e > 0.5  # atom mostly in |e>


def test_inject_atom_matches_projection_oracle(field, squared_spec):
    for eps in (1.0, -1.0, 0.5, 0.3 + 0.4j):
        p_got, collapsed = inject_atom(field, eps, PARAMS, squared_spec, TAU)
        p_exp, e_row = _detection_oracle(field, eps, squared_spec, TAU)
        assert abs(p_got - p_exp) < 1e-12
        assert abs(abs(np.vdot(collapsed.amplitudes, e_row)) - 1.0) < 1e-12


def test_detection_probability_formula(field, squared_spec):
    # P_e = sum_n |q_n|^2 |(1+eps) e^{2 i lam e_n tau} + (1-eps)|^2 / (4 (1+|eps|^2))
    for eps in (0.5, -0.25, 0.8 + 0.1j):
        phases = np.exp(2j * LAM * squared_spec.e_values[:field.n_trunc] * TAU)
        brackets = (1 + eps) * phases + (1 - eps)
        expected = float(np.sum(np.abs(field.amplitudes) ** 2 * np.abs(brackets) ** 2)
                         / (4 * (1 + abs(eps) ** 2)))
        p_got, _ = inject_atom(field, eps, PARAMS, squared_spec, TAU)
        assert abs(p_got - expected) < 1e-12


def test_generic_eps_component_ratio(field, squared_spec):
    # the collapsed field splits over {GK state, initial state} with
    # coefficient ratio (1 + eps) / (1 - eps)
    eps = 0.5
    _, collapsed = inject_atom(field, eps, PARAMS, squared_spec, TAU)
    components = [gkcs(GKLabel(Z, -2 * LAM * TAU), squared_spec, field.n_trunc), field]
    coeffs, residual = decompose_superposition(collapsed, components)
    assert residual < 1e-10
    ratio = coeffs[0] / coeffs[1]
    assert abs(ratio - (1 + eps) / (1 - eps)) < 1e-8


def test_detection_floor_raises(field, squared_spec):
    with pytest.raises(DetectionImprobable):
        inject_atom(field, 1.0, PARAMS, squared_spec, TAU, detection_floor=0.6)
    # huge |eps| on the vacuum: atom is in |g>, detection in |e> improbable
    vacuum = FieldState.fock(0, 1)
    with pytest.raises(DetectionImprobable):
        inject_atom(vacuum, 1e4, PARAMS, squared_spec, TAU)


# ---------------------------------------------------------------------------
# full protocol runs
# ---------------------------------------------------------------------------

def test_protocol_no_atoms(squared_spec):
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU, epsilons=())
    res = run_protocol(cfg)
    assert res.atoms == ()
    assert fidelity(res.final_field, res.initial_field) >= 1 - 1e-14
    assert res.component_labels == ("nonlinear",)
    assert abs(res.coefficients[0] - 1.0) < 1e-12
    assert res.residual < 1e-12


@pytest.mark.parametrize("spectrum, atoms", [("squared", 3), ("harmonic", 12)])
def test_protocol_all_plus_one_walks_the_gk_ladder(request, spectrum, atoms):
    # twelve harmonic GK components are numerically dependent (Gram condition
    # number ~1e17), so only the exact decomposition can resolve this ladder
    spec = request.getfixturevalue(f"{spectrum}_spec")
    cfg = ProtocolConfig(z=Z, spec=spec, params=PARAMS, tau=TAU,
                         epsilons=(1.0,) * atoms)
    res = run_protocol(cfg)
    for m, rec in enumerate(res.atoms, start=1):
        assert abs(rec.alpha_m - (-2.0 * m * LAM * TAU)) < 1e-15
        assert abs(rec.detection_probability - 0.5) < 1e-12
        assert rec.fidelity_to_gkcs >= 1 - 1e-10
    target = gkcs(GKLabel(Z, -2 * atoms * LAM * TAU), spec, res.final_field.n_trunc)
    assert fidelity(res.final_field, target) >= 1 - 1e-10
    # all mass on the top GK component
    assert abs(abs(res.coefficients[0]) - 1.0) < 1e-10
    assert all(abs(c) < 1e-10 for c in res.coefficients[1:])
    assert res.residual < 1e-10


def test_protocol_eps_one_then_minus_one(squared_spec):
    # the second atom's (1 - eps) branch is inert, leaving the first GK state
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                         epsilons=(1.0, -1.0))
    res = run_protocol(cfg)
    target = gkcs(GKLabel(Z, -2 * LAM * TAU), squared_spec, res.final_field.n_trunc)
    assert fidelity(res.final_field, target) >= 1 - 1e-12


def test_protocol_two_atom_decomposition_ratios(squared_spec):
    eps1, eps2 = 0.5, 0.25
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                         epsilons=(eps1, eps2))
    res = run_protocol(cfg)
    assert res.component_labels == ("alpha_2", "alpha_1", "nonlinear")
    predicted = np.array([(1 + eps1) * (1 + eps2),
                          2 * (1 - eps1 * eps2),
                          (1 - eps1) * (1 - eps2)])
    got = np.array(res.coefficients)
    np.testing.assert_allclose(got / got[0], predicted / predicted[0], atol=1e-8)
    assert res.residual < 1e-10


def test_protocol_three_atom_polynomial_oracle(squared_spec):
    # the final field expands as prod_j [(1-eps_j) + (1+eps_j) x] with
    # x^k |-> the GK component at alpha_k; oracle via polynomial convolution
    eps = (0.5, -0.3, 0.8)
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU, epsilons=eps)
    res = run_protocol(cfg)
    poly = np.array([1.0])
    for e in eps:
        poly = np.convolve(poly, np.array([1 - e, 1 + e]))
    # res.coefficients ordered [alpha_3, alpha_2, alpha_1, nonlinear] = x^3 .. x^0
    predicted = poly[::-1]
    got = np.array(res.coefficients)
    scale = got[0] / predicted[0]
    np.testing.assert_allclose(got, predicted * scale, atol=1e-10)
    assert res.residual < 1e-10
    # and with a least-squares fit over independently built GK states
    n_trunc = res.final_field.n_trunc
    components = [gkcs(GKLabel(Z, rec.alpha_m), squared_spec, n_trunc)
                  for rec in reversed(res.atoms)] + [nonlinear_cs(Z, squared_spec, n_trunc)]
    fitted, _ = decompose_superposition(res.final_field, components)
    np.testing.assert_allclose(got, fitted, atol=1e-9)


def test_protocol_four_atom_residual_over_registry(registry_specs):
    # the final field stays inside span{GK components, initial state} for
    # every registry spectrum and a coupling-time product spanning [0.1, 1]
    eps = (0.7, -0.4, 0.9, 0.2)
    for spec in registry_specs:
        for lam_tau in (0.1, 1.0):
            params = RamanParams(1.0, 1.0, 10.0)  # lambda = 0.1
            cfg = ProtocolConfig(z=1.2, spec=spec, params=params,
                                 tau=lam_tau / params.effective_coupling,
                                 epsilons=eps)
            res = run_protocol(cfg)
            assert res.residual < 1e-10, (spec.name, lam_tau, res.residual)
            assert len(res.coefficients) == 5


def test_protocol_alpha_increment_law(squared_spec):
    # one eps = 1 atom advances the label by -2 lambda tau; two atoms double it
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                         epsilons=(1.0, 1.0))
    res = run_protocol(cfg)
    assert res.atoms[1].alpha_m == 2 * res.atoms[0].alpha_m
    target = gkcs(GKLabel(Z, -4 * LAM * TAU), squared_spec, res.final_field.n_trunc)
    assert fidelity(res.final_field, target) >= 1 - 1e-10


def test_protocol_final_state_temporally_stable(squared_spec):
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                         epsilons=(1.0, 1.0))
    res = run_protocol(cfg)
    t = 0.9
    evolved = evolve_free(res.final_field, squared_spec, t)
    shifted = gkcs(GKLabel(Z, res.atoms[-1].alpha_m + t), squared_spec,
                   res.final_field.n_trunc)
    assert fidelity(evolved, shifted) >= 1 - 1e-12


def test_protocol_detection_improbable_carries_atom_index(squared_spec):
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                         epsilons=(1.0, 1.0), detection_floor=0.6)
    with pytest.raises(DetectionImprobable) as excinfo:
        run_protocol(cfg)
    assert excinfo.value.atom_index == 1
    assert "atom 1" in str(excinfo.value)


def test_protocol_config_validation(squared_spec):
    unequal = RamanParams(1.0, 1.2, 25.0)
    with pytest.raises(ValueError):
        ProtocolConfig(z=Z, spec=squared_spec, params=unequal, tau=TAU, epsilons=(1,))
    with pytest.raises(ValueError):
        ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=0.0, epsilons=(1,))
    with pytest.raises(ValueError):
        ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU, epsilons=(1,),
                       detection_floor=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=math.nan, epsilons=(1,))
    with pytest.raises(ValueError):
        ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU, epsilons=(1, math.nan))


def test_truncation_robustness_of_protocol_fidelities(squared_spec):
    # n_trunc + 8 moves every reported fidelity by < 1e-10
    base = choose_truncation(Z, squared_spec)
    results = []
    for n_trunc in (base, base + 8):
        cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                             epsilons=(1.0, 0.5), n_trunc=n_trunc)
        res = run_protocol(cfg)
        results.append([rec.fidelity_to_gkcs for rec in res.atoms])
    for f_base, f_wide in zip(*results):
        assert abs(f_base - f_wide) < 1e-10


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_identity(field, squared_spec):
    other = gkcs(GKLabel(Z, 0.9), squared_spec, field.n_trunc)
    coeffs, residual = decompose_superposition(field, [field, other])
    assert abs(coeffs[0] - 1.0) < 1e-10
    assert abs(coeffs[1]) < 1e-10
    assert residual < 1e-12


def test_decompose_orthogonal_component():
    target = FieldState.fock(0, 6)
    comp = FieldState.fock(3, 6)
    coeffs, residual = decompose_superposition(target, [comp])
    assert abs(coeffs[0]) < 1e-14
    assert abs(residual - 1.0) < 1e-14


def test_decompose_ill_conditioned_duplicates(field):
    with pytest.raises(IllConditioned):
        decompose_superposition(field, [field, field])


def test_decompose_dimension_mismatch(field, squared_spec):
    with pytest.raises(DimensionMismatch):
        decompose_superposition(field, [FieldState.fock(0, field.n_trunc + 1)])


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_protocol_report_is_deterministic(squared_spec):
    cfg = ProtocolConfig(z=Z, spec=squared_spec, params=PARAMS, tau=TAU,
                         epsilons=(1.0, 0.5))
    lines_a = protocol_report_lines(run_protocol(cfg))
    lines_b = protocol_report_lines(run_protocol(cfg))
    assert lines_a == lines_b
    assert lines_a[0].startswith("atom,epsilon_re")
    assert lines_a[1].startswith("1,1,0,0.5,")
    assert any(line.startswith("alpha_2,") for line in lines_a)
    assert lines_a[-1].startswith("residual,")
