"""Self-check suites behind the ``verify`` command.

Each suite measures violations of the defining properties of the simulator
(eigenstate relation, temporal stability, action identity, Hermiticity,
propagator agreement, collapse behaviour) and reports them as
:class:`CheckResult` rows; a row passes when its residual is below its
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import deformation, states
from .deformation import DeformationSpec, deformed_lower
from .evolution import closed_form_eff, closed_form_I, oracle_evolve, rotating_frame_I
from .fockspace import AtomFieldState, choose_truncation, fidelity
from .hamiltonian import (RamanParams, build_field_H, build_H_e, build_H_eff,
                          build_H_I, build_H_s)
from .protocol import inject_atom
from .states import GKLabel, evolve_free, gkcs, nonlinear_cs

#: Tight tail tolerance so truncation edges never dominate residuals.
_EDGE_TAIL_TOL = 1e-20

#: Coherent-state labels probed by the eigenstate and action-identity suites.
_Z_VALUES = (0.3, 0.8, 1.2)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def default_specs() -> list[DeformationSpec]:
    return [deformation.harmonic(), deformation.squared(), deformation.poschl_teller(1.0)]


def spectrum_suite(specs: Sequence[DeformationSpec]) -> list[CheckResult]:
    """Strict monotonicity and the factorial identity [e_n]! = n! ([f(n)]!)^2."""
    out = []
    for spec in specs:
        grow = float(np.min(np.diff(spec.e_values)))
        out.append(CheckResult("spectrum", f"{spec.name}: e strictly increasing",
                               0.0 if grow > 0 else 1.0, 0.5))
        top = min(128, spec.n_cache)
        lhs = spec.log_e_factorials[:top + 1]
        rhs = spec.log_factorials[:top + 1] + 2.0 * spec.log_f_factorials[:top + 1]
        rel = float(np.max(np.abs(np.expm1(rhs - lhs))))
        out.append(CheckResult("spectrum", f"{spec.name}: factorial identity n<={top}",
                               rel, 1e-10))
    return out


def eigenstate_suite(specs: Sequence[DeformationSpec]) -> list[CheckResult]:
    """||a f(n) |z,f> - z |z,f>|| on a tight truncation."""
    out = []
    for spec in specs:
        for z in _Z_VALUES:
            n_trunc = choose_truncation(z, spec, _EDGE_TAIL_TOL)
            state = nonlinear_cs(z, spec, n_trunc)
            residual = float(np.linalg.norm(
                deformed_lower(spec, state) - z * state.amplitudes))
            out.append(CheckResult("eigenstate", f"{spec.name}, z={z:g}", residual, 1e-8))
    return out


def temporal_stability_suite(specs: Sequence[DeformationSpec]) -> list[CheckResult]:
    """Free evolution shifts the GK label alpha -> alpha + t; nonlinear states drift."""
    out = []
    for spec in specs:
        for z, alpha, t in ((0.5, 0.0, 0.3), (1.0, 0.4, 0.9), (1.2, -0.2, 2.0)):
            n_trunc = choose_truncation(z, spec, _EDGE_TAIL_TOL)
            start = gkcs(GKLabel(z, alpha), spec, n_trunc)
            target = gkcs(GKLabel(z, alpha + t), spec, n_trunc)
            gap = 1.0 - fidelity(evolve_free(start, spec, t), target)
            out.append(CheckResult("temporal-stability",
                                   f"{spec.name}, z={z:g}, alpha={alpha:g}, t={t:g}",
                                   abs(gap), 1e-12))
    drift_spec = deformation.squared()
    n_trunc = choose_truncation(1.0, drift_spec, _EDGE_TAIL_TOL)
    state = nonlinear_cs(1.0, drift_spec, n_trunc)
    fid = fidelity(evolve_free(state, drift_spec, 0.7), state)
    out.append(CheckResult("temporal-stability",
                           "nonlinear state is unstable (squared, z=1, t=0.7)",
                           max(0.0, fid - (1.0 - 1e-3)), 1e-15))
    return out


def action_identity_suite(specs: Sequence[DeformationSpec]) -> list[CheckResult]:
    out = []
    for spec in specs:
        for z in _Z_VALUES:
            gap = abs(states.action_identity_check(GKLabel(z, 0.25), spec) - z ** 2)
            out.append(CheckResult("action-identity", f"{spec.name}, z={z:g}", gap, 1e-8))
    return out


def hermiticity_suite(specs: Sequence[DeformationSpec]) -> list[CheckResult]:
    """Hermiticity of every builder and sector block structure of H_I."""
    draws, rng = 10, np.random.default_rng(11)
    n_trunc = 12
    worst_herm = 0.0
    worst_block = 0.0
    for _ in range(draws):
        spec = specs[rng.integers(len(specs))]
        params = RamanParams(g1=rng.uniform(0.5, 2.0), g2=rng.uniform(0.5, 2.0),
                             delta=rng.uniform(5.0, 50.0))
        t = rng.uniform(0.0, 3.0)
        h_i = build_H_I(params, spec, t, n_trunc)
        mats = [h_i.matrix,
                build_H_e(params, spec, n_trunc).matrix,
                build_H_s(params, spec, n_trunc).matrix,
                build_H_eff(params, spec, n_trunc).matrix,
                build_field_H(spec, n_trunc).matrix]
        worst_herm = max(worst_herm,
                         max(float(np.max(np.abs(m - m.conj().T))) for m in mats))
        # any entry outside the excitation sectors {(g,n), (i,n-1), (e,n)} must vanish
        allowed = np.zeros_like(h_i.matrix, dtype=bool)
        np.fill_diagonal(allowed, True)
        for n in range(1, n_trunc):
            for a, b in ((("g", n), ("i", n - 1)), (("e", n), ("i", n - 1))):
                ia, ib = h_i.index(*a), h_i.index(*b)
                allowed[ia, ib] = allowed[ib, ia] = True
        worst_block = max(worst_block, float(np.max(np.abs(h_i.matrix[~allowed]))))
    return [CheckResult("hamiltonian", f"hermiticity over {draws} draws", worst_herm, 1e-12),
            CheckResult("hamiltonian", "no coupling between excitation sectors",
                        worst_block, 1e-15)]


def propagator_suite(specs: Sequence[DeformationSpec]) -> list[CheckResult]:
    """Closed forms vs exact exponentials of their generators; unitarity."""
    draws, rng = 5, np.random.default_rng(23)
    worst_int = 0.0
    worst_eff = 0.0
    worst_norm = 0.0
    for _ in range(draws):
        spec = specs[rng.integers(len(specs))]
        params = RamanParams(g1=rng.uniform(0.5, 2.0), g2=rng.uniform(0.5, 2.0),
                             delta=rng.uniform(5.0, 50.0))
        z = rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        n_trunc = choose_truncation(z, spec)
        field = nonlinear_cs(z, spec, n_trunc)
        theta = rng.uniform(0, math.pi)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        initial = AtomFieldState.product(math.cos(theta), math.sin(theta) * phase, field)
        t = rng.uniform(0.1, 0.4)

        exact = closed_form_I(initial, params, spec, t)
        oracle = rotating_frame_I(initial, params, spec, t)
        worst_int = max(worst_int, float(np.linalg.norm(exact.amplitudes - oracle.amplitudes)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(exact.amplitudes) - 1.0))

        eff = closed_form_eff(initial, params, spec, t)
        eff_oracle = oracle_evolve(lambda _: build_H_eff(params, spec, n_trunc),
                                   initial, t, steps=1)
        worst_eff = max(worst_eff, float(np.linalg.norm(eff.amplitudes - eff_oracle.amplitudes)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(eff.amplitudes) - 1.0))
    return [CheckResult("propagators", f"interaction closed form vs oracle ({draws} draws)",
                        worst_int, 1e-12),
            CheckResult("propagators", "effective closed form vs exact exponential",
                        worst_eff, 1e-10),
            CheckResult("propagators", "unitarity of closed forms", worst_norm, 1e-10)]


def collapse_suite() -> list[CheckResult]:
    """Single-atom postselection: eps = +1 makes a GK state, eps = -1 is inert."""
    spec = deformation.squared()
    params = RamanParams(g1=1.0, g2=1.0, delta=40.0)
    z, tau = 0.8, 0.6
    n_trunc = choose_truncation(z, spec)
    field = nonlinear_cs(z, spec, n_trunc)

    p_plus, collapsed = inject_atom(field, 1.0, params, spec, tau)
    target = gkcs(GKLabel(z, -2.0 * params.effective_coupling * tau), spec, n_trunc)
    p_minus, unchanged = inject_atom(field, -1.0, params, spec, tau)
    return [
        CheckResult("collapse", "eps=+1 detection probability 1/2", abs(p_plus - 0.5), 1e-12),
        CheckResult("collapse", "eps=+1 collapses onto the GK state",
                    1.0 - fidelity(collapsed, target), 1e-12),
        CheckResult("collapse", "eps=-1 detection probability 1/2", abs(p_minus - 0.5), 1e-12),
        CheckResult("collapse", "eps=-1 leaves the field unchanged",
                    1.0 - fidelity(unchanged, field), 1e-12),
    ]


def run_all_suites(extra_specs: Sequence[DeformationSpec] = ()) -> list[CheckResult]:
    specs = default_specs() + list(extra_specs)
    results = []
    results += spectrum_suite(specs)
    results += eigenstate_suite(specs)
    results += temporal_stability_suite(specs)
    results += action_identity_suite(specs)
    results += hermiticity_suite(specs)
    results += propagator_suite(specs)
    results += collapse_suite()
    return results
