"""Exact closed-form propagators for the Raman dynamics, independent
numerical propagators used as their oracles, and the large-detuning equivalence
experiment between the interaction-picture and effective descriptions.

The interaction-picture solution acts inside each excitation sector
{|g,n>, |i,n-1>, |e,n>}; the effective solution inside {|g,n>, |e,n>}.
Both are driven by per-sector coefficient families evaluated at time t from
a zero-upper-level initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .deformation import DeformationSpec
from .errors import DimensionMismatch, InitialExcitedLevel
from .fockspace import AtomFieldState, FieldState, mean_excitation
from .hamiltonian import JointOperator, RamanParams, build_H_I

_FMT = "{:.15g}".format


@dataclass(frozen=True, eq=False)
class ClosedFormCoeffs:
    """Per-photon-number propagator coefficients at a fixed time.

    a1..a3, b1, b2 assemble the interaction-picture sector map
    (g, e) -> (g, i, e); d1..d3 the effective two-level map.  rabi holds the
    generalized Rabi frequencies sqrt(n f^2(n) G + delta^2 / 4).
    """

    rabi: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def rabi_frequencies(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> np.ndarray:
    """Generalized Rabi frequencies sqrt(n f^2(n) G + delta^2 / 4), n = 0 .. n_trunc-1."""
    spec._check_n(n_trunc - 1)
    e_vals = spec.e_values[:n_trunc]
    return np.sqrt(e_vals * params.coupling_sq_sum + 0.25 * params.delta ** 2)


def closed_form_coeffs(params: RamanParams, spec: DeformationSpec, t: float,
                       n_trunc: int) -> ClosedFormCoeffs:
    """Evaluate all sector coefficients at time t.

    The n = 0 sector (and t = 0) is set to the identity exactly, not through
    the trigonometric expressions, so vacuum amplitudes pass through
    bit-identically.
    """
    spec._check_n(n_trunc - 1)
    e_vals = spec.e_values[:n_trunc]
    n = n_trunc
    if t == 0.0:
        one = np.ones(n, dtype=np.complex128)
        zero = np.zeros(n, dtype=np.complex128)
        return ClosedFormCoeffs(rabi_frequencies(params, spec, n),
                                one, zero, one.copy(), zero.copy(), zero.copy(),
                                one.copy(), zero.copy(), one.copy())

    g1, g2, delta = params.g1, params.g2, params.delta
    big_g = params.coupling_sq_sum
    rabi = rabi_frequencies(params, spec, n)

    cos_r = np.cos(rabi * t)
    sin_r = np.sin(rabi * t)
    half_neg = np.exp(-0.5j * delta * t)
    half_pos = np.exp(0.5j * delta * t)

    a1 = half_neg * ((g2 ** 2 / big_g) * half_pos + (g1 ** 2 / big_g) * cos_r
                     + 1j * delta * g1 ** 2 / (2.0 * rabi * big_g) * sin_r)
    a2 = half_neg * ((-g1 * g2 / big_g) * half_pos + (g1 * g2 / big_g) * cos_r
                     + 1j * delta * g1 * g2 / (2.0 * rabi * big_g) * sin_r)
    a3 = half_neg * ((g1 ** 2 / big_g) * half_pos + (g2 ** 2 / big_g) * cos_r
                     + 1j * delta * g2 ** 2 / (2.0 * rabi * big_g) * sin_r)
    b1 = half_pos * (-1j * g1 * np.sqrt(e_vals) / rabi * sin_r)
    b2 = half_pos * (-1j * g2 * np.sqrt(e_vals) / rabi * sin_r)

    phase = np.exp(1j * e_vals * big_g * t / delta)
    d1 = (g2 ** 2 + g1 ** 2 * phase) / big_g
    d2 = g1 * g2 * (phase - 1.0) / big_g
    d3 = (g1 ** 2 + g2 ** 2 * phase) / big_g

    # Sectors with n f^2(n) = 0 (only n = 0) are exactly stationary.
    rest = e_vals == 0.0
    for arr in (a1, a3, d1, d3):
        arr[rest] = 1.0
    for arr in (a2, b1, b2, d2):
        arr[rest] = 0.0
    return ClosedFormCoeffs(rabi, a1, a2, a3, b1, b2, d1, d2, d3)


def _require_lower_levels(state: AtomFieldState):
    if np.any(state.i != 0):
        raise InitialExcitedLevel(
            "closed-form propagation starts from a g/e superposition; "
            "the upper-level amplitudes must be exactly zero")


def closed_form_I(initial: AtomFieldState, params: RamanParams, spec: DeformationSpec,
                  t: float) -> AtomFieldState:
    """Propagate under the interaction-picture Hamiltonian from t = 0 to t.

    Valid only from a state with no upper-level population; the generator is
    time-dependent, so results at different times must each be taken from 0.
    """
    _require_lower_levels(initial)
    c = closed_form_coeffs(params, spec, t, initial.n_trunc)
    g0, e0 = initial.g, initial.e
    new = np.zeros_like(initial.amplitudes)
    new[0] = c.a1 * g0 + c.a2 * e0
    new[1] = c.a2 * g0 + c.a3 * e0
    new[2, :-1] = (c.b1 * g0 + c.b2 * e0)[1:]
    return AtomFieldState(new)


def closed_form_eff(initial: AtomFieldState, params: RamanParams, spec: DeformationSpec,
                    t: float) -> AtomFieldState:
    """Propagate under the modified effective Hamiltonian from t = 0 to t."""
    _require_lower_levels(initial)
    c = closed_form_coeffs(params, spec, t, initial.n_trunc)
    g0, e0 = initial.g, initial.e
    new = np.zeros_like(initial.amplitudes)
    new[0] = c.d1 * g0 + c.d2 * e0
    new[1] = c.d2 * g0 + c.d3 * e0
    return AtomFieldState(new)


def oracle_evolve(h_builder: Callable[[float], JointOperator], initial: AtomFieldState,
                  t: float, steps: int) -> AtomFieldState:
    """Piecewise-constant midpoint propagator, independent of the closed forms.

    Each step applies exp(-i H(t_mid) h), h = t / steps, through ``eigh`` of a
    Hermitian H (``verify.hermiticity_suite`` checks every builder); second
    order in h for time-dependent H, exact for constant H, where one step suffices.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    op = h_builder(0.0)
    if op.n_trunc != initial.n_trunc:
        raise DimensionMismatch(
            f"operator basis {op.n_trunc} does not match state basis {initial.n_trunc}")
    if op.levels == ("g", "e", "i"):
        vec = initial.amplitudes.reshape(-1).copy()
    elif op.levels == ("g", "e"):
        _require_lower_levels(initial)
        vec = initial.amplitudes[:2].reshape(-1).copy()
    else:
        raise ValueError("oracle_evolve expects an atom-field operator")

    h = t / steps
    for k in range(steps):
        w, v = np.linalg.eigh(h_builder((k + 0.5) * h).matrix)
        vec = v @ (np.exp(-1j * h * w) * (v.conj().T @ vec))

    new = np.zeros_like(initial.amplitudes)
    new[:len(op.levels)] = vec.reshape(len(op.levels), op.n_trunc)
    return AtomFieldState(new)


def rotating_frame_I(initial: AtomFieldState, params: RamanParams, spec: DeformationSpec,
                     t: float) -> AtomFieldState:
    """Exact interaction-picture oracle: in the frame V(t) = diag(1, 1, e^{i delta t})
    the generator is the constant H_I(0) + delta P_i, so one exponential suffices."""
    n = initial.n_trunc
    on_i = np.repeat([0.0, 0.0, 1.0], n)  # P_i over the (g, e, i) x n basis
    op = JointOperator(build_H_I(params, spec, 0.0, n).matrix + np.diag(params.delta * on_i),
                       ("g", "e", "i"), n)
    out = oracle_evolve(lambda _: op, initial, t, steps=1)
    return AtomFieldState(out.amplitudes * np.exp(1j * params.delta * t * on_i).reshape(3, n))


# ---------------------------------------------------------------------------
# Large-detuning equivalence experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceRow:
    """One grid point of the interaction-vs-effective comparison."""

    delta: float
    t: float
    infidelity: float
    max_i_population: float
    validity_violated: bool


def _overlap_infidelity(a: AtomFieldState, b: AtomFieldState) -> float:
    num = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    den = np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real
    return max(0.0, 1.0 - num / den)


def equivalence_experiment(deltas: Sequence[float], g1: float, g2: float,
                           spec: DeformationSpec, field: FieldState,
                           atom: tuple[complex, complex], times: Sequence[float],
                           leak_samples: int = 32) -> list[EquivalenceRow]:
    """Compare the two exact propagators over a detuning grid.

    For each (delta, t) the row records the infidelity between the
    interaction-picture and effective states, the worst upper-level
    population encountered while evolving up to t (leakage the effective
    description discards), and whether the large-detuning validity
    condition 4 nbar f^2(nbar) < 0.1 delta^2 / G was violated.
    """
    initial = AtomFieldState.product(atom[0], atom[1], field)
    nbar = mean_excitation(field)
    rows = []
    for delta in deltas:
        params = RamanParams(g1, g2, delta)
        validity_lhs = 4.0 * spec.e_at(nbar)  # = 4 nbar f^2(nbar)
        violated = validity_lhs >= 0.1 * delta ** 2 / params.coupling_sq_sum
        # upper-level population at time s: sum_n weight_n sin^2(rabi_n s)
        rabi = rabi_frequencies(params, spec, field.n_trunc)
        weight = spec.e_values[:len(rabi)] * abs(g1 * initial.g + g2 * initial.e) ** 2 / rabi ** 2
        for t in times:
            if t == 0.0:
                rows.append(EquivalenceRow(delta, 0.0, 0.0, 0.0, violated))
                continue
            phi_i = closed_form_I(initial, params, spec, t)
            phi_eff = closed_form_eff(initial, params, spec, t)
            samples = np.linspace(0.0, t, leak_samples + 1)[1:]
            leak = float(np.max(np.sin(np.outer(samples, rabi)) ** 2 @ weight))
            rows.append(EquivalenceRow(delta, float(t),
                                       _overlap_infidelity(phi_i, phi_eff),
                                       leak, violated))
    return rows


def equivalence_csv_lines(rows: Sequence[EquivalenceRow]) -> list[str]:
    """Render experiment rows as deterministic CSV (validity_flag 1 = violated)."""
    lines = ["delta,t,infidelity,max_i_population,validity_flag"]
    for r in rows:
        lines.append(",".join((_FMT(r.delta), _FMT(r.t), _FMT(r.infidelity),
                               _FMT(r.max_i_population), str(int(r.validity_violated)))))
    return lines
