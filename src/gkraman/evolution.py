"""Exact closed-form propagators for the Raman dynamics, an exact exponential of
a constant generator used as their oracle, and the large-detuning equivalence
experiment between the interaction-picture and effective descriptions.

The interaction-picture solution acts inside each excitation sector
{|g,n>, |i,n-1>, |e,n>}; the effective solution inside {|g,n>, |e,n>}.
Both are driven by per-sector coefficient families evaluated at time t from
a zero-upper-level initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deformation import DeformationSpec
from .errors import InitialExcitedLevel
from .fockspace import _FMT, AtomFieldState, FieldState, _check_phase, mean_excitation
from .hamiltonian import RamanParams, build_H_I

#: Sample times in (0, t] over which the equivalence leak is maximized.
_LEAK_SAMPLES = 32


def _energies(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> np.ndarray:
    """e_0 .. e_{n_trunc-1}, once the squared Rabi frequency e_n G + delta^2 / 4 is
    known to be finite on them (checked in Python floats, which warn of nothing)."""
    spec._check_n(n_trunc - 1)
    e_vals = spec.e_values[:n_trunc]
    e_top = float(spec.e_values[n_trunc - 1])  # the largest, as the spectrum increases
    if not math.isfinite(e_top * params.coupling_sq_sum + 0.25 * params.delta ** 2):
        raise ValueError(
            f"couplings g1 = {params.g1:g}, g2 = {params.g2:g} and spectrum '{spec.name}' "
            f"(e_{n_trunc - 1} = {e_top:g}) make e_n (g1^2 + g2^2) + delta^2 / 4 overflow")
    return e_vals


def rabi_frequencies(params: RamanParams, spec: DeformationSpec, n_trunc: int) -> np.ndarray:
    """Generalized Rabi frequencies sqrt(n f^2(n) G + delta^2 / 4), n = 0 .. n_trunc-1."""
    e_vals = _energies(params, spec, n_trunc)
    return np.sqrt(e_vals * params.coupling_sq_sum + 0.25 * params.delta ** 2)


def _largest(t: float | np.ndarray) -> float:
    """max |t| as a Python float, so phase-overflow checks raise no numpy warning."""
    return float(abs(t).max(initial=0.0)) if isinstance(t, np.ndarray) else abs(float(t))


def _effective_coeffs(params: RamanParams, spec: DeformationSpec, t: float | np.ndarray,
                      n_trunc: int, name: str = "t") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective sector map [[d1, d2], [d2, d3]] at time t (or a (T, 1) column), per n."""
    e_vals = _energies(params, spec, n_trunc)
    g1, g2, big_g = params.g1, params.g2, params.coupling_sq_sum
    t_max = _largest(t)
    _check_phase(name, t_max, float(e_vals[-1]) * big_g * t_max / abs(params.delta))
    phase = np.exp(1j * e_vals * big_g * t / params.delta)
    d1 = (g2 ** 2 + g1 ** 2 * phase) / big_g
    d2 = g1 * g2 * (phase - 1.0) / big_g
    d3 = (g1 ** 2 + g2 ** 2 * phase) / big_g
    # The n = 0 sector (n f^2(n) = 0) and every sector at t = 0 are the identity
    # exactly, so those amplitudes pass through bit-identically.
    rest = (e_vals == 0.0) | (t == 0.0)
    d1[rest] = d3[rest] = 1.0
    d2[rest] = 0.0
    return d1, d2, d3


def _require_lower_levels(state: AtomFieldState):
    if np.any(state.i != 0):
        raise InitialExcitedLevel(
            "closed-form propagation starts from a g/e superposition; "
            "the upper-level amplitudes must be exactly zero")


def _interaction_coeffs(params: RamanParams, spec: DeformationSpec, t: float | np.ndarray,
                        n_trunc: int) -> tuple[np.ndarray, ...]:
    """Interaction-picture sector map (g, e) -> (g, i, e), [[a1, a2], [b1, b2], [a2, a3]],
    at time t (or a (T, 1) column), per photon number."""
    rabi = rabi_frequencies(params, spec, n_trunc)
    e_vals = spec.e_values[:n_trunc]
    g1, g2, delta = params.g1, params.g2, params.delta
    big_g = params.coupling_sq_sum
    t_max = _largest(t)
    _check_phase("t", t_max, float(rabi[-1]) * t_max)  # rabi >= |delta| / 2

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
    # As in _effective_coeffs: n = 0 and t = 0 are the identity exactly.
    rest = (e_vals == 0.0) | (t == 0.0)
    a1[rest] = a3[rest] = 1.0
    a2[rest] = b1[rest] = b2[rest] = 0.0
    return a1, a2, a3, b1, b2


def closed_form_I(initial: AtomFieldState, params: RamanParams, spec: DeformationSpec,
                  t: float) -> AtomFieldState:
    """Propagate under the interaction-picture Hamiltonian from t = 0 to t.

    Valid only from a state with no upper-level population; the generator is
    time-dependent, so results at different times must each be taken from 0.
    """
    _require_lower_levels(initial)
    a1, a2, a3, b1, b2 = _interaction_coeffs(params, spec, t, initial.n_trunc)
    g0, e0 = initial.g, initial.e
    new = np.zeros_like(initial.amplitudes)
    new[0] = a1 * g0 + a2 * e0
    new[1] = a2 * g0 + a3 * e0
    new[2, :-1] = (b1 * g0 + b2 * e0)[1:]
    return AtomFieldState(new)


def closed_form_eff(initial: AtomFieldState, params: RamanParams, spec: DeformationSpec,
                    t: float) -> AtomFieldState:
    """Propagate under the modified effective Hamiltonian from t = 0 to t."""
    _require_lower_levels(initial)
    d1, d2, d3 = _effective_coeffs(params, spec, t, initial.n_trunc)
    g0, e0 = initial.g, initial.e
    new = np.zeros_like(initial.amplitudes)
    new[0] = d1 * g0 + d2 * e0
    new[1] = d2 * g0 + d3 * e0
    return AtomFieldState(new)


def _exponential(matrix: np.ndarray, initial: AtomFieldState, t: float) -> AtomFieldState:
    """exp(-i H t) applied to initial for a constant Hermitian generator H over the
    first matrix.shape[0] // n_trunc levels, through one ``eigh``
    (``verify.hermiticity_suite`` checks every builder)."""
    rows = matrix.shape[0] // initial.n_trunc
    if rows == 2:
        _require_lower_levels(initial)
    w, v = np.linalg.eigh(matrix)
    vec = v @ (np.exp(-1j * t * w) * (v.conj().T @ initial.amplitudes[:rows].reshape(-1)))
    new = np.zeros_like(initial.amplitudes)
    new[:rows] = vec.reshape(rows, initial.n_trunc)
    return AtomFieldState(new)


def rotating_frame_I(initial: AtomFieldState, params: RamanParams, spec: DeformationSpec,
                     t: float) -> AtomFieldState:
    """Exact interaction-picture oracle: in the frame V(t) = diag(1, 1, e^{i delta t})
    the generator is the constant H_I(0) + delta P_i, so one exponential suffices."""
    n = initial.n_trunc
    on_i = np.repeat([0.0, 0.0, 1.0], n)  # P_i over the (g, e, i) x n basis
    generator = build_H_I(params, spec, 0.0, n) + np.diag(params.delta * on_i)
    out = _exponential(generator, initial, t)
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


def equivalence_experiment(deltas: Sequence[float], g1: float, g2: float,
                           spec: DeformationSpec, field: FieldState,
                           atom: tuple[complex, complex],
                           times: Sequence[float]) -> list[EquivalenceRow]:
    """Compare the two exact propagators over a detuning grid.

    For each (delta, t) the row records the infidelity between the
    interaction-picture and effective states, the worst upper-level
    population over equally spaced times in (0, t] (leakage the effective
    description discards), and whether the large-detuning validity
    condition 4 nbar f^2(nbar) < 0.1 delta^2 / G was violated.
    """
    initial = AtomFieldState.product(atom[0], atom[1], field)
    g0, e0, n = initial.g, initial.e, initial.n_trunc
    nbar = mean_excitation(field)
    times = np.asarray(times, dtype=float)
    live = times != 0.0  # t = 0 rows (also t = -0.0) are exactly zero
    t = times[live, None]
    samples = np.linspace(0.0, times[live], _LEAK_SAMPLES + 1, axis=1)[:, 1:, None]
    population = np.empty((len(t), _LEAK_SAMPLES, n))  # reused for every delta
    rows = []
    for delta in deltas:
        params = RamanParams(g1, g2, delta)
        validity_lhs = 4.0 * spec.e_at(nbar)  # = 4 nbar f^2(nbar)
        violated = validity_lhs >= 0.1 * delta ** 2 / params.coupling_sq_sum
        a1, a2, a3, b1, b2 = _interaction_coeffs(params, spec, t, n)
        d1, d2, d3 = _effective_coeffs(params, spec, t, n)
        # (T, level, n); the effective picture leaves the upper level i empty
        phi_i = np.stack((a1 * g0 + a2 * e0, a2 * g0 + a3 * e0, b1 * g0 + b2 * e0), axis=1)
        phi_eff = np.stack((d1 * g0 + d2 * e0, d2 * g0 + d3 * e0), axis=1)
        overlap = np.sum(phi_i[:, :2].conj() * phi_eff, axis=(1, 2))
        norms = np.sum(np.abs(phi_i) ** 2, axis=(1, 2)) * np.sum(np.abs(phi_eff) ** 2, axis=(1, 2))
        # upper-level population at time s: sum_n weight_n sin^2(rabi_n s)
        rabi = rabi_frequencies(params, spec, n)
        weight = spec.e_values[:n] * abs(g1 * g0 + g2 * e0) ** 2 / rabi ** 2
        np.square(np.sin(np.multiply(samples, rabi, out=population), out=population),
                  out=population)
        infidelity, leak = np.zeros((2, len(times)))
        infidelity[live] = np.maximum(0.0, 1.0 - np.abs(overlap) ** 2 / norms)
        leak[live] = np.max(population @ weight, axis=1)
        rows += [EquivalenceRow(delta, float(s) if s else 0.0, float(f), float(p), violated)
                 for s, f, p in zip(times, infidelity, leak)]
    return rows


def equivalence_csv_lines(rows: Sequence[EquivalenceRow]) -> list[str]:
    """Render experiment rows as deterministic CSV (validity_flag 1 = violated)."""
    lines = ["delta,t,infidelity,max_i_population,validity_flag"]
    for r in rows:
        lines.append(",".join((_FMT(r.delta), _FMT(r.t), _FMT(r.infidelity),
                               _FMT(r.max_i_population), str(int(r.validity_violated)))))
    return lines
