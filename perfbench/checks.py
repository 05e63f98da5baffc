"""Independent numpy references the benchmark checks gkraman's outputs against.

Nothing here imports gkraman.  Spectra, states, the protocol field and the
interaction-picture propagator are recomputed from their defining formulas:

* a nonlinear coherent state has amplitudes z^n / sqrt([e_n]!), a
  Gazeau-Klauder state additionally e^{-i alpha e_n};
* with g1 = g2 every postselected atom multiplies amplitude n by
  [(1 + eps) w_n + (1 - eps)] / 2 with w_n = e^{2 i lambda e_n tau};
* in the frame V(t) = diag(1, 1, e^{i delta t}) the interaction-picture
  generator of each sector {|g,n>, |e,n>, |i,n-1>} is the constant 3x3 matrix
  H_I(0) + delta P_i, so ``numpy.linalg.eigh`` gives the propagator exactly.
"""

from __future__ import annotations

import math

import numpy as np

#: Agreement required between gkraman and the references (absolute).
TOL = 1e-9

#: Cache depth of the built-in spectra (e_0 .. e_512).
N_CACHE = 512


def spectrum(kind: str, kappa: float = 1.0, table=None) -> np.ndarray:
    """e_0 .. e_N of a built-in or tabulated spectrum."""
    if kind == "tabulated":
        return np.asarray(table, dtype=float)
    n = np.arange(N_CACHE + 1, dtype=float)
    return {"harmonic": n, "squared": n ** 2, "poschl_teller": n * (n + 2.0 * kappa)}[kind]


def _log_weights(e: np.ndarray, z_abs: float) -> np.ndarray:
    log_e_fact = np.concatenate(([0.0], np.cumsum(np.log(e[1:]))))
    return 2.0 * np.arange(e.size) * math.log(z_abs) - log_e_fact


def truncation(e: np.ndarray, z: complex, tail_tol: float) -> tuple[int, np.ndarray]:
    """Smallest N whose relative weight beyond N is below tail_tol, and the tails."""
    log_w = _log_weights(e, abs(z))
    w = np.exp(log_w - log_w.max())
    tail = np.cumsum(w[::-1])[::-1] / w.sum()  # tail[N] = weight of n >= N
    below = np.nonzero(tail[1:] < tail_tol)[0]
    return (int(below[0]) + 1 if below.size else -1), tail


def truncation_ok(e: np.ndarray, z: complex, tail_tol: float, n_trunc: int) -> bool:
    """n_trunc is the smallest certified size, allowing rounding at the threshold."""
    if z == 0:
        return n_trunc == 1
    _, tail = truncation(e, z, tail_tol)
    return (tail[n_trunc] < tail_tol * (1 + 1e-6)
            and (n_trunc == 1 or tail[n_trunc - 1] >= tail_tol * (1 - 1e-6)))


def gk_state(e: np.ndarray, z: complex, alpha: float, n_trunc: int) -> np.ndarray:
    """Normalized z^n e^{-i alpha e_n} / sqrt([e_n]!) on n < n_trunc (alpha = 0: nonlinear)."""
    if z == 0:
        out = np.zeros(n_trunc, complex)
        out[0] = 1.0
        return out
    log_w = 0.5 * _log_weights(e[:n_trunc], abs(z))
    mags = np.exp(log_w - log_w.max())
    amps = mags * np.exp(1j * (np.arange(n_trunc) * np.angle(z) - alpha * e[:n_trunc]))
    return amps / np.linalg.norm(amps)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def protocol_reference(e, z, n_trunc, g, delta, tau, epsilons):
    """Per-atom detection probabilities and fields, labels and the final field."""
    lam_tau = g * g / delta * tau
    w = np.exp(2j * lam_tau * e[:n_trunc])
    field = gk_state(e, z, 0.0, n_trunc)
    probs, fields, alphas = [], [], []
    for m, eps in enumerate(epsilons, start=1):
        v = field * ((1 + eps) * w + (1 - eps)) / 2
        norm_sq = float(np.vdot(v, v).real)
        probs.append(norm_sq / (1 + abs(eps) ** 2))
        field = v / math.sqrt(norm_sq)
        fields.append(field)
        alphas.append(-2.0 * m * lam_tau)
    return probs, fields, alphas


def check_protocol(result, e, z, g, delta, tau, epsilons, tail_tol) -> str | None:
    """Compare a ProtocolResult with the filter identity; None when it agrees."""
    n = result.final_field.n_trunc
    if not truncation_ok(e, z, tail_tol, n):
        return "truncation"
    probs, fields, alphas = protocol_reference(e, z, n, g, delta, tau, epsilons)
    if len(result.atoms) != len(epsilons):
        return "atom count"
    for rec, p, f, a in zip(result.atoms, probs, fields, alphas):
        if abs(rec.detection_probability - p) > TOL:
            return "detection probability"
        if abs(rec.alpha_m - a) > TOL * max(1.0, abs(a)):
            return "label"
        if 1.0 - fidelity(rec.field_after.amplitudes, f) > TOL:
            return "field"
        if abs(rec.fidelity_to_gkcs - fidelity(f, gk_state(e, z, a, n))) > TOL:
            return "fidelity to GK state"
    comps = [gk_state(e, z, a, n) for a in reversed(alphas)] + [gk_state(e, z, 0.0, n)]
    coeffs = np.asarray(result.coefficients)
    rebuilt = np.column_stack(comps) @ coeffs
    gap = float(np.linalg.norm(result.final_field.amplitudes - rebuilt))
    if gap > result.residual + TOL + 1e-13 * float(np.sum(np.abs(coeffs))):
        return "decomposition residual"
    return None


def check_report_lines(lines: list[str], atoms: int) -> str | None:
    """Shape of a protocol report: atom rows, component rows, residual row."""
    if len(lines) != 2 * atoms + 4 or not lines[-1].startswith("residual,"):
        return "report layout"
    try:
        rows = [[float(x) for x in line.split(",")[1:]] for line in lines[1:atoms + 1]]
    except ValueError:
        return "report numbers"
    if any(not 0.0 < r[2] <= 1.0 + TOL or not -TOL <= r[4] <= 1.0 + TOL for r in rows):
        return "report ranges"
    return None


# ---------------------------------------------------------------------------
# Interaction picture vs effective description, exactly
# ---------------------------------------------------------------------------

def sweep_point(e, field, g1, g2, delta, atom, t, leak_samples=32):
    """(infidelity, max upper-level population, validity violated) at one grid point."""
    n = field.size
    c = np.sqrt(e[1:n])  # sqrt(n) f(n) = sqrt(e_n)
    h = np.zeros((n - 1, 3, 3))
    h[:, 0, 2] = h[:, 2, 0] = g1 * c
    h[:, 1, 2] = h[:, 2, 1] = g2 * c
    h[:, 2, 2] = delta
    evals, evecs = np.linalg.eigh(h)
    g0, e0 = atom[0] * field, atom[1] * field
    norm = math.sqrt(abs(atom[0]) ** 2 + abs(atom[1]) ** 2)
    g0, e0 = g0 / norm, e0 / norm
    start = np.stack([g0[1:], e0[1:], np.zeros(n - 1)], axis=1)  # sectors n >= 1
    coords = np.einsum("nji,nj->ni", evecs, start)

    def interaction(tt):
        rot = np.einsum("nij,nj->ni", evecs, coords * np.exp(-1j * evals * tt))
        rot[:, 2] *= np.exp(1j * delta * tt)
        return rot

    big_g = g1 * g1 + g2 * g2
    phase = np.exp(1j * e[:n] * big_g * t / delta)
    proj = np.array([[g1 * g1, g1 * g2], [g1 * g2, g2 * g2]]) / big_g
    eff_g = g0 + (phase - 1) * (proj[0, 0] * g0 + proj[0, 1] * e0)
    eff_e = e0 + (phase - 1) * (proj[1, 0] * g0 + proj[1, 1] * e0)

    full = interaction(t)
    vec_i = np.concatenate(([g0[0], e0[0]], full.ravel()))
    vec_eff = np.concatenate(([eff_g[0], eff_e[0]], np.stack([eff_g[1:], eff_e[1:],
                                                              np.zeros(n - 1)], 1).ravel()))
    infidelity = max(0.0, 1.0 - fidelity(vec_i, vec_eff))
    leak = max(float(np.sum(np.abs(interaction(tt)[:, 2]) ** 2))
               for tt in np.linspace(0.0, t, leak_samples + 1)[1:])
    nbar = float(np.sum(np.arange(n) * np.abs(field) ** 2))
    violated = 4.0 * float(np.interp(nbar, np.arange(e.size), e)) >= 0.1 * delta ** 2 / big_g
    return infidelity, leak, violated


def check_sweep_row(row, e, field, g1, g2, atom) -> str | None:
    if row.t == 0.0:
        return None
    infid, leak, violated = sweep_point(e, field, g1, g2, row.delta, atom, row.t)
    if abs(row.infidelity - infid) > TOL:
        return "infidelity"
    if abs(row.max_i_population - leak) > TOL:
        return "upper-level population"
    if bool(row.validity_violated) != violated:
        return "validity flag"
    return None
