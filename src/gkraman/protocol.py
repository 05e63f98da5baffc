"""Sequential atom-injection scheme that turns a nonlinear coherent state of
the cavity into Gazeau-Klauder states and their superpositions.

Each atom enters in (|e> + eps |g>) / sqrt(1 + |eps|^2), interacts for a fixed
time tau under the equal-coupling effective Hamiltonian, and is postselected
in |e>; this multiplies amplitude n by [(1 + eps) w_n + (1 - eps)] / 2 with
w_n = e^{2 i lambda e_n tau}.  Since w_n^k times the initial nonlinear state is
the Gazeau-Klauder state with time label alpha_k = -2 k lambda tau, the field
after N atoms is a polynomial in w whose coefficients are its exact
decomposition over alpha_1 .. alpha_N plus the initial nonlinear state; with
every eps = 1 it is the single Gazeau-Klauder state at alpha_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import DeformationSpec
from .errors import DetectionImprobable, DimensionMismatch, IllConditioned
from .evolution import _effective_coeffs
from .fockspace import DEFAULT_TAIL_TOL, FieldState, choose_truncation, fidelity, normalize
from .hamiltonian import RamanParams
from .states import evolve_free, nonlinear_cs

DEFAULT_DETECTION_FLOOR = 1e-6

#: Gram-matrix condition-number ceiling for superposition decomposition.
GRAM_COND_LIMIT = 1e12

_FMT = "{:.15g}".format


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one injection run.

    epsilons holds one superposition parameter per atom, in injection order;
    equal couplings g1 = g2 are required (the scheme's phase bookkeeping
    relies on them).
    """

    z: complex
    spec: DeformationSpec
    params: RamanParams
    tau: float
    epsilons: tuple[complex, ...]
    n_trunc: int | None = None
    tail_tol: float = DEFAULT_TAIL_TOL
    detection_floor: float = DEFAULT_DETECTION_FLOOR

    def __post_init__(self):
        if self.params.g1 != self.params.g2:
            raise ValueError("the injection scheme assumes equal couplings g1 = g2")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("interaction time tau must be finite and positive")
        if not 0.0 <= self.detection_floor < 1.0:
            raise ValueError("detection_floor must lie in [0, 1)")
        object.__setattr__(self, "epsilons", tuple(complex(e) for e in self.epsilons))
        if not all(math.isfinite(abs(e) * abs(e)) for e in self.epsilons):
            raise ValueError("every epsilon must have a finite |epsilon|^2")


@dataclass(frozen=True)
class AtomRecord:
    """Outcome of one injected, |e>-detected atom."""

    index: int
    epsilon: complex
    detection_probability: float
    alpha_m: float
    field_after: FieldState
    fidelity_to_gkcs: float


@dataclass(frozen=True)
class ProtocolResult:
    """Full run record: per-atom collapses plus the final-field decomposition."""

    initial_field: FieldState
    atoms: tuple[AtomRecord, ...]
    final_field: FieldState
    component_labels: tuple[str, ...]
    coefficients: tuple[complex, ...]
    residual: float


def inject_atom(field: FieldState, epsilon: complex, params: RamanParams,
                spec: DeformationSpec, tau: float,
                detection_floor: float = DEFAULT_DETECTION_FLOOR,
                ) -> tuple[float, FieldState]:
    """Interact one atom for time tau and postselect it in |e>.

    The |e> row is the field times the diagonal filter
    (eps d2_n + d3_n) / sqrt(1 + |eps|^2) of the effective propagator.
    Returns the detection probability and the collapsed (renormalized) field.
    Raises :class:`DetectionImprobable` when the probability falls below
    detection_floor, signalling a practically unreachable postselection branch.
    """
    _, d2, d3 = _effective_coeffs(params, spec, tau, field.n_trunc)
    e_row = field.amplitudes * (epsilon * d2 + d3) / math.sqrt(1.0 + abs(epsilon) ** 2)
    p_e = float(np.sum(np.abs(e_row) ** 2))
    if p_e < detection_floor:
        raise DetectionImprobable(
            f"detecting the atom in |e> has probability {p_e:.3e} "
            f"below the floor {detection_floor:.3e}")
    return p_e, normalize(e_row)


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Inject the configured atoms one by one, each postselected in |e>.

    The field starts in the nonlinear coherent state |z, f>.  After atom m
    the record stores the detection probability, the collapsed field, the
    Gazeau-Klauder time label alpha_m = -2 m lambda tau (each postselected
    atom advances the label by -2 lambda tau), and the fidelity to the pure
    Gazeau-Klauder state at that label.  The final field is decomposed exactly,
    through its polynomial in w, over every {|z, alpha_m>} plus the initial state.
    """
    spec, params = config.spec, config.params
    n_trunc = (choose_truncation(config.z, spec, config.tail_tol)
               if config.n_trunc is None else config.n_trunc)
    lam_tau = params.effective_coupling * config.tau

    initial = nonlinear_cs(config.z, spec, n_trunc)
    current = initial
    poly = np.ones(1, dtype=np.complex128)  # poly[k] weighs components[k] = w^k * initial
    components = [initial]
    records = []
    for m, eps in enumerate(config.epsilons, start=1):
        try:
            p_e, current = inject_atom(current, eps, params, spec, config.tau,
                                       config.detection_floor)
        except DetectionImprobable as exc:
            raise DetectionImprobable(f"atom {m}: {exc}", atom_index=m) from None
        poly = np.convolve(poly, [1 - eps, 1 + eps]) / (2 * math.sqrt(p_e * (1 + abs(eps) ** 2)))
        alpha_m = -2.0 * m * lam_tau
        components.append(evolve_free(initial, spec, alpha_m))
        records.append(AtomRecord(m, eps, p_e, alpha_m, current,
                                  fidelity(current, components[-1])))

    labels = [f"alpha_{m}" for m in range(len(records), 0, -1)] + ["nonlinear"]
    residual = float(np.linalg.norm(current.amplitudes - poly @ [c.amplitudes for c in components]))
    return ProtocolResult(initial, tuple(records), current, tuple(labels),
                          tuple(complex(c) for c in poly[::-1]), residual)


def decompose_superposition(field: FieldState, components: list[FieldState],
                            ) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of a field over a set of component states.

    ``run_protocol`` decomposes exactly; this numerical route is its oracle.
    Returns (coefficients, residual) minimizing ||field - sum c_k comp_k||.
    Raises :class:`IllConditioned` when the components' Gram matrix has a
    condition number at or above 1e12.
    """
    if not components:
        raise ValueError("at least one component is required")
    for comp in components:
        if comp.n_trunc != field.n_trunc:
            raise DimensionMismatch("components must share the field's basis size")
    basis = np.column_stack([c.amplitudes for c in components])
    gram = basis.conj().T @ basis
    cond = np.linalg.cond(gram)
    if not cond < GRAM_COND_LIMIT:
        raise IllConditioned(
            f"component Gram matrix condition number {cond:.3e} exceeds {GRAM_COND_LIMIT:.0e}; "
            "components are too close to linearly dependent")
    coeffs = np.linalg.lstsq(basis, field.amplitudes, rcond=None)[0]
    residual = float(np.linalg.norm(field.amplitudes - basis @ coeffs))
    return coeffs, residual


def protocol_report_lines(result: ProtocolResult) -> list[str]:
    """Deterministic text report: per-atom records, decomposition, residual."""
    lines = ["atom,epsilon_re,epsilon_im,detection_probability,alpha_m,fidelity_to_gkcs"]
    for rec in result.atoms:
        lines.append(",".join((str(rec.index), _FMT(rec.epsilon.real), _FMT(rec.epsilon.imag),
                               _FMT(rec.detection_probability), _FMT(rec.alpha_m),
                               _FMT(rec.fidelity_to_gkcs))))
    lines.append("component,coeff_re,coeff_im")
    for label, coeff in zip(result.component_labels, result.coefficients):
        lines.append(",".join((label, _FMT(coeff.real), _FMT(coeff.imag))))
    lines.append(f"residual,{_FMT(result.residual)}")
    return lines
