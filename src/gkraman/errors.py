"""Exception types shared across the package."""


class ZeroVector(ValueError):
    """Normalization was requested for a vector with (numerically) zero norm."""


class DimensionMismatch(ValueError):
    """Two states (or a state and an operator) live on different truncated bases."""


class DivergentSeries(ValueError):
    """The coherent-state expansion does not converge (or cannot be certified
    to converge) at the requested amplitude |z|."""


class NonPhysicalSpectrum(ValueError):
    """A spectrum violates e_0 = 0, finite positive e_n for n >= 1, or strict monotonicity."""


class InitialExcitedLevel(ValueError):
    """A closed-form propagator was handed a state with population in the
    upper atomic level, which the solutions do not cover."""


class DetectionImprobable(RuntimeError):
    """Postselecting the exiting atom in |e> has probability below the
    configured detection floor."""

    def __init__(self, message: str, atom_index: int | None = None):
        super().__init__(message)
        self.atom_index = atom_index
