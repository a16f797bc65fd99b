"""Exception types shared across the library."""


class DoslabError(Exception):
    """Base class for all library-specific failures."""


class InvalidMatrixError(DoslabError, ValueError):
    """Matrix input violates shape or finiteness requirements."""


class ExpOverflowError(DoslabError):
    """inf_norm(m)*t exceeds the magnitude cap of the matrix exponential."""


class SingularMatrixError(DoslabError):
    """Pivot fell below tolerance during elimination."""


class UncontrollablePairError(DoslabError):
    """The controllability staircase never reached full rank."""


class UnobservablePairError(DoslabError):
    """The staircase of the dual pair never reached full rank."""


class IllConditionedBasisError(DoslabError):
    """Feedback-synthesis basis change is numerically unreliable."""


class RiccatiConvergenceError(DoslabError):
    """Fixed-point iteration hit its cap before the update stalled."""


class StabilityCertificationError(DoslabError):
    """No power of the closed matrix certifies a spectral bound below one."""


class CertificateUnavailableError(DoslabError):
    """Decay certificate requested while the DoS condition fails."""


class _RunFailure(DoslabError):
    """A failure at one place of a closed-loop run: ``slot``, ``substep``
    and ``channel`` name it, each ``None`` where it does not apply."""

    def __init__(self, message, slot=None, substep=None, channel=None):
        super().__init__(message)
        self.slot = slot
        self.substep = substep
        self.channel = channel


class SaturationError(_RunFailure):
    """A signal left its declared quantization range."""


class DeadbeatContractError(_RunFailure):
    """The estimated output failed to vanish at the end of a slot."""


class InferenceMismatchError(_RunFailure):
    """ACK-free attack inference disagreed with the true pattern."""


class ScenarioError(DoslabError):
    """Scenario file failed schema validation or is internally inconsistent."""
