"""Exception types shared across the package."""


class TodamassError(Exception):
    """Base class for all package errors; ``exit_code`` is the CLI's exit
    status for it (2 for a domain error, 1 for bad input)."""

    exit_code = 2


class RankError(TodamassError):
    """Rank out of range for the requested algebra family."""

    exit_code = 1


class DomainError(TodamassError):
    """Arguments outside the domain of the operation."""


class EvaluationError(TodamassError):
    """A symbolic object cannot be evaluated or reduced as requested."""


class SingularError(TodamassError):
    """Matrix inversion attempted on a singular matrix."""


class DecompositionError(TodamassError):
    """A proposed index-set decomposition violates its case conditions."""


class NotMassForm(TodamassError):
    """Vector entries are not of the even-nonnegative-integer mass form."""


class SymmetryError(TodamassError):
    """Vector lacks the mirror symmetry required for unfolding."""


class FormatError(TodamassError):
    """Malformed serialized input."""

    exit_code = 1
