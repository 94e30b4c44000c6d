"""Exception hierarchy.

Two families matter to callers: ``ValidationError`` (bad input, CLI exit
code 2) and ``InternalInconsistencyError`` (a cross-check between two
independent computations failed, CLI exit code 3).  The latter is the most
important failure mode of the tool: it is a certificate that the geometry
kernel or one of the identities it relies on is broken.
"""

from __future__ import annotations


class KsmoothError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KsmoothError):
    """Invalid input or a violated precondition."""


class FieldMismatchError(ValidationError):
    """Operands or components carry different scalar field tags."""


class ScalarSyntaxError(ValidationError):
    """A scalar literal failed to parse; carries the offset of the error."""

    def __init__(self, text: str, position: int, message: str) -> None:
        super().__init__(f"invalid scalar literal {text!r} at position {position}: {message}")
        self.text = text
        self.position = position


class DimensionMismatchError(ValidationError):
    """Vector/matrix/space dimensions do not agree."""


class NotSymmetricError(ValidationError):
    """A vertex or functional set is not closed under negation."""


class NotFullDimensionalError(ValidationError):
    """The polytope does not span the ambient space."""


class OriginNotInteriorError(ValidationError):
    """The origin is not strictly inside the polytope."""


class NotOnBoundaryError(ValidationError):
    """A point queried for its minimal face is not on the unit sphere."""


class NotUnitNormError(ValidationError):
    """A vector (or operator) required to have norm one does not."""


class NotIndependentError(ValidationError):
    """A purported basis is linearly dependent."""


class NotProperFaceError(ValidationError):
    """A face descriptor does not name a proper face of the ball."""


class ZeroOperatorError(ValidationError):
    """The zero operator has no norm-attainment structure."""


class EmptyExtremeIntersectionError(ValidationError):
    """R contains no extreme point of the domain ball."""


class SubspaceMembershipError(ValidationError):
    """A point that must lie in a given subspace does not."""


class GuardExceededError(ValidationError):
    """Dimension or vertex-count guard exceeded (see KSMOOTH_MAX_DIM)."""


class InternalInconsistencyError(KsmoothError):
    """Two independent computations of the same quantity disagree."""


class SpanViolationError(InternalInconsistencyError):
    """A vector that must lie in a collected span fell outside it."""


class CompletionFailureError(InternalInconsistencyError):
    """Completing a partial basis failed; impossible by dimension count."""
