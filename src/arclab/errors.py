"""Exception types shared across the package."""

from __future__ import annotations


class ArclabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ArclabError):
    """A point lies outside the domain where a metric or map is defined."""


class RangeError(ArclabError):
    """A map value lies outside the target metric's domain."""


class EvaluationError(ArclabError):
    """A map expression cannot be evaluated at the given point."""


class IndeterminateFormError(EvaluationError):
    """Structural 0/0 or 0 * inf; higher-order information would be needed."""


class TagMismatchError(ArclabError):
    """Composition of map expressions with incompatible domain/codomain tags."""

    def __init__(self, outer_tag, inner_tag):
        self.outer_tag = outer_tag
        self.inner_tag = inner_tag
        super().__init__(
            f"cannot compose: inner map lands in {inner_tag}, "
            f"outer map expects {outer_tag}"
        )


class ConstructionError(ArclabError):
    """Invalid parameters for a transform or product (degenerate Moebius,
    non-summable Blaschke heights, bad signs...)."""


class StructureError(ArclabError):
    """A map expression does not have the shape an operation requires
    (e.g. zero/pole extraction on a non-rational tree)."""


class PrecisionError(ArclabError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best estimate and the outstanding error bound.
    """

    def __init__(self, message, estimate, error_bound):
        self.reason = message
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(f"{message} (best estimate {estimate!r}, error bound {error_bound!r})")


class DivergenceError(ArclabError):
    """An improper integral shows non-Cauchy tail behaviour."""

    def __init__(self, message, partial_sums=()):
        self.partial_sums = tuple(partial_sums)
        super().__init__(message)


class BoundarySingularityError(ArclabError):
    """A zero or pole sits on (or numerically near) the unit circle."""


class NormalizationError(ArclabError):
    """A construction needs f(0) away from 0 and infinity."""


class ResolutionError(ArclabError):
    """Sampling or truncation resolution is insufficient for the request."""


class DataError(ArclabError):
    """Input data unfit for a fit or report (too few samples, bad ordering)."""


class ParseError(ArclabError):
    """Syntax error in a map expression string.

    position: byte offset of the first offending byte (or of the start of
    the offending token), expected/found: short human-readable fragments.
    """

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at byte {position}: expected {expected}, found {found}")
