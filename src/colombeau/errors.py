"""Exception types shared across the package."""


class ColombeauError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ColombeauError):
    """Operands have incompatible input/output dimensions."""


class OutsideDomain(ColombeauError):
    """A point lies outside the declared domain box or atlas."""


class NonFiniteValue(ColombeauError):
    """An evaluation produced NaN (overflow to +/-inf is handled by classification)."""


class GridTooShort(ColombeauError):
    """An epsilon grid has too few points for a stable fit."""


class NoMetric(ColombeauError):
    """Distance requested on an atlas without a Riemannian metric."""


class BallEscapesChart(ColombeauError):
    """A bump/cutoff support ball does not fit inside the chart domain."""


class CoverGap(ColombeauError):
    """A partition-of-unity cover leaves part of the region uncovered."""


class ImageEscapesAtlas(ColombeauError):
    """A net's image leaves every chart of the target atlas at sampled points."""


class NotCBounded(ColombeauError):
    """Operation requires a compactly bounded net."""


class NotModerate(ColombeauError):
    """Operation requires a moderate net."""


class InconsistentRoutes(ColombeauError):
    """Independent test routes that provably agree returned different verdicts.

    Signals a numerics bug or a genuinely borderline net; diagnostics are
    attached as the second argument where available.
    """


class AtlasMismatch(ColombeauError):
    """Composition chaining requires matching atlases."""


class AlignmentError(ColombeauError):
    """Representative alignment failed (no cover radius or threshold not reached)."""


class QuadratureError(ColombeauError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class ConfigError(ColombeauError):
    """A run configuration or atlas description file failed to parse."""


class UnknownNet(ColombeauError):
    """A net label is not present in the config catalog."""
