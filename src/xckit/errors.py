"""Exception hierarchy shared by all xckit modules."""


class XckitError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(XckitError):
    pass


class UnknownLayerKind(XckitError):
    pass


class TargetOutOfRange(XckitError):
    pass


class ZeroSteps(XckitError):
    pass


class NegativeMargin(XckitError):
    pass


class EmptyClassThresholds(XckitError):
    pass


class UnknownLabel(XckitError):
    pass


class DegenerateClassBalance(XckitError):
    pass


class NoPositives(XckitError):
    pass


class EmptySample(XckitError):
    pass


class ConstantFeature(XckitError):
    pass


class SingleClassTrainingSet(XckitError):
    pass


class InsufficientRows(XckitError):
    pass


class MissingAttribution(XckitError):
    pass


class PlacementFailure(XckitError):
    pass


class BadMagic(XckitError):
    pass


class VersionUnsupported(XckitError):
    pass


class TruncatedPayload(XckitError):
    pass


class ParseError(XckitError):
    """Malformed record in a text stream; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
