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
    """Malformed record in a text stream; carries the 1-based line number.

    ``path``, when given, names the file in the message.
    """

    def __init__(self, line_no, message, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
