"""Exception types shared across the package."""


class SpineForgeError(Exception):
    """Base class for all package errors."""

    code = "Error"

    def __init__(self, message="", **context):
        super().__init__(message or self.code)
        self.context = context


class ParseError(SpineForgeError):
    code = "ParseError"


class EmitError(SpineForgeError):
    """An emitter was given a name or id that the parsers would not read
    back as it is."""

    code = "EmitError"


class InvalidValue(SpineForgeError):
    """Raised when an operation receives a value that fails validation;
    `.report` carries the violations.  Subclasses set `code` and `noun`."""

    noun = "value"

    def __init__(self, report):
        lines = "; ".join(v.code for v in report.violations[:8])
        super().__init__(f"{self.noun} fails validation: {lines}")
        self.report = report


class InvalidPolyhedron(InvalidValue):
    """Raised when an operation receives a polyhedron that fails validation."""

    code = "InvalidPolyhedron"
    noun = "polyhedron"


class InvalidArrangement(InvalidValue):
    code = "InvalidArrangement"
    noun = "arrangement"


class InvalidBornMap(InvalidValue):
    code = "InvalidBornMap"
    noun = "born map"


class SelectionNotClosed(SpineForgeError):
    code = "SelectionNotClosed"


class SelectionNotConnected(SpineForgeError):
    code = "SelectionNotConnected"


class DimensionTooLow(SpineForgeError):
    code = "DimensionTooLow"


class PlanError(SpineForgeError):
    """A surgery plan violates a hypothesis; .code carries the clause name."""

    def __init__(self, code, message="", **context):
        self.code = code
        super().__init__(message or code, **context)


class NoEmptyRegion(PlanError):
    def __init__(self, message=""):
        super().__init__("NoEmptyRegion", message)


class ContainmentViolated(PlanError):
    def __init__(self, message=""):
        super().__init__("ContainmentViolated", message)


class WitnessMismatch(PlanError):
    def __init__(self, message=""):
        super().__init__("WitnessMismatch", message)


class PatchNotOrientable(PlanError):
    def __init__(self, message=""):
        super().__init__("PatchNotOrientable", message)


class UnsupportedItinerary(PlanError):
    def __init__(self, message=""):
        super().__init__("UnsupportedItinerary", message)


class NoMaximalGraph(SpineForgeError):
    code = "NoMaximalGraph"


class NonOrientableSheetMeetsDisk(SpineForgeError):
    code = "NonOrientableSheetMeetsDisk"


class DiskBranchHypothesisFailed(SpineForgeError):
    code = "DiskBranchHypothesisFailed"


class SeedNotInGraph(SpineForgeError):
    code = "SeedNotInGraph"
