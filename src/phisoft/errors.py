"""Exception hierarchy shared across the package."""


class PhiSoftError(Exception):
    """Base class for every error raised by this package."""


class OutOfRange(PhiSoftError, ValueError):
    """A membership or non-membership degree lies outside [0, 1]."""


class NotPythagorean(PhiSoftError, ValueError):
    """m**2 + n**2 exceeds 1 beyond the validity tolerance."""


class NonPositiveScalar(PhiSoftError, ValueError):
    """Scalar multiples and powers require an exponent > 0."""


class LengthMismatch(PhiSoftError, ValueError):
    """Value and weight sequences differ in length."""


class DuplicateId(PhiSoftError, ValueError):
    """An alternative id or parameter name occurs more than once."""


class InvalidId(PhiSoftError, ValueError):
    """An alternative id or parameter name is empty or contains a separator."""


class MissingCell(PhiSoftError, ValueError):
    """The cell table is not total over universe x parameters."""


class InvalidPFN(PhiSoftError, ValueError):
    """A cell or importance is not a valid PFN, or a parameter entry is not a pair."""


class UniverseMismatch(PhiSoftError, ValueError):
    """Two soft sets describe different universes."""


class EmptyIntersection(PhiSoftError, ValueError):
    """Restricted combinations need at least one shared parameter."""


class DegenerateWeights(PhiSoftError, ValueError):
    """A weight vector that cannot be used: empty, a weight outside [0, 1],
    a sum other than 1, or no importance with a positive expectation score."""


class EmptyUniverse(PhiSoftError, ValueError):
    """A soft set needs at least one alternative."""


class InvalidConfig(PhiSoftError, ValueError):
    """A decision setting names an option the procedure cannot use."""


class ParseError(PhiSoftError, ValueError):
    """Malformed CSV or JSON input.

    `line` and `column` locate CSV problems (1-based); `path` names the
    offending JSON element ("$.cells[3].m" style).
    """

    def __init__(self, message, *, line=None, column=None, path=None):
        self.line = line
        self.column = column
        self.path = path
        where = ""
        if path is not None:
            where = f"{path}: "
        elif line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)
