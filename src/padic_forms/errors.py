"""Exception hierarchy.  Everything raised on purpose derives from
PadicFormsError so callers can catch library failures in one clause."""


class PadicFormsError(Exception):
    pass


class PrecisionMismatch(PadicFormsError):
    """Operands live at different precisions, or a query needs digits
    beyond the trusted window."""


class NotAUnit(PadicFormsError):
    pass


class NotADthPower(PadicFormsError):
    pass


class HenselError(PadicFormsError):
    """A lifting precondition (valuation gap, seed residual) fails."""


class DegreeShapeError(PadicFormsError):
    """Degree is not of the form 2m with m odd."""


class OracleBudgetError(PadicFormsError):
    """Exhaustive enumeration would exceed the configured state budget."""


class CertificateError(PadicFormsError):
    """A certificate failed independent validation."""


class SelfCheckError(PadicFormsError):
    """A value the library built failed its own check (a bug, not bad input)."""
