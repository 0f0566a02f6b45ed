"""Exception hierarchy shared by all gsp4hodge modules."""


class GSp4Error(Exception):
    """Base class for all library errors."""


class DivisionByZero(GSp4Error, ZeroDivisionError):
    """Division by the zero element of the working field."""


class ZeroArgument(GSp4Error, ValueError):
    """A p-adic valuation was requested for zero."""


class DegreeCapExceeded(GSp4Error):
    """A symbolic polynomial grew past the GSP4H_MAX_DEGREE guard."""


class NotSymplectic(GSp4Error, ValueError):
    """The matrix does not preserve the alternating form up to a scalar."""


class ConstraintViolated(GSp4Error, ValueError):
    """A diagonal 4-tuple breaks the similitude constraint m1+m4 = m2+m3."""


class InvalidData(GSp4Error, ValueError):
    """Structurally invalid input data."""


class DegenerateIntersection(GSp4Error):
    """An eigenline intersection failed to be one-dimensional."""

    def __init__(self, w, i, witness):
        self.w = w
        self.i = i
        self.witness = witness
        super().__init__(f"degenerate line at (w={w}, i={i}): {witness}")


class NotALine(GSp4Error):
    """A kernel projection that must be a line has the wrong dimension."""


class InvalidIndexSet(GSp4Error, ValueError):
    """A constituent index set has the wrong size or sums to 5."""


class LedgerInconsistent(GSp4Error):
    """A dimension identity in the ledger failed."""


class InconsistentData(GSp4Error, ValueError):
    """Frobenius data whose invariants contradict each other."""


class ParseError(GSp4Error, ValueError):
    """Malformed input document or scalar string."""
