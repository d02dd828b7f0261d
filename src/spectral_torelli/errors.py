"""Exception types shared across the library.

Every error raised on purpose derives from SpectralTorelliError, so callers
can catch library failures without swallowing genuine bugs.
"""


class SpectralTorelliError(Exception):
    """Base class for all deliberate library errors."""


class AlignmentError(SpectralTorelliError, ValueError):
    """Operands live over different variable lists."""


class ExactDivisionError(SpectralTorelliError, ArithmeticError):
    """A division that must be exact left a remainder."""


class DegreeBoundError(SpectralTorelliError, ValueError):
    """Univariate degree exceeds the supported bound."""


class PolyParseError(SpectralTorelliError, ValueError):
    """A polynomial expression string does not match the grammar."""


class TruncationError(SpectralTorelliError, ValueError):
    """A series operation cannot determine any coefficient at the
    available truncation."""


class DegenerateCurveError(SpectralTorelliError, ValueError):
    """The sextic (or quintic) has a repeated root, so y^2 = f(x) is not a
    smooth genus-2 curve."""


class BadReductionError(DegenerateCurveError):
    """Reduction mod p is undefined (denominator divisible by p) or lands
    on a singular curve (discriminant 0 mod p, or characteristic 2)."""


class StructureError(SpectralTorelliError, ValueError):
    """A plane quartic does not carry the expected quadratic-in-u shape,
    or its discriminant locus has an unsupported form."""


class UnknownFamilyError(SpectralTorelliError, KeyError):
    """Requested catalog id does not exist."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class BlockedOnDataError(SpectralTorelliError, ValueError):
    """The catalog entry exists but its defining data must be supplied by
    the user."""


class UndefinedChartError(SpectralTorelliError, ZeroDivisionError):
    """Absolute invariants requested where J2 = 0."""


class InconsistentCountsError(SpectralTorelliError, ValueError):
    """Point counts violate a structural constraint (parity or Weil
    bound), so no Weil polynomial exists for them."""


class InconclusiveError(SpectralTorelliError, RuntimeError):
    """A randomized search only hit bad loci; rerun with fresh
    randomness."""


class ReducibleQuarticError(SpectralTorelliError, ValueError):
    """A quartic that has to be irreducible (for a Galois class or a
    real quadratic subfield) factors over Q, into `factors`."""

    def __init__(self, factors):
        super().__init__(
            f"quartic splits as {factors!r}; no Galois class is assigned"
        )
        self.factors = factors
