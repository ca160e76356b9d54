"""Exception types shared across the package."""


class FFPlaneError(Exception):
    """Base class for all library-specific errors."""


class ZeroInverse(FFPlaneError):
    """Multiplicative inverse of zero was requested."""


class InvalidRadius(FFPlaneError):
    """A nonzero radius is required (the zero form value is degenerate)."""


class InvalidPair(FFPlaneError):
    """The two radii of a pair comparison must differ."""


class NotSubset(FFPlaneError):
    """The candidate shattered set must be contained in the ground set."""


class ToleranceExceeded(FFPlaneError):
    """A float-derived count was not within tolerance of an integer."""


class PointSetFormatError(FFPlaneError):
    """A set spec (geometry.parse_sets) or the point-set file it names is
    malformed: a bad token, a wrong slot count, a file that cannot be read
    or violates the text or JSON schema, or one for another q."""


class ModulusMismatch(PointSetFormatError):
    """A point-set file names another q than the one it was read for."""

    def __init__(self, q: int, expected: int):
        super().__init__(f"file has q={q}, expected {expected}")
        self.q = q
