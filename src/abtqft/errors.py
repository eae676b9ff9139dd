"""Exception types shared across the library."""


class AbtqftError(Exception):
    """Base class for all library-specific errors."""


class DegenerateMatrix(AbtqftError):
    """A nondegenerate symmetric matrix was required but det = 0."""


class GroupTooLarge(AbtqftError):
    """A finite-group enumeration would exceed the desk-scale cap."""


class EnumerationTooLarge(AbtqftError):
    """A coloring enumeration k^m would exceed the configured cap."""


class InconsistentPhase(AbtqftError):
    """Equivalence ratios within one signature class disagree.

    This is a hard failure of the phase-table construction, not a skippable
    condition: it means the two invariant computations do not differ by a
    constant on the class.
    """


class NotLagrangian(AbtqftError):
    """A frame was not an independent maximal isotropic system of columns."""


class IndexOutOfRange(AbtqftError):
    """A handle-slide move referenced a nonexistent link component."""
