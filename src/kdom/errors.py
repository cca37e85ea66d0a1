"""Exception types shared across the package."""


class KdomError(Exception):
    """Base class for all package errors."""


class DomainError(KdomError):
    """An argument is outside the supported or proven domain."""


class SetFileError(KdomError):
    """A vertex-set file is malformed or violates its header."""


class VerificationError(KdomError):
    """remove_corners(verify=True) found that its edit broke domination; carries the uncovered vertices.

    construct never raises it: its result dominates by proof."""

    def __init__(self, message, uncovered=None):
        super().__init__(message)
        self.uncovered = uncovered
