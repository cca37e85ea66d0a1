"""Exception types shared across the package."""


class KdomError(Exception):
    """Base class for all package errors."""


class DomainError(KdomError):
    """An argument is outside the supported or proven domain."""


class SetFileError(KdomError):
    """A vertex-set file is malformed or violates its header."""


class VerificationError(KdomError):
    """A shifted set failed the domination check.

    Carries the uncovered vertices and the construction trace so the
    failing configuration can be reproduced.
    """

    def __init__(self, message, uncovered=None, trace=None):
        super().__init__(message)
        self.uncovered = uncovered
        self.trace = trace
