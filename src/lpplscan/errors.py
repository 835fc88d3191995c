"""Exception hierarchy shared across the package."""


class DomainError(ValueError):
    """A mathematically invalid request (e.g. evaluating past the critical time)."""


class CsvFormatError(DomainError):
    """The input CSV cannot yield a valid price series."""


class WindowError(DomainError):
    """A fit window is empty, inverted, or below the minimum size."""


class FitError(DomainError):
    """Calibration failed on every descent; carries per-descent diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []
