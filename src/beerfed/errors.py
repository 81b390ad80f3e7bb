"""Shared exception types, mapped to CLI exit codes in beerfed.cli."""


class BeerfedError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(BeerfedError):
    """Invalid session/federation/family configuration (CLI exit 2)."""


class IngestError(BeerfedError):
    """Malformed input file content (CLI exit 4).

    Carries the optional file, 1-based file line number and column name so
    CLI diagnostics can point at the offending cell.
    """

    def __init__(
        self, message: str, *, path=None, row: int | None = None, column: str | None = None
    ):
        super().__init__(message)
        self.path = path  # the CSV reader sets it on errors raised while it is open
        self.row = row
        self.column = column

    def __str__(self) -> str:
        cell = [f"row {self.row}"] if self.row is not None else []
        if self.column is not None:
            cell.append(f"column {self.column}")
        return ": ".join(str(p) for p in (self.path, ", ".join(cell), self.args[0]) if p)


class DatasetValidationError(BeerfedError):
    """Dataset validation found error-severity violations (CLI exit 4)."""


class DegenerateRowError(BeerfedError):
    """A judge's scores are all equal (or too few), so min-max normalization
    is undefined. Suppressed by the lenient flag."""

    def __init__(self, judges: list[str]):
        self.judges = list(judges)
        super().__init__(
            "degenerate score rows for judge(s): " + ", ".join(self.judges)
        )


class InsufficientDataError(BeerfedError):
    """Fewer filled cells than a statistic requires (CLI exit 4)."""
