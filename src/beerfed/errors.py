"""Shared exception types, mapped to CLI exit codes in beerfed.cli."""


class BeerfedError(Exception):
    """Base class for all package-specific errors. ``str()`` joins the
    input file the error was found in (``path``: its reader sets it on
    errors raised while the file is open), the ``location`` within that
    file and the message parts, leaving out empty ones."""

    location = ""

    def __init__(self, *message: str, path=None):
        super().__init__(*message)
        self.path = path

    def __str__(self) -> str:
        return ": ".join(str(p) for p in (self.path, self.location, *self.args) if p)


class ConfigurationError(BeerfedError):
    """Invalid session/federation/family configuration (CLI exit 2)."""


class IngestError(BeerfedError):
    """Malformed input file content (CLI exit 4).

    Carries the optional 1-based file line number and column name so CLI
    diagnostics can point at the offending cell.
    """

    def __init__(
        self, *message: str, path=None, row: int | None = None, column: str | None = None
    ):
        super().__init__(*message, path=path)
        self.row = row
        self.column = column

    @property
    def location(self) -> str:
        cell = [f"row {self.row}"] if self.row is not None else []
        if self.column is not None:
            cell.append(f"column {self.column}")
        return ", ".join(cell)


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
