"""Exception types shared across the package."""


class CliquecommError(Exception):
    """Base class for all package-specific errors."""


class InputError(CliquecommError):
    """Input files the command cannot use (the CLI exits 2)."""


class EdgeListParseError(InputError):
    """A malformed record in an edge-list, cover, or hashtag file."""

    def __init__(self, path, line_number, message):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{self.path}:{line_number}: {message}")


class ResourceLimitError(CliquecommError):
    """A configurable resource cap (the maximal clique count) was exceeded."""


class DeadlineExceededError(CliquecommError):
    """A wall-clock timeout elapsed mid-computation."""
