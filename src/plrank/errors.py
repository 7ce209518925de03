"""Exception types shared across the toolkit, and the reader of input files."""

import io


class PLRankError(Exception):
    """Base class for all toolkit errors; ``line`` is the input line, if any."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(PLRankError):
    """Malformed input text (dataset lines, score files, model files)."""


class ValidationError(PLRankError):
    """Well-formed input that violates a documented constraint."""


class ConfigError(PLRankError):
    """Training configuration that cannot be executed."""


def _open_text(path: str, newline: str | None = None) -> io.StringIO:
    """The file as UTF-8 text, read as ``open`` would; other bytes raise ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not UTF-8 text", line) from None
