"""Exception types shared across the toolkit, its count check, and the
reader of input files and writer of output files."""

import codecs
import contextlib
import os
import stat
from typing import IO, Iterator

import numpy as np

# Bytes the UTF-8 check reads at a time.
_BLOCK = 1 << 18


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


def check_count(value: object, name: str, floor: int,
                error: type[PLRankError] = ValidationError) -> None:
    """Raise ``error`` unless ``value`` is an integer (an ``int`` or numpy
    integer, not a ``bool``) of at least ``floor``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise error(f"{name} must be >= {floor}, got {value}")


def _check_utf8(path: str) -> None:
    """Raise ParseError, naming its line, at the first byte of ``path`` that is not UTF-8.

    Reads ``_BLOCK`` bytes at a time; a character cut by the end of a block is
    decoded with the next one.
    """
    offset, pending = 0, b""  # the file offset of pending's first byte
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_BLOCK)
            data = pending + block if pending else block
            try:
                used = codecs.utf_8_decode(data, "strict", not block)[1]
            except UnicodeDecodeError as exc:
                line = _line_at(fh, offset + exc.start)
                raise ParseError(f"{path} is not UTF-8 text", line) from None
            if not block:
                return
            offset, pending = offset + used, data[used:]


def _line_at(fh: IO[bytes], offset: int) -> int:
    """The line that byte ``offset`` of the binary file ``fh`` lies on.

    Lines end at each ``\n``, ``\r`` and ``\r\n``, as universal newlines
    split them, also where a block boundary falls inside a ``\r\n``.
    """
    line, after_cr = 1, False
    fh.seek(0)
    while offset > 0 and (data := fh.read(min(_BLOCK, offset))):
        offset -= len(data)
        line += (data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
                 - (after_cr and data.startswith(b"\n")))
        after_cr = data.endswith(b"\r")
    return line


def _open_text(path: str, newline: str | None = None) -> IO[str]:
    """The file as a UTF-8 text stream, read as ``open`` reads it.

    A bounded first pass checks every byte, so a file that is not UTF-8 raises
    ParseError before any of it is parsed, naming the line of the first bad
    byte. The caller closes the stream.
    """
    _check_utf8(path)
    return open(path, encoding="utf-8", newline=newline)


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[IO[str]]:
    """A UTF-8 text stream (``\n`` line ends) whose content replaces ``path``
    all at once, when the ``with`` block ends without an exception.

    The stream writes a new file beside the one it replaces, which
    ``os.replace`` then moves onto it; on any exception the new file is
    removed, so ``path`` is as it was. A replaced file keeps its permission
    bits, a new one gets those ``open`` gives, and a symbolic link's target is
    replaced, not the link. A path that names a stream is written directly,
    as ``open`` writes it: an existing file that is not a regular one (a
    terminal, a pipe, a FIFO), or any path under ``/dev`` or ``/proc``.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if (mode is not None and not stat.S_ISREG(mode)) or os.path.abspath(path).startswith(
            ("/dev/", "/proc/")):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
