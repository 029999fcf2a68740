"""Exception types shared across the package, the one reader of text files
(and, through it, of hand-written line files and of CSV files) and the one
artifact writer."""

from __future__ import annotations

import csv
import os
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from pathlib import Path


class InputError(Exception):
    """A user-supplied file or configuration value is unusable.

    Raised with a message that names the offending file, line and field where
    that is known. The CLI maps this to exit code 1.
    """


class StageError(Exception):
    """A pipeline stage failed; wraps the original error with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def artifact_reader(path: str | Path, what: str = ""):
    """Open ``path`` as UTF-8 text (``newline=""``, line ends as stored) for the
    block to read. A file that cannot be opened or read, or bytes that are not
    UTF-8, come out as an InputError naming ``what`` and ``path``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # the decoder's byte offset counts from its current chunk, not the file
        raise InputError(f"cannot read {what}{path}: not UTF-8 text (byte "
                         f"{exc.object[exc.start]:#04x}: {exc.reason})") from exc
    except OSError as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def content_lines(path: str | Path, what: str = "") -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line of a hand-written file that
    is neither blank nor a ``#`` comment, read through ``artifact_reader``."""
    with artifact_reader(path, what) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def csv_rows(path: str | Path, header: list[str], what: str = "") -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each row below ``header`` of a CSV file read
    through ``artifact_reader``. An empty file, another header or a row of
    another width is an InputError naming the file, and the line if there is one."""
    with artifact_reader(path, what) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise InputError(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise InputError(f"{path}:1: bad header {','.join(first)!r}, expected {','.join(header)!r}")
        for row in reader:
            if len(row) != len(header):
                raise InputError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, row


@contextmanager
def artifact_writer(path: str | Path):
    """Write UTF-8 text (LF line ends as written) to ``path``, whole or not at all:
    to ``<name>.part``, which replaces ``path`` when the block ends. On a failure
    the part file goes, ``path`` stays as it was, and an exception (not an
    interrupt) comes out as an InputError naming ``path``."""
    part = Path(f"{path}.part")
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(part, path)
    except BaseException as exc:
        with suppress(OSError):
            part.unlink()
        if not isinstance(exc, Exception):
            raise
        raise InputError(f"cannot write {path}: {exc}") from exc
