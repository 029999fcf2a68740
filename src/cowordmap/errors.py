"""Exception types shared across the package, the one rule for a count field
(``positive_count``) and its digit rule for any integer field (``ascii_int``),
the one reader of text files (and, through it, of hand-written line files and
of CSV rows), the one artifact writer (and, through it, ``write_text``) and the
one CSV encoder (``csv_cell``, ``csv_line``, ``write_csv``), which gives the
bytes ``csv.writer(lineterminator="\\n")`` gives: UTF-8, comma-separated, LF
newlines, minimal quoting."""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from itertools import islice
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


def positive_count(text: str) -> int:
    """A count field of an artifact: ASCII decimal digits for an n with 0 < n < 2**63,
    so that an int64 array holds it."""
    # 20 digits or more are above the bound (and int() refuses a few thousand)
    value = int(text) if text.isascii() and text.isdigit() and len(text.lstrip("0")) < 20 else 0
    if not 0 < value < 2**63:
        raise ValueError(f"expected a positive integer count below 2**63, got {text!r}")
    return value


def ascii_int(text: str) -> int:
    """An integer field: ASCII decimal digits, the rule of ``positive_count`` (``int`` alone also takes
    a sign, '_' and other scripts' digits); other text, or more digits than ``int`` reads, is a ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


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


def csv_rows(path: str | Path, header: list[str], *types: Callable[[str], object],
             what: str = "") -> Iterator[tuple[int, Sequence]]:
    """(line number, fields) of each row below ``header`` of a CSV file read
    through ``artifact_reader``: the row's text, or with ``types`` (one per
    field) a tuple of each field converted by its type. An empty file, another
    header, a row of another width, one the csv module cannot read, or a field
    its type rejects with a ValueError is an InputError naming the file, and
    the line if there is one."""
    with artifact_reader(path, what) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise InputError(f"{path}: empty file, expected header {','.join(header)}")
            if first != header:
                raise InputError(f"{path}:1: bad header {','.join(first)!r}, expected {','.join(header)!r}")
            for row in reader:
                if len(row) != len(header):
                    raise InputError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                if types:
                    try:
                        row = tuple(convert(cell) for convert, cell in zip(types, row))
                    except ValueError as exc:
                        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
                yield reader.line_num, row
        except csv.Error as exc:  # a field over csv.field_size_limit(), or a NUL before Python 3.11
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None


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


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through ``artifact_writer``."""
    with artifact_writer(path) as fh:
        fh.write(text)


def csv_cell(text: str) -> str:
    """``text`` as ``csv.writer(lineterminator="\\n")`` writes it in a row of
    several cells (QUOTE_MINIMAL): quoted, with '"' doubled, when it holds ',',
    '"' or a line feed. Whether a bare carriage return is quoted depends on the
    Python version, so such text goes through the csv module itself."""
    if "\r" in text:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow((text, None))
        return buffer.getvalue()[:-2]
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text:
        return f'"{text}"'
    return text


class Cells(dict):
    """The CSV cell of each distinct value of a column, made on first use; None is empty."""

    def __missing__(self, value) -> str:
        self[value] = cell = "" if value is None else csv_cell(str(value))
        return cell


def csv_line(row: Iterable) -> str:
    """A row of one or more cells as ``csv.writer`` writes it, with its LF: None is an
    empty cell, any other value its ``str``, and a lone empty cell is ``""``."""
    return (",".join(["" if value is None else csv_cell(str(value)) for value in row]) or '""') + "\n"


def write_csv(path: str | Path, header: list[str], lines: Iterable[str]) -> None:
    """Write the ``header`` row and then ``lines``, text already encoded by
    ``csv_line`` or ``csv_cell``, through ``artifact_writer``: a few thousand
    pieces a write, so a large file's whole text is never held in memory."""
    lines = iter(lines)
    with artifact_writer(path) as fh:
        fh.write(csv_line(header))
        while chunk := list(islice(lines, 4096)):
            fh.write("".join(chunk))
