"""Exception types shared across the package, and the one artifact writer."""

from __future__ import annotations

import os
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
