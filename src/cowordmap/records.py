"""Bibliographic record ingestion, filtering and classification reports.

Records live in one flat CSV file with the header
``id,source,year,title,class_a,class_b,keywords``; the keywords cell holds
";"-separated raw author keywords. Each record optionally carries one label
from each of two classification schemes, applied manually upstream.
``parse_records`` reads that file through ``errors.csv_rows``, the one CSV
reader, which checks its header and the width of each row; ``write_records``
encodes it directly, to the bytes ``csv.writer`` gives.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import InputError, artifact_writer, content_lines, csv_rows

DEFAULT_YEAR_RANGE = (2001, 2012)

UNCLASSIFIED = "(unclassified)"

RECORDS_HEADER = ["id", "source", "year", "title", "class_a", "class_b", "keywords"]


@dataclass(frozen=True)
class ClassScheme:
    """A closed, ordered list of class labels."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise InputError(f"scheme '{self.name}' has no labels")
        if len(set(self.labels)) != len(self.labels):
            raise InputError(f"scheme '{self.name}' has duplicate labels")

    def __contains__(self, label: str) -> bool:
        return label in self.labels


@dataclass(frozen=True)
class PeriodWindow:
    """Inclusive year interval."""

    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise InputError(f"window {self.start_year}-{self.end_year} is reversed")

    def __contains__(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    @property
    def label(self) -> str:
        return f"{self.start_year}-{self.end_year}"

    def overlaps(self, other: "PeriodWindow") -> bool:
        return self.start_year <= other.end_year and other.start_year <= self.end_year


class Record(NamedTuple):
    """One row of the records file; a named tuple, so tallies over records run in ``map`` and ``Counter``."""

    id: str
    source: str
    year: int
    title: str
    class_a: str | None
    class_b: str | None
    raw_keywords: tuple[str, ...]


@dataclass(frozen=True)
class RecordSet:
    records: tuple[Record, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def load_scheme(path: str | Path, name: str | None = None) -> ClassScheme:
    """Read a scheme file: one label per line, ``#`` comments, blanks ignored."""
    path = Path(path)
    labels = []
    for lineno, line in content_lines(path, "scheme file "):
        if line in labels:
            raise InputError(f"{path}:{lineno}: duplicate label '{line}'")
        labels.append(line)
    return ClassScheme(name or path.stem, tuple(labels))


class _Stripped(dict):
    """Text -> the one shared object equal to it stripped, made on first use."""

    def __missing__(self, text: str) -> str:
        stripped = text.strip()
        self[text] = shared = self.setdefault(stripped, stripped)
        return shared


def parse_records(
    path: str | Path,
    schemes: tuple[ClassScheme, ClassScheme],
    year_range: tuple[int, int] | None = DEFAULT_YEAR_RANGE,
) -> RecordSet:
    """Parse and validate the records CSV at ``path``, read by ``errors.csv_rows``.

    Row order is preserved. Every cell is trimmed; keywords are split on ";"
    and trimmed, and empty segments (e.g. a trailing ";") are dropped. Every
    validation error names the line it came from. Equal keywords, sources and
    class labels are one shared string object across the records, and equal
    years one int, so a corpus holds each distinct value once.
    """
    path = Path(path)
    scheme_a, scheme_b = schemes
    labels_a, labels_b = frozenset(scheme_a.labels), frozenset(scheme_b.labels)
    records: list[Record] = []
    seen: dict[str, int] = {}
    shared = _Stripped().__getitem__  # one object per distinct keyword, source and class
    years: dict[str, int] = {}  # each distinct year cell, parsed and checked once
    for line, row in csv_rows(path, RECORDS_HEADER, "records file "):
        rid, source, year_text, title, class_a, class_b, keywords = map(str.strip, row)
        if not rid:
            raise InputError(f"{path}:{line}: field 'id' is empty")
        if rid in seen:
            raise InputError(f"{path}:{line}: duplicate id '{rid}' (first seen on line {seen[rid]})")
        seen[rid] = line
        if not source:
            raise InputError(f"{path}:{line}: field 'source' is empty")
        year = years.get(year_text)
        if year is None:
            try:
                year = int(year_text)
            except ValueError:
                raise InputError(f"{path}:{line}: field 'year' is not an integer: {year_text!r}")
            if year_range is not None and not (year_range[0] <= year <= year_range[1]):
                raise InputError(
                    f"{path}:{line}: field 'year' {year} outside corpus range "
                    f"{year_range[0]}-{year_range[1]}"
                )
            years[year_text] = year
        if class_a and class_a not in labels_a:
            raise InputError(
                f"{path}:{line}: field 'class_a' label '{class_a}' not in scheme '{scheme_a.name}'"
            )
        if class_b and class_b not in labels_b:
            raise InputError(
                f"{path}:{line}: field 'class_b' label '{class_b}' not in scheme '{scheme_b.name}'"
            )
        records.append(Record(rid, shared(source), year, title,
                              shared(class_a) if class_a else None, shared(class_b) if class_b else None,
                              tuple(filter(None, map(shared, keywords.split(";"))))))
    return RecordSet(tuple(records))


def _csv_cell(text: str) -> str:
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


class _Cells(dict):
    """The CSV cell of each distinct value of a column, made on first use; None is empty."""

    def __missing__(self, value) -> str:
        self[value] = cell = "" if value is None else _csv_cell(str(value))
        return cell


def write_records(rs: RecordSet, path: str | Path) -> None:
    """Serialize a RecordSet back to the canonical CSV form (LF, UTF-8), with
    the bytes ``csv.writer`` gives; a missing class (None) is an empty cell.

    The rows are encoded here, not by the csv module: the source, year and
    class cells are kept per distinct value, and the id, title and keywords
    are quoted by ``_csv_cell``. The file is written a few thousand rows at a
    time, so its whole text is never held in memory."""
    cells = _Cells()
    rows = iter(rs)
    with artifact_writer(path) as fh:
        fh.write(",".join(RECORDS_HEADER) + "\n")
        while chunk := list(islice(rows, 4096)):
            fh.write("".join([f"{_csv_cell(rid)},{cells[source]},{cells[year]},{_csv_cell(title)},"
                              f"{cells[a]},{cells[b]},{_csv_cell('; '.join(keywords))}\n"
                              for rid, source, year, title, a, b, keywords in chunk]))


def filter_records(
    rs: RecordSet,
    source: str | None = None,
    years: PeriodWindow | None = None,
) -> RecordSet:
    """Subset of ``rs`` matching every given predicate; the input is untouched."""
    records = rs.records
    if source is not None:
        records = [r for r in records if r.source == source]
    if years is not None:
        records = [r for r in records if r.year in years]
    return RecordSet(tuple(records))


def check_disjoint(windows: tuple[PeriodWindow, ...] | list[PeriodWindow]) -> None:
    """Raise InputError naming the first two windows that share a year."""
    for i, a in enumerate(windows):
        for b in windows[i + 1 :]:
            if a.overlaps(b):
                raise InputError(f"windows {a.label} and {b.label} overlap")


def split_periods(rs: RecordSet, windows: list[PeriodWindow]) -> list[RecordSet]:
    """One RecordSet per window; records outside every window are dropped.

    Windows must be pairwise disjoint, so each record lands in at most one
    output.
    """
    check_disjoint(windows)
    buckets: list[list[Record]] = [[] for _ in windows]
    # each distinct year is looked up once; a year outside every window gets a list of its own
    bucket_of = {year: next((b for w, b in zip(windows, buckets) if year in w), [])
                 for year in set(map(attrgetter("year"), rs))}
    for r in rs:
        bucket_of[r.year].append(r)
    return [RecordSet(tuple(bucket)) for bucket in buckets]


def percent_round_half_up(count: int, total: int) -> int:
    """``round(100*count/total)`` with exact half-up tie behaviour, in integers."""
    if total == 0:
        return 0
    return (200 * count + total) // (2 * total)


def class_distribution(rs: RecordSet, scheme: ClassScheme, which: str = "a") -> list[tuple[str, int, int]]:
    """Rows of (label, count, percent) in scheme order.

    Records without the class are tallied under a reserved "(unclassified)"
    row, appended only when present. Percents are rounded half-up and may not
    sum to 100; counts always sum to ``len(rs)``.
    """
    tally = Counter(map(attrgetter("class_a" if which == "a" else "class_b"), rs))
    unclassified = tally.pop(None, 0)
    counts = [tally.pop(label, 0) for label in scheme.labels]
    if tally:
        raise KeyError(f"class label '{min(tally)}' not in scheme '{scheme.name}'")
    total = len(rs)
    rows = [(label, count, percent_round_half_up(count, total)) for label, count in zip(scheme.labels, counts)]
    if unclassified:
        rows.append((UNCLASSIFIED, unclassified, percent_round_half_up(unclassified, total)))
    return rows


def class_crosstab(rs: RecordSet, a: ClassScheme, b: ClassScheme):
    """Count matrix of class_a x class_b.

    Returns (row_labels, col_labels, counts) where counts[i][j] is the number
    of records labelled (row_labels[i], col_labels[j]). Rows and columns gain
    an "(unclassified)" entry only when some record needs it, so the marginals
    always match the two distributions.
    """
    tally = Counter(map(attrgetter("class_a", "class_b"), rs))
    need_row_u = any(label_a is None for label_a, _ in tally)
    need_col_u = any(label_b is None for _, label_b in tally)
    row_labels = list(a.labels) + ([UNCLASSIFIED] if need_row_u else [])
    col_labels = list(b.labels) + ([UNCLASSIFIED] if need_col_u else [])
    row_index = {label: i for i, label in enumerate(row_labels)}
    col_index = {label: j for j, label in enumerate(col_labels)}
    counts = [[0] * len(col_labels) for _ in row_labels]
    for (label_a, label_b), count in tally.items():
        i = row_index[label_a if label_a is not None else UNCLASSIFIED]
        j = col_index[label_b if label_b is not None else UNCLASSIFIED]
        counts[i][j] += count
    return row_labels, col_labels, counts
