"""Bibliographic record ingestion, filtering and classification reports.

Records live in one flat CSV file with the header
``id,source,year,title,class_a,class_b,keywords``; the keywords cell holds
";"-separated raw author keywords. Each record optionally carries one label
from each of two classification schemes, applied manually upstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, artifact_reader, artifact_writer, content_lines

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


@dataclass(frozen=True)
class Record:
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


def parse_records(
    path: str | Path,
    schemes: tuple[ClassScheme, ClassScheme],
    year_range: tuple[int, int] | None = DEFAULT_YEAR_RANGE,
) -> RecordSet:
    """Parse and validate the records CSV at ``path``.

    Row order is preserved. Keywords are split on ";" and trimmed; empty
    segments (e.g. a trailing ";") are dropped. Every validation error names
    the line it came from.
    """
    path = Path(path)
    scheme_a, scheme_b = schemes
    records: list[Record] = []
    seen: dict[str, int] = {}
    with artifact_reader(path, "records file ") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {','.join(RECORDS_HEADER)}")
        if header != RECORDS_HEADER:
            raise InputError(
                f"{path}:1: bad header {','.join(header)!r}, expected {','.join(RECORDS_HEADER)!r}"
            )
        for row in reader:
            line = reader.line_num
            if len(row) != len(RECORDS_HEADER):
                raise InputError(f"{path}:{line}: expected {len(RECORDS_HEADER)} fields, got {len(row)}")
            rid, source, year_text, title, class_a, class_b, keywords = (cell.strip() for cell in row)
            if not rid:
                raise InputError(f"{path}:{line}: field 'id' is empty")
            if rid in seen:
                raise InputError(f"{path}:{line}: duplicate id '{rid}' (first seen on line {seen[rid]})")
            seen[rid] = line
            if not source:
                raise InputError(f"{path}:{line}: field 'source' is empty")
            try:
                year = int(year_text)
            except ValueError:
                raise InputError(f"{path}:{line}: field 'year' is not an integer: {year_text!r}")
            if year_range is not None and not (year_range[0] <= year <= year_range[1]):
                raise InputError(
                    f"{path}:{line}: field 'year' {year} outside corpus range "
                    f"{year_range[0]}-{year_range[1]}"
                )
            if class_a and class_a not in scheme_a:
                raise InputError(
                    f"{path}:{line}: field 'class_a' label '{class_a}' not in scheme '{scheme_a.name}'"
                )
            if class_b and class_b not in scheme_b:
                raise InputError(
                    f"{path}:{line}: field 'class_b' label '{class_b}' not in scheme '{scheme_b.name}'"
                )
            kw = tuple(k.strip() for k in keywords.split(";") if k.strip())
            records.append(
                Record(rid, source, year, title, class_a or None, class_b or None, kw)
            )
    return RecordSet(tuple(records))


def write_records(rs: RecordSet, path: str | Path) -> None:
    """Serialize a RecordSet back to the canonical CSV form (LF, UTF-8)."""
    with artifact_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDS_HEADER)
        for r in rs:
            writer.writerow(
                [r.id, r.source, str(r.year), r.title, r.class_a or "", r.class_b or "", "; ".join(r.raw_keywords)]
            )


def filter_records(
    rs: RecordSet,
    source: str | None = None,
    years: PeriodWindow | None = None,
) -> RecordSet:
    """Subset of ``rs`` matching every given predicate; the input is untouched."""
    return RecordSet(tuple(
        r
        for r in rs
        if (source is None or r.source == source) and (years is None or r.year in years)
    ))


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
    for r in rs:
        for i, w in enumerate(windows):
            if r.year in w:
                buckets[i].append(r)
                break
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
    getter = (lambda r: r.class_a) if which == "a" else (lambda r: r.class_b)
    counts = {label: 0 for label in scheme.labels}
    unclassified = 0
    for r in rs:
        label = getter(r)
        if label is None:
            unclassified += 1
        else:
            counts[label] += 1
    total = len(rs)
    rows = [(label, counts[label], percent_round_half_up(counts[label], total)) for label in scheme.labels]
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
    need_row_u = any(r.class_a is None for r in rs)
    need_col_u = any(r.class_b is None for r in rs)
    row_labels = list(a.labels) + ([UNCLASSIFIED] if need_row_u else [])
    col_labels = list(b.labels) + ([UNCLASSIFIED] if need_col_u else [])
    row_index = {label: i for i, label in enumerate(row_labels)}
    col_index = {label: j for j, label in enumerate(col_labels)}
    counts = [[0] * len(col_labels) for _ in row_labels]
    for r in rs:
        i = row_index[r.class_a if r.class_a is not None else UNCLASSIFIED]
        j = col_index[r.class_b if r.class_b is not None else UNCLASSIFIED]
        counts[i][j] += 1
    return row_labels, col_labels, counts
