"""Keyword canonicalization and descriptor occurrence counting.

Raw author keywords are matched against a human-authored mapping table and
replaced by canonical descriptors. Matching happens on a normalized
"match-key": NFC composition, casefold, whitespace collapse. Within one
record, descriptors form a set, so a descriptor's occurrence count is the
number of records containing it.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .errors import InputError, content_lines
from .records import RecordSet, percent_round_half_up


def match_key(raw: str) -> str:
    """Normalized lookup key: NFC composition, casefold, collapse whitespace."""
    return " ".join(unicodedata.normalize("NFC", raw).casefold().split())


@dataclass(frozen=True)
class MappingTable:
    """Match-key -> canonical descriptor. Many-to-one merges are fine."""

    entries: dict[str, str]

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: str) -> str | None:
        return self.entries.get(key)


@dataclass(frozen=True)
class OccurrenceIndex:
    """Per-record descriptor sets plus global occurrence totals.

    ``unmapped`` tallies keywords (by match-key) that had no mapping entry,
    whether or not passthrough let them become descriptors. ``token_count``
    is the number of keyword tokens before within-record deduplication, kept
    so both readings of "occurrences" stay checkable.
    """

    per_record: dict[str, frozenset[str]]
    totals: dict[str, int]
    unmapped: dict[str, int]
    token_count: int


@dataclass(frozen=True)
class CoverageStats:
    n_descriptors_total: int
    n_occurrences_total: int
    n_descriptors_retained: int
    n_occurrences_retained: int
    percent_retained: int
    no_occurrences: bool = False


def load_mapping(path: str | Path) -> MappingTable:
    """Read a mapping file of ``raw -> canonical`` lines.

    Canonical targets implicitly map to themselves, which is what makes
    normalization idempotent; a file that remaps one entry's canonical form
    to something else is therefore rejected.
    """
    path = Path(path)
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, stripped in content_lines(path, "mapping file "):
        raw, sep, canonical = stripped.partition("->")
        if not sep:
            raise InputError(f"{path}:{lineno}: expected 'raw -> canonical', got {stripped!r}")
        raw = raw.strip()
        canonical = canonical.strip()
        if not raw:
            raise InputError(f"{path}:{lineno}: empty raw keyword")
        if not canonical:
            raise InputError(f"{path}:{lineno}: empty canonical descriptor")
        key = match_key(raw)
        if key in entries and entries[key] != canonical:
            raise InputError(
                f"{path}:{lineno}: match-key '{key}' already maps to "
                f"'{entries[key]}' (line {first_line[key]}), conflicting with '{canonical}'"
            )
        if key not in entries:
            entries[key] = canonical
            first_line[key] = lineno

    for canonical in list(entries.values()):
        key = match_key(canonical)
        if key in entries:
            if entries[key] != canonical:
                raise InputError(
                    f"{path}:{first_line[key]}: canonical descriptor '{canonical}' is itself "
                    f"remapped to '{entries[key]}'; chains make normalization non-idempotent"
                )
        else:
            entries[key] = canonical
    return MappingTable(entries)


def normalize(rs: RecordSet, table: MappingTable, passthrough: bool = True) -> OccurrenceIndex:
    """Apply the mapping table to every record's raw keywords.

    Mapped keywords become their canonical descriptor. Unmapped keywords
    become their own match-key when ``passthrough`` is on, and are dropped
    from the descriptor sets otherwise; either way they are tallied in
    ``unmapped``. Duplicates within a record collapse to one. Each distinct
    raw keyword is looked up once per call; the records' sets and the totals
    are then built by ``map`` and ``Counter`` over those lookups.
    """
    keywords = list(map(attrgetter("raw_keywords"), rs))
    raw_counts = Counter(chain.from_iterable(keywords))
    descriptor: dict[str, str | None] = {}
    unmapped: Counter[str] = Counter()
    for raw, n in raw_counts.items():
        key = match_key(raw)
        canonical = table.get(key)
        if canonical is None:
            unmapped[key] += n
            canonical = key if passthrough else None
        descriptor[raw] = canonical
    sets = [frozenset(map(descriptor.__getitem__, kws)) for kws in keywords]
    tokens = raw_counts.total()
    if not passthrough:
        sets = [s - {None} if None in s else s for s in sets]
        tokens -= unmapped.total()
    per_record = dict(zip(map(attrgetter("id"), rs), sets))
    totals = Counter(chain.from_iterable(sets))
    return OccurrenceIndex(per_record, dict(totals), dict(unmapped), tokens)


def descriptor_frequencies(idx: OccurrenceIndex, n: int | None = None) -> list[tuple[str, int]]:
    """Descriptors ranked by count descending, ties lexicographic; top n if given."""
    ranked = sorted(idx.totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked if n is None else ranked[:n]


def coverage_stats(idx: OccurrenceIndex, min_occ: int) -> CoverageStats:
    """How much of the occurrence universe survives a frequency threshold."""
    if min_occ < 1:
        raise ValueError(f"min_occ must be >= 1, got {min_occ}")
    total_desc = len(idx.totals)
    total_occ = sum(idx.totals.values())
    retained = {d: c for d, c in idx.totals.items() if c >= min_occ}
    retained_occ = sum(retained.values())
    return CoverageStats(total_desc, total_occ, len(retained), retained_occ,
                         percent_round_half_up(retained_occ, total_occ), no_occurrences=total_occ == 0)
