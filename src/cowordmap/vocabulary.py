"""Keyword canonicalization and descriptor occurrence counting.

Raw author keywords are matched against a human-authored mapping table and
replaced by canonical descriptors. Matching happens on a normalized
"match-key": NFC composition, casefold, whitespace collapse. Within one
record, descriptors form a set (each descriptor once; ``normalize`` holds those
of all records in one integer table), so a descriptor's occurrence count is the
number of records containing it.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import InputError, content_lines
from .records import Record, percent_round_half_up


def match_key(raw: str) -> str:
    """Normalized lookup key: NFC composition, casefold, collapse whitespace."""
    return " ".join(unicodedata.normalize("NFC", raw).casefold().split())


@dataclass(frozen=True, eq=False)
class OccurrenceIndex:
    """Each record's descriptors as one CSR table: row ``r`` is record ``records[r]``, in
    record order, and holds the int32 ids ``ids[indptr[r]:indptr[r + 1]]`` (int64 offsets)
    of the sorted ``vocabulary``, ascending and each once. ``per_record`` is a read-only
    view built on first use. ``network.build_network`` counts the pairs of each row
    straight from ``ids``, grouping the rows by window itself.

    ``unmapped`` tallies keywords (by match-key) that had no mapping entry,
    whether or not passthrough let them become descriptors. ``token_count``
    is the number of keyword tokens before within-record deduplication, kept
    so both readings of "occurrences" stay checkable; only ``normalize`` sets them.
    """

    records: tuple[str, ...]
    vocabulary: tuple[str, ...]
    indptr: np.ndarray
    ids: np.ndarray
    unmapped: Mapping[str, int] = field(default_factory=dict)
    token_count: int = 0

    @classmethod
    def from_sets(cls, per_record: Mapping[str, Collection[str]]) -> OccurrenceIndex:
        """The table of record id -> descriptors, in the mapping's order; repeats count once."""
        vocabulary = tuple(sorted(set(chain.from_iterable(per_record.values()))))
        code = dict(zip(vocabulary, range(len(vocabulary))))
        return _table(tuple(per_record), vocabulary, list(per_record.values()), code)

    @property
    def occurrences(self) -> np.ndarray:
        """Each vocabulary descriptor's number of rows."""
        return np.bincount(self.ids, minlength=len(self.vocabulary))

    @cached_property
    def per_record(self) -> Mapping[str, tuple[str, ...]]:
        names, bounds = list(map(self.vocabulary.__getitem__, self.ids.tolist())), self.indptr.tolist()
        return MappingProxyType(dict(zip(self.records, (tuple(names[a:b]) for a, b in zip(bounds, bounds[1:])))))


def _table(records: tuple[str, ...], vocabulary: tuple[str, ...], groups: list, code: dict) -> OccurrenceIndex:
    """The table whose row ``r`` holds the ids ``code`` gives the items of ``groups[r]``; an item
    coded -1 is left out. Each (row, id) pair is one int64 key: one sort orders every row, and
    a mask of unequal neighbours drops repeats (a plain ``np.unique`` takes a slower hash path)."""
    width = max(len(vocabulary), 1)
    lengths = np.fromiter(map(len, groups), np.int64, len(groups))
    keys = np.repeat(np.arange(len(groups), dtype=np.int64) * width, lengths)
    codes = np.fromiter(map(code.__getitem__, chain.from_iterable(groups)), np.int32, keys.size)
    keys += codes
    keys = keys[codes >= 0]
    del codes
    keys.sort()
    first = np.ones(keys.size, bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // width, minlength=len(groups)))))
    return OccurrenceIndex(records, vocabulary, indptr, (keys % width).astype(np.int32))


@dataclass(frozen=True)
class CoverageStats:
    n_descriptors_total: int
    n_occurrences_total: int
    n_descriptors_retained: int
    n_occurrences_retained: int
    percent_retained: int


def load_mapping(path: str | Path) -> dict[str, str]:
    """Read a mapping file of ``raw -> canonical`` lines into a table of
    match-key -> canonical descriptor; many-to-one merges are fine.

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
    return entries


def normalize(rs: tuple[Record, ...], table: Mapping[str, str], passthrough: bool = True) -> OccurrenceIndex:
    """Apply the mapping table (match-key -> canonical descriptor) to every record's raw keywords.

    Mapped keywords become their canonical descriptor. Unmapped keywords
    become their own match-key when ``passthrough`` is on, and are dropped
    from the descriptor sets otherwise; either way they are tallied in
    ``unmapped``. Duplicates within a record collapse to one. Each distinct
    raw keyword is looked up once per call, and its descriptor's vocabulary
    id then goes into the table in numpy.
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
    vocabulary = tuple(sorted(set(descriptor.values()) - {None}))
    vocabulary_id = dict(zip(vocabulary, range(len(vocabulary)))) | {None: -1}
    code = {raw: vocabulary_id[canonical] for raw, canonical in descriptor.items()}
    tokens = raw_counts.total() - (0 if passthrough else unmapped.total())
    return replace(_table(tuple(map(attrgetter("id"), rs)), vocabulary, keywords, code),
                   unmapped=dict(unmapped), token_count=tokens)


def descriptor_frequencies(idx: OccurrenceIndex, n: int | None = None) -> list[tuple[str, int]]:
    """Descriptors ranked by count descending, ties lexicographic; top n if given."""
    counts = idx.occurrences
    order = np.argsort(-counts, kind="stable")[:n]  # the vocabulary is in code-point order
    return list(zip(map(idx.vocabulary.__getitem__, order.tolist()), counts[order].tolist()))


def coverage_stats(idx: OccurrenceIndex, min_occ: int) -> CoverageStats:
    """How much of the occurrence universe survives a frequency threshold."""
    if min_occ < 1:
        raise ValueError(f"min_occ must be >= 1, got {min_occ}")
    counts = idx.occurrences
    retained = counts[counts >= min_occ]
    total_occ, retained_occ = int(counts.sum()), int(retained.sum())
    return CoverageStats(counts.size, total_occ, retained.size, retained_occ,
                         percent_round_half_up(retained_occ, total_occ))
