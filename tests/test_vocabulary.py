from __future__ import annotations

import unicodedata

import pytest

import oracles
from conftest import MAPPING_TXT, RECORDS_CSV
from cowordmap.errors import InputError
from cowordmap.records import Record
from cowordmap.vocabulary import (
    coverage_stats,
    descriptor_frequencies,
    load_mapping,
    match_key,
    normalize,
)


def record_set(*keyword_lists):
    return tuple(
        Record(f"r{i}", "BAD", 2005, "", None, None, tuple(kws))
        for i, kws in enumerate(keyword_lists)
    )


def test_match_key_rules():
    assert match_key("  Bibliotecas   Públicas ") == "bibliotecas públicas"
    assert match_key("TIC") == "tic"
    decomposed = unicodedata.normalize("NFD", "Públicas")
    assert match_key(decomposed) == "públicas"


def test_load_mapping_basic(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("# comment\n\nBibliotecas públicas -> public libraries\n", encoding="utf-8")
    table = load_mapping(p)
    assert table.get("bibliotecas públicas") == "public libraries"


def test_load_mapping_merge(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(
        "TIC -> Information and Communication Technologies\n"
        "ICT -> Information and Communication Technologies\n",
        encoding="utf-8",
    )
    table = load_mapping(p)
    assert table.get("tic") == table.get("ict") == "Information and Communication Technologies"


def test_load_mapping_conflict(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("x -> a\nX -> b\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"m.txt:2: match-key 'x' already maps to 'a' \(line 1\)"):
        load_mapping(p)


def test_load_mapping_rejects_empty_and_malformed(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("x -> \n", encoding="utf-8")
    with pytest.raises(InputError, match="empty canonical"):
        load_mapping(p)
    p.write_text("just some text\n", encoding="utf-8")
    with pytest.raises(InputError, match="expected 'raw -> canonical'"):
        load_mapping(p)


def test_load_mapping_rejects_chains(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("x -> y\ny -> z\n", encoding="utf-8")
    with pytest.raises(InputError, match="itself\n?.*remapped|remapped"):
        load_mapping(p)


def test_canonical_forms_map_to_themselves(fixture_mapping):
    # implicit identity entries make normalization idempotent
    assert fixture_mapping.get("public libraries") == "public libraries"
    assert fixture_mapping.get("information and communication technologies") \
        == "Information and Communication Technologies"


def test_normalize_merge_then_dedupe(fixture_mapping):
    rs = record_set(["Bibliotecas públicas", "public libraries"])
    idx = normalize(rs, fixture_mapping)
    assert idx.per_record["r0"] == ("public libraries",)
    assert idx.totals == {"public libraries": 1}
    assert idx.token_count == 2


def test_normalize_empty_mapping_passthrough():
    rs = record_set(["Reading  Habits", "reading habits", "Libraries"])
    idx = normalize(rs, {}, passthrough=True)
    assert idx.per_record["r0"] == ("libraries", "reading habits")
    assert sorted(idx.unmapped) == ["libraries", "reading habits"]


def test_normalize_strict_diverts_unmapped():
    rs = record_set(["mapped", "oddball"])
    table = {"mapped": "Mapped"}
    idx = normalize(rs, table, passthrough=False)
    assert idx.per_record["r0"] == ("Mapped",)
    assert idx.unmapped == {"oddball": 1}
    assert idx.token_count == 1


def test_normalize_fixture_matches_brute_force(fixture_index):
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    mapping = oracles.read_mapping_pairs(MAPPING_TXT)
    sets = oracles.descriptor_sets(rows, mapping)
    totals = oracles.occurrence_totals(sets)
    assert fixture_index.totals == dict(totals)
    assert {rid: set(s) for rid, s in fixture_index.per_record.items()} == sets
    assert fixture_index.unmapped == {"records management": 1, "e-government": 1, "web 2.0": 1}


def test_normalize_idempotent(fixture_index, fixture_mapping):
    canonical_records = tuple(
        Record(rid, "BAD", 2005, "", None, None, tuple(sorted(descs)))
        for rid, descs in fixture_index.per_record.items()
    )
    again = normalize(canonical_records, fixture_mapping)
    assert again.totals == fixture_index.totals
    assert again.per_record == fixture_index.per_record


def test_double_counting_identity(fixture_index):
    assert sum(len(s) for s in fixture_index.per_record.values()) == sum(fixture_index.totals.values())


def test_frequencies_basic():
    idx_totals = {"a": 3, "b": 5}
    idx = _index_with(idx_totals)
    assert descriptor_frequencies(idx) == [("b", 5), ("a", 3)]


def test_frequencies_tie_lexicographic():
    idx = _index_with({"b": 2, "a": 2})
    assert descriptor_frequencies(idx) == [("a", 2), ("b", 2)]


def test_frequencies_fixture_top10(fixture_index):
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    mapping = oracles.read_mapping_pairs(MAPPING_TXT)
    totals = oracles.occurrence_totals(oracles.descriptor_sets(rows, mapping))
    expected = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert descriptor_frequencies(fixture_index, 10) == expected
    assert descriptor_frequencies(fixture_index, 3) == [
        ("public libraries", 8),
        ("Information and Communication Technologies", 6),
        ("digital libraries", 6),
    ]


def _index_with(totals):
    # record r holds every descriptor whose total is above r
    from cowordmap.vocabulary import OccurrenceIndex

    rows = range(max(totals.values(), default=0))
    return OccurrenceIndex.from_sets({f"r{r}": [d for d, c in totals.items() if c > r] for r in rows})


def test_coverage_reproduces_published_arithmetic():
    # retained 388 of 1474 occurrences is 26 percent
    idx = _index_with({"head": 388, **{f"tail{i:04d}": 1 for i in range(1086)}})
    stats = coverage_stats(idx, 300)
    assert stats.n_occurrences_total == 1474
    assert stats.n_occurrences_retained == 388
    assert stats.percent_retained == 26


def test_coverage_min_occ_one_is_total(fixture_index):
    stats = coverage_stats(fixture_index, 1)
    assert stats.n_descriptors_retained == stats.n_descriptors_total
    assert stats.n_occurrences_retained == stats.n_occurrences_total
    assert stats.percent_retained == 100


def test_coverage_fixture_min5(fixture_index):
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    mapping = oracles.read_mapping_pairs(MAPPING_TXT)
    totals = oracles.occurrence_totals(oracles.descriptor_sets(rows, mapping))
    kept = {d: c for d, c in totals.items() if c >= 5}
    stats = coverage_stats(fixture_index, 5)
    assert stats.n_descriptors_total == len(totals) == 28
    assert stats.n_occurrences_total == sum(totals.values()) == 83
    assert stats.n_descriptors_retained == len(kept) == 6
    assert stats.n_occurrences_retained == sum(kept.values()) == 35
    assert stats.percent_retained == oracles.percent_half_up(35, 83) == 42


def test_coverage_monotone(fixture_index):
    prev = coverage_stats(fixture_index, 1)
    for min_occ in range(2, 12):
        cur = coverage_stats(fixture_index, min_occ)
        assert cur.n_descriptors_retained <= prev.n_descriptors_retained
        assert cur.n_occurrences_retained <= prev.n_occurrences_retained
        prev = cur


def test_coverage_empty_flag():
    stats = coverage_stats(_index_with({}), 5)
    assert stats.percent_retained == 0 and stats.no_occurrences


def test_coverage_rejects_bad_threshold(fixture_index):
    with pytest.raises(ValueError, match="min_occ"):
        coverage_stats(fixture_index, 0)


def test_totals_bounded_by_record_count(fixture_index, fixture_records):
    for count in fixture_index.totals.values():
        assert 0 <= count <= len(fixture_records)
