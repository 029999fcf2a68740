from __future__ import annotations

import pytest

import oracles
from conftest import RECORDS_CSV
from cowordmap.errors import InputError
from cowordmap.records import (
    ClassScheme,
    PeriodWindow,
    Record,
    class_crosstab,
    class_distribution,
    filter_records,
    load_scheme,
    parse_records,
    percent_round_half_up,
    split_periods,
    write_records,
)

HEADER = "id,source,year,title,class_a,class_b,keywords\n"

SCHEME_X = ClassScheme("x", ("Information Services", "Libraries", "X", "Y"))
SCHEME_Y = ClassScheme("y", ("Libraries", "P", "Q"))


def write_corpus(tmp_path, body: str):
    path = tmp_path / "records.csv"
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def test_parse_single_row(tmp_path):
    path = write_corpus(
        tmp_path, 'p1,BAD,2004,T,Information Services,Libraries,"public libraries; reading"\n'
    )
    rs = parse_records(path, (SCHEME_X, SCHEME_Y))
    assert len(rs) == 1
    r = rs[0]
    assert r == Record("p1", "BAD", 2004, "T", "Information Services", "Libraries",
                       ("public libraries", "reading"))


def test_parse_shares_equal_strings_across_records(tmp_path):
    # equal keywords, sources and classes are one object each, however the
    # cells were padded, so a corpus holds each distinct string once
    path = write_corpus(tmp_path, "p1,BAD,2004,T,X,P,alpha; beta\n"
                                  "p2, BAD ,2005,U, X ,P ,beta;alpha ;;  alpha\n"
                                  "p3,WOS,2004,V,Y,,gamma; X\n")
    one, two, three = parse_records(path, (SCHEME_X, SCHEME_Y))
    assert two.raw_keywords == ("beta", "alpha", "alpha")
    assert one.source is two.source and one.class_a is two.class_a and one.class_b is two.class_b
    assert one.raw_keywords[0] is two.raw_keywords[1] is two.raw_keywords[2]
    assert one.raw_keywords[1] is two.raw_keywords[0]
    assert three.raw_keywords[1] is one.class_a  # one object per distinct string, whatever the field
    assert three.year is one.year


def test_parse_header_only_is_empty(tmp_path):
    rs = parse_records(write_corpus(tmp_path, ""), (SCHEME_X, SCHEME_Y))
    assert len(rs) == 0


def test_parse_fixture_counts(schemes, fixture_records):
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    assert len(fixture_records) == len(rows) == 40
    by_source = {}
    for r in rows:
        by_source[r["source"]] = by_source.get(r["source"], 0) + 1
    assert by_source == {"BAD": 25, "WOS": 15}
    for src, expected in by_source.items():
        assert sum(1 for r in fixture_records if r.source == src) == expected
    # row order preserved
    assert [r.id for r in fixture_records] == [r["id"] for r in rows]


def test_parse_errors_name_lines(tmp_path):
    with pytest.raises(InputError, match=r":3: expected 7 fields"):
        parse_records(write_corpus(tmp_path, "a,BAD,2004,T,,,k\nb,BAD,2004,T\n"), (SCHEME_X, SCHEME_Y))
    with pytest.raises(InputError, match=r"'year' is not an integer"):
        parse_records(write_corpus(tmp_path, "a,BAD,20o4,T,,,k\n"), (SCHEME_X, SCHEME_Y))
    with pytest.raises(InputError, match=r"year.*1999 outside corpus range 2001-2012"):
        parse_records(write_corpus(tmp_path, "a,BAD,1999,T,,,k\n"), (SCHEME_X, SCHEME_Y))
    with pytest.raises(InputError, match=r"duplicate id 'a' \(first seen on line 2\)"):
        parse_records(write_corpus(tmp_path, "a,BAD,2004,T,,,k\na,WOS,2005,U,,,k\n"), (SCHEME_X, SCHEME_Y))
    with pytest.raises(InputError, match=r"label 'Nope' not in scheme 'x'"):
        parse_records(write_corpus(tmp_path, "a,BAD,2004,T,Nope,,k\n"), (SCHEME_X, SCHEME_Y))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError, match="empty file"):
        parse_records(empty, (SCHEME_X, SCHEME_Y))
    with pytest.raises(InputError, match="cannot read"):
        parse_records(tmp_path / "absent.csv", (SCHEME_X, SCHEME_Y))


@pytest.mark.parametrize("text, line, message", [
    ("id,source,year,title,class_a,class_b\na,BAD,2004,T,,\n", 1, "bad header 'id,source,year,title,class_a,class_b'"),
    (HEADER + "a,BAD,2004,T,,,k\n ,BAD,2004,T,,,k\n", 3, "field 'id' is empty"),
    (HEADER + "a, ,2004,T,,,k\n", 2, "field 'source' is empty"),
    (HEADER + "a,BAD,2004,T,X,P,k\nb,BAD,2004,T,X,Nope,k\n", 3,
     "field 'class_b' label 'Nope' not in scheme 'y'"),
])
def test_parse_error_names_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "records.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as err:
        parse_records(path, (SCHEME_X, SCHEME_Y))
    assert str(err.value).startswith(f"{path}:{line}: {message}")


def test_parse_keyword_cell_of_separators_only_is_empty(tmp_path):
    path = write_corpus(tmp_path, 'a,BAD,2004,T,,,"; ;;  ;"\nb,BAD,2004,T,,," x ;; y;"\n')
    a, b = parse_records(path, (SCHEME_X, SCHEME_Y))
    assert a.raw_keywords == ()
    assert b.raw_keywords == ("x", "y")


def test_year_range_override(tmp_path):
    path = write_corpus(tmp_path, "a,BAD,1999,T,,,k\n")
    rs = parse_records(path, (SCHEME_X, SCHEME_Y), year_range=(1990, 2020))
    assert rs[0].year == 1999
    rs = parse_records(path, (SCHEME_X, SCHEME_Y), year_range=None)
    assert rs[0].year == 1999


def test_roundtrip_preserves_values(tmp_path, schemes, fixture_records):
    out = tmp_path / "again.csv"
    write_records(fixture_records, out)
    again = parse_records(out, schemes)
    assert again == fixture_records


def test_filter_identity(fixture_records):
    assert filter_records(fixture_records) == fixture_records


def test_filter_by_source_matches_hand_count(fixture_records):
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    expected = [r["id"] for r in rows if r["source"] == "WOS"]
    got = filter_records(fixture_records, source="WOS")
    assert [r.id for r in got] == expected
    assert all(r.source == "WOS" for r in got)


def test_split_periods_fixture(fixture_records):
    parts = split_periods(fixture_records, [PeriodWindow(2001, 2006), PeriodWindow(2007, 2012)])
    in_range = sum(1 for r in fixture_records if 2001 <= r.year <= 2012)
    assert sum(len(p) for p in parts) == in_range == 40
    assert len(parts[0]) == 18 and len(parts[1]) == 22


def test_split_single_window_identity(fixture_records):
    (only,) = split_periods(fixture_records, [PeriodWindow(2001, 2012)])
    assert only == fixture_records


def test_split_out_of_range_window_empty(fixture_records):
    parts = split_periods(fixture_records, [PeriodWindow(2013, 2014)])
    assert len(parts) == 1 and len(parts[0]) == 0


def test_split_overlap_rejected(fixture_records):
    with pytest.raises(InputError, match="overlap"):
        split_periods(fixture_records, [PeriodWindow(2001, 2007), PeriodWindow(2007, 2012)])


def test_window_validation():
    with pytest.raises(InputError, match="reversed"):
        PeriodWindow(2010, 2001)


def test_distribution_exact_division():
    scheme = ClassScheme("s", ("X", "Y"))
    records = tuple(
        Record(f"r{i}", "BAD", 2005, "", "X" if i < 6 else "Y", None, ())
        for i in range(10)
    )
    rows = class_distribution(records, scheme)
    assert rows == [("X", 6, 60), ("Y", 4, 40)]


def test_distribution_empty_set():
    scheme = ClassScheme("s", ("X", "Y"))
    assert class_distribution((), scheme) == [("X", 0, 0), ("Y", 0, 0)]


@pytest.mark.parametrize("which", ["a", "b"])
def test_distribution_rejects_label_outside_scheme(which):
    # records built by hand skip parse_records' scheme check; the tally must not drop the label
    rs = (Record("r0", "BAD", 2005, "", "X", "X", ()), Record("r1", "BAD", 2005, "", "Nope", "Nope", ()))
    with pytest.raises(KeyError, match="'Nope' not in scheme 's'"):
        class_distribution(rs, ClassScheme("s", ("X", "Y")), which)


def test_distribution_fixture_matches_spreadsheet_tally(schemes, fixture_records):
    rows_raw = oracles.read_fixture_rows(RECORDS_CSV)
    for which, scheme in zip(("a", "b"), schemes):
        tally = oracles.class_tally(rows_raw, f"class_{which}", list(scheme.labels))
        got = class_distribution(fixture_records, scheme, which)
        assert {label: count for label, count, _ in got} == tally
        assert sum(count for _, count, _ in got) == len(fixture_records)
        for label, count, percent in got:
            assert percent == oracles.percent_half_up(count, 40)


def test_crosstab_single_record():
    a = ClassScheme("a", ("X", "Z"))
    b = ClassScheme("b", ("P", "Q"))
    rs = (Record("r", "BAD", 2005, "", "X", "P", ()),)
    row_labels, col_labels, counts = class_crosstab(rs, a, b)
    assert row_labels == ["X", "Z"] and col_labels == ["P", "Q"]
    assert counts == [[1, 0], [0, 0]]


def test_crosstab_marginals_match_distributions(schemes, fixture_records):
    a, b = schemes
    row_labels, col_labels, counts = class_crosstab(fixture_records, a, b)
    dist_a = dict((label, count) for label, count, _ in class_distribution(fixture_records, a, "a"))
    dist_b = dict((label, count) for label, count, _ in class_distribution(fixture_records, b, "b"))
    for label, row in zip(row_labels, counts):
        assert sum(row) == dist_a[label]
    for j, label in enumerate(col_labels):
        assert sum(row[j] for row in counts) == dist_b[label]


def test_crosstab_fixture_matches_pivot(schemes, fixture_records):
    a, b = schemes
    pivot = oracles.crosstab_tally(oracles.read_fixture_rows(RECORDS_CSV))
    row_labels, col_labels, counts = class_crosstab(fixture_records, a, b)
    for i, ra in enumerate(row_labels):
        for j, cb in enumerate(col_labels):
            assert counts[i][j] == pivot.get((ra, cb), 0), (ra, cb)
    assert sum(pivot.values()) == sum(sum(row) for row in counts)


def test_percent_rounding_half_up():
    assert percent_round_half_up(1, 8) == 13  # 12.5 rounds up
    assert percent_round_half_up(1, 3) == 33
    assert percent_round_half_up(2, 3) == 67
    assert percent_round_half_up(0, 7) == 0
    assert percent_round_half_up(7, 7) == 100
    assert percent_round_half_up(3, 0) == 0


def test_load_scheme_files(schemes):
    a, b = schemes
    assert len(a.labels) == 10 and "Other Disciplines" in a.labels
    assert len(b.labels) == 9 and "Theoretical Approach" in b.labels


def test_load_scheme_rejects_duplicates(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("One\nTwo\nOne\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"s.txt:3: duplicate label 'One'"):
        load_scheme(p)


def test_scheme_invariants():
    with pytest.raises(InputError, match="no labels"):
        ClassScheme("empty", ())
    with pytest.raises(InputError, match="duplicate"):
        ClassScheme("dup", ("A", "A"))
