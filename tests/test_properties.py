"""Spec invariants under randomized inputs (hypothesis)."""

from __future__ import annotations

import csv
import io
import unicodedata
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from cowordmap.cli import main
from cowordmap.clusters import ClusterPartition, detect_clusters, modularity
from cowordmap.network import (
    association_strength,
    build_network,
    connected_components,
    sum_networks,
    threshold_filter,
)
from cowordmap.pajek import format_pajek_net, read_pajek_net
from cowordmap.records import (
    RECORDS_HEADER,
    ClassScheme,
    PeriodWindow,
    Record,
    RecordSet,
    class_distribution,
    filter_records,
    parse_records,
    split_periods,
    write_records,
)
from cowordmap.vocabulary import OccurrenceIndex, load_mapping, normalize

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

LABELS_A = ("X", "Y", "Z")
LABELS_B = ("P", "Q")
SCHEME_A = ClassScheme("a", LABELS_A)
SCHEME_B = ClassScheme("b", LABELS_B)

_keyword = (
    st.text(alphabet="abcdefgáé ", min_size=1, max_size=10)
    .map(lambda s: " ".join(s.split()))
    .filter(bool)
)
_title = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=25
)


@st.composite
def record_sets(draw, max_size=25):
    n = draw(st.integers(0, max_size))
    records = []
    for i in range(n):
        records.append(
            Record(
                id=f"id{i}",
                source=draw(st.sampled_from(("BAD", "WOS", "OTHER"))),
                year=draw(st.integers(2001, 2012)),
                title=draw(_title),
                class_a=draw(st.none() | st.sampled_from(LABELS_A)),
                class_b=draw(st.none() | st.sampled_from(LABELS_B)),
                raw_keywords=tuple(draw(st.lists(_keyword, max_size=6))),
            )
        )
    return RecordSet(tuple(records))


@st.composite
def occurrence_indexes(draw, max_descriptors=10, max_records=25):
    n_desc = draw(st.integers(1, max_descriptors))
    names = [f"k{i}" for i in range(n_desc)]
    n_rec = draw(st.integers(0, max_records))
    per_record = {}
    for i in range(n_rec):
        members = draw(st.sets(st.sampled_from(names), max_size=min(6, n_desc)))
        per_record[f"r{i}"] = frozenset(members)
    totals: dict[str, int] = {}
    for s in per_record.values():
        for d in s:
            totals[d] = totals.get(d, 0) + 1
    return OccurrenceIndex(per_record, totals, {}, 0)


@PROPERTY_SETTINGS
@given(record_sets(), st.none() | st.sampled_from(("BAD", "WOS", "OTHER")),
       st.none() | st.tuples(st.integers(2001, 2012), st.integers(0, 6)))
def test_filter_chain_shrinks_and_satisfies(rs, source, window_spec):
    window = None
    if window_spec is not None:
        start, span = window_spec
        window = PeriodWindow(start, min(start + span, 2012))
    out = filter_records(rs, source=source, years=window)
    assert len(out) <= len(rs)
    for r in out:
        if source is not None:
            assert r.source == source
        if window is not None:
            assert r.year in window
    # kept records appear in input order
    ids = [r.id for r in rs]
    assert [r.id for r in out] == [i for i in ids if i in {r.id for r in out}]


@PROPERTY_SETTINGS
@given(record_sets(), st.integers(2001, 2010), st.integers(1, 4))
def test_split_periods_partition_property(rs, mid, width):
    first = PeriodWindow(2001, mid)
    second = PeriodWindow(mid + 1, min(mid + width + 1, 2012))
    parts = split_periods(rs, [first, second])
    seen: set[str] = set()
    for part in parts:
        part_ids = {r.id for r in part}
        assert seen.isdisjoint(part_ids)
        seen |= part_ids
    dropped = len(rs) - len(seen)
    assert dropped == sum(1 for r in rs if r.year not in first and r.year not in second)


@PROPERTY_SETTINGS
@given(record_sets())
def test_distribution_counts_and_percents(rs):
    rows = class_distribution(rs, SCHEME_A, "a")
    assert sum(count for _, count, _ in rows) == len(rs)
    for _, count, percent in rows:
        assert 0 <= percent <= 100
        assert count >= 0


@PROPERTY_SETTINGS
@given(record_sets(max_size=12))
def test_parse_is_loss_free(tmp_path_factory, rs):
    tmp = tmp_path_factory.mktemp("prop")
    write_records(rs, tmp / "one.csv")
    once = parse_records(tmp / "one.csv", (SCHEME_A, SCHEME_B))
    # cells are trimmed on parse; beyond that every field value survives
    trimmed = tuple(
        Record(r.id, r.source, r.year, r.title.strip(), r.class_a, r.class_b, r.raw_keywords)
        for r in rs.records
    )
    assert once.records == trimmed
    # parse -> write -> parse is a fixed point
    write_records(once, tmp / "two.csv")
    assert parse_records(tmp / "two.csv", (SCHEME_A, SCHEME_B)).records == once.records


@PROPERTY_SETTINGS
@given(occurrence_indexes())
def test_pair_counting_identity_and_weight_bound(idx):
    net = build_network(idx)
    total = sum(c for _, _, c in net.edges)
    expected = sum(len(s) * (len(s) - 1) // 2 for s in idx.per_record.values())
    assert total == expected
    for i, j, c in net.edges:
        assert 1 <= c <= min(net.weights[i], net.weights[j])


@PROPERTY_SETTINGS
@given(occurrence_indexes(), st.integers(1, 6), st.integers(1, 6))
def test_threshold_composition_and_monotonicity(idx, a, b):
    net = build_network(idx)
    twice = threshold_filter(threshold_filter(net, a), b)
    once = threshold_filter(net, max(a, b))
    assert twice == once
    lo, hi = min(a, b), max(a, b)
    assert set(threshold_filter(net, hi).labels) <= set(threshold_filter(net, lo).labels)


@PROPERTY_SETTINGS
@given(occurrence_indexes(), st.randoms(use_true_random=False))
def test_build_network_order_independent(idx, rnd):
    items = list(idx.per_record.items())
    rnd.shuffle(items)
    shuffled = OccurrenceIndex(dict(items), idx.totals, {}, 0)
    assert build_network(idx) == build_network(shuffled)


@st.composite
def loose_indexes(draw, max_descriptors=10, max_records=25):
    """Indexes whose totals need not be the counts of their sets: a descriptor
    may be missing from ``totals``, have a total of 0 or any other total.
    Sets may be empty or singletons."""
    names = [f"k{i}" for i in range(draw(st.integers(1, max_descriptors)))]
    sets = draw(st.lists(st.sets(st.sampled_from(names), max_size=min(6, len(names))), max_size=max_records))
    per_record = {f"r{i}": frozenset(s) for i, s in enumerate(sets)}
    counted = oracles.occurrence_totals(per_record)
    totals = {}
    for d in names:
        kind = draw(st.sampled_from(("counted", "missing", "zero", "other")))
        if kind == "counted":
            totals[d] = counted[d]
        elif kind == "zero":
            totals[d] = 0
        elif kind == "other":
            totals[d] = draw(st.integers(1, 30))
    return OccurrenceIndex(per_record, totals, {}, 0)


@PROPERTY_SETTINGS
@given(loose_indexes())
def test_build_network_matches_brute_force_oracle(idx):
    # vertices: the descriptors with a positive total, weight descending then
    # label; edges: the oracle's pair counts over the sets cut to those vertices
    weight = {d: c for d, c in idx.totals.items() if c > 0}
    labels = sorted(weight, key=lambda d: (-weight[d], d))
    at = {d: i for i, d in enumerate(labels)}
    pairs = oracles.pair_counts({rid: s & weight.keys() for rid, s in idx.per_record.items()})
    edges = sorted((min(at[a], at[b]), max(at[a], at[b]), c) for (a, b), c in pairs.items())
    net = build_network(idx)
    assert net.labels == tuple(labels)
    assert net.weights == tuple(weight[d] for d in labels)
    assert net.edges == tuple(edges)


@PROPERTY_SETTINGS
@given(occurrence_indexes(), st.integers(1, 4), st.data())
def test_group_networks_sum_to_one_build(idx, n_groups, data):
    # any split of the records into disjoint groups, empty groups included
    group_of = {rid: data.draw(st.integers(0, n_groups - 1)) for rid in idx.per_record}
    nets = []
    for g in range(n_groups):
        sets = {rid: s for rid, s in idx.per_record.items() if group_of[rid] == g}
        nets.append(build_network(OccurrenceIndex(sets, dict(oracles.occurrence_totals(sets)), {}, 0)))
    assert sum_networks(iter(nets)) == build_network(idx)


@PROPERTY_SETTINGS
@given(occurrence_indexes())
def test_similarity_matrix_symmetric_zero_diagonal(idx):
    net = build_network(idx)
    assume(net.n_vertices > 0)
    s = association_strength(net)
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 0.0)
    present = {(i, j) for i, j, _ in net.edges}
    for i in range(net.n_vertices):
        for j in range(i + 1, net.n_vertices):
            if (i, j) not in present:
                assert s[i, j] == 0.0


@PROPERTY_SETTINGS
@given(occurrence_indexes(max_descriptors=8, max_records=16))
def test_detected_modularity_beats_singletons(idx):
    net = build_network(idx)
    assume(net.n_vertices > 0)
    partition = detect_clusters(net)
    singletons = ClusterPartition(tuple(range(1, net.n_vertices + 1)), 0.0)
    q0 = modularity(net, singletons, 1.0, use_similarity=True)
    assert partition.modularity >= q0 - 1e-12


@PROPERTY_SETTINGS
@given(occurrence_indexes(max_descriptors=10, max_records=14))
def test_clusters_respect_components(idx):
    net = build_network(idx)
    assume(net.n_vertices > 0)
    partition = detect_clusters(net)
    comp_of = {}
    for k, comp in enumerate(connected_components(net)):
        for v in comp:
            comp_of[v] = k
    cluster_comp: dict[int, int] = {}
    for v, c in enumerate(partition.assignment):
        assert cluster_comp.setdefault(c, comp_of[v]) == comp_of[v]


_raw_words = st.text(alphabet="abcdef", min_size=1, max_size=6)
_canon_words = st.text(alphabet="XYZW", min_size=1, max_size=6)


@PROPERTY_SETTINGS
@given(st.dictionaries(_raw_words, _canon_words, max_size=8), st.data())
def test_normalize_idempotent(tmp_path_factory, table_pairs, data):
    path = tmp_path_factory.mktemp("prop") / "mapping.txt"
    path.write_text(
        "".join(f"{raw} -> {canon}\n" for raw, canon in table_pairs.items()),
        encoding="utf-8",
    )
    table = load_mapping(path)
    raws = sorted(table_pairs) + ["unmapped word"]
    chosen = data.draw(st.lists(st.sampled_from(raws), max_size=6))
    rs = RecordSet((Record("r0", "BAD", 2005, "", None, None, tuple(chosen)),))
    first = normalize(rs, table)
    canonical = RecordSet((
        Record("r0", "BAD", 2005, "", None, None, tuple(sorted(first.per_record["r0"]))),
    ))
    second = normalize(canonical, table)
    assert second.per_record == first.per_record
    assert second.totals == first.totals


_base_word = st.text(alphabet="abcéç ", min_size=1, max_size=8).map(lambda s: " ".join(s.split())).filter(bool)
_spellings = {
    "as is": lambda w: w,
    "upper": str.upper,
    "title": str.title,
    "spaced": lambda w: "  " + w.replace(" ", " \t ") + " ",
    "nfd": lambda w: unicodedata.normalize("NFD", w.upper()),
}


@PROPERTY_SETTINGS
@given(st.lists(_base_word, min_size=1, max_size=6, unique_by=str.casefold), st.booleans(), st.data())
def test_normalize_matches_brute_force_oracle(tmp_path_factory, words, passthrough, data):
    # keywords are case, whitespace and NFD spellings of a few words, some mapped
    # to canonical descriptors and some not, repeated within and across records
    mapped = data.draw(st.dictionaries(st.sampled_from(words), st.text(alphabet="XYZW", min_size=1, max_size=4)))
    path = tmp_path_factory.mktemp("prop") / "mapping.txt"
    path.write_text("".join(f"{raw} -> {canon}\n" for raw, canon in mapped.items()), encoding="utf-8")
    spelled = st.builds(lambda w, how: _spellings[how](w), st.sampled_from(words + sorted(set(mapped.values()))),
                        st.sampled_from(sorted(_spellings)))
    keywords = {f"r{i}": kws for i, kws in enumerate(data.draw(st.lists(st.lists(spelled, max_size=7), max_size=8)))}
    rs = RecordSet(tuple(Record(rid, "BAD", 2005, "", None, None, tuple(kws)) for rid, kws in keywords.items()))
    idx = normalize(rs, load_mapping(path), passthrough)
    sets, totals, unmapped, tokens = oracles.normalize_tallies(keywords, oracles.read_mapping_pairs(path), passthrough)
    assert idx.per_record == {rid: frozenset(s) for rid, s in sets.items()}
    assert idx.totals == dict(totals)
    assert idx.unmapped == dict(unmapped)
    assert idx.token_count == tokens


@PROPERTY_SETTINGS
@given(occurrence_indexes())
def test_pajek_serialization_fixed_point(tmp_path_factory, idx):
    net = build_network(idx)
    path = tmp_path_factory.mktemp("prop") / "net.net"
    path.write_text(format_pajek_net(net), encoding="utf-8", newline="\n")
    again, _ = read_pajek_net(path)
    assert format_pajek_net(again) == format_pajek_net(net)
    assert again.labels == net.labels and again.edges == net.edges


_any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def records_files(draw):
    """Bytes of a records file of arbitrary ids, sources, titles and
    keywords, with a byte that is never UTF-8 inserted into some of them."""
    rows = draw(st.lists(st.tuples(_any_text, _any_text, st.integers(2001, 2012), _any_text,
                                   st.lists(_any_text, max_size=4)), min_size=1, max_size=6))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORDS_HEADER)
    for rid, source, year, title, keywords in rows:
        writer.writerow([rid, source, year, title, "", "", "; ".join(keywords)])
    data = out.getvalue().encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(data=records_files())
def test_cli_run_on_any_records_exits_zero_or_one(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("any_records")
    records = work / "records.csv"
    records.write_bytes(data)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["run", "--records", str(records), "--out", str(work / "out"), "--min-occ", "1",
                     "--windows", "2001-2006,2007-2012"])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
