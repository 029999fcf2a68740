"""Spec invariants under randomized inputs (hypothesis)."""

from __future__ import annotations

import csv
import io
import sys
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from cowordmap.cli import main
from cowordmap.errors import csv_line
from cowordmap.clusters import MAX_SWEEPS, ClusterPartition, _local_moving, detect_clusters, modularity
from cowordmap import _kernels
from cowordmap.layout import graph_distances
from cowordmap.network import (
    CoNetwork,
    _induced,
    association_strength,
    build_network,
    components,
    edge_matrix,
    hop_distance_matrix,
    make_network,
    threshold_filter,
)
from cowordmap.pajek import format_pajek_net, read_pajek_net
from cowordmap.pipeline import RunConfig, RunState
from cowordmap.records import (
    RECORDS_HEADER,
    ClassScheme,
    PeriodWindow,
    Record,
    class_distribution,
    filter_records,
    parse_records,
    split_periods,
    write_records,
)
from cowordmap.tables import DESCRIPTORS_HEADER, write_csv, write_descriptors_csv
from cowordmap.vocabulary import OccurrenceIndex, load_mapping, match_key, normalize

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
    return tuple(records)


@st.composite
def occurrence_indexes(draw, max_descriptors=10, max_records=25):
    n_desc = draw(st.integers(1, max_descriptors))
    names = [f"k{i}" for i in range(n_desc)]
    n_rec = draw(st.integers(0, max_records))
    per_record = {}
    for i in range(n_rec):
        members = draw(st.sets(st.sampled_from(names), max_size=min(6, n_desc)))
        per_record[f"r{i}"] = frozenset(members)
    return OccurrenceIndex.from_sets(per_record)


@PROPERTY_SETTINGS
@given(record_sets(), st.none() | st.sampled_from(("BAD", "WOS", "OTHER")))
def test_filter_chain_shrinks_and_satisfies(rs, source):
    out = filter_records(rs, source=source)
    assert len(out) <= len(rs)
    for r in out:
        if source is not None:
            assert r.source == source
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
        for r in rs
    )
    assert once == trimmed
    # parse -> write -> parse is a fixed point
    write_records(once, tmp / "two.csv")
    assert parse_records(tmp / "two.csv", (SCHEME_A, SCHEME_B)) == once


# Python 3.10's csv module cannot write a NUL ("need to escape, but no escapechar set"),
# so there the cells that the csv module writes below hold none; the program's NUL path
# is covered on every version by
# test_pipeline.py::test_cli_control_character_keyword_fails_normalize[nul]
_NO_NUL = None if sys.version_info >= (3, 11) else "\x00"

# the characters csv quoting turns on, among any others
_cell = st.text(alphabet=st.sampled_from(',"\r\n; é€')
                | st.characters(blacklist_categories=("Cs",), blacklist_characters=_NO_NUL),
                max_size=12)


@st.composite
def csv_tables(draw):
    """A header and rows of one width, of text, int and None cells."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(_cell, min_size=width, max_size=width))
    return header, draw(st.lists(st.lists(_cell | st.integers() | st.none(), min_size=width, max_size=width),
                                 max_size=6))


@PROPERTY_SETTINGS
@given(st.lists(st.builds(Record, _cell, _cell, st.integers(0, 3000), _cell, st.none() | _cell,
                          st.none() | _cell, st.lists(_cell, max_size=4).map(tuple)), max_size=8),
       st.dictionaries(_cell, st.lists(_cell, max_size=4, unique=True).map(sorted).map(tuple), max_size=6),
       csv_tables())
def test_records_file_has_the_bytes_csv_writer_gives(tmp_path_factory, records, per_record, table):
    tmp = tmp_path_factory.mktemp("prop")
    write_records(tuple(records), tmp / "encoded.csv")
    oracles.write_records(records, tmp / "csv_module.csv")
    assert (tmp / "encoded.csv").read_bytes() == (tmp / "csv_module.csv").read_bytes()
    # descriptors.csv and every other table go through the same encoder
    # each record's descriptors a sorted tuple of distinct cells, the one shape a table holds
    write_descriptors_csv(OccurrenceIndex.from_sets(per_record), tmp / "descriptors.csv")
    rows = [(rid, descriptor) for rid, descriptors in per_record.items() for descriptor in descriptors]
    assert (tmp / "descriptors.csv").read_bytes() == oracles.csv_bytes(DESCRIPTORS_HEADER, rows)
    header, rows = table
    write_csv(tmp / "table.csv", header, map(csv_line, rows))
    assert (tmp / "table.csv").read_bytes() == oracles.csv_bytes(header, rows)


@PROPERTY_SETTINGS
@given(occurrence_indexes())
def test_pair_counting_identity_and_weight_bound(idx):
    [net] = build_network(idx)
    total = sum(c for _, _, c in net.edges)
    expected = sum(len(s) * (len(s) - 1) // 2 for s in idx.per_record.values())
    assert total == expected
    for i, j, c in net.edges:
        assert 1 <= c <= min(net.weights[i], net.weights[j])


@PROPERTY_SETTINGS
@given(occurrence_indexes(), st.integers(1, 6), st.integers(1, 6))
def test_threshold_composition_and_monotonicity(idx, a, b):
    [net] = build_network(idx)
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
    shuffled = OccurrenceIndex.from_sets(dict(items))
    assert build_network(idx) == build_network(shuffled)


def loose_table(vocabulary, sets) -> OccurrenceIndex:
    """The table of ``sets`` (records r0, r1, ...) over the sorted ``vocabulary``, which
    may hold descriptors that no set holds (a total of 0)."""
    vocabulary = tuple(sorted(vocabulary))
    ids = [sorted(map(vocabulary.index, s)) for s in sets]
    return OccurrenceIndex(tuple(f"r{i}" for i in range(len(sets))), vocabulary, np.cumsum([0, *map(len, ids)]),
                           np.array([i for row in ids for i in row], np.int32))


@st.composite
def loose_indexes(draw, max_descriptors=10, max_records=25):
    """Tables whose vocabulary may hold descriptors that no row holds (a total
    of 0), as a window's rows do within a grouped count. Sets may be empty or
    singletons."""
    names = [f"k{i}" for i in range(draw(st.integers(1, max_descriptors)))]
    return loose_table(names, draw(st.lists(st.sets(st.sampled_from(names), max_size=min(6, len(names))),
                                            max_size=max_records)))


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
    [net] = build_network(idx)
    assert net.labels == tuple(labels)
    assert net.weights == tuple(weight[d] for d in labels)
    assert net.edges == tuple(edges)


@PROPERTY_SETTINGS
@given(occurrence_indexes(), st.integers(0, 3), st.data())
def test_group_networks_sum_to_one_build(idx, windows, data):
    # one grouped build over any split of the records into windows and the records
    # outside them, empty windows included: each window's network is the build of its
    # records alone, and the last network is the build of all records
    window = [data.draw(st.integers(0, windows)) for _ in idx.records]
    nets = build_network(idx, window, windows)
    assert len(nets) == windows + 1
    for k in range(windows):
        sets = {rid: s for w, (rid, s) in zip(window, idx.per_record.items()) if w == k}
        assert [nets[k]] == build_network(OccurrenceIndex.from_sets(sets))
    assert [nets[-1]] == build_network(idx)


def as_tuples(net) -> oracles.TupleNetwork:
    assert net.edge_array.dtype == np.int64 and net.edge_array.shape == (net.n_edges, 3)
    assert not net.edge_array.flags.writeable
    return oracles.TupleNetwork(net.labels, net.weights, net.edges)


GROUPS = 3


@PROPERTY_SETTINGS
@given(loose_indexes(), st.lists(st.integers(0, GROUPS - 1), min_size=25, max_size=25), st.integers(1, 40))
# empty and one-descriptor sets, a descriptor whose total is 0, a window with no
# records, and a threshold above every weight
@example(loose_table(["k0", "k1", "k2", "k3"], [(), ("k0",), ("k0", "k1", "k2"), ("k1", "k2")]),
         [0, 0, GROUPS - 1, GROUPS - 1] + [0] * 21, 99)
def test_array_networks_match_the_tuple_reference(idx, group_of, min_occ):
    # one grouped build, whose windows are the record groups but the last, which is
    # outside them: each window's network against the tuple build of its group, and
    # the network of all records against the tuple sum of every group's, each also
    # thresholded; descriptors that idx.totals holds at 0 are at 0 in every group too
    zero = {d for d, c in idx.totals.items() if c == 0}
    refs = []
    for g in range(GROUPS):
        sets = {rid: s for k, (rid, s) in enumerate(idx.per_record.items()) if group_of[k] == g}
        totals = {d: 0 if d in zero else c for d, c in oracles.occurrence_totals(sets).items()}
        refs.append(oracles.build_network(sets, totals))
    nets = build_network(idx, group_of[:len(idx.records)], GROUPS - 1)
    for net, ref in zip(nets, [*refs[:-1], oracles.sum_networks(refs)], strict=True):
        assert as_tuples(net) == ref
        assert as_tuples(threshold_filter(net, min_occ)) == oracles.threshold_filter(ref, min_occ)


_endpoint = st.integers(-2, 6)


@PROPERTY_SETTINGS
@given(st.integers(0, 5), st.lists(st.tuples(_endpoint, _endpoint, st.integers(-2, 3)), max_size=6))
def test_network_rejects_bad_edges_with_the_tuple_messages(n, edges):
    labels = tuple(f"v{i}" for i in range(n))
    message = oracles.edge_error(n, edges)
    if message is None:
        assert CoNetwork(labels, None, tuple(edges)).edges == tuple(edges)
        return
    for given_edges in (tuple(edges), np.array(edges, dtype=np.int64)):
        with pytest.raises(ValueError) as err:
            CoNetwork(labels, None, given_edges)
        assert str(err.value) == message


@PROPERTY_SETTINGS
@given(occurrence_indexes())
def test_similarity_matrix_symmetric_zero_diagonal(idx):
    [net] = build_network(idx)
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
    [net] = build_network(idx)
    assume(net.n_vertices > 0)
    partition = detect_clusters(net)
    singletons = ClusterPartition(tuple(range(1, net.n_vertices + 1)), 0.0)
    q0 = modularity(net, singletons, 1.0, use_similarity=True)
    assert partition.modularity >= q0 - 1e-12


@PROPERTY_SETTINGS
@given(occurrence_indexes(max_descriptors=10, max_records=14))
def test_clusters_respect_components(idx):
    [net] = build_network(idx)
    assume(net.n_vertices > 0)
    partition = detect_clusters(net)
    comp_of = {}
    for k, comp in enumerate(oracles.components_of(net.n_vertices, {(i, j) for i, j, _ in net.edges})):
        for v in comp:
            comp_of[v] = k
    cluster_comp: dict[int, int] = {}
    for v, c in enumerate(partition.assignment):
        assert cluster_comp.setdefault(c, comp_of[v]) == comp_of[v]


@st.composite
def sparse_networks(draw, max_vertices=12):
    """Up to ``max_vertices`` vertices and as many weighted edges, so that many
    vertices are isolated and many networks fall apart into components."""
    n = draw(st.integers(0, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    counts = draw(st.lists(st.integers(1, 9), min_size=len(chosen), max_size=len(chosen)))
    return CoNetwork(tuple(f"v{i}" for i in range(n)), None, sorted((i, j, c) for (i, j), c in zip(chosen, counts)))


@PROPERTY_SETTINGS
@given(sparse_networks())
@example(CoNetwork(("a", "b", "c", "d", "e"), None, [(0, 3, 1), (2, 4, 2)]))  # interleaved, one isolated
def test_components_match_the_oracle(net):
    expected = [tuple(sorted(c)) for c in oracles.components_of(net.n_vertices, {(i, j) for i, j, _ in net.edges})]
    assert components(hop_distance_matrix(net)) == expected
    distances = graph_distances(net)
    assert [comp for comp, _ in distances] == expected
    for comp, d in distances:  # bit for bit what one pass over the component alone gives
        sub = _induced(net, comp)
        alone = _kernels.floyd_warshall(edge_matrix(sub, 1.0 / sub.edge_array[:, 2], np.inf))
        assert d.tobytes() == alone.tobytes()
    assert components(np.zeros((0, 0))) == []
    assert graph_distances(make_network([], [])) == []


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
    rs = (Record("r0", "BAD", 2005, "", None, None, tuple(chosen)),)
    first = normalize(rs, table)
    canonical = (Record("r0", "BAD", 2005, "", None, None, tuple(sorted(first.per_record["r0"]))),)
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
    rs = tuple(Record(rid, "BAD", 2005, "", None, None, tuple(kws)) for rid, kws in keywords.items())
    idx = normalize(rs, load_mapping(path), passthrough)
    sets, totals, unmapped, tokens = oracles.normalize_tallies(keywords, oracles.read_mapping_pairs(path), passthrough)
    assert idx.per_record == {rid: tuple(sorted(s)) for rid, s in sets.items()}
    assert idx.totals == dict(totals)
    assert idx.unmapped == dict(unmapped)
    assert idx.token_count == tokens


def assert_same_table(got: OccurrenceIndex, expected: OccurrenceIndex):
    assert got.records == expected.records and got.vocabulary == expected.vocabulary
    for name in ("indptr", "ids"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def normalized(draw):
    """A record set and its table under a mapping of some of its keywords, with or without passthrough."""
    rs = draw(record_sets())
    keys = sorted({match_key(k) for r in rs for k in r.raw_keywords})
    mapped = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(("X", "Y")))) if keys else {}
    return rs, normalize(rs, mapped, draw(st.booleans()))


@PROPERTY_SETTINGS
@given(normalized())
def test_table_from_normalized_sets_is_the_normalized_table(case):
    _, idx = case
    assert_same_table(OccurrenceIndex.from_sets(idx.per_record), idx)
    assert sum(map(len, idx.per_record.values())) == idx.ids.size == sum(idx.totals.values())
    assert np.all(np.diff(idx.indptr) >= 0) and idx.indptr[0] == 0 and idx.indptr[-1] == idx.ids.size


@PROPERTY_SETTINGS
@given(normalized())
def test_descriptors_file_reads_back_as_the_normalized_table(tmp_path_factory, case):
    # a record without descriptors has no row in the file, and an empty row in both tables
    rs, idx = case
    out = tmp_path_factory.mktemp("prop")
    write_descriptors_csv(idx, out / "descriptors.csv")
    state = RunState(RunConfig(out_dir=out))
    state.records = rs
    assert_same_table(state.sets, idx)


@PROPERTY_SETTINGS
@given(occurrence_indexes())
def test_pajek_serialization_fixed_point(tmp_path_factory, idx):
    [net] = build_network(idx)
    path = tmp_path_factory.mktemp("prop") / "net.net"
    path.write_text(format_pajek_net(net), encoding="utf-8", newline="\n")
    again, _ = read_pajek_net(path)
    assert format_pajek_net(again) == format_pajek_net(net)
    assert again.labels == net.labels and again.edges == net.edges


_any_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_NO_NUL), max_size=12)


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
    if code == 0:  # every label the map holds is text XML 1.0 can hold
        ElementTree.parse(work / "out" / "map.svg")


@st.composite
def level_matrices(draw) -> np.ndarray:
    """A symmetric non-negative weight matrix as local moving sees it: small
    integer weights (so gains tie), a nonzero diagonal (a self-loop, as at an
    aggregated level), some all-zero rows, and at times a non-integer scale."""
    n = draw(st.integers(1, 9))
    first, second = np.triu_indices(n)
    upper = draw(st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, 3)), min_size=first.size, max_size=first.size))
    b = np.zeros((n, n))
    b[first, second] = b[second, first] = upper
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=2))
    b[isolated, :] = b[:, isolated] = 0.0
    return b * draw(st.sampled_from((1.0, 1.0, 0.1, 7.3)))


@PROPERTY_SETTINGS
@given(b=level_matrices(), gamma=st.floats(0.25, 4.0))
# a vertex meets two tied communities higher id first; visiting them in the
# order met, not ascending, breaks the tie the other way
@example(b=np.array([[0, 0, 0, 3, 3, 0], [0, 0, 3, 2, 1, 1], [0, 3, 0, 2, 1, 2], [3, 2, 2, 2, 1, 0],
                     [3, 1, 1, 1, 3, 0], [0, 1, 2, 0, 0, 3]], dtype=float), gamma=1.0)
def test_local_moving_matches_the_whole_row_reference(b, gamma):
    comm, sweeps = _local_moving(b, gamma)
    expected_comm, expected_sweeps = oracles.local_moving(b, gamma, MAX_SWEEPS)
    assert (comm.tolist(), sweeps) == (expected_comm.tolist(), expected_sweeps)
