from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import MAPPING_TXT, RECORDS_CSV, component_subnetworks, random_network
from cowordmap.network import (
    association_strength,
    build_network,
    components,
    edge_query,
    hop_distance_matrix,
    make_network,
    network_metrics,
    threshold_filter,
)
from cowordmap.vocabulary import OccurrenceIndex


def index_of_sets(*sets):
    return OccurrenceIndex.from_sets({f"r{i}": frozenset(s) for i, s in enumerate(sets)})


def oracle_fixture_pairs():
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    mapping = oracles.read_mapping_pairs(MAPPING_TXT)
    sets = oracles.descriptor_sets(rows, mapping)
    return oracles.occurrence_totals(sets), oracles.pair_counts(sets), sets


def edges_by_label(net):
    return {(net.labels[i], net.labels[j]): c for i, j, c in net.edges}


def test_single_record_triangle():
    [net] = build_network(index_of_sets({"a", "b", "c"}))
    assert net.labels == ("a", "b", "c")
    assert edges_by_label(net) == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


def test_singleton_record_no_edges():
    [net] = build_network(index_of_sets({"a"}))
    assert net.labels == ("a",) and net.edges == ()


def test_fixture_network_equals_brute_force(fixture_network):
    totals, pairs, _ = oracle_fixture_pairs()
    assert dict(zip(fixture_network.labels, fixture_network.weights)) == dict(totals)
    got = edges_by_label(fixture_network)
    expected = {tuple(sorted(p)): c for p, c in pairs.items()}
    got_sorted = {tuple(sorted(k)): c for k, c in got.items()}
    assert got_sorted == expected


def test_pair_counting_identity(fixture_network, fixture_index):
    lhs = sum(c for _, _, c in fixture_network.edges)
    rhs = sum(len(s) * (len(s) - 1) // 2 for s in fixture_index.per_record.values())
    assert lhs == rhs == 51


def test_edge_weight_bounded_by_endpoints(fixture_network):
    w = fixture_network.weights
    for i, j, c in fixture_network.edges:
        assert c <= min(w[i], w[j])


def test_canonical_vertex_order(fixture_network):
    pairs = list(zip(fixture_network.weights, fixture_network.labels))
    assert pairs == sorted(pairs, key=lambda t: (-t[0], t[1]))


def test_build_order_independent(fixture_index):
    reversed_idx = OccurrenceIndex.from_sets(dict(reversed(list(fixture_index.per_record.items()))))
    [a] = build_network(fixture_index)
    [b] = build_network(reversed_idx)
    assert a == b


def test_threshold_identity_and_empty(fixture_network):
    assert threshold_filter(fixture_network, 1) == fixture_network
    assert threshold_filter(fixture_network, 10**6).labels == ()


def test_threshold_fixture_min5(fixture_network):
    totals, _, _ = oracle_fixture_pairs()
    kept = threshold_filter(fixture_network, 5)
    assert set(kept.labels) == {d for d, c in totals.items() if c >= 5}
    assert kept.labels == (
        "public libraries",
        "Information and Communication Technologies",
        "digital libraries",
        "academic libraries",
        "information literacy",
        "training",
    )
    for i, j, c in kept.edges:
        a, b = kept.labels[i], kept.labels[j]
        full = edges_by_label(fixture_network)
        key = (a, b) if (a, b) in full else (b, a)
        assert full[key] == c


def test_threshold_composition(fixture_network):
    a = threshold_filter(threshold_filter(fixture_network, 3), 5)
    b = threshold_filter(fixture_network, 5)
    assert a == b


def test_threshold_before_or_after_construction_equivalent(fixture_index):
    # dropping rare descriptors from the records first, or from the built
    # network afterwards, must give the same network under set semantics
    after = threshold_filter(build_network(fixture_index)[-1], 5)
    keep = {d for d, c in fixture_index.totals.items() if c >= 5}
    filtered_sets = {
        rid: frozenset(d for d in s if d in keep)
        for rid, s in fixture_index.per_record.items()
    }
    [before] = build_network(OccurrenceIndex.from_sets(filtered_sets))
    assert before == after


def test_edge_query_reproduces_figure_rows(fixture_network):
    rows = edge_query(fixture_network, "academic libraries")
    assert rows == [
        ("academic libraries", "citizenship", 1),
        ("academic libraries", "collaboration", 3),
        ("academic libraries", "digital libraries", 1),
        ("academic libraries", "evaluation", 2),
    ]


def test_make_network_orders_sums_and_rejects():
    # canonical order, and an edge listed in both orientations summed; a vertex
    # without occurrences is refused rather than dropped, as is a self-edge
    net = make_network([("b", 2), ("c", 3), ("a", 2)], [("a", "c", 1), ("c", "a", 1), ("b", "a", 2)])
    assert (net.labels, net.weights, net.edges) == (("c", "a", "b"), (3, 2, 2), ((0, 1, 2), (1, 2, 2)))
    for weight in (0, -1):
        with pytest.raises(ValueError, match="'b' has non-positive weight"):
            make_network([("a", 1), ("b", weight)], [("a", "b", 1)])
    with pytest.raises(ValueError, match="bad edge endpoints"):
        make_network([("a", 1), ("b", 1)], [("a", "a", 1)])


def test_edge_query_isolated_vertex():
    net = make_network([("a", 2), ("b", 1)], [])
    assert edge_query(net, "b") == []


def test_edge_query_unknown_descriptor(fixture_network):
    with pytest.raises(ValueError, match="unknown descriptor 'nope'"):
        edge_query(fixture_network, "nope")


def test_edge_query_matches_oracle(fixture_network):
    _, pairs, _ = oracle_fixture_pairs()
    for descriptor in ("public libraries", "interoperability", "Portugal"):
        expected = sorted(
            (descriptor, (set(p) - {descriptor}).pop(), c)
            for p, c in pairs.items()
            if descriptor in p
        )
        assert edge_query(fixture_network, descriptor) == expected


def test_association_strength_values(fixture_network):
    s = association_strength(fixture_network)
    assert s.shape == (28, 28)
    assert np.allclose(s, s.T) and np.all(np.diag(s) == 0)
    w = dict(zip(fixture_network.labels, fixture_network.weights))
    _, pairs, _ = oracle_fixture_pairs()
    sampled = [
        ("academic libraries", "collaboration"),
        ("public libraries", "information literacy"),
        ("digital libraries", "interoperability"),
        ("open access", "repositories"),
        ("archives", "digital preservation"),
    ]
    for a, b in sampled:
        i, j = fixture_network.index_of(a), fixture_network.index_of(b)
        c = pairs[tuple(sorted((a, b)))]
        assert s[i, j] == pytest.approx(c / (w[a] * w[b]), abs=0)
    # absent pair stays zero
    i, j = fixture_network.index_of("Portugal"), fixture_network.index_of("archives")
    assert s[i, j] == 0.0


def test_association_strength_unit_case():
    net = make_network([("a", 1), ("b", 1)], [("a", "b", 1)])
    s = association_strength(net)
    assert s[0, 1] == 1.0


def test_metrics_path_graph():
    net = make_network([("a", 1), ("b", 1), ("c", 1)], [("a", "b", 1), ("b", "c", 1)])
    m = network_metrics(net)
    b = net.index_of("b")
    assert m.density == pytest.approx(2 / 3)
    assert m.degree_centrality[b] == 1.0
    assert m.closeness[b] == 1.0
    for v in (net.index_of("a"), net.index_of("c")):
        assert m.degree_centrality[v] == pytest.approx(0.5)
        assert m.closeness[v] == pytest.approx(2 / 3)
    assert m.components == 1


def test_metrics_complete_graph():
    labels = ["a", "b", "c", "d"]
    edges = [(x, y, 1) for k, x in enumerate(labels) for y in labels[k + 1:]]
    net = make_network([(l, 1) for l in labels], edges)
    m = network_metrics(net)
    assert m.density == 1.0
    assert all(c == 1.0 for c in m.degree_centrality)
    assert all(c == 1.0 for c in m.closeness)


def test_metrics_fixture_against_floyd_warshall_oracle(fixture_network):
    n = fixture_network.n_vertices
    edges = {(i, j) for i, j, _ in fixture_network.edges}
    centrality, closeness, density, components = oracles.metrics_by_matrix(n, edges)
    m = network_metrics(fixture_network)
    assert m.density == pytest.approx(density)
    assert m.components == components
    assert np.allclose(m.degree_centrality, centrality)
    assert np.allclose(m.closeness, closeness)


def test_metrics_random_networks_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_network(rng, n_descriptors=int(rng.integers(2, 12)))
        edges = {(i, j) for i, j, _ in net.edges}
        centrality, closeness, density, components = oracles.metrics_by_matrix(net.n_vertices, edges)
        m = network_metrics(net)
        assert m.density == pytest.approx(density)
        assert m.components == components
        assert np.allclose(m.degree_centrality, centrality)
        assert np.allclose(m.closeness, closeness)


def test_metrics_degenerate_sizes():
    one = make_network([("a", 1)], [])
    m = network_metrics(one)
    assert m == type(m)((0.0,), (0.0,), 0.0, 1)
    empty = make_network([], [])
    assert network_metrics(empty).components == 0


def test_components_and_subnetworks():
    net = make_network(
        [("a", 3), ("b", 3), ("c", 2), ("x", 2), ("y", 2), ("lone", 1)],
        [("a", "b", 2), ("b", "c", 1), ("x", "y", 1)],
    )
    comps = components(hop_distance_matrix(net))
    as_labels = [tuple(net.labels[i] for i in comp) for comp in comps]
    assert sorted(len(c) for c in comps) == [1, 2, 3]
    assert {frozenset(c) for c in as_labels} == {
        frozenset({"a", "b", "c"}),
        frozenset({"x", "y"}),
        frozenset({"lone"}),
    }
    subnets = component_subnetworks(net)
    assert [comp for comp, _ in subnets] == comps
    for comp, sub in subnets:
        assert tuple(net.labels[i] for i in comp) == sub.labels
        full = edges_by_label(net)
        assert all(full[(sub.labels[i], sub.labels[j])] == c for i, j, c in sub.edges)


def test_external_network_guards():
    from cowordmap.network import CoNetwork

    external = CoNetwork(("a", "b"), None, ((0, 1, 2),))
    with pytest.raises(ValueError, match="no occurrence weights"):
        threshold_filter(external, 2)
    with pytest.raises(ValueError, match="no occurrence weights"):
        association_strength(external)
    assert network_metrics(external).components == 1  # structure-only metrics still work


def test_edges_are_one_read_only_array_with_a_tuple_view():
    from cowordmap.network import CoNetwork

    rows = np.array([[0, 1, 2], [1, 2, 1]])
    net = CoNetwork(("a", "b", "c"), (3, 2, 2), rows)
    rows[0, 2] = 9  # the network keeps its own copy
    assert net.edges == ((0, 1, 2), (1, 2, 1)) and net.n_edges == 2
    assert net.edge_array.dtype == np.int64 and not net.edge_array.flags.writeable
    same = CoNetwork(("a", "b", "c"), (3, 2, 2), ((0, 1, 2), (1, 2, 1)))
    assert net == same and hash(net) == hash(same)
    assert net != CoNetwork(("a", "b", "c"), (3, 2, 2), ((0, 1, 2),))
    assert net != CoNetwork(("a", "b", "c"), None, net.edge_array)
    assert CoNetwork(("a",), (1,), ()).edge_array.shape == (0, 3)
    with pytest.raises(ValueError, match="integer"):
        CoNetwork(("a", "b"), None, ((0, 1, 1.5),))
    with pytest.raises(ValueError, match="integer"):
        CoNetwork(("a", "b"), None, ((0, 1),))
