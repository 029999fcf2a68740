from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import component_subnetworks, random_network
from cowordmap.clusters import (
    MAX_SWEEPS,
    ClusterPartition,
    _local_moving,
    cluster_summary,
    detect_clusters,
    format_legend,
    modularity,
)
from cowordmap.network import association_strength, make_network, threshold_filter


def two_cliques_with_bridge():
    labels = [chr(97 + i) for i in range(8)]
    edges = []
    for grp in (labels[:4], labels[4:]):
        for k, x in enumerate(grp):
            for y in grp[k + 1:]:
                edges.append((x, y, 1))
    edges.append(("d", "e", 1))
    return make_network([(l, 4) for l in labels], edges)


def weights_dict(net, use_similarity):
    if use_similarity:
        s = association_strength(net)
        return {(i, j): float(s[i, j]) for i, j, _ in net.edges}
    return {(i, j): float(c) for i, j, c in net.edges}


def test_modularity_singletons_single_edge():
    net = make_network([("a", 1), ("b", 1)], [("a", "b", 1)])
    p = ClusterPartition((1, 2), 0.0)
    assert modularity(net, p, 1.0) == pytest.approx(-0.5)


def test_modularity_merged_single_edge():
    net = make_network([("a", 1), ("b", 1)], [("a", "b", 1)])
    p = ClusterPartition((1, 1), 0.0)
    assert modularity(net, p, 1.0) == pytest.approx(0.0)


def test_modularity_edgeless_is_zero():
    net = make_network([("a", 1), ("b", 1)], [])
    assert modularity(net, ClusterPartition((1, 2), 0.0), 1.0) == 0.0


def test_modularity_matches_direct_summation(fixture_network):
    rng = np.random.default_rng(11)
    for use_similarity in (False, True):
        w = weights_dict(fixture_network, use_similarity)
        n = fixture_network.n_vertices
        for _ in range(5):
            raw = rng.integers(0, 4, size=n)
            # densify ids to 1..k in first-appearance order
            relabel: dict[int, int] = {}
            assignment = tuple(relabel.setdefault(int(c), len(relabel) + 1) for c in raw)
            p = ClusterPartition(assignment, 0.0)
            expected = oracles.modularity_direct(n, w, list(assignment), 1.3)
            assert modularity(fixture_network, p, 1.3, use_similarity) == pytest.approx(expected)


def test_two_cliques_found_exactly():
    net = two_cliques_with_bridge()
    p = detect_clusters(net, 1.0, use_similarity=False)
    by_cluster = {}
    for v, c in enumerate(p.assignment):
        by_cluster.setdefault(c, set()).add(net.labels[v])
    assert sorted(by_cluster.values(), key=sorted) == [
        {"a", "b", "c", "d"},
        {"e", "f", "g", "h"},
    ]
    w = weights_dict(net, False)
    best_q, _ = oracles.best_partition_exhaustive(net.n_vertices, w, 1.0)
    assert p.modularity == pytest.approx(best_q, abs=1e-9)


def test_two_disconnected_triangles():
    edges = [("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
             ("x", "y", 1), ("y", "z", 1), ("x", "z", 1)]
    net = make_network([(l, 2) for l in "abcxyz"], edges)
    p = detect_clusters(net)
    groups = {}
    for v, c in enumerate(p.assignment):
        groups.setdefault(c, set()).add(net.labels[v])
    assert sorted(groups.values(), key=sorted) == [{"a", "b", "c"}, {"x", "y", "z"}]


def test_uniform_complete_graph_single_cluster():
    labels = list("abcde")
    edges = [(x, y, 1) for k, x in enumerate(labels) for y in labels[k + 1:]]
    net = make_network([(l, 3) for l in labels], edges)
    p = detect_clusters(net, 1.0)
    assert p.n_clusters == 1


def test_detected_beats_singletons(fixture_network):
    p = detect_clusters(fixture_network)
    singletons = ClusterPartition(tuple(range(1, fixture_network.n_vertices + 1)), 0.0)
    q0 = modularity(fixture_network, singletons, 1.0, use_similarity=True)
    assert p.modularity >= q0


def test_clusters_never_span_components():
    rng = np.random.default_rng(23)
    for _ in range(20):
        net = random_network(rng, n_descriptors=int(rng.integers(3, 14)), n_records=8)
        if net.n_vertices == 0:
            continue
        p = detect_clusters(net)
        comp_of = {}
        for k, comp in enumerate(oracles.components_of(net.n_vertices, {(i, j) for i, j, _ in net.edges})):
            for v in comp:
                comp_of[v] = k
        cluster_comp: dict[int, int] = {}
        for v, c in enumerate(p.assignment):
            assert cluster_comp.setdefault(c, comp_of[v]) == comp_of[v]


def test_whole_map_beats_clustering_each_component_alone(fixture_network):
    # the fixture at --min-occ 3 has two components; clustering each one against
    # its own total weight fragments the map and scores lower on the map's modularity
    net = threshold_filter(fixture_network, 3)
    parts = component_subnetworks(net)
    assert len(parts) == 2
    split = [0] * net.n_vertices
    for comp, sub in parts:
        offset = max(split)
        for v, c in zip(comp, detect_clusters(sub).assignment):
            split[v] = offset + c
    split_q = modularity(net, ClusterPartition(tuple(split), 0.0), 1.0, use_similarity=True)
    p = detect_clusters(net)
    assert p.modularity == modularity(net, p, 1.0, use_similarity=True)
    assert p.modularity > split_q


def test_cluster_ids_dense_and_deterministic(fixture_network):
    p1 = detect_clusters(fixture_network)
    p2 = detect_clusters(fixture_network)
    assert p1 == p2
    assert set(p1.assignment) == set(range(1, p1.n_clusters + 1))
    # first vertex always opens cluster 1
    assert p1.assignment[0] == 1


def test_partition_validation():
    with pytest.raises(ValueError, match="dense"):
        ClusterPartition((1, 3), 0.0)


def test_resolution_shifts_granularity():
    net = two_cliques_with_bridge()
    coarse = detect_clusters(net, resolution=0.1, use_similarity=False)
    fine = detect_clusters(net, resolution=4.0, use_similarity=False)
    assert coarse.n_clusters <= fine.n_clusters
    with pytest.raises(ValueError, match="resolution"):
        detect_clusters(net, resolution=0.0)


def test_cluster_summary_counts():
    freq = [("a", 5), ("b", 3), ("c", 9)]
    p = ClusterPartition((1, 1, 2), 0.0)
    rows = cluster_summary(p, freq)
    assert [(s.cluster_id, s.size) for s in rows] == [(1, 2), (2, 1)]
    assert rows[0].members == (("a", 5), ("b", 3))
    assert format_legend(rows) == ["Cluster 1 (2 items)", "Cluster 2 (1 items)"]
    assert format_legend(rows, {1: "Culture and Digital Preservation"})[0] == \
        "Culture and Digital Preservation (2 items)"


def test_cluster_summary_single_cluster():
    freq = [("a", 1), ("b", 2), ("c", 3)]
    p = ClusterPartition((1, 1, 1), 0.0)
    rows = cluster_summary(p, freq)
    assert len(rows) == 1 and rows[0].size == 3
    assert format_legend(rows) == ["Cluster 1 (3 items)"]


def test_cluster_summary_fixture_sizes_sum(fixture_network):
    p = detect_clusters(fixture_network)
    freq = list(zip(fixture_network.labels, fixture_network.weights))
    rows = cluster_summary(p, freq)
    assert sum(s.size for s in rows) == fixture_network.n_vertices


def test_local_moving_stops_on_a_symmetric_tie():
    # a path of seven vertices, symmetric about its middle one (3): both halves
    # pull on 3 equally, but rounding makes the half that 3 is not in look
    # better by about 3e-18, so moving on any positive gain swings 3 from half
    # to half in every sweep, forever
    path = [1, 4, 0, 3, 6, 5, 2]
    b = np.zeros((7, 7))
    for u, v, w in zip(path, path[1:], [0.7, 1.1, 0.2, 0.2, 1.1, 0.7]):
        b[u, v] = b[v, u] = w
    comm, sweeps = _local_moving(b, 0.5)
    assert sweeps < MAX_SWEEPS
    left, right = {int(comm[v]) for v in (1, 4, 0)}, {int(comm[v]) for v in (6, 5, 2)}
    assert len(left) == len(right) == 1 and left != right
    assert int(comm[3]) in left | right
