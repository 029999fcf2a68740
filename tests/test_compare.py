from __future__ import annotations

import csv

import pytest

import oracles
from cowordmap.compare import compare_networks
from cowordmap.network import build_network, make_network, threshold_filter
from cowordmap.records import PeriodWindow, split_periods
from cowordmap.tables import write_compare_csv
from cowordmap.vocabulary import normalize


def simple_net(extra_vertex=False):
    vertices = [("a", 4), ("b", 3), ("c", 2)]
    edges = [("a", "b", 2), ("b", "c", 1)]
    if extra_vertex:
        vertices.append(("d", 2))
        edges.append(("a", "d", 1))
    return make_network(vertices, edges)


def test_identical_networks_empty_diff():
    net = simple_net()
    report = compare_networks(net, net, ("left", "right"))
    assert report.appeared == () and report.vanished == ()
    assert set(report.persisted) == {"a", "b", "c"}
    assert all(report.link_delta(d) == 0 for d in report.persisted)
    assert report.side_a.density == report.side_b.density


def test_added_vertex_and_edge():
    a = simple_net()
    b = simple_net(extra_vertex=True)
    report = compare_networks(a, b)
    assert report.appeared == ("d",)
    assert report.vanished == ()
    assert report.link_delta("a") == 1  # gained the edge to d
    assert report.link_delta("b") == 0


def test_antisymmetry():
    a = simple_net()
    b = simple_net(extra_vertex=True)
    fwd = compare_networks(a, b)
    rev = compare_networks(b, a)
    assert fwd.appeared == rev.vanished
    assert fwd.vanished == rev.appeared
    assert fwd.persisted == rev.persisted
    for d in fwd.persisted:
        assert fwd.link_delta(d) == -rev.link_delta(d)


def test_fixture_period_networks_match_metrics_oracle(fixture_records, fixture_mapping):
    windows = [PeriodWindow(2001, 2006), PeriodWindow(2007, 2012)]
    nets = []
    for sub in split_periods(fixture_records, windows):
        idx = normalize(sub, fixture_mapping)
        nets.append(threshold_filter(build_network(idx)[-1], 2))
    report = compare_networks(nets[0], nets[1], ("2001-2006", "2007-2012"))
    for net, side in zip(nets, (report.side_a, report.side_b)):
        edges = {(i, j) for i, j, _ in net.edges}
        centrality, closeness, density, components = oracles.metrics_by_matrix(net.n_vertices, edges)
        assert side.vertices == net.n_vertices
        assert side.edges == net.n_edges
        assert side.density == pytest.approx(density)
        assert side.components == components
        n = net.n_vertices
        assert side.mean_degree_centrality == pytest.approx(sum(centrality) / n)
        assert side.mean_closeness == pytest.approx(sum(closeness) / n)
    set_a, set_b = set(nets[0].labels), set(nets[1].labels)
    assert set(report.appeared) == set_b - set_a
    assert set(report.vanished) == set_a - set_b
    assert set(report.persisted) == set_a & set_b


def test_compare_csv_shape(tmp_path):
    a = simple_net()
    b = simple_net(extra_vertex=True)
    report = compare_networks(a, b, ("one", "two"))
    path = tmp_path / "compare.csv"
    write_compare_csv(report, path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["section", "item", "value_a", "value_b", "delta"]
    assert rows[1] == ["sides", "label", "one", "two", ""]
    sections = {row[0] for row in rows[1:]}
    assert sections == {"sides", "summary", "appeared", "persisted"}
    by_item = {(r[0], r[1]): r for r in rows}
    assert by_item[("summary", "vertices")][2:] == ["3", "4", "1"]
    assert by_item[("persisted", "a")][4] == "1"


def test_empty_network_sides():
    empty = make_network([], [])
    other = simple_net()
    report = compare_networks(empty, other)
    assert report.side_a.vertices == 0
    assert report.side_a.mean_degree_centrality == 0.0
    assert set(report.appeared) == {"a", "b", "c"}
