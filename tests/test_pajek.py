from __future__ import annotations

import numpy as np
import pytest

from conftest import PAJEK_DIR, random_network
from cowordmap.clusters import ClusterPartition
from cowordmap.errors import InputError
from cowordmap.layout import LayoutMap, layout_network
from cowordmap.network import make_network
from cowordmap.pajek import (
    format_pajek_clu,
    format_pajek_net,
    read_pajek_clu,
    read_pajek_net,
    write_pajek_clu,
    write_pajek_net,
)


def test_minimal_document_exact():
    net = make_network([("a", 2), ("b", 1)], [("a", "b", 3)])
    assert format_pajek_net(net) == '*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 3\n'


def test_empty_network_document():
    net = make_network([], [])
    assert format_pajek_net(net) == "*Vertices 0\n*Edges\n"


def test_coordinates_written_six_decimals():
    net = make_network([("a", 2), ("b", 1)], [("a", "b", 1)])
    layout = LayoutMap(np.array([[0.25, 1.0 / 3.0], [1.0, 0.0]]), final_stress=0.0, normalized=True)
    text = format_pajek_net(net, layout)
    assert '1 "a" 0.250000 0.333333' in text
    assert '2 "b" 1.000000 0.000000' in text


def test_roundtrip_equals_on_labels_and_edges(fixture_network, tmp_path):
    path = tmp_path / "net.net"
    write_pajek_net(fixture_network, None, path)
    again, layout = read_pajek_net(path)
    assert layout is None
    assert again.labels == fixture_network.labels
    assert again.edges == fixture_network.edges
    assert again.weights is None


def test_write_read_write_byte_identity(tmp_path):
    rng = np.random.default_rng(13)
    for k in range(20):
        net = random_network(rng, n_descriptors=int(rng.integers(1, 12)))
        p1 = tmp_path / f"a{k}.net"
        p2 = tmp_path / f"b{k}.net"
        write_pajek_net(net, None, p1)
        again, _ = read_pajek_net(p1)
        write_pajek_net(again, None, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_with_coordinates(fixture_network, tmp_path):
    layout = layout_network(fixture_network)
    path = tmp_path / "coords.net"
    write_pajek_net(fixture_network, layout, path)
    again, read_layout = read_pajek_net(path)
    assert read_layout is not None and read_layout.normalized
    write_pajek_net(again, read_layout, tmp_path / "again.net")
    assert path.read_bytes() == (tmp_path / "again.net").read_bytes()


def test_fixture_files_reserialize_byte_identically():
    for name in ("small.net", "coords.net", "single.net", "empty.net"):
        path = PAJEK_DIR / name
        net, layout = read_pajek_net(path)
        assert format_pajek_net(net, layout).encode() == path.read_bytes(), name


def test_read_rejects_dangling_edge(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 99 1\n', encoding="utf-8")
    with pytest.raises(InputError, match=r"bad.net:5: edge endpoint out of range 1..2"):
        read_pajek_net(path)


def test_read_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("*Vertices 1\n1 unquoted\n*Edges\n", encoding="utf-8")
    with pytest.raises(InputError, match="bad.net:2: vertex label must be quoted"):
        read_pajek_net(path)
    path.write_text('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2\n', encoding="utf-8")
    with pytest.raises(InputError, match=r"bad.net:5: expected 'i j w'"):
        read_pajek_net(path)
    path.write_text('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 1 2\n', encoding="utf-8")
    with pytest.raises(InputError, match="self-edge"):
        read_pajek_net(path)
    path.write_text('*Vertices 2\n2 "a"\n1 "b"\n*Edges\n', encoding="utf-8")
    with pytest.raises(InputError, match="ids must run"):
        read_pajek_net(path)
    path.write_text("nonsense\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"expected '\*Vertices n'"):
        read_pajek_net(path)
    clu = tmp_path / "bad.clu"
    clu.write_text("*Vertices 3\n1\n2\n", encoding="utf-8")
    with pytest.raises(InputError, match="has 2 assignments, network has 3 vertices"):
        read_pajek_clu(clu, 3)
    clu.write_text("*Vertices 2\n2\n9\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"bad.clu: cluster ids must be dense 1..k, got \[2, 9\]"):
        read_pajek_clu(clu, 2)
    clu.write_text("*Vertices 2\n1\n\ntwo\n", encoding="utf-8")
    with pytest.raises(InputError, match="bad.clu:4: non-integer cluster id 'two'"):
        read_pajek_clu(clu, 2)


@pytest.mark.parametrize("header, message", [
    ("*Vertices 99", "header counts 99 vertices, but 3 assignments follow"),
    ("*Verticesfoo", r"expected '\*Vertices n', n a vertex count, got '\*Verticesfoo'"),
    ("*Vertices -3", r"expected '\*Vertices n', n a vertex count, got '\*Vertices -3'"),
], ids=["count", "glued", "negative"])
def test_read_clu_checks_its_header(tmp_path, header, message):
    clu = tmp_path / "bad.clu"
    clu.write_text(f"{header}\n1\n1\n2\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"bad.clu:1: {message}$"):
        read_pajek_clu(clu, 3)


def test_read_rejects_partial_coordinates(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text('*Vertices 2\n1 "a" 0.1 0.2\n2 "b"\n*Edges\n', encoding="utf-8")
    with pytest.raises(InputError, match="all vertices or none"):
        read_pajek_net(path)


def test_unrepresentable_label_rejected():
    net = make_network([('with "quote"', 1)], [])
    with pytest.raises(ValueError, match="not representable"):
        format_pajek_net(net)


def test_clu_format():
    assert format_pajek_clu(ClusterPartition((1, 1, 2), 0.0)) == "*Vertices 3\n1\n1\n2\n"
    assert format_pajek_clu(ClusterPartition((1,), 0.0)) == "*Vertices 1\n1\n"


def test_clu_line_count(fixture_network, tmp_path):
    from cowordmap.clusters import detect_clusters

    p = detect_clusters(fixture_network)
    path = tmp_path / "p.clu"
    write_pajek_clu(p, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == fixture_network.n_vertices + 1


def test_clu_write_read_roundtrip(fixture_network, tmp_path):
    from cowordmap.clusters import detect_clusters

    p = detect_clusters(fixture_network)
    path = tmp_path / "p.clu"
    write_pajek_clu(p, path)
    assert read_pajek_clu(path, fixture_network.n_vertices) == p.assignment


def test_layout_must_cover_vertices():
    net = make_network([("a", 1), ("b", 1)], [])
    short = LayoutMap(np.zeros((1, 2)), final_stress=0.0)
    with pytest.raises(ValueError, match="cover"):
        format_pajek_net(net, short)
