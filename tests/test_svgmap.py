from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from cowordmap.clusters import ClusterPartition, detect_clusters
from cowordmap.layout import LayoutMap, layout_network
from cowordmap.network import make_network, threshold_filter
from cowordmap.svgmap import SvgOptions, render_label_map_svg, write_label_map_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def element_counts(text: str) -> dict[str, int]:
    root = ET.fromstring(text)
    counts: dict[str, int] = {}
    for el in root.iter():
        tag = el.tag.removeprefix(SVG_NS)
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def single_vertex_setup():
    net = make_network([("solo", 3)], [])
    layout = LayoutMap(np.array([[0.5, 0.5]]), final_stress=0.0, normalized=True)
    partition = ClusterPartition((1,), 0.0)
    return net, layout, partition


def test_single_vertex_svg():
    net, layout, partition = single_vertex_setup()
    text = render_label_map_svg(net, layout, partition, {"solo": 3})
    counts = element_counts(text)
    assert counts.get("circle") == 1
    assert counts.get("text") == 1
    assert counts.get("line", 0) == 0
    assert "solo" in text


def test_sqrt_radius_scaling():
    net = make_network([("big", 4), ("small", 1)], [("big", "small", 1)])
    layout = LayoutMap(np.array([[0.2, 0.5], [0.8, 0.5]]), final_stress=0.0, normalized=True)
    partition = ClusterPartition((1, 2), 0.0)
    text = render_label_map_svg(net, layout, partition, {"big": 4, "small": 1})
    radii = [float(m) for m in re.findall(r'r="([0-9.]+)"', text)]
    assert len(radii) == 2
    assert max(radii) / min(radii) == pytest.approx(2.0)


def test_fixture_element_counts(fixture_network):
    net = threshold_filter(fixture_network, 5)
    layout = layout_network(net)
    partition = detect_clusters(net)
    freq = dict(zip(net.labels, net.weights))
    for floor in (1, 2, 3):
        text = render_label_map_svg(net, layout, partition, freq,
                                    SvgOptions(edge_weight_floor=floor))
        counts = element_counts(text)
        expected_lines = sum(1 for _, _, c in net.edges if c >= floor)
        assert counts.get("circle") == net.n_vertices
        assert counts.get("text") == net.n_vertices
        assert counts.get("line", 0) == expected_lines


def test_edge_floor_declutters(fixture_network):
    net = threshold_filter(fixture_network, 5)
    layout = layout_network(net)
    partition = detect_clusters(net)
    freq = dict(zip(net.labels, net.weights))
    all_edges = element_counts(render_label_map_svg(net, layout, partition, freq)).get("line", 0)
    floored = element_counts(
        render_label_map_svg(net, layout, partition, freq, SvgOptions(edge_weight_floor=2))
    ).get("line", 0)
    assert all_edges == net.n_edges
    assert floored < all_edges


def test_edge_width_log_scaling(fixture_network):
    net = threshold_filter(fixture_network, 5)
    layout = layout_network(net)
    partition = detect_clusters(net)
    text = render_label_map_svg(net, layout, partition, dict(zip(net.labels, net.weights)))
    widths = {float(w) for w in re.findall(r'stroke-width="([0-9.]+)"/', text)}
    expected = {round(1.5 * math.log1p(c), 2) for _, _, c in net.edges}
    got_line_widths = {float(m) for m in re.findall(r'stroke-width="([0-9.]+)"', text)} - {0.5}
    assert got_line_widths == expected


def test_svg_is_valid_and_finite(fixture_network):
    net = threshold_filter(fixture_network, 5)
    layout = layout_network(net)
    partition = detect_clusters(net)
    text = render_label_map_svg(net, layout, partition, dict(zip(net.labels, net.weights)))
    ET.fromstring(text)  # parses as XML
    assert "nan" not in text.lower().replace("stroke", "")
    for value in re.findall(r'(?:cx|cy|x1|x2|y1|y2|x|y)="(-?[0-9.]+)"', text):
        assert math.isfinite(float(value))


def test_svg_fuzz_no_nan_and_counts():
    rng = np.random.default_rng(41)
    for _ in range(15):
        net = random_network(rng, n_descriptors=int(rng.integers(1, 10)))
        if net.n_vertices == 0:
            continue
        layout = layout_network(net)
        partition = detect_clusters(net)
        text = render_label_map_svg(net, layout, partition, dict(zip(net.labels, net.weights)))
        counts = element_counts(text)
        assert counts.get("circle") == net.n_vertices
        assert counts.get("text") == net.n_vertices
        assert "nan" not in text.lower().replace("stroke", "")


def test_svg_deterministic(fixture_network, tmp_path):
    net = threshold_filter(fixture_network, 5)
    layout = layout_network(net)
    partition = detect_clusters(net)
    freq = dict(zip(net.labels, net.weights))
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    write_label_map_svg(net, layout, partition, freq, a)
    write_label_map_svg(net, layout, partition, freq, b)
    assert a.read_bytes() == b.read_bytes()


def test_labels_escaped():
    net = make_network([("a<b>&c", 1)], [])
    layout = LayoutMap(np.array([[0.5, 0.5]]), final_stress=0.0, normalized=True)
    text = render_label_map_svg(net, layout, ClusterPartition((1,), 0.0), {})
    assert "a&lt;b&gt;&amp;c" in text
    ET.fromstring(text)


@settings(max_examples=200, deadline=None)
@given(label=st.text(min_size=1, max_size=12))
def test_label_text_is_escaped_as_xml_sax_escapes_it(label):
    net = make_network([(label, 1)], [])
    layout = LayoutMap(np.array([[0.5, 0.5]]), final_stress=0.0, normalized=True)
    text = render_label_map_svg(net, layout, ClusterPartition((1,), 0.0), {})
    shown = text.split('text-anchor="middle">', 1)[1].rsplit("</text>", 1)[0]
    assert shown == sax_escape(label)


def test_coverage_validation():
    net, layout, _ = single_vertex_setup()
    with pytest.raises(ValueError, match="partition"):
        render_label_map_svg(net, layout, ClusterPartition((1, 2), 0.0), {})
    with pytest.raises(ValueError):
        SvgOptions(size=100)
    with pytest.raises(ValueError):
        SvgOptions(edge_weight_floor=0)
