"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE <name>: PASS|FAIL`` line (visible with
``pytest -s``) and enforces the stated tolerance and time budget. Timed
sections run after the JIT kernels are warm, so compilation latency is not
measured.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
from conftest import (
    MAPPING_TXT,
    RECORDS_CSV,
    connected_random_network,
    random_network,
)
from cowordmap.clusters import detect_clusters
from cowordmap.layout import LayoutParams, kamada_kawai, stress_gradient
from cowordmap.network import (
    association_strength,
    build_network,
    edge_query,
    make_network,
    threshold_filter,
)
from cowordmap.pajek import format_pajek_clu, format_pajek_net, read_pajek_net
from cowordmap.records import class_crosstab, class_distribution, percent_round_half_up
from cowordmap.svgmap import render_label_map_svg
from cowordmap.vocabulary import OccurrenceIndex, descriptor_frequencies


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


def synthetic_index(rng, max_descriptors, max_records):
    n_desc = int(rng.integers(1, max_descriptors + 1))
    names = [f"k{i:02d}" for i in range(n_desc)]
    n_rec = int(rng.integers(1, max_records + 1))
    per_record = {}
    for i in range(n_rec):
        size = int(rng.integers(1, min(8, n_desc) + 1))
        chosen = rng.choice(n_desc, size=size, replace=False)
        per_record[f"r{i}"] = frozenset(names[k] for k in chosen)
    return OccurrenceIndex.from_sets(per_record)


def test_coverage_arithmetic():
    start = time.perf_counter()
    percent = percent_round_half_up(388, 1474)
    elapsed = time.perf_counter() - start
    report(
        "coverage-arithmetic",
        percent == 26 and elapsed < 1e-3,
        f"percent(388/1474)={percent}, {elapsed * 1e6:.0f}us",
    )


def test_pair_counting_identity():
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        idx = synthetic_index(rng, max_descriptors=50, max_records=200)
        [net] = build_network(idx)
        lhs = sum(c for _, _, c in net.edges)
        rhs = sum(len(s) * (len(s) - 1) // 2 for s in idx.per_record.values())
        assert lhs == rhs
        for i, j, c in net.edges:
            assert c <= min(net.weights[i], net.weights[j])
        checked += 1
    elapsed = time.perf_counter() - start
    report("pair-counting-identity", checked == 500 and elapsed < 10.0,
           f"{checked} corpora in {elapsed:.2f}s")


def test_brute_force_equivalence(fixture_records, fixture_index, fixture_network, schemes):
    start = time.perf_counter()
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    mapping = oracles.read_mapping_pairs(MAPPING_TXT)
    sets = oracles.descriptor_sets(rows, mapping)
    totals = oracles.occurrence_totals(sets)
    pairs = oracles.pair_counts(sets)

    net_ok = dict(zip(fixture_network.labels, fixture_network.weights)) == dict(totals)
    got_edges = {
        tuple(sorted((fixture_network.labels[i], fixture_network.labels[j]))): c
        for i, j, c in fixture_network.edges
    }
    net_ok = net_ok and got_edges == dict(pairs)

    expected_freq = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    freq_ok = descriptor_frequencies(fixture_index) == expected_freq

    scheme_a, scheme_b = schemes
    dist_ok = True
    for which, scheme in (("a", scheme_a), ("b", scheme_b)):
        tally = oracles.class_tally(rows, f"class_{which}", list(scheme.labels))
        got = {label: count for label, count, _ in class_distribution(fixture_records, scheme, which)}
        dist_ok = dist_ok and got == tally

    pivot = oracles.crosstab_tally(rows)
    row_labels, col_labels, counts = class_crosstab(fixture_records, scheme_a, scheme_b)
    cross_ok = all(
        counts[i][j] == pivot.get((ra, cb), 0)
        for i, ra in enumerate(row_labels)
        for j, cb in enumerate(col_labels)
    )
    elapsed = time.perf_counter() - start
    report(
        "brute-force-equivalence",
        net_ok and freq_ok and dist_ok and cross_ok and elapsed < 1.0,
        f"network={net_ok} frequencies={freq_ok} distribution={dist_ok} "
        f"crosstab={cross_ok} in {elapsed:.3f}s",
    )


def test_fig1_format(fixture_network):
    start = time.perf_counter()
    rows = edge_query(fixture_network, "academic libraries")
    expected = [
        ("academic libraries", "citizenship", 1),
        ("academic libraries", "collaboration", 3),
        ("academic libraries", "digital libraries", 1),
        ("academic libraries", "evaluation", 2),
    ]
    rendered = [f"{a}\t{b}\t{c}" for a, b, c in rows]
    expected_rendered = [f"{a}\t{b}\t{c}" for a, b, c in expected]
    elapsed = time.perf_counter() - start
    report("fig1-format", rendered == expected_rendered and elapsed < 1.0,
           f"{len(rows)} rows in {elapsed * 1e3:.1f}ms")


def exhaustive_best_q(net, gamma=1.0):
    s = association_strength(net)
    weights = {(i, j): float(s[i, j]) for i, j, _ in net.edges}
    best_q, _ = oracles.best_partition_exhaustive(net.n_vertices, weights, gamma)
    return best_q


def test_clustering_oracle():
    start = time.perf_counter()
    failures = []
    gaps = []

    labels = [chr(97 + i) for i in range(8)]
    edges = []
    for grp in (labels[:4], labels[4:]):
        for k, x in enumerate(grp):
            for y in grp[k + 1:]:
                edges.append((x, y, 1))
    edges.append(("d", "e", 1))
    cliques = make_network([(l, 4) for l in labels], edges)
    graphs = [cliques]

    rng = np.random.default_rng(424242)
    while len(graphs) < 21:
        [net] = build_network(synthetic_index(rng, max_descriptors=8, max_records=12))
        if 0 < net.n_vertices <= 8:
            graphs.append(net)

    for k, net in enumerate(graphs):
        partition = detect_clusters(net, 1.0, use_similarity=True)
        best_q = exhaustive_best_q(net)
        gap = best_q - partition.modularity
        gaps.append(gap)
        if gap <= 1e-9:
            continue
        if best_q > 0 and partition.modularity >= 0.99 * best_q:
            continue
        failures.append(f"graph {k}: Q={partition.modularity:.6f} < optimum {best_q:.6f}")
    elapsed = time.perf_counter() - start
    report(
        "clustering-oracle",
        not failures and elapsed < 30.0,
        f"{len(graphs)} graphs, max gap {max(gaps):.2e}, {elapsed:.2f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_layout_correctness():
    start = time.perf_counter()
    problems = []

    two = make_network([("a", 2), ("b", 2)], [("a", "b", 2)])
    lm = kamada_kawai(two, LayoutParams(tolerance=1e-10))
    separation = float(np.linalg.norm(lm.coords[0] - lm.coords[1]))
    if abs(separation - 0.5) >= 1e-9:
        problems.append(f"two-vertex separation {separation!r}")

    tri = make_network([(l, 2) for l in "abc"],
                       [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    lt = kamada_kawai(tri, LayoutParams(tolerance=1e-9))
    dists = [
        float(np.linalg.norm(lt.coords[i] - lt.coords[j]))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    mean = sum(dists) / 3
    if any(abs(d - mean) / mean >= 1e-6 for d in dists):
        problems.append(f"triangle distances {dists}")

    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for _ in range(20):
        net = connected_random_network(rng, 10)
        from cowordmap.layout import graph_distances

        comp, dmat = graph_distances(net)[0]
        n = len(comp)
        full = np.full((net.n_vertices, net.n_vertices), np.inf)
        np.fill_diagonal(full, 0.0)
        for a, i in enumerate(comp):
            for b, j in enumerate(comp):
                full[i, j] = dmat[a, b]
        pos = 3.0 * rng.standard_normal((net.n_vertices, 2))
        analytic = stress_gradient(pos, full, 1.0)
        fd = np.array(oracles.stress_gradient_fd(pos.tolist(), full.tolist(), 1.0))
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))
        worst_rel = max(worst_rel, rel)
        if rel >= 1e-5:
            problems.append(f"gradient mismatch rel={rel:.2e}")

        lay = kamada_kawai(net)
        for trace in lay.stress_history:
            for earlier, later in zip(trace, trace[1:]):
                if later > earlier + 1e-12:
                    problems.append(f"stress increased {earlier} -> {later}")

    elapsed = time.perf_counter() - start
    report(
        "layout-correctness",
        not problems and elapsed < 10.0,
        f"sep err {abs(separation - 0.5):.1e}, worst grad rel {worst_rel:.1e}, "
        f"{elapsed:.2f}s" + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def test_serialization(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for k in range(100):
        net = random_network(rng, n_descriptors=int(rng.integers(1, 15)),
                             n_records=int(rng.integers(1, 20)))
        text = format_pajek_net(net)
        path = tmp_path / f"n{k}.net"
        path.write_text(text, encoding="utf-8", newline="\n")
        again, _ = read_pajek_net(path)
        ok = ok and format_pajek_net(again) == text

    clu_ok = True
    svg_ok = True
    for k in range(10):
        net = random_network(rng, n_descriptors=int(rng.integers(2, 12)))
        if net.n_vertices == 0:
            continue
        partition = detect_clusters(net)
        clu_text = format_pajek_clu(partition)
        clu_ok = clu_ok and len(clu_text.splitlines()) == net.n_vertices + 1

        from cowordmap.layout import layout_network
        import xml.etree.ElementTree as ET

        layout = layout_network(net)
        svg = render_label_map_svg(net, layout, partition, dict(zip(net.labels, net.weights)))
        root = ET.fromstring(svg)
        tags = [el.tag.split("}")[1] for el in root.iter() if "}" in el.tag]
        svg_ok = svg_ok and tags.count("circle") == net.n_vertices
        svg_ok = svg_ok and tags.count("text") == net.n_vertices
        svg_ok = svg_ok and tags.count("line") == sum(1 for _, _, c in net.edges if c >= 1)

    elapsed = time.perf_counter() - start
    report("serialization", ok and clu_ok and svg_ok and elapsed < 5.0,
           f"pajek={ok} clu={clu_ok} svg={svg_ok} in {elapsed:.2f}s")


def test_end_to_end_determinism(tmp_path):
    import json

    from cowordmap.pipeline import MANIFEST_FILE, RunConfig, run_pipeline
    from cowordmap.records import PeriodWindow

    out = tmp_path / "out"
    config = RunConfig(
        records=RECORDS_CSV,
        out_dir=out,
        mapping=MAPPING_TXT,
        windows=(PeriodWindow(2001, 2006), PeriodWindow(2007, 2012)),
    )
    start = time.perf_counter()
    run_pipeline(config)
    run_elapsed = time.perf_counter() - start
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run_pipeline(config)
    second = {p.name: p.read_bytes() for p in out.iterdir()}

    identical = set(first) == set(second)
    for name in first:
        if name == MANIFEST_FILE:
            a = json.loads(first[name])
            b = json.loads(second[name])
            a.pop("timestamps")
            b.pop("timestamps")
            identical = identical and a == b
        else:
            identical = identical and first[name] == second[name]

    rng = np.random.default_rng(46)
    net46 = connected_random_network(rng, 46)
    assert net46.n_vertices == 46
    start = time.perf_counter()
    lm = kamada_kawai(net46, LayoutParams(tolerance=1e-4))
    kk_elapsed = time.perf_counter() - start

    report(
        "end-to-end-determinism",
        identical and run_elapsed < 5.0 and lm.converged and kk_elapsed < 1.0,
        f"outputs identical={identical}, run {run_elapsed:.2f}s, "
        f"46-vertex layout converged={lm.converged} in {kk_elapsed * 1e3:.0f}ms "
        f"({lm.iterations} iterations)",
    )


def test_threshold_monotonicity():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    for _ in range(200):
        net = random_network(rng, n_descriptors=int(rng.integers(1, 20)),
                             n_records=int(rng.integers(1, 30)))
        a = int(rng.integers(1, 5))
        b = a + int(rng.integers(1, 5))
        at_a = set(threshold_filter(net, a).labels)
        at_b = set(threshold_filter(net, b).labels)
        assert at_b <= at_a
    elapsed = time.perf_counter() - start
    report("threshold-monotonicity", elapsed < 5.0, f"200 networks in {elapsed:.2f}s")
