"""Output checks computed apart from the program.

Nothing here imports ``cowordmap``. Every expected value is recomputed
from the raw input files (records CSV, mapping table, scheme files) or
from the artifacts themselves, by the rules the package documents: the
match-key rule for keywords, document-level pair counting, the canonical
vertex order (weight descending, then label), association-strength
modularity, and stress over shortest paths with edge length 1/weight.

Each check function returns a list of problems (empty when the output is
right). The map-quality scores ``map_stress`` and ``modularity`` are
computed here too.
"""

from __future__ import annotations

import csv
import math
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

UNCLASSIFIED = "(unclassified)"


def key_of(raw: str) -> str:
    return " ".join(unicodedata.normalize("NFC", raw).casefold().split())


def read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_labels(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def read_mapping(path: Path | None) -> dict[str, str]:
    table: dict[str, str] = {}
    if path is None:
        return table
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        raw, _, canonical = line.partition("->")
        table.setdefault(key_of(raw), canonical.strip())
    for canonical in list(table.values()):
        table.setdefault(key_of(canonical), canonical)
    return table


@dataclass
class Truth:
    """What the outputs of one corpus must contain, derived from its inputs."""

    ids: list[str]
    rows: list[dict]
    sets: dict[str, set[str]]  # record id -> descriptor set
    totals: Counter
    unmapped: Counter
    pairs: Counter  # sorted descriptor pair -> records holding both
    labels_a: list[str]
    labels_b: list[str]


def derive(records: Path, mapping: Path | None, scheme_dir: Path) -> Truth:
    with open(records, encoding="utf-8", newline="") as fh:
        rows = [{k: v.strip() for k, v in row.items()} for row in csv.DictReader(fh)]
    table = read_mapping(mapping)
    sets: dict[str, set[str]] = {}
    unmapped: Counter = Counter()
    for row in rows:
        found = set()
        for raw in row["keywords"].split(";"):
            if not raw.strip():
                continue
            k = key_of(raw)
            if k not in table:
                unmapped[k] += 1
            found.add(table.get(k, k))
        sets[row["id"]] = found
    totals: Counter = Counter()
    pairs: Counter = Counter()
    for s in sets.values():
        totals.update(s)
        pairs.update(combinations(sorted(s), 2))
    return Truth(
        ids=[row["id"] for row in rows],
        rows=rows,
        sets=sets,
        totals=totals,
        unmapped=unmapped,
        pairs=pairs,
        labels_a=read_labels(scheme_dir / "scheme_a.txt"),
        labels_b=read_labels(scheme_dir / "scheme_b.txt"),
    )


def percent(part: int, whole: int) -> int:
    return math.floor(100 * part / whole + 0.5) if whole else 0


def retained(totals: Counter, min_occ: int) -> list[str]:
    """Descriptors at or above the threshold in canonical vertex order."""
    return sorted((d for d, c in totals.items() if c >= min_occ), key=lambda d: (-totals[d], d))


def window_truth(truth: Truth, start: int, end: int) -> tuple[Counter, Counter]:
    totals: Counter = Counter()
    pairs: Counter = Counter()
    for row in truth.rows:
        if start <= int(row["year"]) <= end:
            s = truth.sets[row["id"]]
            totals.update(s)
            pairs.update(combinations(sorted(s), 2))
    return totals, pairs


# --- per-stage checks --------------------------------------------------------


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_ingest(truth: Truth, out: Path, generated: dict | None) -> list[str]:
    problems: list[str] = []
    rows = read_rows(out / "records.csv")
    _expect(problems, [r[0] for r in rows[1:]] == truth.ids, "records.csv ids differ from the input's")
    kept = {r[0]: [k.strip() for k in r[6].split(";") if k.strip()] for r in rows[1:] if len(r) == 7}
    for row in truth.rows:
        raw = [k.strip() for k in row["keywords"].split(";") if k.strip()]
        if kept.get(row["id"]) != raw:
            problems.append(f"records.csv keywords of {row['id']} differ from the input's")
            break
    if generated is not None:
        _expect(problems, len(rows) - 1 == generated["n_records"], "record count differs from the generator's")
        by_source = Counter(r[1] for r in rows[1:])
        _expect(problems, dict(by_source) == generated["by_source"], "per-source counts differ from the generator's")
    return problems


def _distribution_rows(tally: Counter, labels: list[str], total: int) -> list[list[str]]:
    rows = [[label, str(tally.get(label, 0)), str(percent(tally.get(label, 0), total))] for label in labels]
    if tally.get("", 0):
        rows.append([UNCLASSIFIED, str(tally[""]), str(percent(tally[""], total))])
    return rows


def check_report(truth: Truth, out: Path, generated: dict | None) -> list[str]:
    problems: list[str] = []
    total = len(truth.rows)
    for which, labels in (("a", truth.labels_a), ("b", truth.labels_b)):
        tally = Counter(row[f"class_{which}"] for row in truth.rows)
        if generated is not None:
            _expect(problems, dict(tally) == generated[f"class_{which}"],
                    f"class_{which} tallies of the input differ from the generator's")
        got = read_rows(out / f"class_{which}_distribution.csv")
        _expect(problems, got[1:] == _distribution_rows(tally, labels, total),
                f"class_{which}_distribution.csv differs from the recount")
    cross = Counter((row["class_a"] or UNCLASSIFIED, row["class_b"] or UNCLASSIFIED) for row in truth.rows)
    got = read_rows(out / "crosstab.csv")
    cols = got[0][1:]
    seen = {(r[0], c): int(v) for r in got[1:] for c, v in zip(cols, r[1:])}
    _expect(problems, {k: v for k, v in seen.items() if v} == dict(cross), "crosstab.csv differs from the recount")
    return problems


def check_normalize(truth: Truth, out: Path, min_occ: int) -> list[str]:
    problems: list[str] = []
    freq = read_rows(out / "frequencies.csv")[1:]
    expected = [[d, str(truth.totals[d])] for d in sorted(truth.totals, key=lambda d: (-truth.totals[d], d))]
    _expect(problems, freq == expected, "frequencies.csv differs from the recomputed descriptor totals")
    desc = read_rows(out / "descriptors.csv")[1:]
    expected = [[rid, d] for rid in truth.ids for d in sorted(truth.sets[rid])]
    _expect(problems, desc == expected, "descriptors.csv differs from the recomputed descriptor sets")
    unmapped = read_rows(out / "unmapped.csv")[1:]
    expected = [[k, str(c)] for k, c in sorted(truth.unmapped.items(), key=lambda kv: (-kv[1], kv[0]))]
    _expect(problems, unmapped == expected, "unmapped.csv differs from the recount")
    kept = retained(truth.totals, min_occ)
    occ = sum(truth.totals.values())
    kept_occ = sum(truth.totals[d] for d in kept)
    expected = [str(min_occ), str(len(truth.totals)), str(occ), str(len(kept)), str(kept_occ), str(percent(kept_occ, occ))]
    _expect(problems, read_rows(out / "coverage.csv")[1:] == [expected], "coverage.csv differs from the recount")
    return problems


def read_net(path: Path) -> tuple[list[str], list[tuple[float, float]] | None, list[tuple[int, int, int]]]:
    """Labels, coordinates (or None) and 0-based edges of a Pajek file."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    n = int(lines[0].split()[1])
    labels, coords = [], []
    for line in lines[1 : n + 1]:
        first, second = line.index('"'), line.rindex('"')
        labels.append(line[first + 1 : second])
        tail = line[second + 1 :].split()
        coords.append((float(tail[0]), float(tail[1])) if tail else None)
    edges = [tuple(int(x) for x in line.split()) for line in lines[n + 2 :]]
    edges = [(i - 1, j - 1, w) for i, j, w in edges]
    has = [c is not None for c in coords]
    return labels, (coords if has and all(has) else None), edges


def expected_edges(labels: list[str], pairs: Counter) -> list[list[str]]:
    keep = set(labels)
    rows = [[a, b, str(c)] for (a, b), c in pairs.items() if a in keep and b in keep]
    return sorted(rows, key=lambda r: (r[0], r[1], int(r[2])))


def check_net(truth: Truth, maps: Path, min_occ: int) -> list[str]:
    problems: list[str] = []
    kept = retained(truth.totals, min_occ)
    vertices = read_rows(maps / "vertices.csv")[1:]
    _expect(problems, vertices == [[d, str(truth.totals[d])] for d in kept],
            f"vertices.csv at min-occ {min_occ} differs from the recomputed totals")
    edges = read_rows(maps / "edges.csv")[1:]
    _expect(problems, edges == expected_edges(kept, truth.pairs),
            f"edges.csv at min-occ {min_occ} differs from the recomputed pair counts")
    labels, _, net_edges = read_net(maps / "network.net")
    _expect(problems, labels == kept, "network.net vertices differ from vertices.csv")
    as_rows = sorted([*sorted((labels[i], labels[j])), str(w)] for i, j, w in net_edges)
    _expect(problems, as_rows == sorted(edges), "network.net edges differ from edges.csv")
    return problems


def _weights(maps: Path) -> tuple[list[str], np.ndarray, list[tuple[int, int, int]]]:
    vertices = read_rows(maps / "vertices.csv")[1:]
    labels = [v[0] for v in vertices]
    occ = np.array([int(v[1]) for v in vertices], dtype=np.float64)
    index = {label: i for i, label in enumerate(labels)}
    edges = [(index[a], index[b], int(w)) for a, b, w in read_rows(maps / "edges.csv")[1:]]
    return labels, occ, edges


def modularity(maps: Path, assignment: list[int]) -> float:
    """Association-strength modularity at resolution 1, by the direct double sum."""
    labels, occ, edges = _weights(maps)
    n = len(labels)
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] = a[j, i] = w / (occ[i] * occ[j])
    k = a.sum(axis=1)
    two_m = k.sum()
    if two_m == 0:
        return 0.0
    same = np.equal.outer(assignment, assignment)
    return float(((a - np.outer(k, k) / two_m) * same).sum() / two_m)


def read_clu(path: Path) -> list[int]:
    lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [int(x) for x in lines[1:]]


def check_cluster(maps: Path, reported_modularity: float | None) -> tuple[list[str], float | None]:
    problems: list[str] = []
    labels, _, _ = _weights(maps)
    clu = read_clu(maps / "network.clu")
    if len(clu) != len(labels):
        return [f"network.clu has {len(clu)} assignments for {len(labels)} vertices"], None
    ids = sorted(set(clu))
    _expect(problems, ids == list(range(1, len(ids) + 1)), "network.clu ids do not run 1..k")
    first_seen = list(dict.fromkeys(clu))
    _expect(problems, first_seen == ids, "network.clu ids are not numbered by first appearance")
    sizes = Counter(clu)
    summary = read_rows(maps / "cluster_summary.csv")[1:]
    _expect(problems, [(int(r[0]), int(r[2])) for r in summary] == sorted(sizes.items()),
            "cluster_summary.csv sizes differ from network.clu")
    q = modularity(maps, clu)
    if reported_modularity is None or abs(q - reported_modularity) > 1e-9:
        problems.append(f"modularity {q!r} recomputed, {reported_modularity!r} reported")
    return problems, q


def shortest_paths(n: int, edges: list[tuple[int, int, int]]) -> np.ndarray:
    """Floyd-Warshall over edge lengths 1/weight; inf across components."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = d[j, i] = min(d[i, j], 1.0 / w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def map_stress(maps: Path) -> float:
    """Mean scaled stress over the vertex pairs of every component.

    Each component's map is scaled by the alpha that minimises
    sum((alpha*r - d)^2 / d^2), so packing and --layout-scale drop out.
    """
    labels, _, edges = _weights(maps)
    _, coords, _ = read_net(maps / "network.net")
    d = shortest_paths(len(labels), edges)
    xy = np.array(coords, dtype=np.float64)
    components = {tuple(np.flatnonzero(np.isfinite(row))) for row in d}
    total, pairs = 0.0, 0
    for comp in components:
        if len(comp) < 2:
            continue
        idx = np.array(comp)
        sub = xy[idx]
        r = np.sqrt(((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=2))
        upper = np.triu_indices(len(idx), 1)
        rr, dd = r[upper], d[np.ix_(idx, idx)][upper]
        alpha = (rr / dd).sum() / ((rr / dd) ** 2).sum()
        total += float((((alpha * rr - dd) / dd) ** 2).sum())
        pairs += len(rr)
    return total / pairs if pairs else 0.0


def check_layout(maps: Path) -> list[str]:
    _, coords, _ = read_net(maps / "network.net")
    if coords is None:
        return ["network.net has no coordinates after layout"]
    xy = np.array(coords)
    if not np.isfinite(xy).all() or (xy < 0).any() or (xy > 1).any():
        return ["network.net coordinates are not finite points of the unit square"]
    return []


def check_export(maps: Path) -> list[str]:
    labels, _, _ = read_net(maps / "network.net")
    try:
        root = ET.parse(maps / "map.svg").getroot()
    except ET.ParseError as exc:
        return [f"map.svg is not XML: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    texts = [t.text for t in root.findall(f"{ns}text")]
    problems: list[str] = []
    _expect(problems, len(circles) == len(labels), f"map.svg has {len(circles)} nodes for {len(labels)} vertices")
    _expect(problems, texts == labels, "map.svg labels differ from the network's")
    return problems


def check_compare(path: Path, sides: tuple[tuple[Counter, Counter], tuple[Counter, Counter]],
                  min_occ: tuple[int, int]) -> list[str]:
    """compare.csv rows against set differences of the two sides' retained descriptors.

    Each side is (totals, pairs); a descriptor's link count is its number of
    partners among the same side's retained descriptors.
    """
    kept = [set(retained(totals, t)) for (totals, _), t in zip(sides, min_occ)]
    links = []
    for keep, (_, pairs) in zip(kept, sides):
        deg: Counter = Counter()
        for (a, b), c in pairs.items():
            if c and a in keep and b in keep:
                deg[a] += 1
                deg[b] += 1
        links.append(deg)
    a, b = kept
    expected = (
        [["appeared", d, "", str(links[1][d]), ""] for d in sorted(b - a)]
        + [["vanished", d, str(links[0][d]), "", ""] for d in sorted(a - b)]
        + [["persisted", d, str(links[0][d]), str(links[1][d]), str(links[1][d] - links[0][d])] for d in sorted(a & b)]
    )
    got = [r for r in read_rows(path)[1:] if r[0] in ("appeared", "vanished", "persisted")]
    return [] if got == expected else [f"{path.name} rows differ from the set differences of the two sides"]


def check_kamada_kawai(call: dict) -> list[str]:
    """Properties the result of one traced ``kamada_kawai`` call must have."""
    problems: list[str] = []
    for history in call["histories"]:
        if any(b > a for a, b in zip(history, history[1:])):
            problems.append("a stress_history increases")
        if history[-1] > history[0]:
            problems.append("final stress above the circle-start stress")
    d = shortest_paths(call["n"], [tuple(e) for e in call["edges"]])
    xy = np.array(call["coords"], dtype=np.float64).reshape(call["n"], 2)
    r = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    upper = np.triu(np.isfinite(d), 1)
    s = float((((r[upper] - call["scale"] * d[upper]) / d[upper]) ** 2).sum())
    final = call["final_stress"]
    if abs(s - final) > 1e-9 * max(abs(final), 1e-300) and not (s == 0 == final):
        problems.append(f"final_stress {final!r} reported, {s!r} recomputed")
    return problems
