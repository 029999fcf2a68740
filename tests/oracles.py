"""Independent brute-force oracles used by the test suite.

Everything in this module is deliberately written from scratch against the
raw fixture files and primitive data structures. None of it imports the
package under test, so agreement between the two is meaningful.
"""

from __future__ import annotations

import csv
import io
import math
import unicodedata
from collections import Counter
from itertools import chain, combinations, repeat
from typing import NamedTuple

import numpy as np


def key_of(raw: str) -> str:
    """Same match-key rule the mapping format documents: NFC, casefold, collapse."""
    return " ".join(unicodedata.normalize("NFC", raw).casefold().split())


def read_fixture_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_mapping_pairs(path) -> dict[str, str]:
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            raw, _, canonical = line.partition("->")
            table[key_of(raw)] = canonical.strip()
    # identity entries for canonical forms, mirroring the documented contract
    for canonical in list(table.values()):
        table.setdefault(key_of(canonical), canonical)
    return table


def descriptor_sets(rows: list[dict], mapping: dict[str, str]) -> dict[str, set[str]]:
    """Per-record descriptor sets computed the slow, obvious way (passthrough on)."""
    out = {}
    for row in rows:
        found = set()
        for raw in row["keywords"].split(";"):
            raw = raw.strip()
            if not raw:
                continue
            k = key_of(raw)
            found.add(mapping.get(k, k))
        out[row["id"]] = found
    return out


def normalize_tallies(keywords: dict[str, list[str]], mapping: dict[str, str], passthrough: bool):
    """(descriptor sets, totals, unmapped counts by match-key, kept tokens) of
    each record's raw keywords, one keyword at a time."""
    sets, unmapped, tokens = {}, Counter(), 0
    for rid, raws in keywords.items():
        found = set()
        for raw in raws:
            k = key_of(raw)
            if k in mapping:
                found.add(mapping[k])
                tokens += 1
                continue
            unmapped[k] += 1
            if passthrough:
                found.add(k)
                tokens += 1
        sets[rid] = found
    return sets, occurrence_totals(sets), unmapped, tokens


def occurrence_totals(sets: dict[str, set[str]]) -> Counter:
    totals = Counter()
    for s in sets.values():
        totals.update(s)
    return totals


def pair_counts(sets: dict[str, set[str]]) -> Counter:
    """Document-level co-occurrence counts keyed by sorted descriptor pairs."""
    pairs = Counter()
    for s in sets.values():
        for a, b in combinations(sorted(s), 2):
            pairs[(a, b)] += 1
    return pairs


def class_tally(rows: list[dict], field: str, labels: list[str]) -> dict[str, int]:
    tally = {label: 0 for label in labels}
    unclassified = 0
    for row in rows:
        value = row[field]
        if value:
            tally[value] += 1
        else:
            unclassified += 1
    if unclassified:
        tally["(unclassified)"] = unclassified
    return tally


def crosstab_tally(rows: list[dict]) -> Counter:
    tab = Counter()
    for row in rows:
        a = row["class_a"] or "(unclassified)"
        b = row["class_b"] or "(unclassified)"
        tab[(a, b)] += 1
    return tab


def percent_half_up(part: int, whole: int) -> int:
    if whole == 0:
        return 0
    return math.floor(100 * part / whole + 0.5)


# --- graph oracles ---------------------------------------------------------


def floyd_warshall(n: int, lengths: dict[tuple[int, int], float]) -> list[list[float]]:
    """Textbook triple loop over a dict of undirected edge lengths."""
    inf = math.inf
    d = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for (i, j), w in lengths.items():
        d[i][j] = min(d[i][j], w)
        d[j][i] = min(d[j][i], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = d[i][k] + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return d


def components_of(n: int, edges: set[tuple[int, int]]) -> list[set[int]]:
    seen = set()
    comps = []
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def metrics_by_matrix(n: int, edges: set[tuple[int, int]]):
    """Degree centrality, closeness, density and component count from hop APSP."""
    hop = floyd_warshall(n, {e: 1.0 for e in edges})
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    centrality = [degree[v] / (n - 1) if n > 1 else 0.0 for v in range(n)]
    closeness = []
    for v in range(n):
        comp = [u for u in range(n) if hop[v][u] < math.inf]
        total = sum(hop[v][u] for u in comp)
        closeness.append((len(comp) - 1) / total if total > 0 else 0.0)
    density = 2 * len(edges) / (n * (n - 1)) if n > 1 else 0.0
    return centrality, closeness, density, len(components_of(n, edges))


def modularity_direct(n: int, weights: dict[tuple[int, int], float], assignment: list[int], gamma: float) -> float:
    """Direct double sum over ordered vertex pairs; no community bookkeeping."""
    a = [[0.0] * n for _ in range(n)]
    for (i, j), w in weights.items():
        a[i][j] += w
        a[j][i] += w
    two_m = sum(sum(row) for row in a)
    if two_m == 0:
        return 0.0
    k = [sum(row) for row in a]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += a[i][j] - gamma * k[i] * k[j] / two_m
    return q / two_m


def set_partitions(n: int):
    """All partitions of range(n) as assignment lists (restricted growth strings)."""
    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield list(prefix)
            return
        for c in range(used + 1):
            prefix.append(c)
            yield from rec(prefix, max(used, c + 1))
            prefix.pop()

    yield from rec([], 0)


def best_partition_exhaustive(n: int, weights: dict[tuple[int, int], float], gamma: float):
    """Maximum-modularity partition by exhaustive enumeration (n <= 10 or so)."""
    best_q = -math.inf
    best = None
    for assignment in set_partitions(n):
        q = modularity_direct(n, weights, assignment, gamma)
        if q > best_q + 1e-15:
            best_q = q
            best = assignment
    return best_q, best


def stress_direct(pos, dmat, scale: float) -> float:
    """Stress summed pair by pair with plain floats."""
    n = len(pos)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = dmat[i][j]
            if not math.isfinite(d):
                continue
            dx = pos[i][0] - pos[j][0]
            dy = pos[i][1] - pos[j][1]
            dist = math.sqrt(dx * dx + dy * dy)
            total += (dist - scale * d) ** 2 / (d * d)
    return total


def stress_gradient_fd(pos, dmat, scale: float, h: float = 1e-6):
    """Central finite differences of stress_direct, coordinate by coordinate."""
    n = len(pos)
    grad = [[0.0, 0.0] for _ in range(n)]
    work = [list(p) for p in pos]
    for v in range(n):
        for axis in range(2):
            orig = work[v][axis]
            work[v][axis] = orig + h
            up = stress_direct(work, dmat, scale)
            work[v][axis] = orig - h
            down = stress_direct(work, dmat, scale)
            work[v][axis] = orig
            grad[v][axis] = (up - down) / (2 * h)
    return grad


def local_moving(b: np.ndarray, gamma: float, max_sweeps: int) -> tuple[np.ndarray, int]:
    """One level of Louvain local moving, each vertex's links into every
    community summed by ``np.bincount`` over its whole row (communities and
    sweep count). Moves need a gain above staying by a rounding margin; ties
    go to the lowest community id; at most ``max_sweeps`` sweeps."""
    n = b.shape[0]
    k = b.sum(axis=1)
    two_m = float(k.sum())
    comm = np.arange(n)
    if two_m == 0.0:
        return comm, 0
    m = two_m / 2.0
    moved = True
    sweeps = 0
    while moved and sweeps < max_sweeps:
        moved = False
        sweeps += 1
        sigma = np.bincount(comm, weights=k, minlength=n)
        for v in range(n):
            cur = int(comm[v])
            kv = float(k[v])
            sigma[cur] -= kv
            row = b[v]
            link = np.bincount(comm, weights=row, minlength=n)
            link[cur] -= row[v]
            stay = link[cur] / m - gamma * sigma[cur] * kv / (2.0 * m * m)
            best_c = cur
            best_gain = stay + 1e-12 * (1.0 + gamma) * kv / m
            for c in np.nonzero(link > 0)[0]:
                c = int(c)
                if c == cur:
                    continue
                gain = link[c] / m - gamma * sigma[c] * kv / (2.0 * m * m)
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            comm[v] = best_c
            sigma[best_c] += kv
            if best_c != cur:
                moved = True
    return comm, sweeps


# --- the tuple-era network and records writer ---------------------------------


class TupleNetwork(NamedTuple):
    """A network as the package held one before its edge array: labels,
    occurrence weights and a tuple of ``(i, j, count)`` edges."""

    labels: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]


def edge_error(n: int, edges) -> str | None:
    """The message for the first bad edge of an n-vertex network, checked one
    edge at a time, endpoints before count; None when every edge is good."""
    for i, j, c in edges:
        if not (0 <= i < j < n):
            return f"bad edge endpoints ({i}, {j}) for {n} vertices"
        if c <= 0:
            return f"edge ({i}, {j}) has non-positive weight {c}"
    return None


def _canonical_order(totals: dict[str, int]) -> list[str]:
    return sorted(totals, key=lambda t: (-totals[t], t))


def _from_codes(labels, totals, codes, counts) -> TupleNetwork:
    codes, at = np.unique(np.concatenate([np.zeros(0, np.int64), *codes]), return_inverse=True)
    summed = np.zeros(codes.size, np.int64)
    np.add.at(summed, at, np.concatenate([np.zeros(0, np.int64), *counts]))
    i, j = np.divmod(codes, len(labels))
    edges = tuple(zip(i.tolist(), j.tolist(), summed.tolist()))
    return TupleNetwork(tuple(labels), tuple(totals[t] for t in labels), edges)


def build_network(per_record: dict[str, frozenset[str]], totals: dict[str, int]) -> TupleNetwork:
    """Pair counts of per-record descriptor sets over the descriptors with a
    positive total, each k-descriptor block of records counted by np.unique."""
    totals = {d: c for d, c in totals.items() if c > 0}
    labels = _canonical_order(totals)
    index = {t: i for i, t in enumerate(labels)}
    sets = per_record.values()
    owner = np.repeat(np.arange(len(sets)), np.fromiter(map(len, sets), np.int64, len(sets)))
    ids = np.fromiter(map(index.get, chain.from_iterable(sets), repeat(-1)), np.int32, owner.size)
    owner, ids = owner[ids >= 0], ids[ids >= 0]
    per_set = np.bincount(owner, minlength=len(sets))
    size = per_set[owner]
    codes, counts = [], []
    for k in sorted(set(per_set.tolist()) - {0, 1}):
        block = np.sort(ids[size == k].reshape(-1, k), axis=1)
        first, second = np.triu_indices(k, 1)
        group = np.unique(block[:, first].astype(np.int64) * len(labels) + block[:, second], return_counts=True)
        codes.append(group[0])
        counts.append(group[1])
    return _from_codes(labels, totals, codes, counts)


def sum_networks(nets) -> TupleNetwork:
    """Weights summed by label, edge counts summed by label pair."""
    nets = list(nets)
    totals: Counter[str] = Counter()
    for net in nets:
        totals.update(dict(zip(net.labels, net.weights)))
    labels = _canonical_order(totals)
    index = {t: i for i, t in enumerate(labels)}
    codes, counts = [], []
    for net in nets:
        new_id = np.fromiter(map(index.__getitem__, net.labels), np.int64, len(net.labels))
        i, j, c = np.fromiter(chain.from_iterable(net.edges), np.int64, 3 * len(net.edges)).reshape(-1, 3).T
        codes.append(np.minimum(new_id[i], new_id[j]) * len(labels) + np.maximum(new_id[i], new_id[j]))
        counts.append(c)
    return _from_codes(labels, totals, codes, counts)


def threshold_filter(net: TupleNetwork, min_occ: int) -> TupleNetwork:
    """The vertices of weight >= min_occ, renumbered in order, and the edges between them."""
    keep = [i for i, w in enumerate(net.weights) if w >= min_occ]
    remap = {old: new for new, old in enumerate(keep)}
    edges = tuple((remap[i], remap[j], c) for i, j, c in net.edges if i in remap and j in remap)
    return TupleNetwork(tuple(net.labels[i] for i in keep), tuple(net.weights[i] for i in keep), edges)


def write_records(records, path) -> None:
    """Records (7-tuples, keywords last) as the csv module writes them: header,
    then one row each with the keywords joined by "; "."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "source", "year", "title", "class_a", "class_b", "keywords"])
        writer.writerows((*r[:6], "; ".join(r[6])) for r in records)


def csv_bytes(header, rows) -> bytes:
    """A header and rows as the csv module writes them, LF line ends, in UTF-8."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")
