"""Independent brute-force oracles used by the test suite.

Everything in this module is deliberately written from scratch against the
raw fixture files and primitive data structures. None of it imports the
package under test, so agreement between the two is meaningful.
"""

from __future__ import annotations

import csv
import math
import unicodedata
from collections import Counter
from itertools import combinations

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
