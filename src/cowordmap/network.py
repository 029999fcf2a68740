"""Thresholded, weighted keyword co-occurrence networks and their metrics.

A vertex is a descriptor with its occurrence weight (number of records whose
descriptor set contains it). An undirected edge (i, j, c) counts the records
containing both endpoints, so c never exceeds either endpoint weight. Vertex
order is canonical: weight descending, ties by label.

``build_network`` counts pairs in numpy: the pair (i, j), i < j, of an
n-vertex network is the int64 code ``i * n + j``, so ascending codes are the
edges in (i, j) order. The network of disjoint record groups is the sum of
theirs (``sum_networks``, which relabels each part's edges and sums their
codes the same way), so a record's pairs are counted once however many
networks it belongs to.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _kernels
from .vocabulary import OccurrenceIndex


@dataclass(frozen=True)
class CoNetwork:
    """Vertices with occurrence weights plus integer-weighted edges (i < j).

    ``weights`` is None for networks read back from Pajek files, where
    occurrence counts are not serialized; operations that need them say so.
    """

    labels: tuple[str, ...]
    weights: tuple[int, ...] | None
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = len(self.labels)
        if self.weights is not None and len(self.weights) != n:
            raise ValueError("weights length does not match labels")
        for i, j, c in self.edges:
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge endpoints ({i}, {j}) for {n} vertices")
            if c <= 0:
                raise ValueError(f"edge ({i}, {j}) has non-positive weight {c}")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown descriptor '{label}'") from None

    def require_weights(self) -> tuple[int, ...]:
        if self.weights is None:
            raise ValueError("network has no occurrence weights (external source)")
        return self.weights


@dataclass(frozen=True)
class NetworkMetrics:
    degree_centrality: tuple[float, ...]
    closeness: tuple[float, ...]
    density: float
    components: int


def canonical_vertex_order(totals: dict[str, int]) -> list[str]:
    return sorted(totals, key=lambda t: (-totals[t], t))


def make_network(vertices: list[tuple[str, int]], edges: list[tuple[str, str, int]]) -> CoNetwork:
    """Build a CoNetwork from labelled data, applying the canonical order."""
    totals = dict(vertices)
    if len(totals) != len(vertices):
        raise ValueError("duplicate vertex labels")
    labels = canonical_vertex_order(totals)
    index = {t: i for i, t in enumerate(labels)}
    packed = {}
    for a, b, c in edges:
        i, j = index[a], index[b]
        if i == j:
            raise ValueError(f"self-edge on '{a}'")
        key = (i, j) if i < j else (j, i)
        packed[key] = packed.get(key, 0) + c
    edge_list = tuple(sorted((i, j, c) for (i, j), c in packed.items()))
    return CoNetwork(tuple(labels), tuple(totals[t] for t in labels), edge_list)


def _from_codes(labels: list[str], totals: dict[str, int], codes: list[np.ndarray],
                counts: list[np.ndarray]) -> CoNetwork:
    """The network on ``labels`` whose edge of pair code ``i * n + j`` sums that code's ``counts``."""
    codes, at = np.unique(np.concatenate([np.zeros(0, np.int64), *codes]), return_inverse=True)
    summed = np.zeros(codes.size, np.int64)
    np.add.at(summed, at, np.concatenate([np.zeros(0, np.int64), *counts]))
    i, j = np.divmod(codes, len(labels))
    edges = tuple(zip(i.tolist(), j.tolist(), summed.tolist()))
    return CoNetwork(tuple(labels), tuple(totals[t] for t in labels), edges)


def build_network(idx: OccurrenceIndex) -> CoNetwork:
    """Count document-level co-occurrences over per-record descriptor sets.

    Each record contributes 1 to every unordered pair of distinct descriptors
    in its set; order of records does not matter. Descriptors without a
    positive total are not vertices and pair with nothing. All records'
    vertex ids go into one flat int32 array (-1 for a non-vertex, then
    dropped); the m records holding k vertices form an (m, k) block of it,
    whose pair codes are counted by ``np.unique`` and freed before the next k.
    """
    totals = {d: c for d, c in idx.totals.items() if c > 0}
    labels = canonical_vertex_order(totals)
    index = {t: i for i, t in enumerate(labels)}
    sets = idx.per_record.values()
    owner = np.repeat(np.arange(len(sets)), np.fromiter(map(len, sets), np.int64, len(sets)))
    ids = np.fromiter(map(index.get, chain.from_iterable(sets), repeat(-1)), np.int32, owner.size)
    owner, ids = owner[ids >= 0], ids[ids >= 0]
    per_set = np.bincount(owner, minlength=len(sets))
    size = per_set[owner]
    codes, counts = [], []
    # the set sizes by a Python set: a first plain np.unique call costs about 1 MB of peak RSS
    for k in sorted(set(per_set.tolist()) - {0, 1}):
        block = np.sort(ids[size == k].reshape(-1, k), axis=1)
        first, second = np.triu_indices(k, 1)
        group = np.unique(block[:, first].astype(np.int64) * len(labels) + block[:, second], return_counts=True)
        codes.append(group[0])
        counts.append(group[1])
    return _from_codes(labels, totals, codes, counts)


def sum_networks(nets: Iterable[CoNetwork]) -> CoNetwork:
    """The network of the union of disjoint record groups, from the groups'
    networks: weights summed by label, edge counts summed by label pair."""
    nets = list(nets)
    totals: Counter[str] = Counter()
    for net in nets:
        totals.update(dict(zip(net.labels, net.require_weights())))
    labels = canonical_vertex_order(totals)
    index = {t: i for i, t in enumerate(labels)}
    codes, counts = [], []
    for net in nets:
        new_id = np.fromiter(map(index.__getitem__, net.labels), np.int64, net.n_vertices)
        i, j, c = np.fromiter(chain.from_iterable(net.edges), np.int64, 3 * net.n_edges).reshape(-1, 3).T
        codes.append(np.minimum(new_id[i], new_id[j]) * len(labels) + np.maximum(new_id[i], new_id[j]))
        counts.append(c)
    return _from_codes(labels, totals, codes, counts)


def _induced(net: CoNetwork, keep: Sequence[int]) -> CoNetwork:
    """The subnetwork on the ascending vertex indices ``keep``, renumbered in that order."""
    remap = {old: new for new, old in enumerate(keep)}
    weights = None if net.weights is None else tuple(net.weights[i] for i in keep)
    edges = tuple((remap[i], remap[j], c) for i, j, c in net.edges if i in remap and j in remap)
    return CoNetwork(tuple(net.labels[i] for i in keep), weights, edges)


def threshold_filter(net: CoNetwork, min_occ: int) -> CoNetwork:
    """Keep vertices with weight >= min_occ and the edges between survivors."""
    if min_occ < 1:
        raise ValueError(f"min_occ must be >= 1, got {min_occ}")
    return _induced(net, [i for i, w in enumerate(net.require_weights()) if w >= min_occ])


def edge_query(net: CoNetwork, descriptor: str) -> list[tuple[str, str, int]]:
    """All edges incident to ``descriptor``: queried keyword first, partners
    ascending, one row per edge."""
    v = net.index_of(descriptor)
    rows = []
    for i, j, c in net.edges:
        if i == v:
            rows.append((net.labels[j], c))
        elif j == v:
            rows.append((net.labels[i], c))
    rows.sort()
    return [(descriptor, partner, c) for partner, c in rows]


def edge_matrix(net: CoNetwork, values: float | Sequence[float], fill: float = 0.0) -> np.ndarray:
    """Symmetric n x n matrix: ``values`` (one per edge, or one for all) at
    both ends of each edge, 0 on the diagonal and ``fill`` elsewhere."""
    m = np.full((net.n_vertices, net.n_vertices), fill)
    np.fill_diagonal(m, 0.0)
    if net.edges:
        i, j, _ = zip(*net.edges)
        m[i, j] = m[j, i] = values
    return m


def association_strength(net: CoNetwork) -> np.ndarray:
    """Similarity matrix s_ij = c_ij / (w_i * w_j); zero diagonal, symmetric.

    The global scaling constant is irrelevant to every consumer here
    (clustering, ranking), so none is applied.
    """
    weights = np.asarray(net.require_weights(), dtype=np.float64)
    if (weights <= 0).any():
        raise ValueError("association strength needs positive occurrence weights")
    s = edge_matrix(net, [c / (weights[i] * weights[j]) for i, j, c in net.edges])
    s.flags.writeable = False
    return s


def raw_weight_matrix(net: CoNetwork) -> np.ndarray:
    w = edge_matrix(net, [c for _, _, c in net.edges])
    w.flags.writeable = False
    return w


def hop_distance_matrix(net: CoNetwork) -> np.ndarray:
    """Unweighted shortest-path hop counts; np.inf across components."""
    return _kernels.floyd_warshall(edge_matrix(net, 1.0, np.inf))


def connected_components(net: CoNetwork) -> tuple[tuple[int, ...], ...]:
    """Vertex index groups, each sorted, ordered by smallest member."""
    n = net.n_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in net.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def component_subnetworks(net: CoNetwork) -> list[tuple[tuple[int, ...], CoNetwork]]:
    """(original indices, subnetwork) per component, preserving vertex order."""
    return [(comp, _induced(net, comp)) for comp in connected_components(net)]


def network_metrics(net: CoNetwork) -> NetworkMetrics:
    """Degree centrality, within-component closeness, density, component count.

    Distances are hop counts; closeness of v is (n_c - 1) / sum of hop
    distances inside v's component of size n_c, and 0 for isolated vertices.
    """
    n = net.n_vertices
    if n == 0:
        return NetworkMetrics((), (), 0.0, 0)
    degree = [0] * n
    for i, j, _ in net.edges:
        degree[i] += 1
        degree[j] += 1
    if n > 1:
        centrality = tuple(deg / (n - 1) for deg in degree)
        density = 2 * net.n_edges / (n * (n - 1))
    else:
        centrality = (0.0,)
        density = 0.0
    hop = hop_distance_matrix(net)
    closeness = []
    for v in range(n):
        finite = np.isfinite(hop[v])
        size = int(finite.sum())
        total = float(hop[v][finite].sum())
        closeness.append((size - 1) / total if total > 0 else 0.0)
    return NetworkMetrics(centrality, tuple(closeness), density, len(connected_components(net)))
