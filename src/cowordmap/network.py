"""Thresholded, weighted keyword co-occurrence networks and their metrics.

A vertex is a descriptor with its occurrence weight (number of records whose
descriptor set contains it). An undirected edge (i, j, c) counts the records
containing both endpoints, so c never exceeds either endpoint weight. Vertex
order is canonical: weight descending, ties by label.

A network holds its edges once, as an (E, 3) int64 array of ``i, j, count``
rows (``CoNetwork.edge_array``), and every operation here works on that
array; the tuple of triples ``CoNetwork.edges`` is made only when asked for.
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
from functools import cached_property

import numpy as np

from . import _kernels
from .vocabulary import OccurrenceIndex


@dataclass(frozen=True, eq=False)
class CoNetwork:
    """Vertices with occurrence weights plus integer-weighted edges (i < j).

    The edges are held once, in ``edge_array``: a read-only (E, 3) int64
    array of ``i, j, count`` rows, checked when the network is made.
    ``edges`` gives the same rows as a tuple of ``(i, j, count)`` triples,
    built on first use. ``CoNetwork(labels, weights, edges)`` takes the edges
    in either form and keeps a copy. Networks are equal when their labels,
    weights and edge rows are.

    ``weights`` is None for networks read back from Pajek files, where
    occurrence counts are not serialized; operations that need them say so.
    """

    labels: tuple[str, ...]
    weights: tuple[int, ...] | None
    edge_array: np.ndarray

    def __init__(self, labels: tuple[str, ...], weights: tuple[int, ...] | None, edges):
        n = len(labels)
        if weights is not None and len(weights) != n:
            raise ValueError("weights length does not match labels")
        rows = np.array(edges)  # a copy, which no caller can change
        if rows.size == 0:
            rows = np.zeros((0, 3), np.int64)
        elif rows.ndim != 2 or rows.shape[1] != 3 or rows.dtype.kind not in "iu":
            raise ValueError("edges must be integer (i, j, count) rows")
        rows = rows.astype(np.int64, copy=False)
        i, j, c = rows.T
        bad = (i < 0) | (i >= j) | (j >= n) | (c <= 0)
        if bad.any():
            i, j, c = rows[bad.argmax()].tolist()  # the first bad row
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge endpoints ({i}, {j}) for {n} vertices")
            raise ValueError(f"edge ({i}, {j}) has non-positive weight {c}")
        rows.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edge_array", rows)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoNetwork):
            return NotImplemented
        return (self.labels == other.labels and self.weights == other.weights
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self) -> int:
        return hash((self.labels, self.weights, self.edge_array.tobytes()))

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edge_array)

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


def _from_codes(labels: list[str], weights: tuple[int, ...], codes: list[np.ndarray],
                counts: list[np.ndarray]) -> CoNetwork:
    """The network on ``labels`` whose edge of pair code ``i * n + j`` sums that code's ``counts``."""
    codes, at = np.unique(np.concatenate([np.zeros(0, np.int64), *codes]), return_inverse=True)
    summed = np.zeros(codes.size, np.int64)
    np.add.at(summed, at, np.concatenate([np.zeros(0, np.int64), *counts]))
    i, j = np.divmod(codes, len(labels))
    return CoNetwork(tuple(labels), weights, np.column_stack((i, j, summed)))


def build_network(idx: OccurrenceIndex) -> CoNetwork:
    """Count document-level co-occurrences over the rows of a descriptor table.

    Each row contributes 1 to every pair of its descriptors. The vertices are the
    descriptors some row holds, weighted by their number of rows, and ranked into
    canonical order by one stable sort of the vocabulary; an array lookup then
    renumbers every id. The m rows holding k descriptors form an (m, k) block,
    whose pair codes are counted by ``np.unique`` and freed before the next k.
    """
    weight = idx.occurrences
    present = np.flatnonzero(weight)  # in code-point order, so ties stay by label
    order = present[np.argsort(-weight[present], kind="stable")]
    rank = np.zeros(weight.size, np.int32)
    rank[order] = np.arange(order.size)
    labels, vertex = list(map(idx.vocabulary.__getitem__, order.tolist())), rank[idx.ids]
    starts, sizes = idx.indptr[:-1], np.diff(idx.indptr)
    codes, counts = [], []
    for k in np.flatnonzero(np.bincount(sizes, minlength=2)[2:]) + 2:
        block = np.sort(vertex[starts[sizes == k, None] + np.arange(k)], axis=1)
        first, second = np.triu_indices(k, 1)
        group = np.unique(block[:, first].astype(np.int64) * len(labels) + block[:, second], return_counts=True)
        codes.append(group[0])
        counts.append(group[1])
    return _from_codes(labels, tuple(weight[order].tolist()), codes, counts)


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
        i, j = new_id[net.edge_array[:, 0]], new_id[net.edge_array[:, 1]]
        codes.append(np.minimum(i, j) * len(labels) + np.maximum(i, j))
        counts.append(net.edge_array[:, 2])
    return _from_codes(labels, tuple(totals[t] for t in labels), codes, counts)


def _induced(net: CoNetwork, keep: Sequence[int]) -> CoNetwork:
    """The subnetwork on the ascending vertex indices ``keep``, renumbered in that order."""
    new_id = np.full(net.n_vertices, -1, np.int64)
    new_id[np.asarray(keep, np.intp)] = np.arange(len(keep))
    i, j = new_id[net.edge_array[:, 0]], new_id[net.edge_array[:, 1]]
    inside = (i >= 0) & (j >= 0)
    edges = np.column_stack((i[inside], j[inside], net.edge_array[inside, 2]))
    weights = None if net.weights is None else tuple(net.weights[v] for v in keep)
    return CoNetwork(tuple(net.labels[v] for v in keep), weights, edges)


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
    i, j = net.edge_array[:, 0], net.edge_array[:, 1]
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
    i, j, c = net.edge_array.T
    s = edge_matrix(net, c / (weights[i] * weights[j]))
    s.flags.writeable = False
    return s


def raw_weight_matrix(net: CoNetwork) -> np.ndarray:
    w = edge_matrix(net, net.edge_array[:, 2])
    w.flags.writeable = False
    return w


def hop_distance_matrix(net: CoNetwork) -> np.ndarray:
    """Unweighted shortest-path hop counts; np.inf across components."""
    return _kernels.floyd_warshall(edge_matrix(net, 1.0, np.inf))


def connected_components(net: CoNetwork) -> tuple[tuple[int, ...], ...]:
    """Vertex index groups, each sorted, ordered by smallest member."""
    n = net.n_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in net.edge_array[:, :2].tolist():
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


def degrees(net: CoNetwork) -> list[int]:
    """Each vertex's number of incident edges."""
    return np.bincount(net.edge_array[:, :2].ravel(), minlength=net.n_vertices).tolist()


def network_metrics(net: CoNetwork) -> NetworkMetrics:
    """Degree centrality, within-component closeness, density, component count.

    Distances are hop counts; closeness of v is (n_c - 1) / sum of hop
    distances inside v's component of size n_c, and 0 for isolated vertices.
    """
    n = net.n_vertices
    if n == 0:
        return NetworkMetrics((), (), 0.0, 0)
    degree = degrees(net)
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
