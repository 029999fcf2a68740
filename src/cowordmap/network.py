"""Thresholded, weighted keyword co-occurrence networks and their metrics.

A vertex is a descriptor with its occurrence weight (number of records whose
descriptor set contains it). An undirected edge (i, j, c) counts the records
containing both endpoints, so c never exceeds either endpoint weight. Vertex
order is canonical: weight descending, ties by label.

A network holds its edges once, as an (E, 3) int64 array of ``i, j, count``
rows (``CoNetwork.edge_array``), and every operation here works on that
array; the tuple of triples ``CoNetwork.edges`` is made only when asked for.
``build_network`` counts the pairs of every window of a run in one pass over
the descriptor table: the pair of vocabulary ids a < b in a row of window w
is the int64 code ``(w * V + a) * V + b``, V the vocabulary size, so sorting
the codes makes each window's pairs one slice, and a record's pairs are
counted once however many networks it belongs to. ``make_network`` and
``build_network`` share one ranking of the vertices into canonical order and
one sum of pair counts (``_network``).
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _network(vocabulary: Sequence[str], weight: np.ndarray, pair: np.ndarray, count: np.ndarray) -> CoNetwork:
    """The network on the descriptors of positive ``weight`` (one entry per descriptor of the
    sorted ``vocabulary``), in canonical order, whose edge {a, b} sums the ``count`` of every
    pair code ``a * V + b`` of vocabulary ids a != b, V = ``len(vocabulary)``. The codes are
    renumbered and summed in place, as a run's full network has many."""
    present = np.flatnonzero(weight)
    order = present[np.argsort(-weight[present], kind="stable")]  # ties stay by label
    rank = np.zeros(weight.size, np.int64)
    rank[order] = np.arange(order.size)
    i, j = np.divmod(pair, max(weight.size, 1))
    np.take(rank, i, out=i)
    np.take(rank, j, out=j)
    swap = i > j
    i[swap], j[swap] = j[swap], i[swap]
    i *= order.size
    i += j
    del j, swap
    count = count[i.argsort()]
    i.sort()  # the codes, in the order of ``count``
    first = np.flatnonzero(np.diff(i, prepend=-1))  # where each edge's codes start
    count = np.add.reduceat(count, first)
    i, j = np.divmod(i[first], max(order.size, 1))
    return CoNetwork(tuple(map(vocabulary.__getitem__, order.tolist())), tuple(weight[order].tolist()),
                     np.column_stack((i, j, count)))


def make_network(vertices: list[tuple[str, int]], edges: list[tuple[str, str, int]]) -> CoNetwork:
    """Build a CoNetwork from labelled data, applying the canonical order; the counts of an
    edge listed more than once add up. Every vertex weight must be positive."""
    totals = dict(vertices)
    vocabulary = sorted(totals)
    weight = np.array([totals[t] for t in vocabulary], np.int64)
    if len(totals) != len(vertices):
        raise ValueError("duplicate vertex labels")
    if (weight < 1).any():
        raise ValueError(f"vertex '{vocabulary[weight.argmin()]}' has non-positive weight {weight.min()}")
    index = dict(zip(vocabulary, range(len(vocabulary))))
    pair = np.array([index[a] * len(index) + index[b] for a, b, _ in edges], np.int64)
    return _network(vocabulary, weight, pair, np.array([c for _, _, c in edges]))


def build_network(idx: OccurrenceIndex, window: Sequence[int] | None = None, windows: int = 0) -> list[CoNetwork]:
    """Count document-level co-occurrences over the rows of a descriptor table, for every
    window at once: the network of the rows of each window k < ``windows``, then the network
    of all rows.

    Row r is in window ``window[r]``, which is ``windows`` for a row outside every window (by
    default, every row). Each row contributes 1 to every pair of its descriptors, and a
    network's vertices are the descriptors its rows hold, weighted by their number of rows.
    The m rows holding k ids form an (m, k) block, whose codes ``(window * V + a) * V + b``
    of pairs a < b ``np.unique`` counts; one sort of every block's codes then orders them by
    window and then by pair, so each window's pairs are one slice.
    """
    size, starts, sizes = len(idx.vocabulary), idx.indptr[:-1], np.diff(idx.indptr)
    window = np.zeros(sizes.size, np.int64) if window is None else np.asarray(window, np.int64)
    weight = np.bincount(np.repeat(window, sizes) * size + idx.ids, minlength=(windows + 1) * size)
    codes, counts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for k in np.flatnonzero(np.bincount(sizes, minlength=2)[2:]) + 2:
        rows = np.flatnonzero(sizes == k)
        block = idx.ids[starts[rows, None] + np.arange(k)]  # ids ascend within a row
        first, second = np.triu_indices(k, 1)
        code, count = np.unique((window[rows, None] * size + block[:, first]) * size + block[:, second],
                                return_counts=True)
        codes.append(code)
        counts.append(count)
    code, count = np.concatenate(codes), np.concatenate(counts)
    del codes, counts
    count = count[code.argsort()]
    code.sort()  # by window, then by pair, in the order of ``count``
    start = np.searchsorted(code, np.arange(windows + 1) * size * size).tolist()
    code %= max(size * size, 1)  # the pair, without its window
    weight = weight.reshape(windows + 1, size)
    full = _network(idx.vocabulary, weight.sum(axis=0), code, count)  # first, while no other network is held
    return [_network(idx.vocabulary, weight[k], code[start[k]:start[k + 1]], count[start[k]:start[k + 1]])
            for k in range(windows)] + [full]


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


def components(dist: np.ndarray) -> list[tuple[int, ...]]:
    """The vertex groups of a shortest-path matrix (``np.inf`` between groups), each
    ascending, ordered by smallest member: a vertex's root is the first it reaches."""
    if not len(dist):
        return []  # argmax has no empty axis
    root = np.isfinite(dist).argmax(axis=1)
    return [tuple(np.flatnonzero(root == r).tolist()) for r in np.flatnonzero(root == np.arange(root.size))]


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
    return NetworkMetrics(centrality, tuple(closeness), density, len(components(hop)))
