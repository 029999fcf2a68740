"""Thematic cluster detection by greedy modularity maximization.

Two-phase agglomeration (local moving + aggregation) on the
similarity-weighted graph by default, or on raw co-occurrence weights.
Everything is deterministic: vertices are visited in canonical order and
ties go to the lowest cluster id. The whole map is clustered in one run
against the one modularity that is reported, as VOSviewer clusters a map.
No cluster can span disconnected themes: a vertex only joins a neighbour's
community, and an aggregated level carries no weight between components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import CoNetwork, association_strength, raw_weight_matrix


@dataclass(frozen=True)
class ClusterPartition:
    """Total assignment of vertex index -> cluster id (1-based, dense).

    ``sweeps`` counts the local-moving sweeps of the one whole-map run that
    found it, over every level; ``settled`` is false when some level used all
    ``MAX_SWEEPS`` sweeps, the cap that stops a level still moving.
    """

    assignment: tuple[int, ...]
    modularity: float
    sweeps: int = 0
    settled: bool = True

    def __post_init__(self):
        ids = set(self.assignment)
        if self.assignment and ids != set(range(1, len(ids) + 1)):
            raise ValueError(f"cluster ids must be dense 1..k, got {sorted(ids)}")

    @property
    def n_clusters(self) -> int:
        return len(set(self.assignment))

    def members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.assignment):
            out.setdefault(c, []).append(v)
        return out


@dataclass(frozen=True)
class ClusterSummary:
    cluster_id: int
    size: int
    members: tuple[tuple[str, int], ...]  # (descriptor, occurrence weight), ranked


def _weight_matrix(net: CoNetwork, use_similarity: bool) -> np.ndarray:
    return association_strength(net) if use_similarity else raw_weight_matrix(net)


def modularity(
    net: CoNetwork,
    partition: ClusterPartition,
    resolution: float = 1.0,
    use_similarity: bool = False,
) -> float:
    """Weighted modularity Q = sum_c [S_in/(2m) - gamma (S_tot/(2m))^2].

    m is the total edge weight of the chosen weighting; an edgeless network
    has Q = 0 by definition.
    """
    if len(partition.assignment) != net.n_vertices:
        raise ValueError("partition does not cover the network")
    w = _weight_matrix(net, use_similarity)
    two_m = float(w.sum())
    if two_m == 0.0:
        return 0.0
    k = w.sum(axis=1)
    q = 0.0
    for indices in partition.members().values():
        idx = np.asarray(indices)
        s_in = float(w[np.ix_(idx, idx)].sum())
        s_tot = float(k[idx].sum())
        q += s_in / two_m - resolution * (s_tot / two_m) ** 2
    return q


MAX_SWEEPS = 100  # a backstop; real networks settle within ten sweeps


def _local_moving(b: np.ndarray, gamma: float) -> tuple[np.ndarray, int]:
    """One level of local moving; returns the community id per node and the
    number of sweeps made.

    Node v moves to the neighbouring community with the best gain when that
    beats staying by more than the rounding error of a gain (whose terms are
    at most ``k_v/m`` and ``gamma k_v/m``), so every move raises modularity and
    a symmetric tie cannot send v back and forth; ties between communities
    pick the lowest id. Sweeps repeat until a full pass makes no move, at
    most ``MAX_SWEEPS`` times; each starts from community totals summed anew.
    """
    n = b.shape[0]
    k = b.sum(axis=1)
    two_m = float(k.sum())
    if two_m == 0.0:
        return np.arange(n), 0
    m = two_m / 2.0
    links = [list(zip(np.flatnonzero(r).tolist(), r[r != 0].tolist())) for r in b]  # (u, b[v, u]), u ascending
    loops, degree = np.diag(b).tolist(), k.tolist()
    comm = list(range(n))
    moved = True
    sweeps = 0
    while moved and sweeps < MAX_SWEEPS:
        moved = False
        sweeps += 1
        sigma = np.bincount(comm, weights=k, minlength=n).tolist()  # total degree per community id
        for v in range(n):
            cur = comm[v]
            kv = degree[v]
            sigma[cur] -= kv
            link: dict[int, float] = {}
            for u, w in links[v]:
                c = comm[u]
                link[c] = link.get(c, 0.0) + w
            # exclude the self-loop from "links into cur"
            stay = (link.pop(cur, 0.0) - loops[v]) / m - gamma * sigma[cur] * kv / (2.0 * m * m)
            best_c = cur
            best_gain = stay + 1e-12 * (1.0 + gamma) * kv / m
            for c in sorted(link):  # ascending, so a tie keeps the lowest id
                gain = link[c] / m - gamma * sigma[c] * kv / (2.0 * m * m)
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            comm[v] = best_c
            sigma[best_c] += kv
            if best_c != cur:
                moved = True
    return np.array(comm), sweeps


def detect_clusters(
    net: CoNetwork,
    resolution: float = 1.0,
    use_similarity: bool = True,
) -> ClusterPartition:
    """Greedy modularity clusters of the whole map: local moving, then each
    community merged into one node, level by level until a level merges none.

    The optimizer raises the modularity it reports, with the same weighting
    and resolution, over the whole map; the value is never below the
    all-singletons one, where it starts. No cluster spans two components: a
    vertex only joins a neighbour's community, and a merged level carries no
    weight between components. Each level's weights are summed in a fixed
    order, with no BLAS product.
    """
    if net.n_vertices == 0:
        raise ValueError("cannot cluster an empty network")
    if not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    level = _weight_matrix(net, use_similarity)
    assignment = np.arange(net.n_vertices)
    sweeps = []
    while True:
        comm, level_sweeps = _local_moving(level, resolution)
        sweeps.append(level_sweeps)
        ids, comm = np.unique(comm, return_inverse=True)
        k = len(ids)
        if k == len(level):
            break
        assignment = comm[assignment]
        level = np.bincount((comm[:, None] * k + comm).ravel(), weights=level.ravel(), minlength=k * k).reshape(k, k)
    # renumber to 1..k by first appearance in canonical vertex order
    _, first, inverse = np.unique(assignment, return_index=True, return_inverse=True)
    assignment = tuple((np.argsort(np.argsort(first)) + 1)[inverse].tolist())
    q = modularity(net, ClusterPartition(assignment, 0.0), resolution, use_similarity)
    return ClusterPartition(assignment, q, sum(sweeps), max(sweeps) < MAX_SWEEPS)


def cluster_summary(
    partition: ClusterPartition,
    freq: list[tuple[str, int]],
) -> list[ClusterSummary]:
    """Per-cluster size and members ranked by occurrence weight.

    ``freq`` pairs up (descriptor, occurrence count) positionally with the
    partition's vertex indices; a network's vertex list already has that
    shape.
    """
    if len(freq) != len(partition.assignment):
        raise ValueError("freq does not align with the partition")
    out = []
    for cid, indices in sorted(partition.members().items()):
        ranked = sorted((freq[v] for v in indices), key=lambda kv: (-kv[1], kv[0]))
        out.append(ClusterSummary(cid, len(indices), tuple(ranked)))
    return out


def format_legend(
    summaries: list[ClusterSummary],
    labels: dict[int, str] | None = None,
) -> list[str]:
    """Legend lines like "Cluster 1 (11 items)"; labels are user-supplied."""
    labels = labels or {}
    return [
        f"{labels.get(s.cluster_id, f'Cluster {s.cluster_id}')} ({s.size} items)"
        for s in summaries
    ]
