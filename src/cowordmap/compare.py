"""Side-by-side comparison of two co-occurrence networks.

Used for the period and source contrasts: which descriptors appeared,
vanished or persisted, how connected each persisted descriptor became, and
how the global map-reading metrics (density, centrality, closeness) moved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import CoNetwork, degrees, network_metrics


@dataclass(frozen=True)
class NetworkSummary:
    label: str
    vertices: int
    edges: int
    density: float
    mean_degree_centrality: float
    mean_closeness: float
    components: int


@dataclass(frozen=True)
class CompareReport:
    side_a: NetworkSummary
    side_b: NetworkSummary
    appeared: tuple[str, ...]  # descriptors only in b
    vanished: tuple[str, ...]  # descriptors only in a
    persisted: tuple[str, ...]
    links_a: dict[str, int]  # incident-edge counts per descriptor, side a
    links_b: dict[str, int]

    def link_delta(self, descriptor: str) -> int:
        return self.links_b.get(descriptor, 0) - self.links_a.get(descriptor, 0)


def _summary(net: CoNetwork, label: str) -> NetworkSummary:
    m = network_metrics(net)
    n = net.n_vertices
    return NetworkSummary(
        label=label,
        vertices=n,
        edges=net.n_edges,
        density=m.density,
        mean_degree_centrality=sum(m.degree_centrality) / n if n else 0.0,
        mean_closeness=sum(m.closeness) / n if n else 0.0,
        components=m.components,
    )


def _link_counts(net: CoNetwork) -> dict[str, int]:
    return dict(zip(net.labels, degrees(net)))


def compare_networks(a: CoNetwork, b: CoNetwork, labels: tuple[str, str] = ("a", "b")) -> CompareReport:
    """Diff descriptor sets and structural metrics of two networks.

    Swapping the sides swaps appeared/vanished and negates every link delta.
    """
    set_a = set(a.labels)
    set_b = set(b.labels)
    return CompareReport(
        side_a=_summary(a, labels[0]),
        side_b=_summary(b, labels[1]),
        appeared=tuple(sorted(set_b - set_a)),
        vanished=tuple(sorted(set_a - set_b)),
        persisted=tuple(sorted(set_a & set_b)),
        links_a=_link_counts(a),
        links_b=_link_counts(b),
    )
