"""Label-view SVG maps: sized, colored, labelled descriptor nodes.

Circle radius and font size scale with the square root of the occurrence
weight between the fixed bounds ``RADIUS`` and ``FONT``; fill color comes
from a fixed qualitative palette indexed by cluster id; edge width grows
with log(1 + weight). The output is plain SVG 1.1 text, built
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from pathlib import Path

from .clusters import ClusterPartition
from .errors import write_text
from .layout import LayoutMap, normalize_unit_square
from .network import CoNetwork

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
    "#86bcb6",
    "#d37295",
)


MARGIN = 60.0  # px between the viewport edge and the unit square's image
RADIUS = (3.0, 20.0)  # circle radius bounds, px
FONT = (8.0, 18.0)  # label font size bounds, px
EDGE_WIDTH_SCALE = 1.5  # stroke width per unit of log(1 + weight)


@dataclass(frozen=True)
class SvgOptions:
    size: int = 800
    edge_weight_floor: int = 1

    def __post_init__(self):
        if self.size <= 2 * MARGIN:
            raise ValueError(f"size must exceed {2 * MARGIN:g} px (twice the margin), got {self.size}")
        if self.edge_weight_floor < 1:
            raise ValueError(f"edge_weight_floor must be >= 1, got {self.edge_weight_floor}")


def _scaled(value: float, vmax: float, lo: float, hi: float) -> float:
    # proportional to sqrt(value), anchored so the heaviest node gets `hi`
    if vmax <= 0:
        return lo
    return max(lo, hi * math.sqrt(value) / math.sqrt(vmax))


def render_label_map_svg(
    net: CoNetwork,
    layout: LayoutMap,
    partition: ClusterPartition,
    freq,
    opts: SvgOptions = SvgOptions(),
) -> str:
    """Build the SVG document as a string; see write_label_map_svg."""
    n = net.n_vertices
    if layout.coords.shape[0] != n:
        raise ValueError("layout does not cover all vertices")
    if len(partition.assignment) != n:
        raise ValueError("partition does not cover all vertices")
    counts = dict(freq)
    weights = net.weights
    sizes = []
    for i, label in enumerate(net.labels):
        if label in counts:
            sizes.append(counts[label])
        elif weights is not None:
            sizes.append(weights[i])
        else:
            sizes.append(1)
    vmax = max(sizes) if sizes else 1

    coords = layout.coords if layout.normalized else normalize_unit_square(layout.coords)
    span = opts.size - 2 * MARGIN
    px = [(MARGIN + x * span, MARGIN + y * span) for x, y in coords.tolist()]
    xs, ys = [f"{x:.2f}" for x, _ in px], [f"{y:.2f}" for _, y in px]  # once per vertex, not per edge end

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.size}" height="{opts.size}" viewBox="0 0 {opts.size} {opts.size}">',
    ]
    for i, j, c in net.edge_array.tolist():
        if c < opts.edge_weight_floor:
            continue
        width = EDGE_WIDTH_SCALE * math.log1p(c)
        out.append(
            f'<line x1="{xs[i]}" y1="{ys[i]}" x2="{xs[j]}" y2="{ys[j]}" '
            f'stroke="#999999" stroke-opacity="0.6" stroke-width="{width:.2f}"/>'
        )
    radii = [_scaled(s, vmax, *RADIUS) for s in sizes]
    for i in range(n):
        color = PALETTE[(partition.assignment[i] - 1) % len(PALETTE)]
        out.append(
            f'<circle cx="{xs[i]}" cy="{ys[i]}" r="{radii[i]:.2f}" '
            f'fill="{color}" fill-opacity="0.85" stroke="#333333" stroke-width="0.5"/>'
        )
    for i in range(n):
        font = _scaled(sizes[i], vmax, *FONT)
        out.append(
            f'<text x="{xs[i]}" y="{px[i][1] - radii[i] - 2.0:.2f}" '
            f'font-family="sans-serif" font-size="{font:.1f}" '
            f'text-anchor="middle">{escape(net.labels[i], quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_label_map_svg(
    net: CoNetwork,
    layout: LayoutMap,
    partition: ClusterPartition,
    freq,
    path: str | Path,
    opts: SvgOptions = SvgOptions(),
) -> None:
    """Write the label-view map: one circle and one text per vertex, one line
    per edge at or above the weight floor.

    ``freq`` maps descriptor -> occurrence count (any mapping or pair
    sequence); vertices missing from it fall back to the network's own
    weights.
    """
    write_text(path, render_label_map_svg(net, layout, partition, freq, opts))
