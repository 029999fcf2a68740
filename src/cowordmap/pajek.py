"""Pajek .net / .clu serialization (undirected weighted edge subset).

The dialect is deliberately narrow: ``*Vertices n`` with 1-based ids and
quoted labels (optionally followed by x y in six decimals), then ``*Edges``
with ``i j w`` lines sorted ascending, w a count (``errors.positive_count``).
Ids are ASCII decimal digits (``errors.ascii_int``), and coordinates ASCII
decimal numbers with an optional sign and exponent. UTF-8, LF newlines,
byte-stable for a given network.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .clusters import ClusterPartition
from .errors import InputError, artifact_reader, ascii_int, positive_count, write_text
from .layout import LayoutMap
from .network import CoNetwork


# '"' ends a Pajek label, and map.svg cannot hold what XML 1.0 (§2.2) excludes
LABEL_FORBIDS = "'\"', a control character other than tab (a line break among them), U+FFFE or U+FFFF"
_FORBIDDEN = re.compile(r'["\x00-\x08\x0a-\x1f\ufffe\uffff]')
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)  # float() also takes nan, inf, "_", "١"


def representable(label: str) -> bool:
    """Whether a label fits the dialect and the SVG map: it holds none of ``LABEL_FORBIDS``."""
    return _FORBIDDEN.search(label) is None


def _quote(label: str) -> str:
    if not representable(label):
        raise ValueError(f"label not representable in Pajek dialect: {label!r}")
    return f'"{label}"'


def format_pajek_net(net: CoNetwork, layout: LayoutMap | None = None) -> str:
    """Render the network as Pajek text; coordinates only when a layout is given."""
    if layout is not None and layout.coords.shape[0] != net.n_vertices:
        raise ValueError("layout does not cover all vertices")
    coords = [""] * net.n_vertices if layout is None else [f" {xy}" for xy in _xy(layout)]
    lines = [f"*Vertices {net.n_vertices}"]
    lines.extend(f"{i + 1} {_quote(label)}{xy}" for i, (label, xy) in enumerate(zip(net.labels, coords)))
    lines.append("*Edges")
    for i, j, c in sorted(net.edge_array.tolist()):
        lines.append(f"{i + 1} {j + 1} {c}")
    return "\n".join(lines) + "\n"


def _xy(layout: LayoutMap) -> list[str]:
    """Each vertex's "x y" as a .net file holds it: six decimals."""
    return [f"{x:.6f} {y:.6f}" for x, y in layout.coords.tolist()]


def _read_layout(coords: list[tuple[float, float]]) -> LayoutMap:
    return LayoutMap(coords, final_stress=None, normalized=all(0.0 <= v <= 1.0 for xy in coords for v in xy))


def stored_layout(layout: LayoutMap) -> LayoutMap:
    """The layout as ``read_pajek_net`` reads back what ``write_pajek_net`` wrote."""
    return _read_layout([tuple(map(float, xy.split())) for xy in _xy(layout)])


def write_pajek_net(net: CoNetwork, layout: LayoutMap | None, path: str | Path) -> None:
    write_text(path, format_pajek_net(net, layout))


def _parse_vertex_line(line: str, lineno: int, path: Path) -> tuple[int, str, tuple[float, float] | None]:
    text = line.strip()
    head, sep, rest = text.partition(" ")
    try:
        vid = ascii_int(head)
    except ValueError:
        raise InputError(f"{path}:{lineno}: vertex line must start with an integer id")
    rest = rest.strip()
    if not rest.startswith('"'):
        raise InputError(f"{path}:{lineno}: vertex label must be quoted")
    end = rest.find('"', 1)
    if end < 0:
        raise InputError(f"{path}:{lineno}: unterminated vertex label")
    label = rest[1:end]
    tail = rest[end + 1 :].split()
    if not tail:
        return vid, label, None
    if len(tail) != 2:
        raise InputError(f"{path}:{lineno}: expected 'x y' after label, got {tail!r}")
    x, y = (float(v) if _DECIMAL.fullmatch(v) else math.nan for v in tail)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputError(f"{path}:{lineno}: bad coordinates {tail!r}")
    return vid, label, (x, y)


def _vertex_count(lines: list[tuple[int, str]], path: Path) -> int:
    """The n of the ``*Vertices n`` header, which must be the first of a file's
    non-blank ``(line number, line)`` pairs: 0 or more, in at most 19 ASCII digits
    (``int`` refuses a few thousand)."""
    if not lines:
        raise InputError(f"{path}: empty file")
    no, first = lines[0]
    match = re.fullmatch(r"\*vertices\s+(\d{1,19})", first.strip(), re.IGNORECASE | re.ASCII)
    if match is None:
        raise InputError(f"{path}:{no}: expected '*Vertices n', n a vertex count, got {first.strip()!r}")
    return int(match.group(1))


def read_pajek_net(path: str | Path) -> tuple[CoNetwork, LayoutMap | None]:
    """Parse a file in the dialect above.

    Occurrence weights are not part of the format, so the returned network
    has ``weights=None``; coordinates come back as a LayoutMap when every
    vertex carries them.
    """
    path = Path(path)
    with artifact_reader(path) as fh:
        raw_lines = fh.read().splitlines()

    lines = [(no, line) for no, line in enumerate(raw_lines, start=1) if line.strip()]
    n = _vertex_count(lines, path)
    pos = 1

    labels: list[str] = []
    coords: list[tuple[float, float] | None] = []
    for expected in range(1, n + 1):
        if pos >= len(lines):
            raise InputError(f"{path}: expected {n} vertex lines, found {expected - 1}")
        no, line = lines[pos]
        vid, label, xy = _parse_vertex_line(line, no, path)
        if vid != expected:
            raise InputError(f"{path}:{no}: vertex ids must run 1..{n}; got {vid}, expected {expected}")
        labels.append(label)
        coords.append(xy)
        pos += 1

    if pos >= len(lines) or lines[pos][1].strip().lower() != "*edges":
        where = lines[pos][0] if pos < len(lines) else "eof"
        raise InputError(f"{path}:{where}: expected '*Edges'")
    pos += 1

    edges: dict[tuple[int, int], int] = {}
    for no, line in lines[pos:]:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{no}: expected 'i j w', got {line.strip()!r}")
        try:
            i, j = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise InputError(f"{path}:{no}: edge endpoints must be integers: {line.strip()!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InputError(f"{path}:{no}: edge endpoint out of range 1..{n}")
        if i == j:
            raise InputError(f"{path}:{no}: self-edge on vertex {i}")
        try:
            w = positive_count(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}:{no}: edge weight: {exc}") from None
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in edges:
            raise InputError(f"{path}:{no}: duplicate edge {i} {j}")
        edges[key] = w

    net = CoNetwork(tuple(labels), None, tuple(sorted((i, j, w) for (i, j), w in edges.items())))
    layout = None
    if n > 0 and all(c is not None for c in coords):
        if not all(math.isfinite(max(v) - min(v)) for v in zip(*coords)):  # map.svg scales by the spread
            raise InputError(f"{path}: the coordinates spread wider than a float can hold")
        layout = _read_layout(coords)
    elif any(c is not None for c in coords):
        raise InputError(f"{path}: coordinates must be on all vertices or none")
    return net, layout


def format_pajek_clu(partition: ClusterPartition) -> str:
    lines = [f"*Vertices {len(partition.assignment)}"]
    lines.extend(str(c) for c in partition.assignment)
    return "\n".join(lines) + "\n"


def write_pajek_clu(partition: ClusterPartition, path: str | Path) -> None:
    write_text(path, format_pajek_clu(partition))


def read_pajek_clu(path: str | Path, n: int) -> tuple[int, ...]:
    """Cluster ids (dense 1..k) of a partition file that must cover exactly ``n`` vertices."""
    path = Path(path)
    with artifact_reader(path) as fh:
        lines = [(no, l.strip()) for no, l in enumerate(fh.read().splitlines(), start=1) if l.strip()]
    count, body = _vertex_count(lines, path), lines[1:]
    if len(body) != n:
        raise InputError(f"{path}: has {len(body)} assignments, network has {n} vertices")
    if count != n:
        raise InputError(f"{path}:{lines[0][0]}: header counts {count} vertices, but {n} assignments follow")
    ids = []
    for no, text in body:
        try:
            ids.append(ascii_int(text))
        except ValueError:
            raise InputError(f"{path}:{no}: non-integer cluster id {text!r}") from None
    try:
        return ClusterPartition(tuple(ids), 0.0).assignment
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
