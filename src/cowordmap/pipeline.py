"""End-to-end pipeline with manifest-recorded, reproducible runs.

Every stage writes plain CSV/Pajek/SVG artifacts to the output directory.
``stage_table`` lists the eight stages in run order; ``run_pipeline``
chains them and the CLI exposes each one as a subcommand, both through
``run_stage``. Intermediate artifacts are flat files on purpose: at this
corpus scale everything should be inspectable and diffable. Each is written
whole or not at all (``errors.artifact_writer``): a failed stage leaves no
truncated file.

Each stage reads its inputs as fields of a ``RunState``: in memory when an
earlier stage of the process set them, else from their files. So ``run``
parses the records once and reads back nothing it wrote, and the stages run
one by one, each a subcommand, give the same bytes as a full run.

Keywords are normalized once, by ``normalize``. ``net`` counts the pairs of
the descriptor table once, into a period network per configured window and
the network of all records; ``compare`` diffs two Pajek files, the period
networks by default.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from importlib import resources
from operator import attrgetter
from pathlib import Path
from time import perf_counter

from . import __version__
from .clusters import ClusterPartition, cluster_summary, detect_clusters
from .compare import compare_networks
from .errors import InputError, StageError, artifact_writer, csv_rows
from .layout import LayoutMap, LayoutParams, layout_network
from .network import CoNetwork, build_network, make_network, threshold_filter
from .pajek import (LABEL_FORBIDS, read_pajek_clu, read_pajek_net, representable, stored_layout, write_pajek_clu,
                    write_pajek_net)
from .records import (
    DEFAULT_YEAR_RANGE,
    ClassScheme,
    PeriodWindow,
    Record,
    check_disjoint,
    class_crosstab,
    class_distribution,
    filter_records,
    load_scheme,
    parse_records,
    split_periods,
    window_numbers,
    write_records,
)
from .svgmap import SvgOptions, write_label_map_svg
from .tables import (
    DESCRIPTORS_HEADER,
    EDGES_HEADER,
    VERTICES_HEADER,
    write_cluster_summary_csv,
    write_compare_csv,
    write_coverage_csv,
    write_crosstab_csv,
    write_descriptors_csv,
    write_distribution_csv,
    write_edges_csv,
    write_frequencies_csv,
    write_grouped_distribution_csv,
    write_unmapped_csv,
    write_vertices_csv,
)
from .vocabulary import (
    OccurrenceIndex,
    coverage_stats,
    descriptor_frequencies,
    load_mapping,
    normalize,
)

RECORDS_FILE = "records.csv"
DESCRIPTORS_FILE = "descriptors.csv"
FREQUENCIES_FILE = "frequencies.csv"
COVERAGE_FILE = "coverage.csv"
UNMAPPED_FILE = "unmapped.csv"
VERTICES_FILE = "vertices.csv"
EDGES_FILE = "edges.csv"
NET_FILE = "network.net"
CLU_FILE = "network.clu"
CLUSTER_SUMMARY_FILE = "cluster_summary.csv"
SVG_FILE = "map.svg"
COMPARE_FILE = "compare.csv"
MANIFEST_FILE = "manifest.json"
DIST_A_FILE = "class_a_distribution.csv"
DIST_B_FILE = "class_b_distribution.csv"
CROSSTAB_FILE = "crosstab.csv"


def default_scheme_path(which: str) -> Path:
    return Path(str(resources.files("cowordmap").joinpath(f"data/scheme_{which}.txt")))


@dataclass(frozen=True)
class RunConfig:
    records: Path | None = None  # read only by ingest
    out_dir: Path = Path("out")
    mapping: Path | None = None
    scheme_a: Path | None = None
    scheme_b: Path | None = None
    min_occurrences: int = 5
    windows: tuple[PeriodWindow, ...] = ()
    source: str | None = None
    resolution: float = 1.0
    use_similarity: bool = True
    passthrough: bool = True
    year_range: tuple[int, int] | None = DEFAULT_YEAR_RANGE
    layout: LayoutParams = field(default_factory=LayoutParams)
    svg: SvgOptions = field(default_factory=SvgOptions)

    def __post_init__(self):
        if self.min_occurrences < 1:
            raise ValueError(f"min_occurrences must be >= 1, got {self.min_occurrences}")
        if not 0 < self.resolution < math.inf:
            raise ValueError(f"resolution must be positive and finite, got {self.resolution}")
        check_disjoint(self.windows)

    def scheme_a_path(self) -> Path:
        return self.scheme_a or default_scheme_path("a")

    def scheme_b_path(self) -> Path:
        return self.scheme_b or default_scheme_path("b")

    def echo(self) -> dict:
        """Every field for the manifest: paths as strings (the schemes
        resolved to the files used) and windows as labels."""
        echo = {k: str(v) if isinstance(v, Path) else v for k, v in asdict(self).items()}
        return echo | {"scheme_a": str(self.scheme_a_path()), "scheme_b": str(self.scheme_b_path()),
                       "windows": [w.label for w in self.windows]}


def parse_windows(text: str) -> tuple[PeriodWindow, ...]:
    """Parse "2001-2006,2007-2012" into PeriodWindows."""
    windows = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        start, sep, end = chunk.partition("-")
        try:
            windows.append(PeriodWindow(int(start), int(end if sep else start)))
        except ValueError:
            raise InputError(f"bad window '{chunk}', expected START-END")
    return tuple(windows)


# --- stage plumbing ---------------------------------------------------------


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise InputError(f"missing {path}; run the '{produced_by}' stage first")
    return path


def _schemes(config: RunConfig) -> tuple[ClassScheme, ClassScheme]:
    return (
        load_scheme(config.scheme_a_path(), "scheme_a"),
        load_scheme(config.scheme_b_path(), "scheme_b"),
    )


def _period_net_path(config: RunConfig, window: PeriodWindow) -> Path:
    return config.out_dir / f"period_{window.start_year}_{window.end_year}.net"


def _count(text: str) -> int:
    """A count field of a CSV artifact: a positive integer."""
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise ValueError(f"expected a positive integer count, got {text!r}")
    return value


def _label(text: str) -> str:
    """A descriptor field of a CSV artifact: not blank, and fit for a map label (``pajek.representable``)."""
    if not text.strip() or not representable(text):
        raise ValueError(f"expected a descriptor that is not blank and holds no {LABEL_FORBIDS}, got {text!r}")
    return text


def _csv_rows(path: Path, header: list[str], *types: Callable[[str], object]):
    """(line number, fields) of each row of a CSV artifact, read by ``errors.csv_rows``
    (which checks ``header`` and each row's width), one field per type, each converted
    by its type; a field that does not convert names its file and line."""
    for line, row in csv_rows(path, header):
        try:
            fields = tuple(convert(cell) for convert, cell in zip(types, row))
        except ValueError as exc:
            raise InputError(f"{path}:{line}: {exc}") from None
        yield line, fields


def _read_descriptor_sets(path: Path, state: RunState) -> OccurrenceIndex:
    """The table of descriptors.csv: one row per record of ``state.records``, in their
    order, with each descriptor once however the rows are ordered. The rows are read,
    and each checked, before the records; a record id that records.csv does not hold
    names its line."""
    rows = list(_csv_rows(path, DESCRIPTORS_HEADER, str, _label))
    sets: dict[str, list[str]] = {rid: [] for rid in map(attrgetter("id"), state.records)}
    for line, (rid, descriptor) in rows:
        if rid not in sets:
            raise InputError(f"{path}:{line}: record {rid!r} is not in {path.with_name(RECORDS_FILE)}")
        sets[rid].append(descriptor)
    return OccurrenceIndex.from_sets(sets)


def _read_network(config: RunConfig) -> CoNetwork:
    """The network of vertices.csv and edges.csv. Each row that ``make_network`` would
    reject, or that no records can give, is rejected here with its file and line."""
    vpath = _require(config.out_dir / VERTICES_FILE, "net")
    epath = _require(config.out_dir / EDGES_FILE, "net")
    weights = {}
    for line, (label, count) in _csv_rows(vpath, VERTICES_HEADER, _label, _count):
        if label in weights:
            raise InputError(f"{vpath}:{line}: vertex {label!r} is listed twice")
        weights[label] = count
    edges, seen = [], set()
    for line, (a, b, c) in _csv_rows(epath, EDGES_HEADER, _label, _label, _count):
        for end in (a, b):
            if end not in weights:
                raise InputError(f"{epath}:{line}: edge end {end!r} is not a vertex of {vpath}")
        if a == b:
            raise InputError(f"{epath}:{line}: self-edge on {a!r}")
        if (a, b) in seen or (b, a) in seen:
            raise InputError(f"{epath}:{line}: edge {a!r}-{b!r} is listed twice")
        seen.add((a, b))
        if c > min(weights[a], weights[b]):
            raise InputError(f"{epath}:{line}: edge {a!r}-{b!r} counts {c}, more than an end's weight in {vpath}")
        edges.append((a, b, c))
    return make_network(list(weights.items()), edges)


class RunState:
    """What the stages hand on, one field per artifact a later stage reads:
    ``records`` (records.csv), ``sets`` (descriptors.csv; an ``OccurrenceIndex`` table,
    one row per record of ``records``), ``net`` (vertices.csv, edges.csv), ``periods``
    (the period .net files), ``partition`` (network.clu) and ``layout`` (network.net).
    A stage sets what it made, as a later stage would read it back; a field no stage
    has set is read from its file on first use and kept, and a missing file names
    the stage that writes it. Making one makes the output directory."""

    def __init__(self, config: RunConfig):
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {config.out_dir}: {exc}") from exc
        self.config = config

    @cached_property
    def records(self) -> tuple[Record, ...]:
        path = _require(self.config.out_dir / RECORDS_FILE, "ingest")
        return parse_records(path, _schemes(self.config), self.config.year_range)

    @cached_property
    def sets(self) -> OccurrenceIndex:
        return _read_descriptor_sets(_require(self.config.out_dir / DESCRIPTORS_FILE, "normalize"), self)

    @cached_property
    def net(self) -> CoNetwork:
        return _read_network(self.config)

    @cached_property
    def periods(self) -> list[CoNetwork]:
        return [read_pajek_net(_require(_period_net_path(self.config, w), "net"))[0] for w in self.config.windows]

    @cached_property
    def partition(self) -> ClusterPartition:
        path = _require(self.config.out_dir / CLU_FILE, "cluster")
        return ClusterPartition(read_pajek_clu(path, self.net.n_vertices), 0.0)

    @cached_property
    def layout(self) -> LayoutMap:
        path = _require(self.config.out_dir / NET_FILE, "net")
        stored, layout = read_pajek_net(path)
        if layout is None:
            raise InputError(f"{path} has no coordinates; run the 'layout' stage first")
        if stored != CoNetwork(self.net.labels, None, self.net.edge_array):  # weights are not in the file
            raise InputError(f"{path} does not hold the network of vertices.csv and edges.csv; "
                             "run the 'layout' stage again")
        return layout


def _thresholded(state: RunState) -> CoNetwork:
    if state.net.n_vertices == 0:
        raise InputError("thresholded network is empty; lower --min-occ")
    return state.net


# --- stages ------------------------------------------------------------------


def stage_ingest(config: RunConfig, *, state: RunState) -> dict:
    """Parse, validate and filter the corpus; write the canonical records.csv."""
    if config.records is None:
        raise InputError("no records file given (--records or config 'records')")
    rs = parse_records(config.records, _schemes(config), config.year_range)
    if len(rs) == 0:
        raise InputError(f"records file {config.records} contains no records")
    rs = filter_records(rs, source=config.source)
    if len(rs) == 0:
        raise InputError(f"no records left after source filter '{config.source}'")
    write_records(rs, config.out_dir / RECORDS_FILE)
    state.records = rs
    return {"records": len(rs), "by_source": dict(Counter(map(attrgetter("source"), rs)))}


def stage_report(config: RunConfig, scheme: str = "both", by: str = "none", *,
                 state: RunState) -> dict:
    """Classification tables from the ingested records."""
    rs = state.records
    scheme_a, scheme_b = _schemes(config)
    files = []

    def tables_for(which: str, cs: ClassScheme):
        if by == "none":
            name = DIST_A_FILE if which == "a" else DIST_B_FILE
            write_distribution_csv(class_distribution(rs, cs, which), config.out_dir / name)
            files.append(name)
            return
        if by == "period":
            if not config.windows:
                raise InputError("report --by period needs configured windows")
            parts = [
                (w.label, class_distribution(sub, cs, which))
                for w, sub in zip(config.windows, split_periods(rs, list(config.windows)))
            ]
        elif by == "source":
            sources = sorted({r.source for r in rs})
            parts = [
                (s, class_distribution(filter_records(rs, source=s), cs, which))
                for s in sources
            ]
        else:
            raise InputError(f"unknown report grouping '{by}'")
        name = f"class_{which}_by_{by}.csv"
        write_grouped_distribution_csv(parts, config.out_dir / name)
        files.append(name)

    if scheme in ("a", "both"):
        tables_for("a", scheme_a)
    if scheme in ("b", "both"):
        tables_for("b", scheme_b)
    if scheme == "both" and by == "none":
        row_labels, col_labels, counts = class_crosstab(rs, scheme_a, scheme_b)
        write_crosstab_csv(row_labels, col_labels, counts, config.out_dir / CROSSTAB_FILE)
        files.append(CROSSTAB_FILE)
    return {"files": files}


def stage_normalize(config: RunConfig, *, state: RunState) -> dict:
    """Canonicalize keywords and write the descriptor/frequency artifacts."""
    rs = state.records
    table = {} if config.mapping is None else load_mapping(config.mapping)
    idx = normalize(rs, table, passthrough=config.passthrough)
    bad = min((d for d in idx.vocabulary if not representable(d)), default=None)
    if bad is not None:
        rid = next(rid for rid, s in idx.per_record.items() if bad in s)
        raise InputError(f"record '{rid}': descriptor {bad!r} holds {LABEL_FORBIDS}, "
                         "which a map label cannot hold")
    write_descriptors_csv(idx, config.out_dir / DESCRIPTORS_FILE)
    write_frequencies_csv(descriptor_frequencies(idx), config.out_dir / FREQUENCIES_FILE)
    stats = coverage_stats(idx, config.min_occurrences)
    write_coverage_csv(stats, config.min_occurrences, config.out_dir / COVERAGE_FILE)
    write_unmapped_csv(idx.unmapped, config.out_dir / UNMAPPED_FILE)
    state.sets = idx
    return {
        "descriptors": stats.n_descriptors_total,
        "occurrences": stats.n_occurrences_total,
        "tokens_before_dedup": idx.token_count,
        "unmapped": sum(idx.unmapped.values()),
    }


def stage_net(config: RunConfig, *, state: RunState) -> dict:
    """Build the co-occurrence network and apply the frequency threshold; likewise
    one period network per configured window, from the rows of its records. One
    grouped count builds them all, so each record's pairs are counted once."""
    table = state.sets
    window = window_numbers(state.records, config.windows)  # row r of the table is record r
    state.records = state.sets = None  # net is the last user of both
    *periods, full = build_network(table, window, len(config.windows))
    kept = [threshold_filter(period, config.min_occurrences) for period in periods]
    for period, w in zip(kept, config.windows):
        write_pajek_net(period, None, _period_net_path(config, w))
    net = threshold_filter(full, config.min_occurrences)
    write_vertices_csv(net, config.out_dir / VERTICES_FILE)
    write_edges_csv(net, config.out_dir / EDGES_FILE)
    write_pajek_net(net, None, config.out_dir / NET_FILE)
    state.net, state.periods = net, kept
    return {
        "full_vertices": full.n_vertices,
        "full_edges": full.n_edges,
        "min_occurrences": config.min_occurrences,
        "vertices": net.n_vertices,
        "edges": net.n_edges,
    }


def stage_cluster(config: RunConfig, *, state: RunState) -> dict:
    net = _thresholded(state)
    partition = detect_clusters(net, config.resolution, config.use_similarity)
    write_pajek_clu(partition, config.out_dir / CLU_FILE)
    state.partition = partition
    freq = list(zip(net.labels, net.require_weights()))
    write_cluster_summary_csv(cluster_summary(partition, freq), config.out_dir / CLUSTER_SUMMARY_FILE)
    return {"clusters": partition.n_clusters, "modularity": partition.modularity,
            "sweeps": partition.sweeps, "settled": partition.settled}


def stage_layout(config: RunConfig, *, state: RunState) -> dict:
    net = _thresholded(state)
    layout = layout_network(net, config.layout)
    write_pajek_net(net, layout, config.out_dir / NET_FILE)
    state.layout = stored_layout(layout)  # map.svg is drawn from the coordinates network.net holds
    return {
        "iterations": layout.iterations,
        "sweeps": layout.sweeps,
        "converged": layout.converged,
        "budget_spent": layout.budget_spent,
        "max_gradient": layout.max_gradient,
        "final_stress": layout.final_stress,
    }


def stage_export(config: RunConfig, *, state: RunState) -> dict:
    # no sizes given: the circles take the weights of state.net, which vertices.csv holds
    write_label_map_svg(state.net, state.layout, state.partition, {}, config.out_dir / SVG_FILE, config.svg)
    return {"files": [SVG_FILE]}


def stage_compare_windows(config: RunConfig, a: str | Path | None = None, b: str | Path | None = None,
                          label_a: str | None = None, label_b: str | None = None, *,
                          state: RunState) -> dict:
    """Diff two Pajek networks into compare.csv: files ``a`` and ``b``, or
    the period networks of the two configured windows when neither is given.
    A side's label defaults to its window's label, or to its file's stem."""
    if (a is None) != (b is None):
        raise InputError("compare needs both --a and --b, or neither")
    if a is None:
        if len(config.windows) != 2:
            raise InputError("compare needs exactly two configured windows, or --a and --b")
        a, b = (_period_net_path(config, w) for w in config.windows)
        label_a, label_b = label_a or config.windows[0].label, label_b or config.windows[1].label
        net_a, net_b = state.periods
    else:
        net_a, net_b = (read_pajek_net(_require(Path(path), "net"))[0] for path in (a, b))
    labels = (label_a or Path(a).stem, label_b or Path(b).stem)
    report = compare_networks(net_a, net_b, labels)
    write_compare_csv(report, config.out_dir / COMPARE_FILE)
    return {
        "sides": list(labels),
        "appeared": len(report.appeared),
        "vanished": len(report.vanished),
        "persisted": len(report.persisted),
    }


# --- stage table and full run ------------------------------------------------


def stage_table() -> tuple[tuple[str, Callable[..., dict], str], ...]:
    """(name, function, help) for every stage, in run order; each takes a required ``state=``.

    Built on each call, so the stage functions are looked up on this module
    when the table is used, not when it is imported.
    """
    return (
        ("ingest", stage_ingest, "parse, validate and filter the records file"),
        ("report", stage_report, "classification distribution and cross-tab tables"),
        ("normalize", stage_normalize, "canonicalize keywords; frequency and coverage tables"),
        ("net", stage_net, "build and threshold the co-occurrence network"),
        ("cluster", stage_cluster, "detect thematic clusters"),
        ("layout", stage_layout, "compute the Kamada-Kawai map coordinates"),
        ("export", stage_export, "render the SVG label map"),
        ("compare", stage_compare_windows, "diff two Pajek networks, by default the two period networks"),
    )


def run_stage(name: str, fn: Callable[..., dict], *args, **kwargs) -> dict:
    """Call one stage; any failure comes out as a StageError naming it."""
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


def run_pipeline(config: RunConfig) -> dict:
    """Run every stage in order and write the manifest; returns the manifest."""
    started = datetime.now(timezone.utc).isoformat()
    state = RunState(config)
    manifest_path = config.out_dir / MANIFEST_FILE
    try:  # a run that fails leaves no earlier run's manifest beside its artifacts
        if manifest_path.is_file():
            manifest_path.unlink()
    except OSError as exc:
        raise InputError(f"cannot remove {manifest_path}: {exc}") from exc

    inputs = {"records": config.records, "mapping": config.mapping,
              "scheme_a": config.scheme_a_path(), "scheme_b": config.scheme_b_path()}
    digests = {}
    for name, path in sorted((name, path) for name, path in inputs.items() if path is not None):
        if not Path(path).exists():
            raise StageError("ingest", InputError(f"input file {path} does not exist"))
        digests[name] = {"path": str(path), "sha256": _sha256(Path(path))}

    stages, seconds = {}, {}
    for name, fn, _ in stage_table():
        # compare diffs the period networks, so a run compares only when there are two
        if name == "compare" and len(config.windows) != 2:
            continue
        start = perf_counter()
        stages[name] = run_stage(name, fn, config, state=state)
        seconds[name] = perf_counter() - start

    manifest = {
        "artifact": {"name": "cowordmap", "version": __version__},
        "config": config.echo(),
        "inputs": digests,
        "stages": stages,
        # wall times vary from run to run, so they sit with the timestamps: the rest
        # of the manifest is the same on every run of the same inputs
        "timestamps": {"started": started, "finished": datetime.now(timezone.utc).isoformat(),
                       "stage_seconds": seconds},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with artifact_writer(manifest_path) as fh:
        fh.write(text)
    return manifest
