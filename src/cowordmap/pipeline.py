"""End-to-end pipeline with manifest-recorded, reproducible runs.

Every stage writes plain CSV/Pajek/SVG artifacts to the output directory.
``stage_table`` lists the eight stages in run order; ``run_pipeline``
chains them and the CLI exposes each one as a subcommand, both through
``run_stage``. Intermediate artifacts are flat files on purpose: at this
corpus scale everything should be inspectable and diffable. Each is written
whole or not at all (``errors.artifact_writer``): a failed stage leaves no
truncated file.

``run`` parses the records once. Its ``RunState`` hands ingest's records to
report, normalize and net, and normalize's per-record descriptor sets to
net, in memory; net drops both before it counts pairs. A subcommand has no
state and reads the same data back from records.csv and descriptors.csv, so
running the stages one by one gives the same bytes as a full run.

Keywords are normalized once, by ``normalize``. ``net`` builds a period
network per configured window from the descriptor sets, and the network as
the sum of those and of the records outside every window; ``compare`` diffs
two Pajek files, the period networks by default.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import resources
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from time import perf_counter

from . import __version__
from .clusters import ClusterPartition, cluster_summary, detect_clusters
from .compare import compare_networks
from .errors import InputError, StageError, artifact_reader, artifact_writer
from .layout import LayoutParams, layout_network
from .network import CoNetwork, build_network, make_network, sum_networks, threshold_filter
from .pajek import read_pajek_clu, read_pajek_net, representable, write_pajek_clu, write_pajek_net
from .records import (
    DEFAULT_YEAR_RANGE,
    ClassScheme,
    PeriodWindow,
    RecordSet,
    check_disjoint,
    class_crosstab,
    class_distribution,
    filter_records,
    load_scheme,
    parse_records,
    split_periods,
    write_records,
)
from .svgmap import SvgOptions, write_label_map_svg
from .tables import (
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
    MappingTable,
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
        if not self.resolution > 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
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


@dataclass
class RunState:
    """What one ``run_pipeline`` call hands from stage to stage in memory.

    ``records`` is ingest's filtered set and ``sets`` normalize's non-empty
    per-record descriptor sets: the data records.csv and descriptors.csv
    hold. Net takes both. A stage called without a state reads the files.
    """

    records: RecordSet | None = None
    sets: dict[str, frozenset[str]] | None = None


def _ingested(config: RunConfig, state: RunState | None) -> RecordSet:
    if state is not None and state.records is not None:
        return state.records
    path = _require(config.out_dir / RECORDS_FILE, "ingest")
    return parse_records(path, _schemes(config), config.year_range)


def _period_net_path(config: RunConfig, window: PeriodWindow) -> Path:
    return config.out_dir / f"period_{window.start_year}_{window.end_year}.net"


def _count(text: str) -> int:
    """A count field of a CSV artifact: a positive integer."""
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise ValueError(f"expected a positive integer count, got {text!r}")
    return value


def _csv_rows(path: Path, *types: Callable[[str], object]):
    """The rows of a CSV artifact below its header, one field per type, each
    converted by its type; a row that does not fit names its file and line."""
    with artifact_reader(path) as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if len(row) != len(types):
                raise InputError(f"{path}:{reader.line_num}: expected {len(types)} fields, got {len(row)}")
            try:
                fields = tuple(convert(cell) for convert, cell in zip(types, row))
            except ValueError as exc:
                raise InputError(f"{path}:{reader.line_num}: {exc}") from None
            yield fields


def _read_descriptor_sets(path: Path) -> dict[str, frozenset[str]]:
    per_record: dict[str, set[str]] = {}
    with artifact_reader(path) as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if len(row) != 2:
                raise InputError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
            per_record.setdefault(row[0], set()).add(row[1])
    return {rid: frozenset(s) for rid, s in per_record.items()}


def _cooccurrence_network(per_record: dict[str, frozenset[str]]) -> CoNetwork:
    """Unthresholded network of per-record descriptor sets, as read from descriptors.csv."""
    totals = Counter(chain.from_iterable(per_record.values()))
    return build_network(OccurrenceIndex(per_record, dict(totals), {}, 0))


def _read_network(config: RunConfig) -> CoNetwork:
    vpath = _require(config.out_dir / VERTICES_FILE, "net")
    epath = _require(config.out_dir / EDGES_FILE, "net")
    vertices = list(_csv_rows(vpath, str, _count))
    edges = list(_csv_rows(epath, str, str, _count))
    if not vertices:
        raise InputError("thresholded network is empty; lower --min-occ")
    try:
        return make_network(vertices, edges)
    except KeyError as exc:
        raise InputError(f"{epath}: edge end {exc} is not a vertex of {vpath}") from None
    except ValueError as exc:
        raise InputError(f"{vpath}, {epath}: {exc}") from None


# --- stages ------------------------------------------------------------------


def stage_ingest(config: RunConfig, *, state: RunState | None = None) -> dict:
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
    if state is not None:
        state.records = rs
    return {"records": len(rs), "by_source": dict(Counter(map(attrgetter("source"), rs)))}


def stage_report(config: RunConfig, scheme: str = "both", by: str = "none", *,
                 state: RunState | None = None) -> dict:
    """Classification tables from the ingested records."""
    rs = _ingested(config, state)
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


def stage_normalize(config: RunConfig, *, state: RunState | None = None) -> dict:
    """Canonicalize keywords and write the descriptor/frequency artifacts."""
    rs = _ingested(config, state)
    table = MappingTable({}) if config.mapping is None else load_mapping(config.mapping)
    idx = normalize(rs, table, passthrough=config.passthrough)
    bad = min((d for d in idx.totals if not representable(d)), default=None)
    if bad is not None:
        rid = next(r.id for r in rs if bad in idx.per_record[r.id])
        raise InputError(f"record '{rid}': descriptor {bad!r} contains '\"' or a line break, "
                         "which a Pajek label cannot hold")
    rows = chain.from_iterable(zip(repeat(r.id), sorted(idx.per_record[r.id])) for r in rs)
    write_descriptors_csv(rows, config.out_dir / DESCRIPTORS_FILE)
    write_frequencies_csv(descriptor_frequencies(idx), config.out_dir / FREQUENCIES_FILE)
    stats = coverage_stats(idx, config.min_occurrences)
    write_coverage_csv(stats, config.min_occurrences, config.out_dir / COVERAGE_FILE)
    write_unmapped_csv(idx.unmapped, config.out_dir / UNMAPPED_FILE)
    if state is not None:
        # the sets descriptors.csv holds: a record without descriptors has no row there
        state.sets = {rid: s for rid, s in idx.per_record.items() if s}
    return {
        "descriptors": stats.n_descriptors_total,
        "occurrences": stats.n_occurrences_total,
        "tokens_before_dedup": idx.token_count,
        "unmapped": sum(idx.unmapped.values()),
    }


def stage_net(config: RunConfig, *, state: RunState | None = None) -> dict:
    """Build the co-occurrence network and apply the frequency threshold; likewise
    one period network per configured window, from the sets of its records.
    The full network is the sum of the period networks and the network of the
    records outside every window, so each record's pairs are counted once."""
    sets_path = _require(config.out_dir / DESCRIPTORS_FILE, "normalize")
    periods = []
    if config.windows:
        periods = [[r.id for r in sub] for sub in split_periods(_ingested(config, state), list(config.windows))]
    per_record = state.sets if state is not None else None
    if state is not None:
        # net is the last user of both: only the window ids are kept, so the records
        # are freed before any pair is counted, and the sets with this stage
        state.records = state.sets = None
    if per_record is None:
        per_record = _read_descriptor_sets(sets_path)
    nets = []
    for window, ids in zip(config.windows, periods):
        period = _cooccurrence_network({rid: per_record.pop(rid) for rid in ids if rid in per_record})
        write_pajek_net(threshold_filter(period, config.min_occurrences), None,
                        _period_net_path(config, window))
        nets.append(period)
    if per_record or not nets:
        nets.append(_cooccurrence_network(per_record))  # the records outside every window
    full = sum_networks(nets)
    net = threshold_filter(full, config.min_occurrences)
    write_vertices_csv(net, config.out_dir / VERTICES_FILE)
    write_edges_csv(net, config.out_dir / EDGES_FILE)
    write_pajek_net(net, None, config.out_dir / NET_FILE)
    return {
        "full_vertices": full.n_vertices,
        "full_edges": full.n_edges,
        "min_occurrences": config.min_occurrences,
        "vertices": net.n_vertices,
        "edges": net.n_edges,
    }


def stage_cluster(config: RunConfig) -> dict:
    net = _read_network(config)
    partition = detect_clusters(net, config.resolution, config.use_similarity)
    write_pajek_clu(partition, config.out_dir / CLU_FILE)
    freq = list(zip(net.labels, net.require_weights()))
    write_cluster_summary_csv(cluster_summary(partition, freq), config.out_dir / CLUSTER_SUMMARY_FILE)
    return {"clusters": partition.n_clusters, "modularity": partition.modularity,
            "sweeps": partition.sweeps, "settled": partition.settled}


def stage_layout(config: RunConfig) -> dict:
    net = _read_network(config)
    layout = layout_network(net, config.layout)
    write_pajek_net(net, layout, config.out_dir / NET_FILE)
    return {
        "iterations": layout.iterations,
        "sweeps": layout.sweeps,
        "converged": layout.converged,
        "final_stress": layout.final_stress,
    }


def stage_export(config: RunConfig) -> dict:
    net_path = _require(config.out_dir / NET_FILE, "net")
    net, layout = read_pajek_net(net_path)
    if layout is None:
        raise InputError(f"{net_path} has no coordinates; run the 'layout' stage first")
    clu_path = _require(config.out_dir / CLU_FILE, "cluster")
    assignment = read_pajek_clu(clu_path, net.n_vertices)
    partition = ClusterPartition(assignment, 0.0)
    vertices = _require(config.out_dir / VERTICES_FILE, "net")
    freq = dict(_csv_rows(vertices, str, _count))
    write_label_map_svg(net, layout, partition, freq, config.out_dir / SVG_FILE, config.svg)
    return {"files": [SVG_FILE]}


def stage_compare_windows(config: RunConfig, a: str | Path | None = None, b: str | Path | None = None,
                          label_a: str | None = None, label_b: str | None = None) -> dict:
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
    net_a, _ = read_pajek_net(_require(Path(a), "net"))
    net_b, _ = read_pajek_net(_require(Path(b), "net"))
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
    """(name, function, help) for every stage, in run order.

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


# the stages that take a keyword-only ``state``: run hands them a RunState
STATEFUL = ("ingest", "report", "normalize", "net")


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
    config.out_dir.mkdir(parents=True, exist_ok=True)

    inputs = {"records": config.records, "mapping": config.mapping,
              "scheme_a": config.scheme_a_path(), "scheme_b": config.scheme_b_path()}
    digests = {}
    for name, path in sorted((name, path) for name, path in inputs.items() if path is not None):
        if not Path(path).exists():
            raise StageError("ingest", InputError(f"input file {path} does not exist"))
        digests[name] = {"path": str(path), "sha256": _sha256(Path(path))}

    state = RunState()
    stages, seconds = {}, {}
    for name, fn, _ in stage_table():
        # compare diffs the period networks, so a run compares only when there are two
        if name == "compare" and len(config.windows) != 2:
            continue
        start = perf_counter()
        stages[name] = run_stage(name, fn, config, **({"state": state} if name in STATEFUL else {}))
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
    with artifact_writer(config.out_dir / MANIFEST_FILE) as fh:
        fh.write(text)
    return manifest
