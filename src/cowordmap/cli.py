"""Command-line interface.

One subcommand per entry of ``pipeline.stage_table`` (ingest, report,
normalize, net, cluster, layout, export, compare), plus ``run`` for the
whole chain; ``compare`` diffs ``--a``/``--b``, or the period networks of
``net``. A subcommand reads its inputs from the files of the stages before
it, a ``run`` hands them on in memory (``pipeline.RunState``). Each setting
is one row of ``OPTIONS``: flag, ``--config`` key (``key = value`` lines; an
unknown key is an error), field and help. A value comes from the flag, else
the config file, else the field's default, which ``--help`` shows. Exit
codes: 0 success, 1 input error (a bad value names its flag and key; an
input that cannot be read or decoded, a CSV row the csv module cannot read
(a field over ``csv.field_size_limit()``, or a NUL before Python 3.11), or an
output that cannot be written, names its file, and its line where there is
one; a descriptor no map label can hold, such as one with a control
character, names its record; files are written whole or not at all), 2
pipeline error; diagnostics go to stderr, and so does a warning when the
layout did not converge or the clustering stopped at its sweep cap (the exit
code stays 0).
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable
from dataclasses import fields
from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import __version__, clusters
from .errors import InputError, StageError, content_lines
from .layout import LayoutParams
from .pipeline import RunConfig, RunState, parse_windows, run_pipeline, run_stage, stage_table
from .svgmap import SvgOptions


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -<digits>[.<digits>] for a value and any other "-..." for a flag; so
        # that the check of its field names it, every negative number float() reads is a value too
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # usage problems are input errors (exit 1), not pipeline errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Flags of one stage only; their values follow the config in the call of its function.
STAGE_FLAGS = {
    "report": (("--scheme", dict(choices=["a", "b", "both"], default="both")),
               ("--by", dict(choices=["none", "period", "source"], default="none"))),
    "compare": (("--a", dict(help="first .net file (default: the first period network)")),
                ("--b", dict(help="second .net file (default: the second period network)")),
                ("--label-a", dict(help="name of the first side")),
                ("--label-b", dict(help="name of the second side"))),
}


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _path(text: str) -> Path | None:
    return Path(text) if text else None


def _year_range(text: str) -> tuple[int, int] | None:
    if text.strip().lower() == "none":
        return None
    years = parse_windows(text)
    if len(years) != 1:
        raise ValueError(f"year_range must be a single interval, got {text!r}")
    return years[0].start_year, years[0].end_year


class Option(NamedTuple):
    """One setting: its flag, its config file key, the field it sets (of
    RunConfig, or ``layout.``/``svg.`` for LayoutParams and SvgOptions), the
    conversion of its text, and its help. A ``switch`` flag takes no value:
    it stands for that text under the config key."""

    flag: str
    key: str
    field: str
    convert: Callable[[str], object]
    help: str
    switch: str | None = None

    def owner(self) -> tuple[type, str]:
        """The dataclass that holds the field, and the field's name there."""
        group, _, name = self.field.rpartition(".")
        return {"": RunConfig, "layout": LayoutParams, "svg": SvgOptions}[group], name


OPTIONS = (
    Option("--records", "records", "records", _path, "records CSV file"),
    Option("--mapping", "mapping", "mapping", _path, "keyword mapping file"),
    Option("--scheme-a", "scheme_a", "scheme_a", _path, "scheme A labels file (default: bundled)"),
    Option("--scheme-b", "scheme_b", "scheme_b", _path, "scheme B labels file (default: bundled)"),
    Option("--out", "out", "out_dir", Path, "output directory"),
    Option("--min-occ", "min_occurrences", "min_occurrences", int, "occurrence threshold"),
    Option("--windows", "windows", "windows", parse_windows, 'period windows, e.g. "2001-2006,2007-2012"'),
    Option("--source", "source", "source", str, "keep only records with this source tag"),
    Option("--resolution", "resolution", "resolution", float, "clustering resolution"),
    Option("--raw-weights", "raw_weights", "use_similarity", lambda text: not _bool(text),
           "cluster on raw co-occurrence counts instead of similarities", switch="true"),
    Option("--no-passthrough", "passthrough", "passthrough", _bool,
           "drop unmapped keywords instead of keeping them as descriptors", switch="false"),
    Option("--year-range", "year_range", "year_range", _year_range, 'valid record years, START-END or "none"'),
    Option("--layout-scale", "layout_scale", "layout.scale", float,
           "multiplies only the raw layout coordinates and the reported stress"),
    Option("--layout-tolerance", "layout_tolerance", "layout.tolerance", float,
           "gradient tolerance, in units of a component's mean graph distance"),
    Option("--layout-max-iter", "layout_max_iterations", "layout.max_iterations", int,
           "Newton iterations allowed per component (neither the line search's backtracks "
           "nor the majorization sweeps before them are counted)"),
    Option("--svg-size", "svg_size", "svg.size", int, "SVG viewport size in px"),
    Option("--edge-floor", "edge_weight_floor", "svg.edge_weight_floor", int, "hide SVG edges below this weight"),
)


def _help(option: Option) -> str:
    """The option's help, with its field's default where that is a value."""
    cls, name = option.owner()
    default = next(f.default for f in fields(cls) if f.name == name)
    if option.switch is not None or default in (None, ()):
        return option.help
    shown = "-".join(map(str, default)) if isinstance(default, tuple) else default
    return f"{option.help} (default: {shown})"


def load_config_file(path: str | Path) -> dict[str, str]:
    """Line-oriented ``key = value`` file; '#' comments and blanks ignored.
    A key that names no option, or that is given twice, is an error."""
    keys = {option.key for option in OPTIONS}
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, stripped in content_lines(path, "config file "):
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not sep:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        if key not in keys:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise InputError(f"{path}:{lineno}: config key {key!r} is already set on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else the config file, else its field's default.
    A value is checked alone, by building its dataclass from that field."""
    file_vals = load_config_file(args.config) if args.config else {}
    values: dict[type, dict[str, object]] = {RunConfig: {}, LayoutParams: {}, SvgOptions: {}}
    for option in OPTIONS:
        text = getattr(args, option.key)
        if text is None:
            text = file_vals.get(option.key)
        if text is None:
            continue
        cls, name = option.owner()
        try:
            value = option.convert(text)
            cls(**{name: value})
        except (ValueError, InputError) as exc:
            raise InputError(f"bad value for {option.flag} (config key '{option.key}'): {exc}") from None
        values[cls][name] = value
    return RunConfig(**values[RunConfig], layout=LayoutParams(**values[LayoutParams]),
                     svg=SvgOptions(**values[SvgOptions]))


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cowordmap", description="Co-word analysis and science mapping")
    parser.add_argument("--version", action="version", version=f"cowordmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the flags every subcommand takes
    shared.add_argument("--config", help="config file with key = value lines")
    for option in OPTIONS:
        shared.add_argument(option.flag, dest=option.key, help=_help(option), const=option.switch,
                            action="store" if option.switch is None else "store_const")

    commands = [("run", "run the whole pipeline and write the manifest")]
    commands += [(name, text) for name, _, text in stage_table()]
    for name, text in commands:
        p = sub.add_parser(name, help=text, description=text, parents=[shared])
        for flag, kwargs in STAGE_FLAGS.get(name, ()):
            p.add_argument(flag, **kwargs)
    return parser


def _warn(stage: str, stats: dict, config: RunConfig) -> None:
    """Say on stderr when the layout did not converge, and why, or when the clustering
    stopped at its budget."""
    if stage == "layout" and not stats["converged"]:
        cause = (f"within {config.layout.max_iterations} iterations per component" if stats["budget_spent"]
                 else f"to the tolerance {config.layout.tolerance:g}: it stopped at float precision")
        print(f"warning: layout did not converge {cause} ({stats['iterations']} iterations used over all "
              f"components; largest vertex gradient norm {stats['max_gradient']:.3g})", file=sys.stderr)
    if stage == "cluster" and not stats["settled"]:
        print(f"warning: clustering stopped at {clusters.MAX_SWEEPS} local-moving sweeps on some level "
              f"before it settled ({stats['sweeps']} sweeps over all levels)", file=sys.stderr)


_parser = cache(make_parser)  # built once per process; parsing leaves it as it was


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = build_config(args)
        if args.command == "run":
            manifest = run_pipeline(config)
            counts = manifest["stages"]
            print(f"run: {counts['ingest']['records']} records, "
                  f"{counts['net']['vertices']} vertices, {counts['net']['edges']} edges, "
                  f"{counts['cluster']['clusters']} clusters -> {config.out_dir}")
            for stage in ("cluster", "layout"):
                _warn(stage, counts[stage], config)
            return 0

        fn = next(f for name, f, _ in stage_table() if name == args.command)
        extra = [getattr(args, flag[2:].replace("-", "_")) for flag, _ in STAGE_FLAGS.get(args.command, ())]
        stats = run_stage(args.command, fn, config, *extra, state=RunState(config))
        summary = ", ".join(f"{k}={v}" for k, v in stats.items())
        print(f"{args.command}: {summary}")
        _warn(args.command, stats, config)
        return 0
    except StageError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 1 if isinstance(exc.cause, InputError) else 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pipeline bug or environment failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
