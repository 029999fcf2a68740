"""Command-line interface.

One subcommand per entry of ``pipeline.stage_table`` (ingest, report,
normalize, net, cluster, layout, export, compare), plus ``run`` for the
whole chain; ``compare`` diffs ``--a``/``--b``, or the period networks of
``net``. Values come from flags first, then the ``--config`` file
(``key = value`` lines), then defaults. Exit codes: 0 success, 1 input
error (also an output file that cannot be written; files are written
whole or not at all), 2 pipeline error; diagnostics go to stderr, and so
does a warning when the layout did not converge (the exit code stays 0).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import InputError, StageError
from .layout import LayoutParams
from .pipeline import (
    RunConfig,
    load_config_file,
    parse_windows,
    run_pipeline,
    run_stage,
    stage_table,
)
from .svgmap import SvgOptions


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not pipeline errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file with key = value lines")
    p.add_argument("--records", help="records CSV file")
    p.add_argument("--mapping", help="keyword mapping file")
    p.add_argument("--scheme-a", help="scheme A labels file (default: bundled)")
    p.add_argument("--scheme-b", help="scheme B labels file (default: bundled)")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--min-occ", type=int, help="occurrence threshold (default: 5)")
    p.add_argument("--windows", help='period windows, e.g. "2001-2006,2007-2012"')
    p.add_argument("--source", help="keep only records with this source tag")
    p.add_argument("--resolution", type=float, help="clustering resolution (default: 1.0)")
    p.add_argument("--raw-weights", action="store_true", default=None,
                   help="cluster on raw co-occurrence counts instead of similarities")
    p.add_argument("--no-passthrough", action="store_true", default=None,
                   help="drop unmapped keywords instead of keeping them as descriptors")
    p.add_argument("--year-range", help='valid record years, e.g. "2001-2012" or "none"')
    p.add_argument("--layout-scale", type=float, help="ideal edge display length (default: 1.0)")
    p.add_argument("--layout-tolerance", type=float, help="gradient tolerance (default: 1e-4)")
    p.add_argument("--layout-max-iter", type=int, help="layout iteration budget (default: 10000)")
    p.add_argument("--svg-size", type=int, help="SVG viewport size in px (default: 800)")
    p.add_argument("--edge-floor", type=int, help="hide SVG edges below this weight (default: 1)")


# Flags of one stage only; their values follow the config in the call of its function.
STAGE_FLAGS = {
    "report": (("--scheme", dict(choices=["a", "b", "both"], default="both")),
               ("--by", dict(choices=["none", "period", "source"], default="none"))),
    "compare": (("--a", dict(help="first .net file (default: the first period network)")),
                ("--b", dict(help="second .net file (default: the second period network)")),
                ("--label-a", dict(help="name of the first side")),
                ("--label-b", dict(help="name of the second side"))),
}


# Numeric settings: field of RunConfig, LayoutParams or SvgOptions -> (flag,
# config key, type); an unset one keeps the field's default. Each ValueError
# those classes raise starts with the field's name, which names the option.
NUMERIC_OPTIONS = {
    "min_occurrences": ("--min-occ", "min_occurrences", int),
    "resolution": ("--resolution", "resolution", float),
    "scale": ("--layout-scale", "layout_scale", float),
    "tolerance": ("--layout-tolerance", "layout_tolerance", float),
    "max_iterations": ("--layout-max-iter", "layout_max_iterations", int),
    "size": ("--svg-size", "svg_size", int),
    "edge_weight_floor": ("--edge-floor", "edge_weight_floor", int),
}


def _bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InputError(f"config key '{key}' is not a boolean: {text!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = load_config_file(args.config) if args.config else {}

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return file_vals.get(key, default)

    def numbers(*names: str) -> dict:
        """Field -> value of each named option set by a flag or the config file."""
        values = {}
        for name in names:
            flag, key, convert = NUMERIC_OPTIONS[name]
            value = pick(getattr(args, flag[2:].replace("-", "_")), key)
            try:
                if value is not None:
                    values[name] = convert(value)
            except ValueError:
                raise InputError(f"bad value for {flag} (config key '{key}'): "
                                 f"expected {convert.__name__}, got {value!r}") from None
        return values

    records = pick(args.records, "records")
    out_dir = Path(pick(args.out, "out", "out"))
    mapping = pick(args.mapping, "mapping")
    windows_text = pick(args.windows, "windows")
    optional = numbers("min_occurrences", "resolution")
    year_text = pick(args.year_range, "year_range")
    if year_text is not None and year_text.strip().lower() == "none":
        optional["year_range"] = None
    elif year_text is not None:
        yr = parse_windows(year_text)
        if len(yr) != 1:
            raise InputError(f"year_range must be a single interval, got {year_text!r}")
        optional["year_range"] = (yr[0].start_year, yr[0].end_year)

    raw_weights = args.raw_weights if args.raw_weights is not None else (
        _bool(file_vals["raw_weights"], "raw_weights") if "raw_weights" in file_vals else False
    )
    no_passthrough = args.no_passthrough if args.no_passthrough is not None else (
        not _bool(file_vals["passthrough"], "passthrough") if "passthrough" in file_vals else False
    )

    try:
        return RunConfig(
            records=Path(records) if records else None,
            out_dir=out_dir,
            mapping=Path(mapping) if mapping else None,
            scheme_a=Path(p) if (p := pick(args.scheme_a, "scheme_a")) else None,
            scheme_b=Path(p) if (p := pick(args.scheme_b, "scheme_b")) else None,
            windows=parse_windows(windows_text) if windows_text else (),
            source=pick(args.source, "source"),
            use_similarity=not raw_weights,
            passthrough=not no_passthrough,
            layout=LayoutParams(**numbers("scale", "tolerance", "max_iterations")),
            svg=SvgOptions(**numbers("size", "edge_weight_floor")),
            **optional,
        )
    except ValueError as exc:
        flag, key, _ = NUMERIC_OPTIONS[str(exc).split(" ", 1)[0]]
        raise InputError(f"bad value for {flag} (config key '{key}'): {exc}") from None


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cowordmap", description="Co-word analysis and science mapping")
    parser.add_argument("--version", action="version", version=f"cowordmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the flags every subcommand takes
    _add_config_flags(shared)

    commands = [("run", "run the whole pipeline and write the manifest")]
    commands += [(name, text) for name, _, text in stage_table()]
    for name, text in commands:
        p = sub.add_parser(name, help=text, description=text, parents=[shared])
        for flag, kwargs in STAGE_FLAGS.get(name, ()):
            p.add_argument(flag, **kwargs)
    return parser


def _warn_unconverged(layout: dict, config: RunConfig) -> None:
    if not layout["converged"]:
        print(f"warning: layout did not converge within {config.layout.max_iterations} iterations "
              f"per component ({layout['iterations']} used over all components)", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
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
            _warn_unconverged(counts["layout"], config)
            return 0

        config.out_dir.mkdir(parents=True, exist_ok=True)
        fn = next(f for name, f, _ in stage_table() if name == args.command)
        extra = [getattr(args, flag[2:].replace("-", "_")) for flag, _ in STAGE_FLAGS.get(args.command, ())]
        stats = run_stage(args.command, fn, config, *extra)
        summary = ", ".join(f"{k}={v}" for k, v in stats.items())
        print(f"{args.command}: {summary}")
        if args.command == "layout":
            _warn_unconverged(stats, config)
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
