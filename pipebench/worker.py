#!/usr/bin/env python3
"""The process that runs a workload's passes through ``cowordmap.cli.main``.

It is started by ``run.py`` with a JSON spec and writes a JSON result; it
generates no input and checks no output beyond what the program reports
about itself, so its peak memory is the program's. One pass runs one
``cowordmap run`` per corpus, eight stage operations each: ingest, report,
normalize, net, cluster, layout, export, compare.

The first pass warms up and is not timed. Timed passes follow until the
requested seconds are spent. When ``setup_calls`` is above 0, the worker
times one fresh ``python -m cowordmap --version``, the start-up every CLI
invocation pays, after each timed pass, and more after the last pass until
it has ``setup_calls`` of them. With tracing on, untraced and traced
passes alternate, and the traced ones record spans (see ``spans.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans

RUN_FILES = {
    "ingest": ("records.csv",),
    "report": ("class_a_distribution.csv", "class_b_distribution.csv", "crosstab.csv"),
    "normalize": ("descriptors.csv", "frequencies.csv", "coverage.csv", "unmapped.csv"),
    "net": ("vertices.csv", "edges.csv"),
    "cluster": ("network.clu", "cluster_summary.csv"),
    "layout": ("network.net",),
    "export": ("map.svg",),
    "compare": ("compare.csv", "period_2001_2006.net", "period_2007_2012.net", "manifest.json"),
}
def digest(path: Path) -> str:
    if not path.exists():
        return "missing"
    data = path.read_bytes()
    if path.name == "manifest.json":  # timestamps differ between passes by design
        manifest = json.loads(data)
        manifest.pop("timestamps", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


class Runner:
    def __init__(self, spec: dict):
        self.spec = spec

    def call(self, argv: list[str], main) -> tuple[int, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a crash counts against the operation
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = -1
            elapsed = perf_counter() - start
        return code, elapsed, out.getvalue(), err.getvalue()

    def run_ops(self, ops: dict, hashes: dict, prefix: str, argv: list[str], out: Path, main) -> float:
        code, elapsed, _, err = self.call(argv, main)
        failed_from = None
        if code != 0:
            match = re.search(r"error in stage '(\w+)'", err)
            failed_from = match.group(1) if match and match.group(1) in RUN_FILES else "ingest"
        stages = list(RUN_FILES)
        manifest = json.loads((out / "manifest.json").read_text()) if failed_from is None else {}
        for stage in stages:
            name = f"{prefix}{stage}"
            if failed_from is not None and stages.index(stage) >= stages.index(failed_from):
                ops[name] = {"ok": False, "why": f"exit {code}: {err.strip()[:300]}"}
                continue
            ops[name] = {"ok": True}
            if stage == "layout" and not manifest["stages"]["layout"]["converged"]:
                ops[name] = {"ok": False, "why": "layout reports converged: false"}
            if stage == "cluster":
                ops[name]["modularity"] = manifest["stages"]["cluster"]["modularity"]
            hashes[name] = {f: digest(out / f) for f in RUN_FILES[stage]}
        return elapsed

    def one_pass(self, main, tracer=None) -> dict:
        spec = self.spec
        ops: dict = {}
        hashes: dict = {}
        wall = 0.0
        for j, corpus in enumerate(spec["corpora"]):
            out = Path(corpus["out"])
            argv = ["run", "--records", corpus["records"], "--mapping", corpus["mapping"], "--out", str(out),
                    "--windows", spec["windows"], "--min-occ", str(spec["threshold"])]
            if tracer is not None:
                tracer.op = f"c{j}:layout"
            wall += self.run_ops(ops, hashes, f"c{j}:", argv, out, main)
        return {"wall": wall, "ops": ops, "hashes": hashes}


def setup_seconds() -> float:
    """Wall time of one fresh ``python -m cowordmap --version``."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cowordmap", "--version"], env=os.environ,
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("cowordmap "):
        raise RuntimeError(f"cowordmap --version failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def layout_record(op, net, params, result) -> dict:
    return {
        "op": op,
        "n": net.n_vertices,
        "edges": [list(e) for e in net.edges],
        "coords": result.coords.ravel().tolist(),
        "final_stress": result.final_stress,
        "histories": [list(h) for h in result.stress_history],
        "scale": 1.0 if params is None else params.scale,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import cowordmap
    import cowordmap.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cowordmap.__file__).resolve().parents:
        print(f"cowordmap imported from {cowordmap.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner(spec)
    passes = [runner.one_pass(cowordmap.cli.main)]
    timing_setup = spec["setup_calls"] > 0
    if timing_setup:
        setup_seconds()  # the first start may compile bytecode
    setup: list[float] = []
    traced: list[dict] = []
    layouts: list[dict] = []
    start = perf_counter()
    while not passes[1:] or perf_counter() - start < spec["seconds"]:
        passes.append(runner.one_pass(cowordmap.cli.main))
        if timing_setup:
            setup.append(setup_seconds())
        if spec["trace"]:
            tracer = spans.Tracer(cowordmap)
            tracer.install()
            try:
                record = runner.one_pass(tracer.wrap("cli.main", cowordmap.cli.main), tracer)
            finally:
                tracer.uninstall()
            record["traced"] = True
            passes.append(record)
            traced.append({"wall": record["wall"], "spans": tracer.spans})
            layouts = [layout_record(*call) for call in tracer.layouts]
    while len(setup) < spec["setup_calls"]:
        setup.append(setup_seconds())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["trace"]:
        Path(spec["spans"]).write_text(json.dumps(traced))
    Path(spec["result"]).write_text(json.dumps({"rss_mb": rss_mb, "setup": setup, "passes": passes, "layouts": layouts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
