#!/usr/bin/env python3
"""Pipeline benchmark for cowordmap: seeded corpora, timed passes, checked outputs.

Run from the root of a source checkout (the program is imported from
``src/``):

    python3 pipebench/run.py --workload paper-run --seed 1 --seconds 40 --trace 0
    python3 pipebench/selfcheck.py

Workloads (see README.md): ``paper-run`` and ``corpus-20k``.
The seed makes the corpora; the program receives only the generated files.
The passes and the start-up timing run in a separate worker process
(``worker.py``); this process generates the inputs, times imports, and
checks every output against values computed apart from the program
(``oracle.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones taken from traced
passes plus the tracing overhead. Generated files go to ``.pipebench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
import oracle
import spans

HERE = Path(__file__).resolve().parent
WINDOWS = "2001-2006,2007-2012"
DEADLINE_S = 170.0
SETUP_CALLS = 12  # fresh ``--version`` starts per run, interleaved with the passes
IMPORT_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    size: str  # corpus family in corpus.SIZES
    corpora: int  # corpora per pass, each from its own sub-seed
    threshold: int  # --min-occ


WORKLOADS = {
    "paper-run": Workload("paper", 12, 5),
    "corpus-20k": Workload("20k", 1, 300),
}


class BenchError(Exception):
    pass


def subprocess_env(root: Path) -> dict[str, str]:
    """One process per step, one BLAS/OpenMP thread, the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def import_seconds(root: Path, env: dict[str, str]) -> dict[str, float]:
    """Cumulative import time of ``cowordmap`` and ``cowordmap.layout`` (python -X importtime)."""
    found: dict[str, list[float]] = {"cowordmap": [], "cowordmap.layout": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cowordmap"], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import cowordmap failed: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def make_inputs(w: Workload, seed: int, work: Path, schemes: Path) -> list[dict]:
    corpora = []
    for j in range(w.corpora):
        c = corpus.generate(w.size, seed, schemes, index=j)
        records, mapping = corpus.write_corpus(c, work / f"c{j}" / "input")
        corpora.append({
            "records": str(records), "mapping": str(mapping), "out": str(work / f"c{j}" / "out"),
            "generated": {"n_records": c.n_records, "by_source": c.by_source,
                          "class_a": c.class_a, "class_b": c.class_b},
        })
    return corpora


def run_worker(root: Path, env: dict[str, str], spec: dict, work: Path, timeout: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def check_outputs(w: Workload, corpora: list[dict], last_pass: dict, schemes: Path):
    """Check the final artifacts of every corpus; returns (problems per op, map scores)."""
    problems: dict[str, list[str]] = {}
    stress, quality = [], []
    ops = last_pass["ops"]

    def check(op: str, fn, *args):
        """Run one check; an output it cannot read is a problem of ``op``."""
        try:
            found = fn(*args)
        except Exception as exc:  # missing or malformed artifact
            problems.setdefault(op, []).append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        listed = found[0] if isinstance(found, tuple) else found
        if isinstance(listed, list):
            problems.setdefault(op, []).extend(listed)
        return found

    windows = [tuple(int(y) for y in part.split("-")) for part in WINDOWS.split(",")]
    t = w.threshold
    for j, c in enumerate(corpora):
        out = Path(c["out"])
        truth = oracle.derive(Path(c["records"]), Path(c["mapping"]), schemes)
        check(f"c{j}:ingest", oracle.check_ingest, truth, out, c["generated"])
        check(f"c{j}:report", oracle.check_report, truth, out, c["generated"])
        check(f"c{j}:normalize", oracle.check_normalize, truth, out, t)
        check(f"c{j}:net", oracle.check_net, truth, out, t)
        clustered = check(f"c{j}:cluster", oracle.check_cluster, out, ops.get(f"c{j}:cluster", {}).get("modularity"))
        if clustered and clustered[1] is not None:
            quality.append(clustered[1])
        if check(f"c{j}:layout", oracle.check_layout, out) == []:
            stress.append(check(f"c{j}:layout", oracle.map_stress, out))
        check(f"c{j}:export", oracle.check_export, out)
        sides = tuple(oracle.window_truth(truth, a, b) for a, b in windows)
        check(f"c{j}:compare", oracle.check_compare, out / "compare.csv", sides, (t, t))
    stress = [s for s in stress if s is not None]
    return {op: p for op, p in problems.items() if p}, stress, quality


def tally(passes: list[dict], problems: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all passes, plus why each kind failed."""
    attempted = failed = 0
    reasons: set[str] = set()
    reference = passes[0]["hashes"]
    for p in passes:
        for op, result in p["ops"].items():
            attempted += 1
            why = result.get("why") if not result["ok"] else None
            if op in problems:
                why = "; ".join(problems[op])
            elif p["hashes"].get(op) != reference.get(op):
                why = "artifacts differ from the first pass"
                problems.setdefault(op, []).append(why)
            if why:
                failed += 1
                reasons.add(f"{op}: {why}")
    return attempted, failed, sorted(reasons)


def median_layers(traced: list[dict]) -> dict[str, tuple[float, str]]:
    per_pass = [spans.layer_metrics(t["spans"], t["wall"]) for t in traced]
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


@dataclass
class Outcome:
    passes: list[dict]
    rss_mb: float
    setup: list[float]
    problems: dict[str, list[str]]
    stress: list[float]
    quality: list[float]
    attempted: int
    failed: int
    reasons: list[str]
    traced: list[dict]


def measure(root: Path, w: Workload, corpora: list[dict], work: Path, seconds: float, trace: bool,
            timeout: float, setup_calls: int = 0) -> Outcome:
    """Run the passes in the worker, then check what they wrote."""
    schemes = root / "src" / "cowordmap" / "data"
    spec = {
        "src": str(root / "src"), "threshold": w.threshold, "windows": WINDOWS,
        "corpora": corpora, "seconds": seconds, "trace": trace, "setup_calls": setup_calls,
        "result": str(work / "result.json"), "spans": str(work / "spans.json"),
    }
    result = run_worker(root, subprocess_env(root), spec, work, timeout)
    passes = result["passes"]
    problems, stress, quality = check_outputs(w, corpora, passes[-1], schemes)
    traced = json.loads(Path(spec["spans"]).read_text()) if trace else []
    for call in result["layouts"]:  # traced passes only
        problems.setdefault(call["op"], []).extend(oracle.check_kamada_kawai(call))
    problems = {op: p for op, p in problems.items() if p}
    attempted, failed, reasons = tally(passes, problems)
    return Outcome(passes, result["rss_mb"], result["setup"], problems, stress, quality, attempted, failed, reasons, traced)


def bench(args: argparse.Namespace, root: Path) -> dict:
    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    work = root / ".pipebench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = subprocess_env(root)

    corpora = make_inputs(w, args.seed, work, root / "src" / "cowordmap" / "data")
    imports = import_seconds(root, env) if args.trace else {}
    o = measure(root, w, corpora, work, args.seconds, bool(args.trace),
                DEADLINE_S - 10.0 - (time.perf_counter() - started), 0 if args.trace else SETUP_CALLS)
    for line in o.reasons:
        print(f"failed: {line}")

    untraced = [p["wall"] for p in o.passes[1:] if not p.get("traced")]
    if args.trace:
        metrics = median_layers(o.traced)
        traced_s = statistics.median(t["wall"] for t in o.traced)
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(untraced), "s")
        metrics["layout.import_s"] = (imports["cowordmap.layout"], "s")
        metrics["cowordmap.import_s"] = (imports["cowordmap"], "s")
    else:
        metrics = {
            "run_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(o.setup), "s"),
            "peak_rss_mb": (o.rss_mb, "MB"),
            "map_stress": (statistics.fmean(o.stress) if o.stress else float("nan"), "1"),
            "modularity": (statistics.fmean(o.quality) if o.quality else float("nan"), "1"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    walls = ", ".join(f"{p['wall']:.3f}{'t' if p.get('traced') else ''}" for p in o.passes)
    print(f"{args.workload}: passes {walls} s (the first warms up, t = traced); "
          f"{o.attempted} operations attempted, {o.failed} failed")
    return {
        "correct": not o.problems,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cowordmap pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cowordmap" / "__init__.py").is_file():
        print(f"error: {root} has no src/cowordmap; run from the root of a cowordmap checkout", file=sys.stderr)
        return 2
    try:
        print(json.dumps(bench(args, root)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
