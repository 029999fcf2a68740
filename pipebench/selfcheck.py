#!/usr/bin/env python3
"""Self-check of the pipeline benchmark on small inputs, in a few seconds.

Run from the root of a cowordmap checkout:

    python3 pipebench/selfcheck.py

It asserts that

1. the corpus generator gives identical bytes for the same seed, and
   different bytes for another seed or another corpus of the same seed;
2. the 40-record test fixture (``tests/data/records.csv`` with
   ``tests/data/mapping.txt``, only read) passes every output check through
   one full ``run`` per pass, traced and untraced;
3. a tiny generated corpus passes every check the same way;
4. the checks are not vacuous: copies of the tiny corpus's artifacts with one
   edge weight, one descriptor count, one cluster id, one coordinate or one
   SVG node changed are each reported.

The exit status is 0 when all of this holds.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys
from pathlib import Path

import corpus
import oracle
import run

FIXTURE_RECORDS = Path("tests/data/records.csv")
FIXTURE_MAPPING = Path("tests/data/mapping.txt")


def mutants(maps: Path, scratch: Path, threshold: int, truth: oracle.Truth):
    """(description, check result) for each single-fault copy of ``maps``."""

    def copy() -> Path:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(maps, scratch)
        return scratch

    def edit(path: Path, old: str, new: str) -> None:
        text = path.read_text(encoding="utf-8")
        assert old in text, f"{path.name} lacks {old!r}"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    d = copy()
    first_edge = (d / "edges.csv").read_text(encoding="utf-8").splitlines()[1]
    head, weight = first_edge.rsplit(",", 1)
    edit(d / "edges.csv", first_edge, f"{head},{int(weight) + 1}")
    yield "edge weight", oracle.check_net(truth, d, threshold)

    d = copy()
    label, count = (d / "vertices.csv").read_text(encoding="utf-8").splitlines()[1].rsplit(",", 1)
    edit(d / "vertices.csv", f"{label},{count}", f"{label},{int(count) + 1}")
    yield "descriptor count", oracle.check_net(truth, d, threshold)

    d = copy()
    ids = oracle.read_clu(d / "network.clu")
    modularity = oracle.modularity(d, ids)
    moved = ids[:-1] + [1 if ids[-1] != 1 else 2]
    (d / "network.clu").write_text(f"*Vertices {len(ids)}\n" + "".join(f"{c}\n" for c in moved), encoding="utf-8")
    yield "cluster id", oracle.check_cluster(d, modularity)[0]

    d = copy()
    vertex = (d / "network.net").read_text(encoding="utf-8").splitlines()[1]
    edit(d / "network.net", vertex, vertex.rsplit(" ", 2)[0] + " 1.500000 0.500000")
    yield "coordinate", oracle.check_layout(d)

    d = copy()
    svg = (d / "map.svg").read_text(encoding="utf-8")
    circle = next(line for line in svg.splitlines() if line.startswith("<circle"))
    edit(d / "map.svg", circle + "\n", "")
    yield "SVG node", oracle.check_export(d)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "cowordmap" / "__init__.py").is_file():
        print(f"error: {root} has no src/cowordmap; run from the root of a cowordmap checkout", file=sys.stderr)
        return 2
    schemes = root / "src" / "cowordmap" / "data"
    work = root / ".pipebench" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"self-check: {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    one, again = corpus.generate("tiny", 1, schemes), corpus.generate("tiny", 1, schemes)
    other, sibling = corpus.generate("tiny", 2, schemes), corpus.generate("tiny", 1, schemes, index=1)
    expect(one.records_csv == again.records_csv and one.mapping_txt == again.mapping_txt,
           "same seed gives identical corpus bytes")
    expect(one.records_csv != other.records_csv, "another seed gives different corpus bytes")
    expect(one.records_csv != sibling.records_csv, "another corpus of the same seed differs")
    keywords = [row[6] for row in csv.reader(io.StringIO(one.records_csv.decode("utf-8")))]
    expect(not any('"' in k for k in keywords) and '"' not in one.mapping_txt.decode("utf-8"),
           'generated keywords and mapping hold no \'"\'')

    cases = [
        ("fixture", run.Workload("", 1, 2),
         [{"records": str(root / FIXTURE_RECORDS), "mapping": str(root / FIXTURE_MAPPING),
           "out": str(work / "fixture" / "out"), "generated": None}]),
        ("tiny corpus", run.Workload("tiny", 1, 3), None),
    ]
    for name, w, corpora in cases:
        case_dir = work / name.replace(" ", "-")
        case_dir.mkdir(parents=True, exist_ok=True)
        if corpora is None:
            corpora = run.make_inputs(w, 1, case_dir, schemes)
        o = run.measure(root, w, corpora, case_dir, seconds=0.0, trace=True, timeout=150.0)
        for line in o.reasons:
            print(f"  {line}")
        expect(not o.problems and o.failed == 0 and len(o.passes) == 3,
               f"{name}: {o.attempted} operations over {len(o.passes)} passes pass every check")
        expect(bool(o.traced) and bool(o.traced[0]["spans"]), f"{name}: the traced pass recorded spans")

    truth = oracle.derive(Path(corpora[0]["records"]), Path(corpora[0]["mapping"]), schemes)
    for what, found in mutants(Path(corpora[0]["out"]), work / "mutant", 3, truth):
        expect(bool(found), f"a changed {what} is reported")

    print("self-check: " + ("passed" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
