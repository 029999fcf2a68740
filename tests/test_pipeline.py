from __future__ import annotations

import csv
import json
import os
import platform
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import oracles
from conftest import MAPPING_TXT, RECORDS_CSV
from cowordmap import clusters, pipeline
from cowordmap.cli import main
from cowordmap.errors import InputError, StageError, csv_line
from cowordmap.layout import LayoutParams
from cowordmap.pajek import format_pajek_net, read_pajek_net
from cowordmap.pipeline import (
    MANIFEST_FILE,
    RunConfig,
    RunState,
    run_pipeline,
    stage_compare_windows,
    stage_table,
)
from cowordmap.network import CoNetwork, build_network, threshold_filter
from cowordmap.records import PeriodWindow, parse_records, split_periods
from cowordmap.tables import write_csv
from cowordmap.vocabulary import OccurrenceIndex, normalize

EXPECTED_FILES = {
    "records.csv",
    "class_a_distribution.csv",
    "class_b_distribution.csv",
    "crosstab.csv",
    "descriptors.csv",
    "frequencies.csv",
    "coverage.csv",
    "unmapped.csv",
    "vertices.csv",
    "edges.csv",
    "network.net",
    "network.clu",
    "cluster_summary.csv",
    "map.svg",
    "period_2001_2006.net",
    "period_2007_2012.net",
    "compare.csv",
    "manifest.json",
}


def fixture_config(out_dir: Path, **overrides) -> RunConfig:
    defaults = dict(
        records=RECORDS_CSV,
        out_dir=out_dir,
        mapping=MAPPING_TXT,
        windows=(PeriodWindow(2001, 2006), PeriodWindow(2007, 2012)),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def snapshot(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def without_timestamps(manifest_bytes: bytes) -> dict:
    data = json.loads(manifest_bytes)
    data.pop("timestamps")
    return data


def test_run_pipeline_outputs_and_manifest_counts(tmp_path):
    manifest = run_pipeline(fixture_config(tmp_path / "out"))
    assert set(p.name for p in (tmp_path / "out").iterdir()) == EXPECTED_FILES

    rows = oracles.read_fixture_rows(RECORDS_CSV)
    mapping = oracles.read_mapping_pairs(MAPPING_TXT)
    sets = oracles.descriptor_sets(rows, mapping)
    totals = oracles.occurrence_totals(sets)
    pairs = oracles.pair_counts(sets)
    kept = {d for d, c in totals.items() if c >= 5}
    kept_pairs = {p: c for p, c in pairs.items() if set(p) <= kept}

    stages = manifest["stages"]
    assert stages["ingest"]["records"] == len(rows) == 40
    assert stages["normalize"]["descriptors"] == len(totals)
    assert stages["normalize"]["occurrences"] == sum(totals.values())
    assert stages["net"]["full_vertices"] == len(totals)
    assert stages["net"]["full_edges"] == len(pairs)
    assert stages["net"]["vertices"] == len(kept)
    assert stages["net"]["edges"] == len(kept_pairs)
    assert stages["layout"]["converged"] is True
    assert manifest["artifact"]["name"] == "cowordmap"
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_empty_records_file_names_ingest_stage(tmp_path):
    empty = tmp_path / "records.csv"
    empty.write_text("id,source,year,title,class_a,class_b,keywords\n", encoding="utf-8")
    config = fixture_config(tmp_path / "out", records=empty, windows=())
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"
    assert isinstance(err.value.cause, InputError)


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    config = fixture_config(out)
    run_pipeline(config)
    first = snapshot(out)
    run_pipeline(config)
    second = snapshot(out)
    assert set(first) == set(second)
    for name in first:
        if name == MANIFEST_FILE:
            assert without_timestamps(first[name]) == without_timestamps(second[name])
        else:
            assert first[name] == second[name], name


def test_manifest_times_each_stage_among_its_timestamps(tmp_path):
    config = fixture_config(tmp_path / "out")
    manifests = []
    for _ in range(2):
        run_pipeline(config)
        manifests.append((config.out_dir / MANIFEST_FILE).read_bytes())
        manifest = json.loads(manifests[-1])
        seconds = manifest["timestamps"]["stage_seconds"]
        assert set(seconds) == set(manifest["stages"]) == {name for name, _, _ in stage_table()}
        assert all(isinstance(t, float) and t >= 0 for t in seconds.values())
    # the timestamps are the only part of a manifest that differs between two runs
    assert without_timestamps(manifests[0]) == without_timestamps(manifests[1])


# fixture runs: adjacent windows, and windows that leave records outside both
RUN_FLAGS = {
    "adjacent": ["--windows", "2001-2006,2007-2012"],
    "gaps": ["--windows", "2001-2003,2010-2012", "--min-occ", "2"],
}


@pytest.mark.parametrize("flags", RUN_FLAGS.values(), ids=RUN_FLAGS.keys())
def test_stage_isolation_matches_full_run(tmp_path, capsys, flags):
    # a subcommand reads its inputs from the files, a run hands them on in memory
    full = tmp_path / "full"
    staged = tmp_path / "staged"
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), *flags]
    assert main(["run", *args, "--out", str(full)]) == 0, capsys.readouterr().err

    names = [name for name, _, _ in stage_table()]
    assert names == ["ingest", "report", "normalize", "net", "cluster", "layout", "export", "compare"]
    for name in names:
        assert main([name, *args, "--out", str(staged)]) == 0, capsys.readouterr().err

    full_files = snapshot(full)
    staged_files = snapshot(staged)
    full_files.pop(MANIFEST_FILE)
    assert set(full_files) == set(staged_files)
    for name, data in full_files.items():
        assert staged_files[name] == data, name


@pytest.mark.parametrize("flags", RUN_FLAGS.values(), ids=RUN_FLAGS.keys())
def test_run_reads_nothing_back(tmp_path, capsys, monkeypatch, flags):
    args = ["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), *flags]
    assert main([*args, "--out", str(tmp_path / "ref")]) == 0, capsys.readouterr().err

    def unexpected(*args, **kwargs):
        raise AssertionError(f"run read {args[0]} back")

    for name in ("_read_network", "read_pajek_net", "read_pajek_clu", "_read_descriptor_sets", "_csv_rows"):
        monkeypatch.setattr(pipeline, name, unexpected)
    assert main([*args, "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err

    def files(out):
        found = snapshot(out)
        manifest = without_timestamps(found.pop(MANIFEST_FILE))
        manifest["config"].pop("out_dir")
        return found, manifest

    assert files(tmp_path / "out") == files(tmp_path / "ref")


def test_failed_run_leaves_no_earlier_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out)]
    assert main([*args, "--min-occ", "5"]) == 0
    assert json.loads((out / MANIFEST_FILE).read_bytes())["config"]["min_occurrences"] == 5
    capsys.readouterr()

    assert main([*args, "--min-occ", "999"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error in stage 'cluster': thresholded network is empty; lower --min-occ"]
    assert not (out / MANIFEST_FILE).exists()


# each stage that reads: the first file it reads, and the stage that writes that file
FIRST_INPUTS = {
    "report": ("records.csv", "ingest"),
    "normalize": ("records.csv", "ingest"),
    "net": ("descriptors.csv", "normalize"),
    "cluster": ("vertices.csv", "net"),
    "layout": ("vertices.csv", "net"),
    "export": ("vertices.csv", "net"),
    "compare": ("period_2001_2006.net", "net"),
}


@pytest.mark.parametrize("stage", FIRST_INPUTS)
def test_missing_prior_stage_artifact_named(tmp_path, capsys, stage):
    name, writer = FIRST_INPUTS[stage]
    out = tmp_path / "out"
    code = main([stage, "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out),
                 "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [f"error in stage '{stage}': missing {out / name}; run the '{writer}' stage first"]


def test_export_reads_the_network_once(tmp_path, capsys, monkeypatch):
    # the net, partition and layout of export share one read of vertices.csv and edges.csv
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    drawn = (out / "map.svg").read_bytes()
    calls = []
    read = pipeline._read_network

    def counted(config):
        calls.append(config.out_dir)
        return read(config)

    monkeypatch.setattr(pipeline, "_read_network", counted)
    assert main(["export", "--out", str(out), "--windows", "2001-2006,2007-2012"]) == 0, capsys.readouterr().err
    assert calls == [out]
    assert (out / "map.svg").read_bytes() == drawn


@pytest.mark.parametrize("stale", ["vertices", "edges"])
def test_export_rejects_a_network_net_of_another_network(tmp_path, capsys, stale):
    # export draws the network of vertices.csv and edges.csv at the coordinates of network.net
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    net_path = out / "network.net"
    if stale == "vertices":  # the map of another threshold
        run_pipeline(fixture_config(tmp_path / "other", min_occurrences=4))
        net_path.write_bytes((tmp_path / "other" / "network.net").read_bytes())
    else:  # one edge taken out by hand
        lines = net_path.read_text(encoding="utf-8").splitlines(keepends=True)
        net_path.write_text("".join(lines[:-1]), encoding="utf-8")
    drawn = (out / "map.svg").read_bytes()
    code = main(["export", "--out", str(out), "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [f"error in stage 'export': {net_path} does not hold the network of "
                                "vertices.csv and edges.csv; run the 'layout' stage again"]
    assert (out / "map.svg").read_bytes() == drawn


@pytest.mark.parametrize("header", ["*Vertices 99", "*Verticesfoo", "*Vertices -3"], ids=["count", "glued", "negative"])
def test_export_rejects_a_network_clu_header(tmp_path, capsys, header):
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    clu = out / "network.clu"
    rows = clu.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    clu.write_text(header + "\n" + "".join(rows), encoding="utf-8")
    code = main(["export", "--out", str(out), "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error in stage 'export': {clu}:1: ")


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", ["run", "ingest"])
def test_unusable_out_exits_one(tmp_path, capsys, command, under):
    taken = tmp_path / "afile"
    taken.write_text("", encoding="utf-8")
    out = taken / "x" if under else taken
    code = main([command, "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot create output directory {out}: ")


@pytest.mark.parametrize("edges, message", [
    (["foo,bar,1", "bar,foo,1"], "3: edge 'bar'-'foo' is listed twice"),
    (["foo,bar,5"], "2: edge 'foo'-'bar' counts 5, more than an end's weight in {vertices}"),
], ids=["repeated", "above-weight"])
def test_layout_rejects_edges_that_no_records_can_give(tmp_path, capsys, edges, message):
    out = tmp_path / "out"
    out.mkdir()
    (out / "vertices.csv").write_text("descriptor,occurrences\nbar,4\nfoo,3\n", encoding="utf-8")
    (out / "edges.csv").write_text("keyword1,keyword2,weight\n" + "".join(f"{e}\n" for e in edges),
                                   encoding="utf-8")
    code = main(["layout", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [f"error in stage 'layout': {out / 'edges.csv'}:"
                                + message.format(vertices=out / "vertices.csv")]
    assert not (out / "network.net").exists()


BAD_LABEL_FILES = {  # file: (its rows, with a bad label at "{}", the stage that reads it)
    "descriptors.csv": ("record_id,descriptor\nr1,bar\nr1,foo\nr2,{}\n", "net"),
    "vertices.csv": ("descriptor,occurrences\nbar,4\n{},3\n", "layout"),
    "edges.csv": ("keyword1,keyword2,weight\nbar,{},1\n", "layout"),
}


@pytest.mark.parametrize("label, cell", [('say "hi"', '"say ""hi"""'), ("", ""), ("  ", "  "), ("a\x1bb", "a\x1bb")],
                         ids=["quote", "empty", "blank", "control"])
@pytest.mark.parametrize("name", BAD_LABEL_FILES)
def test_subcommands_reject_unusable_labels(tmp_path, capsys, name, label, cell):
    out = tmp_path / "out"
    out.mkdir()
    (out / "vertices.csv").write_text("descriptor,occurrences\nbar,4\nfoo,3\n", encoding="utf-8")
    (out / "edges.csv").write_text("keyword1,keyword2,weight\nbar,foo,1\n", encoding="utf-8")
    rows, stage = BAD_LABEL_FILES[name]
    (out / name).write_text(rows.format(cell), encoding="utf-8")
    code = main([stage, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    line = rows.count("\n")
    assert err.splitlines() == [f"error in stage '{stage}': {out / name}:{line}: expected a descriptor that is "
                                f"not blank and holds no '\"', a control character other than tab (a line break "
                                f"among them), U+FFFE or U+FFFF, got {label!r}"]
    assert not (out / "network.net").exists()


def test_net_reads_descriptor_rows_in_any_order_and_repeated(tmp_path, capsys):
    # descriptors.csv lists each record's descriptors once, in code-point order;
    # the reader sorts and drops repeats itself, so a shuffled file gives the same network
    full, staged = tmp_path / "full", tmp_path / "staged"
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), *RUN_FLAGS["adjacent"]]
    assert main(["run", *args, "--out", str(full)]) == 0, capsys.readouterr().err
    staged.mkdir()
    (staged / "records.csv").write_bytes((full / "records.csv").read_bytes())
    header, *rows = (full / "descriptors.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = rows[::-1] + rows[len(rows) // 2:len(rows) // 2 + 1]
    (staged / "descriptors.csv").write_text(header + "".join(shuffled), encoding="utf-8")
    assert main(["net", *args, "--out", str(staged)]) == 0, capsys.readouterr().err
    for name in ("vertices.csv", "edges.csv", "period_2001_2006.net", "period_2007_2012.net"):
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert "cowordmap 0.1.0" in capsys.readouterr().out


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run",
        "--records", str(RECORDS_CSV),
        "--mapping", str(MAPPING_TXT),
        "--out", str(out),
        "--windows", "2001-2006,2007-2012",
    ])
    assert code == 0
    assert "40 records" in capsys.readouterr().out
    assert (out / "map.svg").exists()


def test_cli_empty_corpus_exit_one(tmp_path, capsys):
    empty = tmp_path / "records.csv"
    empty.write_text("id,source,year,title,class_a,class_b,keywords\n", encoding="utf-8")
    code = main(["run", "--records", str(empty), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "ingest" in captured.err
    assert captured.err != "" and "error" in captured.err


def quote_corpus(tmp_path: Path, keywords: str) -> Path:
    path = tmp_path / "records.csv"
    path.write_text(
        "id,source,year,title,class_a,class_b,keywords\n"
        "r1,WOS,2005,one,,,alpha; beta\n"
        f"r2,WOS,2006,two,,,{keywords}\n",
        encoding="utf-8",
    )
    return path


def test_cli_passthrough_quote_keyword_fails_normalize(tmp_path, capsys):
    records = quote_corpus(tmp_path, '"say ""hi""; alpha"')
    code = main(["run", "--records", str(records), "--out", str(tmp_path / "out"), "--min-occ", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "stage 'normalize'" in err and "record 'r2'" in err and 'say "hi"' in err


def test_cli_mapped_quote_descriptor_fails_normalize(tmp_path, capsys):
    records = quote_corpus(tmp_path, "x; alpha")
    mapping = tmp_path / "mapping.txt"
    mapping.write_text('x -> say "hi"\n', encoding="utf-8")
    code = main(["run", "--records", str(records), "--mapping", str(mapping),
                 "--out", str(tmp_path / "out"), "--min-occ", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "stage 'normalize'" in err and "record 'r2'" in err and 'say "hi"' in err


@pytest.mark.parametrize("keyword", ["bad\x00keyword", "bad\x01keyword", "bad\x1bkeyword"], ids=["nul", "soh", "esc"])
def test_cli_control_character_keyword_fails_normalize(tmp_path, capsys, keyword):
    # map.svg is XML 1.0, which holds no C0 control but tab
    records = quote_corpus(tmp_path, f"{keyword}; alpha")
    code = main(["run", "--records", str(records), "--out", str(tmp_path / "out"), "--min-occ", "1"])
    err = capsys.readouterr().err
    assert code == 1, err
    expected = (f"error in stage 'normalize': record 'r2': descriptor {keyword!r} holds '\"', a control character "
                "other than tab (a line break among them), U+FFFE or U+FFFF, which a map label cannot hold")
    if "\x00" in keyword and sys.version_info < (3, 11):  # the csv module reads a NUL from Python 3.11 on
        expected = f"error in stage 'ingest': {records}:3: line contains NUL"
    assert err.splitlines() == [expected]
    assert not (tmp_path / "out" / "map.svg").exists()


@pytest.mark.parametrize("name", ["records.csv", "descriptors.csv"])
def test_cli_field_over_the_csv_size_limit_exit_one(tmp_path, capsys, name):
    # one character over the limit (131,072 by default), which is process-wide, so cowordmap does not raise it
    limit = csv.field_size_limit()
    out = tmp_path / "out"
    if name == "records.csv":
        path, stage = quote_corpus(tmp_path, "alpha"), "ingest"
        args = ["run", "--records", str(path), "--min-occ", "1"]
        row = f"r3,WOS,2007,{'t' * (limit + 1)},,,alpha\n"
    else:
        run_pipeline(fixture_config(out))
        path, stage = out / name, "net"
        args = ["net", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--windows", "2001-2006,2007-2012"]
        row = f"r1,{'d' * (limit + 1)}\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row)
    line = path.read_text(encoding="utf-8").count("\n")
    code = main([*args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [f"error in stage '{stage}': {path}:{line}: field larger than field limit ({limit})"]


def test_cli_warns_when_layout_does_not_converge(tmp_path, capsys):
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT),
            "--windows", "2001-2006,2007-2012"]
    assert main(["run", *args, "--out", str(tmp_path / "plain")]) == 0
    assert "warning" not in capsys.readouterr().err
    plain = json.loads((tmp_path / "plain" / MANIFEST_FILE).read_bytes())["stages"]["layout"]
    assert plain["converged"] is True and 0 < plain["max_gradient"] < LayoutParams().tolerance

    out = tmp_path / "out"
    assert main(["run", *args, "--out", str(out), "--layout-max-iter", "2"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: layout did not converge within 2 iterations")
    manifest = (out / MANIFEST_FILE).read_bytes()
    stats = json.loads(manifest)["stages"]["layout"]
    assert stats["converged"] is False and stats["max_gradient"] > LayoutParams().tolerance
    assert err.endswith(f"largest vertex gradient norm {stats['max_gradient']:.3g})\n")

    # the warning goes to stderr only: the manifest is what a direct run writes
    run_pipeline(fixture_config(out, layout=LayoutParams(max_iterations=2)))
    assert without_timestamps(manifest) == without_timestamps((out / MANIFEST_FILE).read_bytes())

    assert main(["layout", *args, "--out", str(out), "--layout-max-iter", "2"]) == 0
    assert capsys.readouterr().err.startswith("warning: layout did not converge within 2 iterations")


@pytest.mark.parametrize("flag, value, spent, warning", [
    ("--layout-max-iter", "1", True, "warning: layout did not converge within 1 iterations per component"),
    ("--layout-tolerance", "1e-300", False,
     "warning: layout did not converge to the tolerance 1e-300: it stopped at float precision"),
])
def test_cli_layout_warning_names_its_cause(tmp_path, capsys, flag, value, spent, warning):
    out = tmp_path / "out"
    assert main(["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT),
                 "--out", str(out), flag, value]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(warning)
    stats = json.loads((out / MANIFEST_FILE).read_bytes())["stages"]["layout"]
    assert (stats["converged"], stats["budget_spent"]) == (False, spent)
    assert spent or stats["iterations"] < LayoutParams().max_iterations


def test_cli_warns_when_clustering_stops_at_its_sweep_cap(tmp_path, capsys, monkeypatch):
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT),
            "--windows", "2001-2006,2007-2012"]
    plain = tmp_path / "plain"
    assert main(["run", *args, "--out", str(plain)]) == 0
    assert "warning" not in capsys.readouterr().err
    stages = json.loads((plain / MANIFEST_FILE).read_bytes())["stages"]
    assert stages["cluster"]["settled"] is True and stages["cluster"]["sweeps"] >= 2
    assert stages["layout"]["sweeps"] > 0  # counted apart from the Newton iterations

    monkeypatch.setattr(clusters, "MAX_SWEEPS", 1)
    out = tmp_path / "out"
    assert main(["run", *args, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: clustering stopped at 1 local-moving sweeps")
    cluster = json.loads((out / MANIFEST_FILE).read_bytes())["stages"]["cluster"]
    assert cluster["settled"] is False and cluster["sweeps"] >= 1

    assert main(["cluster", *args, "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith("warning: clustering stopped at 1 local-moving sweeps")


def test_main_calls_in_one_process_parse_independently(tmp_path, capsys):
    # the parser is built once per process: no call's flags carry into the next
    from cowordmap import cli

    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT)]
    staged = tmp_path / "staged"
    assert main(["ingest", *args, "--out", str(staged), "--min-occ", "2"]) == 0
    assert main(["report", *args, "--out", str(staged), "--by", "source"]) == 0
    assert sorted(p.name for p in staged.glob("class_*")) == ["class_a_by_source.csv", "class_b_by_source.csv"]
    assert main(["run", *args, "--out", str(tmp_path / "run")]) == 0, capsys.readouterr().err
    config = json.loads((tmp_path / "run" / MANIFEST_FILE).read_text(encoding="utf-8"))["config"]
    assert (config["min_occurrences"], config["windows"]) == (5, [])
    assert (tmp_path / "run" / "class_a_distribution.csv").exists()
    capsys.readouterr()
    assert main(["run", *args, "--nope"]) == 1
    assert "unrecognized arguments: --nope" in capsys.readouterr().err
    assert main(["report", *args, "--out", str(staged)]) == 0
    assert (staged / "class_a_distribution.csv").exists()
    assert cli._parser() is cli._parser()


def test_cli_unknown_flag_exit_one(tmp_path, capsys):
    assert main(["run", "--nope"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["--min-occ", "0"], "--min-occ"),
    (["--resolution", "0"], "--resolution"),
    (["--layout-tolerance", "-1"], "--layout-tolerance"),
    (["--layout-max-iter", "0"], "--layout-max-iter"),
    (["--svg-size", "100"], "--svg-size"),
    (["--config", "{cfg}"], "min_occurrences"),
    (["--layout-scale", "nan"], "--layout-scale"),
    (["--layout-scale", "inf"], "--layout-scale"),
    (["--layout-tolerance", "nan"], "--layout-tolerance"),
    (["--layout-tolerance", "inf"], "--layout-tolerance"),
    (["--resolution", "inf"], "--resolution"),
])
def test_cli_bad_option_value_exit_one(tmp_path, capsys, argv, option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_occurrences = abc\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv]
    code = main(["run", "--records", str(RECORDS_CSV), "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert option in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e5", "-Infinity", "-1_0"])
@pytest.mark.parametrize("flag, key", [("--layout-scale", "layout_scale"),
                                       ("--layout-tolerance", "layout_tolerance"),
                                       ("--resolution", "resolution")])
def test_cli_negative_float_reaches_the_value_check(tmp_path, capsys, flag, key, value):
    # argparse alone takes a value such as -inf for a flag and names no value
    out = tmp_path / "out"
    code = main(["run", "--records", str(RECORDS_CSV), "--out", str(out), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert f"bad value for {flag} (config key '{key}')" in err
    assert "must be positive and finite" in err
    assert "expected one argument" not in err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["1e308", "1e-300", "5e-324"])
def test_cli_layout_scale_out_of_the_float_range_exit_one(tmp_path, capsys, scale):
    # the map is solved at scale 1; coordinates that the scale takes out of the
    # float range are an input error naming the value, not a numpy overflow
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT),
                     "--windows", "2001-2006,2007-2012", "--out", str(out), "--layout-scale", scale])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error in stage 'layout': layout scale {float(scale)!r} takes the map's "
                                "coordinates or stress out of the float range"]


def test_cli_layout_scale_moves_no_artifact_byte(tmp_path):
    # the scale multiplies only the raw coordinates and the reported stress:
    # every written map is the unit-square one
    args = ["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--windows", "2001-2006,2007-2012"]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    assert main([*args, "--out", str(tmp_path / "scaled"), "--layout-scale", "7"]) == 0
    plain, scaled = snapshot(tmp_path / "plain"), snapshot(tmp_path / "scaled")
    assert set(plain) == set(scaled) == EXPECTED_FILES
    for name in plain.keys() - {MANIFEST_FILE}:
        assert scaled[name] == plain[name], name
    stresses = [json.loads(files[MANIFEST_FILE])["stages"]["layout"]["final_stress"] for files in (plain, scaled)]
    assert stresses[1] == pytest.approx(49 * stresses[0], rel=1e-12)


def test_cli_missing_records_exit_one(tmp_path, capsys):
    code = main(["run", "--records", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_net_threshold_monotone(tmp_path, capsys):
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT)]
    out1 = tmp_path / "one"
    out5 = tmp_path / "five"
    for out, min_occ in ((out1, "1"), (out5, "5")):
        assert main(["ingest", *args, "--out", str(out)]) == 0
        assert main(["normalize", *args, "--out", str(out)]) == 0
        assert main(["net", *args, "--out", str(out), "--min-occ", min_occ]) == 0
    net1, _ = read_pajek_net(out1 / "network.net")
    net5, _ = read_pajek_net(out5 / "network.net")
    assert set(net5.labels) <= set(net1.labels)


def test_cli_report_by_period_matches_spreadsheet_oracle(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out),
            "--windows", "2001-2006,2007-2012"]
    assert main(["ingest", *args]) == 0
    assert main(["report", *args, "--scheme", "a", "--by", "period"]) == 0
    path = out / "class_a_by_period.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "2001-2006_count", "2001-2006_percent",
                       "2007-2012_count", "2007-2012_percent"]

    raw = oracles.read_fixture_rows(RECORDS_CSV)
    from cowordmap.pipeline import default_scheme_path
    labels = [l.strip() for l in default_scheme_path("a").read_text(encoding="utf-8").splitlines()
              if l.strip() and not l.startswith("#")]
    for window in ((2001, 2006), (2007, 2012)):
        subset = [r for r in raw if window[0] <= int(r["year"]) <= window[1]]
        tally = oracles.class_tally(subset, "class_a", labels)
        col = 1 if window == (2001, 2006) else 3
        got = {row[0]: int(row[col]) for row in rows[1:]}
        for label, count in tally.items():
            assert got[label] == count
        for row in rows[1:]:
            expected_pct = oracles.percent_half_up(int(row[col]), len(subset))
            assert int(row[col + 1]) == expected_pct


def test_cli_compare_matches_pipeline_compare(tmp_path):
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    cmp_out = tmp_path / "cmp"
    code = main([
        "compare",
        "--a", str(out / "period_2001_2006.net"),
        "--b", str(out / "period_2007_2012.net"),
        "--label-a", "2001-2006",
        "--label-b", "2007-2012",
        "--out", str(cmp_out),
    ])
    assert code == 0
    assert (cmp_out / "compare.csv").read_bytes() == (out / "compare.csv").read_bytes()


@pytest.mark.parametrize("min_occ, passthrough", [(5, True), (2, True), (2, False)])
def test_period_networks_match_normalized_window_oracle(tmp_path, schemes, fixture_mapping,
                                                        min_occ, passthrough):
    # the period networks come from descriptors.csv; they must equal networks
    # built by normalizing each window's records on their own
    out = tmp_path / "out"
    config = fixture_config(out, min_occurrences=min_occ, passthrough=passthrough)
    run_pipeline(config)
    records = parse_records(RECORDS_CSV, schemes)
    for window, sub in zip(config.windows, split_periods(records, list(config.windows))):
        idx = normalize(sub, fixture_mapping, passthrough=passthrough)
        expected = format_pajek_net(threshold_filter(build_network(idx)[-1], min_occ))
        path = out / f"period_{window.start_year}_{window.end_year}.net"
        assert path.read_text(encoding="utf-8") == expected


def test_cli_compare_needs_both_files_or_neither(tmp_path, capsys):
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    a, b = str(out / "period_2001_2006.net"), str(out / "period_2007_2012.net")
    assert main(["compare", "--a", a, "--out", str(tmp_path / "one")]) == 1
    assert "--a and --b" in capsys.readouterr().err
    assert not (tmp_path / "one" / "compare.csv").exists()

    # no --records: compare reads only the two Pajek files
    assert main(["compare", "--a", a, "--b", b, "--out", str(tmp_path / "two")]) == 0
    assert capsys.readouterr().out.startswith("compare: sides=['period_2001_2006', 'period_2007_2012']")
    rows = (tmp_path / "two" / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1] == "sides,label,period_2001_2006,period_2007_2012,"
    assert rows[2:] == (out / "compare.csv").read_text(encoding="utf-8").splitlines()[2:]


@pytest.mark.parametrize("name", ["records.csv", "coverage.csv", "network.net", "map.svg", "manifest.json"])
def test_cli_unwritable_artifact_exit_one(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main(["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out),
                 "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"cannot write {out / name}" in err
    assert "Traceback" not in err
    assert (out / name).is_dir()
    assert not list(out.glob("*.part"))


@pytest.mark.parametrize("name, stage", [
    ("network.clu", "export"),
    ("vertices.csv", "cluster"),
    ("descriptors.csv", "net"),
])
def test_cli_unreadable_artifact_exit_one(tmp_path, capsys, name, stage):
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    (out / name).unlink()
    (out / name).mkdir()
    code = main([stage, "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out),
                 "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"stage '{stage}': cannot read {out / name}" in err
    assert "Traceback" not in err


def test_cli_unreadable_input_exit_one(tmp_path, capsys):
    mapping = tmp_path / "mapping.txt"
    mapping.mkdir()
    code = main(["run", "--records", str(RECORDS_CSV), "--mapping", str(mapping), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"cannot read {mapping}" in err
    assert "Traceback" not in err


def test_run_parses_records_once(tmp_path, monkeypatch):
    calls = []
    parse = pipeline.parse_records

    def counted(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    def unexpected(path):
        raise AssertionError(f"run read {path} back")

    monkeypatch.setattr(pipeline, "parse_records", counted)
    monkeypatch.setattr(pipeline, "_read_descriptor_sets", unexpected)
    run_pipeline(fixture_config(tmp_path / "out"))
    assert calls == [RECORDS_CSV]


OUTSIDE_WINDOWS = (PeriodWindow(2001, 2003), PeriodWindow(2010, 2012))


def test_records_outside_every_window_count_in_the_full_network(tmp_path, capsys):
    # 19 of the 40 fixture records fall outside both windows
    full = tmp_path / "full"
    manifest = run_pipeline(fixture_config(full, windows=OUTSIDE_WINDOWS, min_occurrences=2))
    rows = oracles.read_fixture_rows(RECORDS_CSV)
    assert sum(1 for row in rows if not any(int(row["year"]) in w for w in OUTSIDE_WINDOWS)) == 19

    sets = oracles.descriptor_sets(rows, oracles.read_mapping_pairs(MAPPING_TXT))
    totals = oracles.occurrence_totals(sets)
    pairs = oracles.pair_counts(sets)
    kept = {d: c for d, c in totals.items() if c >= 2}
    kept_pairs = {p: c for p, c in pairs.items() if set(p) <= kept.keys()}
    stages = manifest["stages"]
    assert (stages["net"]["full_vertices"], stages["net"]["full_edges"]) == (len(totals), len(pairs))

    def table(name):
        with open(full / name, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))[1:]

    assert {label: int(c) for label, c in table("vertices.csv")} == kept
    assert {tuple(sorted((a, b))): int(c) for a, b, c in table("edges.csv")} == kept_pairs
    net, _ = read_pajek_net(full / "network.net")
    assert set(net.labels) == kept.keys()
    assert {tuple(sorted((net.labels[i], net.labels[j]))): c for i, j, c in net.edges} == kept_pairs

    # stage by stage, net reads descriptors.csv: the same bytes as the run
    staged = tmp_path / "staged"
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(staged),
            "--windows", "2001-2003,2010-2012", "--min-occ", "2"]
    for name, _, _ in stage_table():
        assert main([name, *args]) == 0, capsys.readouterr().err
    full_files = snapshot(full)
    full_files.pop(MANIFEST_FILE)
    assert snapshot(staged) == full_files


# one grouped build of every network, whatever the windows
@pytest.mark.parametrize("windows", [(), (PeriodWindow(2001, 2006), PeriodWindow(2007, 2012)), OUTSIDE_WINDOWS])
def test_run_counts_each_pair_once(tmp_path, monkeypatch, windows):
    counted = []
    build = pipeline.build_network

    def counting(idx, window, windows):
        counted.append(sum(len(s) * (len(s) - 1) // 2 for s in idx.per_record.values()))
        return build(idx, window, windows)

    monkeypatch.setattr(pipeline, "build_network", counting)
    run_pipeline(fixture_config(tmp_path / "out", windows=windows))
    sets = oracles.descriptor_sets(oracles.read_fixture_rows(RECORDS_CSV), oracles.read_mapping_pairs(MAPPING_TXT))
    assert sum(counted) == sum(len(s) * (len(s) - 1) // 2 for s in sets.values())
    assert len(counted) == 1


def test_run_makes_no_edge_tuples(tmp_path, monkeypatch):
    # every network of a run keeps its edges in its array only
    def unexpected(net):
        raise AssertionError(f"tuple view of a {net.n_vertices}-vertex network")

    monkeypatch.setattr(CoNetwork, "edges", property(unexpected))
    manifest = run_pipeline(fixture_config(tmp_path / "out", windows=OUTSIDE_WINDOWS, min_occurrences=2))
    assert manifest["stages"]["net"]["edges"] > 0


def test_run_builds_no_per_record_views(tmp_path, monkeypatch):
    # normalize's table goes from normalize to pair counting as arrays: no record's
    # tuple and no descriptor -> total dict is made
    def unexpected(idx):
        raise AssertionError(f"dict view of a {len(idx.records)}-record table")

    for view in ("per_record", "totals"):
        monkeypatch.setattr(OccurrenceIndex, view, property(unexpected))
    manifest = run_pipeline(fixture_config(tmp_path / "out", windows=OUTSIDE_WINDOWS, min_occurrences=2))
    assert manifest["stages"]["net"]["edges"] > 0


def test_net_rejects_descriptors_of_a_record_records_csv_does_not_hold(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out), "--min-occ", "2"]
    assert main(["run", *args]) == 0, capsys.readouterr().err
    path = out / "descriptors.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines) + "zzz,digital libraries\nzzz,public libraries\n", encoding="utf-8")
    before = snapshot(out)
    code = main(["net", *args])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [f"error in stage 'net': {path}:{len(lines) + 1}: record 'zzz' is not in "
                                f"{out / 'records.csv'}"]
    assert snapshot(out) == before


def test_runs_in_one_process_share_nothing(tmp_path):
    # corpus B: every other fixture record, so its ids are a subset of A's
    lines = RECORDS_CSV.read_text(encoding="utf-8").splitlines(keepends=True)
    records_b = tmp_path / "b.csv"
    records_b.write_text("".join(lines[:1] + lines[1::2]), encoding="utf-8")

    def run(records, out):
        run_pipeline(fixture_config(out, records=records, min_occurrences=2))
        files = snapshot(out)
        manifest = without_timestamps(files.pop(MANIFEST_FILE))
        manifest["config"].pop("out_dir")
        return files, manifest

    first_a = run(RECORDS_CSV, tmp_path / "a1")
    in_turn_b = run(records_b, tmp_path / "b1")
    second_a = run(RECORDS_CSV, tmp_path / "a2")
    assert first_a == second_a
    assert first_a[0] != in_turn_b[0]

    # B on its own, in a fresh interpreter
    alone = tmp_path / "b2"
    env = dict(os.environ)
    package_root = str(Path(pipeline.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "cowordmap", "run", "--records", str(records_b), "--mapping", str(MAPPING_TXT),
         "--out", str(alone), "--min-occ", "2", "--windows", "2001-2006,2007-2012"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    alone_files = snapshot(alone)
    alone_manifest = without_timestamps(alone_files.pop(MANIFEST_FILE))
    alone_manifest["config"].pop("out_dir")
    assert in_turn_b == (alone_files, alone_manifest)


def test_write_csv_failure_keeps_old_file(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a"], map(csv_line, [[1], [2]]))
    before = path.read_bytes()

    def rows():
        yield csv_line([3])
        raise RuntimeError("row source failed")

    with pytest.raises(InputError, match=re.escape(f"cannot write {path}: row source failed")):
        write_csv(path, ["a"], rows())
    assert path.read_bytes() == before == b"a\n1\n2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_cli_compare_needs_windows_for_pipeline(tmp_path):
    config = fixture_config(tmp_path / "out", windows=(PeriodWindow(2001, 2012),))
    with pytest.raises(InputError, match="exactly two"):
        (tmp_path / "out").mkdir()
        stage_compare_windows(config, state=RunState(config))


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"records = {RECORDS_CSV}\n"
        f"mapping = {MAPPING_TXT}\n"
        f"out = {tmp_path / 'from_config'}\n"
        "min_occurrences = 4\n"
        "# comment line\n",
        encoding="utf-8",
    )
    args = ["--config", str(cfg)]
    assert main(["ingest", *args]) == 0
    assert main(["normalize", *args]) == 0
    assert main(["net", *args]) == 0
    assert (tmp_path / "from_config" / "network.net").exists()
    net_cfg, _ = read_pajek_net(tmp_path / "from_config" / "network.net")

    # flag overrides the config file threshold
    override_out = tmp_path / "flagged"
    assert main(["ingest", *args, "--out", str(override_out)]) == 0
    assert main(["normalize", *args, "--out", str(override_out)]) == 0
    assert main(["net", *args, "--out", str(override_out), "--min-occ", "6"]) == 0
    net_flag, _ = read_pajek_net(override_out / "network.net")
    assert set(net_flag.labels) < set(net_cfg.labels)


def test_console_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "cowordmap", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "cowordmap" in result.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "cowordmap", "run",
         "--records", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert bad.stderr.strip() != ""


def test_start_up_does_not_import_scipy_optimize():
    # start-up imports cowordmap.layout, whose import time the benchmark reads as
    # layout.import_s, and no scipy: the layout's solver is numpy only
    import cowordmap

    env = dict(os.environ)
    package_root = str(Path(cowordmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    for argv in (["-c", "import cowordmap"], ["-m", "cowordmap", "--version"]):
        result = subprocess.run([sys.executable, "-X", "importtime", *argv],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "cowordmap.layout" in imported
        assert "scipy.optimize" not in imported, argv


def test_run_does_not_import_scipy(tmp_path):
    # the layout's solver is numpy only, so a whole run loads no scipy module
    import cowordmap

    env = dict(os.environ)
    package_root = str(Path(cowordmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    script = ("import sys\nfrom cowordmap import cli\nstatus = cli.main(sys.argv[1:])\n"
              "print(status, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    argv = ["run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT),
            "--windows", "2001-2006,2007-2012", "--out", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "network.net").exists()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels")
def test_clusters_are_the_same_on_every_blas_setting(tmp_path):
    # the fixture at --min-occ 3, a map of two components; no kernel newer than
    # Haswell is forced, since one that the CPU lacks would crash
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    package_root = str(Path(pipeline.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    settings = {"one-thread": {"OPENBLAS_NUM_THREADS": "1"}, "two-threads": {"OPENBLAS_NUM_THREADS": "2"},
                "prescott": {"OPENBLAS_CORETYPE": "Prescott"}, "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"}}
    found = {}
    for name, blas in settings.items():
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "cowordmap", "run", "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT),
             "--windows", "2001-2006,2007-2012", "--min-occ", "3", "--out", str(out)],
            capture_output=True, text=True, env={**env, **blas},
        )
        assert result.returncode == 0, (name, result.stderr)
        found[name] = [(out / f).read_bytes() for f in ("network.clu", "cluster_summary.csv")]
    for name in settings:
        assert found[name] == found["one-thread"], name


PACKAGE_DIR = Path(pipeline.__file__).resolve().parent
MODULES = sorted("cowordmap" if p.stem == "__init__" else f"cowordmap.{p.stem}"
                 for p in PACKAGE_DIR.glob("*.py") if p.stem != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a module that leans on another's import order fails here, in a fresh process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("seed", [1, 2])
def test_record_order_changes_no_result(tmp_path, capsys, seed):
    # the rows are parsed and reshuffled as CSV rows: a quoted cell may hold a line break
    with open(RECORDS_CSV, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    reordered = random.Random(seed).sample(rows, len(rows))
    assert reordered != rows
    shuffled = tmp_path / "shuffled.csv"
    with open(shuffled, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *reordered])
    args = ["run", "--mapping", str(MAPPING_TXT), "--windows", "2001-2006,2007-2012", "--min-occ", "2"]
    assert main([*args, "--records", str(RECORDS_CSV), "--out", str(tmp_path / "plain")]) == 0
    assert main([*args, "--records", str(shuffled), "--out", str(tmp_path / "shuffled")]) == 0
    capsys.readouterr()
    plain, again = snapshot(tmp_path / "plain"), snapshot(tmp_path / "shuffled")
    assert set(plain) == set(again) == EXPECTED_FILES
    assert plain["records.csv"] != again["records.csv"]
    for name in EXPECTED_FILES - {"records.csv", "descriptors.csv", "manifest.json"}:
        assert plain[name] == again[name], name


@pytest.mark.parametrize("name", ["records.csv", "mapping.txt", "scheme_a.txt", "run.cfg", "vertices.csv"])
def test_cli_non_utf8_input_exit_one(tmp_path, capsys, name):
    inputs = {"records.csv": RECORDS_CSV, "mapping.txt": MAPPING_TXT,
              "scheme_a.txt": pipeline.default_scheme_path("a")}
    for file_name, source in inputs.items():
        (tmp_path / file_name).write_bytes(source.read_bytes())
    (tmp_path / "run.cfg").write_text("windows = 2001-2006,2007-2012\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["--records", str(tmp_path / "records.csv"), "--mapping", str(tmp_path / "mapping.txt"),
            "--scheme-a", str(tmp_path / "scheme_a.txt"), "--config", str(tmp_path / "run.cfg"),
            "--out", str(out)]
    command = "run"
    if name == "vertices.csv":  # an artifact of a prior stage, read by cluster
        assert main(["run", *args]) == 0
        command = "cluster"
    bad = out / name if name == "vertices.csv" else tmp_path / name
    bad.write_bytes(b"\xff" + bad.read_bytes())
    capsys.readouterr()
    code = main([command, *args])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "cannot read " in err and f"{bad}: not UTF-8 text (byte 0xff" in err
    assert "Traceback" not in err


def test_cli_unknown_config_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a misspelt key\nmin_occurence = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--records", str(RECORDS_CSV), "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{cfg}:2: unknown config key 'min_occurence'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "net"])
def test_cli_repeated_config_key_exit_one(tmp_path, capsys, command):
    # neither value may win silently: the file would say two things
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_occurrences = 2\n# a later edit\nmin_occurrences = 7\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--records", str(RECORDS_CSV), "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{cfg}:3: config key 'min_occurrences' is already set on line 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_overlapping_windows_exit_one_before_any_stage(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--records", str(RECORDS_CSV), "--out", str(out), "--windows", "2001-2006,2005-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "--windows" in err and "2001-2006" in err and "2005-2012" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, row, stage", [
    ("edges.csv", "nope,zzz,3", "layout"),
    ("edges.csv", "public libraries,public libraries,1", "layout"),
    ("vertices.csv", "foo,abc", "cluster"),
    ("vertices.csv", "Portugal,0", "cluster"),
    ("vertices.csv", "training,5", "cluster"),
    ("descriptors.csv", "r1", "net"),
])
def test_cli_malformed_artifact_row_exit_one(tmp_path, capsys, name, row, stage):
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines) + row + "\n", encoding="utf-8")
    code = main([stage, "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out),
                 "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"stage '{stage}'" in err and "Traceback" not in err
    assert f"{path}:{len(lines) + 1}: " in err
    reasons = {  # the rows that make_network would reject, and the two files disagreeing
        "nope,zzz,3": f"edge end 'nope' is not a vertex of {out / 'vertices.csv'}",
        "public libraries,public libraries,1": "self-edge on 'public libraries'",
        "training,5": "vertex 'training' is listed twice",
    }
    if row in reasons:
        assert err.splitlines() == [f"error in stage '{stage}': {path}:{len(lines) + 1}: {reasons[row]}"]


# each CSV artifact a stage reads: that stage, and another artifact whose header differs
FOREIGN_CSV = {
    "descriptors.csv": ("net", "frequencies.csv"),
    "vertices.csv": ("cluster", "edges.csv"),
    "edges.csv": ("cluster", "vertices.csv"),
}


@pytest.mark.parametrize("content", ["empty", "foreign"])
@pytest.mark.parametrize("name", FOREIGN_CSV)
def test_subcommands_check_each_csv_header(tmp_path, capsys, name, content):
    out = tmp_path / "out"
    run_pipeline(fixture_config(out))
    stage, foreign = FOREIGN_CSV[name]
    path = out / name
    expected = path.read_text(encoding="utf-8").splitlines()[0]
    if content == "empty":
        path.write_bytes(b"")
        message = f"{path}: empty file, expected header {expected}"
    else:
        path.write_bytes((out / foreign).read_bytes())
        found = (out / foreign).read_text(encoding="utf-8").splitlines()[0]
        message = f"{path}:1: bad header {found!r}, expected {expected!r}"
    before = snapshot(out)
    code = main([stage, "--records", str(RECORDS_CSV), "--mapping", str(MAPPING_TXT), "--out", str(out),
                 "--windows", "2001-2006,2007-2012"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [f"error in stage '{stage}': {message}"]
    assert snapshot(out) == before  # nothing written, no *.part left
