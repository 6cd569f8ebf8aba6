import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexigauge import cli
from lexigauge.errors import ConfigError, ConsistencyError, DomainError, LexigaugeError
from lexigauge.ingest import write_csv
from lexigauge.metrics import read_metrics_csv, write_metrics_csv
from lexigauge.report import (
    KNOWN_FORMATS,
    AnalysisConfig,
    CorpusConfig,
    OutputConfig,
    RunConfig,
    _analyze_corpus,
    emit_density_svg,
    load_run_config,
    report_json_bytes,
    run_compare,
)
from lexigauge.stats import DensitySeries, kde
from lexigauge.textproc import TokenPolicy
from make_goldens import GOLDEN_NETWORKS, golden_json, sampled_config


def make_config(data_dir, out_dir, *, formats=("json", "csv", "svg", "gexf"), **analysis):
    return RunConfig(
        corpora=(
            CorpusConfig(csv_path=str(data_dir / "corpus_process.csv"), label="Process Review"),
            CorpusConfig(
                csv_path=str(data_dir / "corpus_leadership.csv"), label="Leadership Studies"
            ),
        ),
        analysis=AnalysisConfig(kde_grid_points=64, network_seed=7, **analysis),
        output=OutputConfig(directory=str(out_dir), formats=formats),
    )


# ---------------------------------------------------------------------------
# Config validation and loading
# ---------------------------------------------------------------------------


def test_config_requires_seed_with_sample_size(data_dir, tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(
            corpora=(
                CorpusConfig(csv_path="a.csv", label="A", sample_size=5),
                CorpusConfig(csv_path="b.csv", label="B"),
            )
        )


def test_config_rejects_identical_labels():
    with pytest.raises(ConfigError):
        RunConfig(
            corpora=(
                CorpusConfig(csv_path="a.csv", label="same"),
                CorpusConfig(csv_path="b.csv", label="same"),
            )
        )


def test_config_rejects_labels_colliding_as_filenames():
    with pytest.raises(ConfigError):
        RunConfig(
            corpora=(
                CorpusConfig(csv_path="a.csv", label="Corpus A"),
                CorpusConfig(csv_path="b.csv", label="corpus-a"),
            )
        )


def test_config_rejects_unknown_format():
    with pytest.raises(ConfigError):
        RunConfig(
            corpora=(
                CorpusConfig(csv_path="a.csv", label="A"),
                CorpusConfig(csv_path="b.csv", label="B"),
            ),
            output=OutputConfig(formats=("json", "pdf")),
        )


def test_load_run_config_happy_path(tmp_path, data_dir):
    manifest = {
        "corpora": [
            {"csv_path": str(data_dir / "corpus_process.csv"), "label": "A", "sample_size": 10, "seed": 1},
            {"csv_path": str(data_dir / "corpus_leadership.csv"), "label": "B"},
        ],
        "analysis": {"min_title_frequency": 1, "kde_grid_points": 32},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    config = load_run_config(path)
    assert config.corpora[0].sample_size == 10
    assert config.analysis.min_title_frequency == 1
    assert config.output.formats == ("json",)


def test_load_run_config_rejects_one_corpus(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"corpora": [{"csv_path": "a.csv", "label": "A"}]}))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_load_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "corpora": [
                    {"csv_path": "a.csv", "label": "A"},
                    {"csv_path": "b.csv", "label": "B"},
                ],
                "analysis": {"made_up_knob": 3},
            }
        )
    )
    with pytest.raises(ConfigError):
        load_run_config(path)


# ---------------------------------------------------------------------------
# run_compare
# ---------------------------------------------------------------------------


def test_run_compare_report_structure(data_dir, tmp_path):
    report = run_compare(make_config(data_dir, tmp_path / "out"))
    assert len(report.corpora) == 2
    for corpus in report.corpora:
        assert set(corpus.descriptives) == {"title_length", "fkgl", "yules_k"}
        assert corpus.clusters.total_nodes == corpus.graph.node_count()
    assert set(report.comparisons) == {"title_length", "fkgl", "yules_k"}
    # toy corpora: A has one abstract-less document, B none
    assert report.corpora[0].missing_abstract_count == 1
    assert report.corpora[1].missing_abstract_count == 0
    assert report.corpora[0].skipped_rows == 1


def test_run_compare_matches_golden_snapshot(data_dir, tmp_path):
    report = run_compare(make_config(data_dir, tmp_path / "out"))
    doc = report.to_json_dict()
    doc.pop("provenance")
    for corpus in doc["corpora"]:
        corpus.pop("source_csv")
    rendered = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    golden = (data_dir / "golden_report.json").read_text(encoding="utf-8")
    assert rendered == golden


def test_sampled_run_matches_its_golden(data_dir, tmp_path):
    report = run_compare(sampled_config(str(tmp_path / "out")))
    golden = (data_dir / "golden_report_sampled.json").read_text(encoding="utf-8")
    assert golden_json(report) == golden


def test_a_sampled_run_holds_no_unsampled_abstract(data_dir, tmp_path):
    # 2,000 rows with abstracts of about 3 KB, 20 of them sampled: holding
    # every row's abstract until the sample is drawn traces more than the
    # file's size.  A first run fills the lazily built tables, which any
    # run keeps, so the traced peak is the second run's own.
    words = "team leadership process change firm market network growth trust role".split()
    rows = [
        [f"r{i}", f"{words[i % 10].title()} {words[i % 7]} and {words[i % 9]} studies",
         " ".join(f"The {words[(i + k) % 10]} of firm {k} shapes {words[i * k % 10]} growth."
                  for k in range(70)),
         2000 + i % 20]
        for i in range(2000)
    ]
    export = tmp_path / "long.csv"
    write_csv(export, ["Id", "Title", "Abstract", "Year"], rows)
    analysis = AnalysisConfig()
    warm = CorpusConfig(str(data_dir / "corpus_process.csv"), "warm", sample_size=10, seed=1)
    _analyze_corpus(warm, analysis)
    tracemalloc.start()
    try:
        _analyze_corpus(CorpusConfig(str(export), "long", sample_size=20, seed=1), analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * export.stat().st_size


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
def test_a_sampled_compare_reads_a_pipe_once(data_dir, tmp_path):
    # A pipe's abstracts are held, since it cannot be read twice.  A second
    # open would wait for a writer that never comes, so the compare runs in
    # a child with a timeout.  Its metrics equal a regular file's.
    source = data_dir / "corpus_process.csv"
    pipe = tmp_path / "process.fifo"
    os.mkfifo(pipe)

    def write():
        try:
            with open(pipe, "wb") as stream:
                stream.write(source.read_bytes())
        except OSError:  # the child closed the pipe early
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()

    def argv(corpus_a, out):
        return ["compare", "--corpus-a", str(corpus_a), "--label-a", "process",
                "--corpus-b", str(data_dir / "corpus_leadership.csv"), "--label-b", "leadership",
                "--sample-size", "12", "--seed", "3", "--formats", "csv", "--out", str(out)]

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lexigauge.cli", *argv(pipe, tmp_path / "piped")],
            env=env, capture_output=True, text=True, timeout=60,
        )
    finally:
        # A writer still waiting for its reader is let through to a closed pipe.
        os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert done.returncode == 0, done.stderr
    assert not writer.is_alive()
    assert cli.main(argv(source, tmp_path / "file")) == 0
    for name in ("metrics_process.csv", "metrics_leadership.csv"):
        assert (tmp_path / "piped" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_run_compare_gexf_matches_golden_networks(data_dir, tmp_path):
    """Each corpus's GEXF pins every node's community, betweenness and
    degree, bytes that no report golden holds."""
    out = tmp_path / "out"
    run_compare(make_config(data_dir, out))
    for slug in GOLDEN_NETWORKS:
        network = f"network_{slug}.gexf"
        assert (out / network).read_bytes() == (data_dir / f"golden_{network}").read_bytes()


def test_run_compare_writes_expected_files(data_dir, tmp_path):
    out = tmp_path / "out"
    run_compare(make_config(data_dir, out, formats=("json", "csv", "svg", "gexf", "graphml")))
    names = {p.name for p in out.iterdir()}
    assert "report.json" in names
    for slug in ("process_review", "leadership_studies"):
        assert f"metrics_{slug}.csv" in names
        assert f"network_{slug}.gexf" in names
        assert f"network_{slug}.graphml" in names
        for metric in ("title_length", "fkgl", "yules_k"):
            assert f"density_{metric}_{slug}.csv" in names
    for metric in ("title_length", "fkgl", "yules_k"):
        assert f"density_{metric}.svg" in names
    assert not [n for n in names if n.startswith(".lexigauge-")]


def test_run_compare_deterministic_across_runs(data_dir, tmp_path):
    config_a = make_config(data_dir, tmp_path / "one")
    config_b = make_config(data_dir, tmp_path / "two")
    run_compare(config_a)
    run_compare(config_b)

    def normalized_report(path: Path) -> str:
        doc = json.loads(path.read_text())
        doc["provenance"].pop("generated_at")
        return json.dumps(doc, sort_keys=True)

    assert normalized_report(tmp_path / "one" / "report.json") == normalized_report(
        tmp_path / "two" / "report.json"
    )
    for name in [
        "metrics_process_review.csv",
        "density_fkgl.svg",
        "network_process_review.gexf",
    ]:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_run_compare_sampling_is_seeded(data_dir, tmp_path):
    config = RunConfig(
        corpora=(
            CorpusConfig(
                csv_path=str(data_dir / "corpus_process.csv"),
                label="A",
                sample_size=12,
                seed=5,
            ),
            CorpusConfig(
                csv_path=str(data_dir / "corpus_leadership.csv"),
                label="B",
                sample_size=12,
                seed=6,
            ),
        ),
        analysis=AnalysisConfig(kde_grid_points=64),
        output=OutputConfig(directory=str(tmp_path / "out"), formats=("json", "csv")),
    )
    report = run_compare(config)
    assert all(len(c.records) == 12 for c in report.corpora)
    table = read_metrics_csv(tmp_path / "out" / "metrics_a.csv")
    assert len(table) == 12
    assert len({r.doc_id for r in table}) == 12


def test_run_compare_sample_error_names_corpus_and_leaves_no_outputs(data_dir, tmp_path):
    out = tmp_path / "out"
    config = RunConfig(
        corpora=(
            CorpusConfig(
                csv_path=str(data_dir / "corpus_process.csv"),
                label="tiny-one",
                sample_size=9999,
                seed=1,
            ),
            CorpusConfig(csv_path=str(data_dir / "corpus_leadership.csv"), label="B"),
        ),
        output=OutputConfig(directory=str(out)),
    )
    with pytest.raises(DomainError) as err:
        run_compare(config)
    assert "tiny-one" in str(err.value)
    assert not out.exists() or not any(out.iterdir())


def test_run_compare_missing_file_names_corpus(data_dir, tmp_path):
    config = RunConfig(
        corpora=(
            CorpusConfig(csv_path=str(tmp_path / "nope.csv"), label="ghost"),
            CorpusConfig(csv_path=str(data_dir / "corpus_leadership.csv"), label="B"),
        ),
        output=OutputConfig(directory=str(tmp_path / "out")),
    )
    message = r"^corpus 'ghost': \[Errno 2\] .*nope\.csv'$"
    with pytest.raises(LexigaugeError, match=message) as err:
        run_compare(config)
    assert isinstance(err.value.__cause__, FileNotFoundError)
    assert not (tmp_path / "out").exists()


def test_metric_csv_lists_every_sampled_document_once(data_dir, tmp_path):
    out = tmp_path / "out"
    run_compare(make_config(data_dir, out, formats=("csv",)))
    for slug, expected in (("process_review", 20), ("leadership_studies", 20)):
        rows = read_metrics_csv(out / f"metrics_{slug}.csv")
        assert len(rows) == expected
        assert len({r.doc_id for r in rows}) == expected


def test_self_audit_drift_raises_and_leaves_no_artifact(data_dir, tmp_path, monkeypatch):
    def drifting(source):
        records = read_metrics_csv(source)
        records[0] = replace(records[0], fkgl=records[0].fkgl + 1.0)
        return records

    monkeypatch.setattr("lexigauge.report.read_metrics_csv", drifting)
    out = tmp_path / "out"
    with pytest.raises(ConsistencyError) as err:
        run_compare(make_config(data_dir, out, formats=("json", "csv", "svg", "gexf", "graphml")))
    assert str(err.value) == (
        "corpus 'Process Review': metric table round-trip changed the 'fkgl' descriptives"
    )
    assert not out.exists() or not any(out.iterdir())


def test_a_blocked_artifact_leaves_the_output_directory_as_it_was(data_dir, tmp_path, capsys):
    formats = "json,csv,svg,gexf,graphml"
    run_compare(make_config(data_dir, tmp_path / "fresh", formats=tuple(formats.split(","))))
    names = sorted(path.name for path in (tmp_path / "fresh").iterdir())
    assert len(names) == 16

    def snapshot(out):
        return {str(p.relative_to(out)): p.is_file() and p.read_bytes() for p in out.rglob("*")}

    for position, name in enumerate(names):
        out = tmp_path / f"out{position}"
        out.mkdir()
        if name != "report.json":
            (out / "report.json").write_bytes(b"old report\n")
        (out / name).mkdir()
        (out / name / "kept.txt").write_bytes(b"kept\n")
        before = snapshot(out)
        code = cli.main(
            ["compare", "--corpus-a", str(data_dir / "corpus_process.csv"), "--label-a",
             "Process Review", "--corpus-b", str(data_dir / "corpus_leadership.csv"),
             "--label-b", "Leadership Studies", "--out", str(out), "--formats", formats]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {out / name}: exists and is not a regular file\n"
        )
        assert snapshot(out) == before


def test_metric_table_is_rendered_once_per_corpus(data_dir, tmp_path):
    with mock.patch("lexigauge.report.write_metrics_csv", wraps=write_metrics_csv) as spy:
        run_compare(make_config(data_dir, tmp_path / "out", formats=("json", "csv")))
    assert spy.call_count == 2


def test_report_json_bytes_is_order_stable(data_dir, tmp_path):
    report = run_compare(make_config(data_dir, tmp_path / "out", formats=("json",)))
    assert report_json_bytes(report) == report_json_bytes(report)


def test_run_compare_honors_per_corpus_column_map(data_dir, tmp_path):
    renamed = tmp_path / "renamed.csv"
    original = (data_dir / "corpus_process.csv").read_text(encoding="utf-8")
    header, rest = original.split("\n", 1)
    assert header == "Title,Abstract,Year,Source title,Cited by,Author count"
    renamed.write_text("T,Summary,Y,Venue,Cites,Authors\n" + rest, encoding="utf-8")
    config = RunConfig(
        corpora=(
            CorpusConfig(
                csv_path=str(renamed),
                label="Renamed",
                column_map={"title": "T", "abstract": "Summary", "year": "Y"},
            ),
            CorpusConfig(csv_path=str(data_dir / "corpus_leadership.csv"), label="B"),
        ),
        analysis=AnalysisConfig(kde_grid_points=64),
        output=OutputConfig(directory=str(tmp_path / "out"), formats=("json",)),
    )
    report = run_compare(config)
    assert report.corpora[0].parsed_documents == 20


# ---------------------------------------------------------------------------
# Density SVG
# ---------------------------------------------------------------------------


def _two_series():
    values_a = [float(v) for v in [1, 2, 2, 3, 3, 3, 4, 4, 5, 6]]
    values_b = [float(v) for v in [4, 5, 5, 6, 6, 6, 7, 8, 8, 9]]
    return kde(values_a, 64), kde(values_b, 64)


def test_svg_contains_exactly_two_paths():
    a, b = _two_series()
    svg = emit_density_svg(a, b, labels=("one", "two")).decode()
    assert svg.count("<path ") == 2
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_svg_y_axis_upper_bound_covers_max_density():
    a, b = _two_series()
    svg = emit_density_svg(a, b, labels=("one", "two")).decode()
    peak = max(max(a.density), max(b.density))
    tick_values = [
        float(m)
        for m in re.findall(r'font-size="11">([-0-9.e]+)</text>', svg)
    ]
    assert max(tick_values) >= peak


def test_svg_matches_golden(data_dir, tmp_path):
    report = run_compare(make_config(data_dir, tmp_path / "out", formats=("json",)))
    a, b = report.corpora
    svg = emit_density_svg(
        a.densities["fkgl"], b.densities["fkgl"], labels=(a.label, b.label), title="fkgl"
    )
    assert svg == (data_dir / "golden_density.svg").read_bytes()


def test_svg_rejects_mismatched_series():
    a, _ = _two_series()
    broken = DensitySeries(grid=a.grid, density=a.density[:-1], bandwidth=a.bandwidth)
    with pytest.raises(DomainError):
        emit_density_svg(a, broken, labels=("x", "y"))


def test_svg_rejects_empty_series():
    a, _ = _two_series()
    empty = DensitySeries(grid=(), density=(), bandwidth=1.0)
    with pytest.raises(DomainError):
        emit_density_svg(a, empty, labels=("x", "y"))


@pytest.mark.parametrize(
    "grid, density", [((0.0, float("inf")), (0.1, 0.2)), ((0.0, 1.0), (0.1, float("nan")))]
)
def test_svg_rejects_a_non_finite_value(grid, density):
    a, _ = _two_series()
    with pytest.raises(DomainError, match="^density series contains non-finite values$"):
        emit_density_svg(a, DensitySeries(grid, density, 1.0), labels=("x", "y"))


def test_svg_of_all_zero_densities_has_a_y_axis_up_to_one():
    flat = DensitySeries((0.0, 1.0), (0.0, 0.0), 1.0)
    svg = emit_density_svg(flat, flat, labels=("x", "y")).decode()
    ticks = re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]*)<', svg)
    assert ticks == ["0", "0.25", "0.5", "0.75", "1"]


def test_svg_rejects_a_peak_below_the_smallest_normal_float():
    # The y-axis rounding step, 10**(exponent - 1), would be 0.0.
    flat = DensitySeries((0.0, 1.0), (0.0, 0.0), 1.0)
    tiny = DensitySeries((0.0, 1.0), (5e-324, 5e-324), 1.0)
    message = r"^density peak 5e-324 is below the smallest normal float$"
    with pytest.raises(DomainError, match=message):
        emit_density_svg(tiny, flat, ("a", "b"))
    smallest = DensitySeries((0.0, 1.0), (sys.float_info.min, 0.0), 1.0)
    assert emit_density_svg(smallest, flat, ("a", "b")).count(b"<path ") == 2


def test_svg_escapes_labels():
    a, b = _two_series()
    svg = emit_density_svg(a, b, labels=("a<b", "c&d")).decode()
    assert "a&lt;b" in svg and "c&amp;d" in svg


@pytest.mark.parametrize(
    "text, fault",
    [
        ("a\x01", "holds a character XML 1.0 forbids"),
        ("b\uffff", "holds a character XML 1.0 forbids"),
        ("caf\udce9", "is not valid UTF-8"),
    ],
)
@pytest.mark.parametrize("where", ["label", "title"])
def test_svg_rejects_text_xml_cannot_hold(where, text, fault):
    a, b = _two_series()
    labels, title = ((text, "b"), "t") if where == "label" else (("a", "b"), text)
    with pytest.raises(DomainError, match=f"^{re.escape(f'SVG text {text!r} {fault}')}$"):
        emit_density_svg(a, b, labels=labels, title=title)


def _cdata_escape(text: str) -> str:
    """The SVG's text escaping before it shared semnet's tables."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_SVG_TEXT = st.text(alphabet="ab &<>\"'\t\r\néİß", max_size=6)


@settings(max_examples=200, deadline=None)
@given(labels=st.tuples(_SVG_TEXT, _SVG_TEXT), title=_SVG_TEXT)
def test_svg_escapes_labels_and_title_as_before(labels, title):
    # Character data: quotes and whitespace stay as they are.
    a, b = _two_series()
    svg = emit_density_svg(a, b, labels=labels, title=title).decode()
    if title:
        assert f'font-size="16">{_cdata_escape(title)}</text>' in svg
    for label in labels:
        assert f'font-size="12">{_cdata_escape(label)}</text>' in svg


_UNIT = DensitySeries((0.0, 1.0), (0.0, 1.0), 1.0)


@pytest.mark.parametrize(
    "a, b",
    [
        # A zero-width x range.
        (DensitySeries((2.0, 2.0), (0.1, 0.2), 1.0), DensitySeries((2.0,), (0.3,), 1.0)),
        # An x span past the float range.
        (DensitySeries((-1e308, 1e308), (0.0, 1.0), 1.0), _UNIT),
        # A density peak whose y-axis top rounds past the float range.
        (DensitySeries((0.0, 1.0), (0.0, 1.75e308), 1.0), _UNIT),
        # A curve point so far outside the frame that its position overflows.
        (_UNIT, DensitySeries((1.0, 0.0), (-1e308, 0.0), 1.0)),
    ],
    ids=["zero-width", "x-span-overflow", "y-axis-overflow", "point-overflow"],
)
def test_svg_rejects_a_degenerate_plot_frame(a, b):
    with pytest.raises(DomainError, match=r"^degenerate plot ranges$"):
        emit_density_svg(a, b, labels=("x", "y"))


def test_svg_of_a_descending_grid_draws_a_reversed_x_axis():
    falling = DensitySeries((4.0, 0.0), (0.5, 0.25), 1.0)
    svg = emit_density_svg(falling, falling, labels=("x", "y")).decode()
    ticks = re.findall(r'"middle" font-family="sans-serif" font-size="11">([^<]*)<', svg)
    assert ticks == ["4", "3", "2", "1", "0"]


_PLOT_VALUE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _series_pairs(draw):
    size = draw(st.integers(1, 5))
    values = st.lists(_PLOT_VALUE, min_size=size, max_size=size).map(tuple)
    return tuple(DensitySeries(draw(values), draw(values), 1.0) for _ in range(2))


@settings(max_examples=400, deadline=None)
@given(_series_pairs())
@example((DensitySeries((-1e308, 1e308), (0.0, 1.0), 1.0),) * 2)
@example((DensitySeries((0.0, 1.0), (0.0, 1.75e308), 1.0),) * 2)
@example((DensitySeries((0.0, 1e308), (0.0, 1e308), 1.0),) * 2)
@example((DensitySeries((5e-324, 1e-323), (0.0, 2.2250738585072014e-308), 1.0),) * 2)
def test_svg_writes_finite_numbers_or_raises(pair):
    # Every attribute value and text node: a position or tick that left the
    # float range would be written as nan or inf.
    try:
        svg = emit_density_svg(*pair, labels=("a", "b"), title="t").decode()
    except DomainError:
        return
    written = re.findall(r'"([^"]*)"|>([^<]+)<', svg)
    assert not [value for value in map("".join, written) if re.search("nan|inf", value)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_compare_with_flags(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "compare",
            "--corpus-a", str(data_dir / "corpus_process.csv"),
            "--label-a", "A",
            "--corpus-b", str(data_dir / "corpus_leadership.csv"),
            "--label-b", "B",
            "--out", str(out),
            "--formats", "json,csv",
        ]
    )
    assert code == 0
    assert (out / "report.json").exists()
    printed = capsys.readouterr().out
    assert re.search(r"fkgl: U=\S+ p=\d\.\d{2}e[+-]\d+ r=", printed)


def test_cli_compare_with_config_and_overrides(data_dir, tmp_path):
    manifest = {
        "corpora": [
            {"csv_path": str(data_dir / "corpus_process.csv"), "label": "A"},
            {"csv_path": str(data_dir / "corpus_leadership.csv"), "label": "B"},
        ],
        "analysis": {"kde_grid_points": 32},
        "output": {"directory": str(tmp_path / "ignored"), "formats": ["json", "gexf"]},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(manifest))
    out = tmp_path / "real"
    code = cli.main(["compare", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "network_a.gexf").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_compare_without_corpora_is_input_error(capsys):
    assert cli.main(["compare"]) == 1
    assert "error:" in capsys.readouterr().err


_TWO_CORPORA = [{"csv_path": "a.csv", "label": "A"}, {"csv_path": "b.csv", "label": "B"}]


def _manifest(first_corpus=(), **sections):
    """A two-corpus manifest with ``first_corpus`` keys set on corpus 1."""
    return {"corpora": [{**_TWO_CORPORA[0], **dict(first_corpus)}, _TWO_CORPORA[1]], **sections}


@pytest.mark.parametrize(
    "manifest,key",
    [
        ({"corpora": [1, 2]}, "corpus 1"),
        ({"corpora": "a.csv"}, "'corpora'"),
        (_manifest(analysis=[]), "'analysis'"),
        (_manifest(analysis=None), "'analysis'"),
        (_manifest(output="out"), "'output'"),
        (_manifest(analysis={"token_policy": [True]}), "token_policy"),
        (_manifest({"sample_size": "5", "seed": 1}), "'sample_size'"),
        (_manifest({"seed": True}), "'seed'"),
        (_manifest({"label": 7}), "'label'"),
        (_manifest({"csv_path": None}), "'csv_path'"),
        (_manifest({"column_map": {"title": 3}}), "'column_map'"),
        (_manifest(analysis={"kde_grid_points": True}), "'kde_grid_points'"),
        (_manifest(analysis={"network_seed": None}), "'network_seed'"),
        (_manifest(analysis={"min_title_frequency": 2.5}), "'min_title_frequency'"),
        (_manifest(analysis={"louvain_resolution": "1"}), "'louvain_resolution'"),
        (_manifest(analysis={"louvain_resolution": False}), "'louvain_resolution'"),
        (_manifest(analysis={"louvain_resolution": float("nan")}), "'louvain_resolution'"),
        (_manifest(analysis={"stopwords_path": 0}), "'stopwords_path'"),
        (_manifest(analysis={"token_policy": {"keep_numbers": 1}}), "'keep_numbers'"),
        (_manifest(output={"formats": "json"}), "'formats'"),
        (_manifest(output={"formats": ["json", 1]}), "'formats'"),
        (_manifest(output={"directory": None}), "'directory'"),
    ],
)
def test_cli_compare_config_type_errors_are_input_errors(tmp_path, capsys, manifest, key):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(manifest))
    assert cli.main(["compare", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def test_load_run_config_accepts_null_optional_fields():
    config = load_run_config(
        _manifest(
            {"sample_size": None, "seed": None, "column_map": None},
            analysis={"stopwords_path": None, "louvain_resolution": 1},
        )
    )
    assert config.corpora[0].sample_size is None
    assert config.analysis.louvain_resolution == 1


def test_cli_compare_missing_file_is_input_error(tmp_path, capsys):
    code = cli.main(
        [
            "compare",
            "--corpus-a", str(tmp_path / "missing_a.csv"),
            "--corpus-b", str(tmp_path / "missing_b.csv"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize("command", ["compare --config", "compare --corpus-a", "compare --stopwords", "stats"])
def test_cli_invalid_utf8_input_is_input_error(data_dir, tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b'{"corpora": []}\nTitle\nCaf\xe9 title\n')
    good_a = str(data_dir / "corpus_process.csv")
    good_b = str(data_dir / "corpus_leadership.csv")
    argv = {
        "compare --config": ["compare", "--config", str(bad)],
        "compare --corpus-a": ["compare", "--corpus-a", str(bad), "--corpus-b", good_b],
        "compare --stopwords": [
            "compare", "--corpus-a", good_a, "--corpus-b", good_b, "--stopwords", str(bad)
        ],
        "stats": ["stats", str(bad), str(bad)],
    }[command]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "latin1.txt: not valid UTF-8" in err
    assert "Traceback" not in err


def test_cli_compare_oversized_sample_is_input_error(data_dir, tmp_path, capsys):
    code = cli.main(
        [
            "compare",
            "--corpus-a", str(data_dir / "corpus_process.csv"),
            "--corpus-b", str(data_dir / "corpus_leadership.csv"),
            "--sample-size", "9999",
            "--seed", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,field",
    [
        (["semnet", "{leadership}", "--seed=-1"], "'network_seed'"),
        (["semnet", "{leadership}", "--resolution", "nan"], "'louvain_resolution'"),
        (["semnet", "{leadership}", "--resolution", "inf"], "'louvain_resolution'"),
        (["semnet", "{leadership}", "--resolution=-inf"], "'louvain_resolution'"),
        (
            ["compare", "--corpus-a", "{process}", "--corpus-b", "{leadership}",
             "--seed", "-1", "--sample-size", "5"],
            "'seed'",
        ),
    ],
)
def test_cli_bad_seed_or_resolution_is_input_error(data_dir, tmp_path, capsys, argv, field):
    paths = {
        "process": str(data_dir / "corpus_process.csv"),
        "leadership": str(data_dir / "corpus_leadership.csv"),
    }
    out = tmp_path / "out"
    assert cli.main([*(arg.format(**paths) for arg in argv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest,key",
    [
        (_manifest({"seed": -1}), "'seed'"),
        (_manifest({"sample_size": 5, "seed": -3}), "'seed'"),
        (_manifest(analysis={"network_seed": -1}), "'network_seed'"),
        (_manifest(analysis={"louvain_resolution": float("-inf")}), "'louvain_resolution'"),
        (_manifest(analysis={"louvain_resolution": 10**400}), "'louvain_resolution'"),
    ],
)
def test_cli_compare_config_value_errors_are_input_errors(tmp_path, capsys, manifest, key):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(manifest))
    assert cli.main(["compare", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def test_configs_reject_negative_seeds_and_non_finite_resolution():
    with pytest.raises(ConfigError, match="'seed'"):
        CorpusConfig(csv_path="a.csv", label="A", seed=-1)
    with pytest.raises(ConfigError, match="'seed'"):
        replace(CorpusConfig(csv_path="a.csv", label="A", seed=0), seed=-2)
    with pytest.raises(ConfigError, match="'network_seed'"):
        AnalysisConfig(network_seed=-1)
    for resolution in (float("nan"), float("inf"), float("-inf"), 10**400):
        with pytest.raises(ConfigError, match="'louvain_resolution'"):
            replace(AnalysisConfig(), louvain_resolution=resolution)
    assert CorpusConfig(csv_path="a.csv", label="A", seed=0).seed == 0
    assert AnalysisConfig(network_seed=0, louvain_resolution=0).louvain_resolution == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["semnet", "{leadership}", "--resolution=-1"],
        ["semnet", "{leadership}", "--resolution=-1e-300"],
        ["compare", "--config", "{manifest}"],
    ],
)
def test_negative_resolution_is_input_error(data_dir, tmp_path, capsys, argv):
    # With a resolution below 0 every merge raises modularity, so Louvain
    # returns one community per connected component.
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps(_manifest(analysis={"louvain_resolution": -1})))
    paths = {"leadership": str(data_dir / "corpus_leadership.csv"), "manifest": str(manifest)}
    out = tmp_path / "out"
    assert cli.main([*(arg.format(**paths) for arg in argv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'louvain_resolution'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_resolution_zero_is_allowed_and_negative_is_not():
    for resolution in (0, -0.0):
        config = load_run_config(_manifest(analysis={"louvain_resolution": resolution}))
        assert config.analysis.louvain_resolution == 0
    for resolution in (-1, -0.5, -5e-324):
        with pytest.raises(ConfigError, match="'louvain_resolution'"):
            AnalysisConfig(louvain_resolution=resolution)


def test_manifest_rejects_kde_grid_below_16():
    # Checked with the manifest, not after the first corpus is analysed.
    with pytest.raises(ConfigError, match="'kde_grid_points' must be >= 16, got 15"):
        load_run_config(_manifest(analysis={"kde_grid_points": 15}))
    assert load_run_config(_manifest(analysis={"kde_grid_points": 16})).analysis.kde_grid_points == 16


def test_manifest_rejects_kde_grid_above_2_to_the_16(tmp_path, capsys):
    # A density holds one (x, y) pair per grid point, so a huge grid is a
    # configuration error (exit 1), not a memory error in kde (exit 2).
    huge = _manifest(analysis={"kde_grid_points": 10**15})
    message = r"^'kde_grid_points' must be <= 65536, got 1000000000000000$"
    with pytest.raises(ConfigError, match=message):
        load_run_config(huge)
    largest = load_run_config(_manifest(analysis={"kde_grid_points": 2**16}))
    assert largest.analysis.kde_grid_points == 2**16
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps(huge))
    assert cli.main(["compare", "--config", str(manifest), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'kde_grid_points'" in err


def test_manifest_rejects_negative_author_total():
    with pytest.raises(ConfigError, match="corpus 'A': 'author_total' must be non-negative"):
        load_run_config(_manifest({"author_total": -1}))
    assert load_run_config(_manifest({"author_total": 0})).corpora[0].author_total == 0


@pytest.mark.parametrize(
    "key,value",
    [("sample_size", True), ("seed", True), ("sample_size", 2.0), ("author_total", True),
     ("author_total", 3.5)],
)
def test_run_compare_config_refuses_a_count_that_is_not_an_int(data_dir, tmp_path, key, value):
    # The manifest reader refuses these; a CorpusConfig built from Python
    # refuses them too, before numpy or the corpus summary sees them.
    config = make_config(data_dir, tmp_path / "out", formats=("json",))
    counts = {"sample_size": 2, "seed": 1, key: value}
    message = rf"^corpus 'Process Review': '{key}' must be an integer, got {value!r}$"
    with pytest.raises(ConfigError, match=message):
        first = replace(config.corpora[0], **counts)
        run_compare(replace(config, corpora=(first, config.corpora[1])))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value,rule",
    [("network_seed", True, "an integer"), ("network_seed", 2.5, "an integer"),
     ("min_title_frequency", 0, "positive"), ("min_title_frequency", -3, "positive"),
     ("min_title_frequency", True, "an integer"), ("min_title_frequency", 2.5, "an integer"),
     ("louvain_resolution", True, "finite and >= 0"),
     ("louvain_resolution", "1", "finite and >= 0"), ("kde_grid_points", 64.0, "an integer")],
)
def test_run_compare_analysis_refuses_what_the_manifest_refuses(data_dir, tmp_path, key, value,
                                                                rule):
    # Unchecked, True would go into provenance as the network seed, 2.5 and
    # 64.0 reach numpy as a TypeError, and a frequency below 1 act as 1.
    config = make_config(data_dir, tmp_path / "out", formats=("json",))
    with pytest.raises(ConfigError, match=rf"^'{key}' must be {rule}, got {value!r}$"):
        run_compare(replace(config, analysis=replace(config.analysis, **{key: value})))
    assert not (tmp_path / "out").exists()


def test_corpus_config_requires_a_seed_with_sample_size_when_built():
    with pytest.raises(ConfigError, match=r"^corpus 'A': a seed is required when sample_size"):
        CorpusConfig(csv_path="a.csv", label="A", sample_size=5)
    assert CorpusConfig(csv_path="a.csv", label="A", sample_size=5, seed=0).sample_size == 5


def test_cli_semnet_min_title_frequency_zero_is_input_error(data_dir, tmp_path, capsys):
    out = tmp_path / "leadership.gexf"
    argv = ["semnet", str(data_dir / "corpus_leadership.csv"), "--min-title-frequency", "0",
            "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: 'min_title_frequency' must be positive, got 0\n"
    assert not out.exists()


# How argv decodes the byte 0xe9, which is not UTF-8 on its own.
_NOT_UTF8_LABEL = "caf\udce9"


@pytest.mark.parametrize("source", ["flag", "manifest", "file name"])
def test_label_utf8_cannot_encode_is_input_error(data_dir, tmp_path, capsys, source):
    process = data_dir / "corpus_process.csv"
    leadership = str(data_dir / "corpus_leadership.csv")
    if source == "flag":
        argv = ["--corpus-a", str(process), "--label-a", _NOT_UTF8_LABEL, "--corpus-b", leadership]
    elif source == "manifest":
        manifest = tmp_path / "run.json"
        corpora = [
            {"csv_path": str(process), "label": _NOT_UTF8_LABEL},
            {"csv_path": leadership, "label": "b"},
        ]
        manifest.write_text(json.dumps({"corpora": corpora}))
        argv = ["--config", str(manifest)]
    else:  # the default label is the file name's stem
        renamed = tmp_path / f"{_NOT_UTF8_LABEL}.csv"
        renamed.write_bytes(process.read_bytes())
        argv = ["--corpus-a", str(renamed), "--corpus-b", leadership]
    out = tmp_path / "out"
    assert cli.main(["compare", *argv, "--formats", "json,svg", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: corpus label {_NOT_UTF8_LABEL!r} is not valid UTF-8")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("label", ["a\x01b", "a\x00", "\x1fb", "a\ufffe", "a\uffffb"])
@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_label_xml_forbids_is_input_error(data_dir, tmp_path, capsys, source, label):
    process = str(data_dir / "corpus_process.csv")
    leadership = str(data_dir / "corpus_leadership.csv")
    if source == "flag":
        argv = ["--corpus-a", process, "--label-a", label, "--corpus-b", leadership]
    else:
        manifest = tmp_path / "run.json"
        corpora = [{"csv_path": process, "label": label}, {"csv_path": leadership, "label": "b"}]
        manifest.write_text(json.dumps({"corpora": corpora}))
        argv = ["--config", str(manifest)]
    out = tmp_path / "out"
    assert cli.main(["compare", *argv, "--formats", "svg,gexf", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: corpus label {label!r} holds a character XML 1.0 forbids\n"
    assert not out.exists()


def test_label_may_hold_tab_and_line_ends():
    for label in ("a\tb", "a\nb", "a\rb", "\ufffd"):
        assert CorpusConfig(csv_path="a.csv", label=label).label == label


def test_malformed_manifest_names_its_file(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text('{"corpora": [')
    assert cli.main(["compare", "--config", str(manifest)]) == 1
    assert capsys.readouterr().err == (
        f"error: {manifest}: Expecting value: line 1 column 14 (char 13)\n"
    )
    stream = io.StringIO('{"corpora": [')
    stream.name = "run.json"
    with pytest.raises(ConfigError, match=r"^run\.json: Expecting value"):
        load_run_config(stream)


def test_manifest_integer_past_the_digit_limit_names_its_file(tmp_path, capsys):
    # Python refuses to convert an integer string of more than 4,300 digits.
    manifest = tmp_path / "long.json"
    manifest.write_text('{"corpora": [], "seed": ' + "9" * 5000 + "}")
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1
    assert "5000 digits" in err and not out.exists()


def test_manifest_nested_past_the_recursion_limit_names_its_file(tmp_path, capsys):
    manifest = tmp_path / "deep.json"
    manifest.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: maximum recursion depth exceeded")
    assert err.count("\n") == 1 and not out.exists()


def test_author_total_past_float_range_names_the_corpus(data_dir, tmp_path, capsys):
    # 10**400 authors over 20 documents is past the float range; the message
    # does not print the number, which may be too long to convert.
    manifest = tmp_path / "run.json"
    corpora = [
        {"csv_path": str(data_dir / "corpus_process.csv"), "label": "A"},
        {"csv_path": str(data_dir / "corpus_leadership.csv"), "label": "B",
         "author_total": 10**400},
    ]
    manifest.write_text(json.dumps({"corpora": corpora}))
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: corpus 'B': authors per document is past the float range\n"
    )
    assert not out.exists()


def test_cli_compare_rejects_sample_size_zero(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["compare", "--corpus-a", str(data_dir / "corpus_process.csv"), "--label-a", "A",
            "--corpus-b", str(data_dir / "corpus_leadership.csv"), "--label-b", "B",
            "--sample-size", "0", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: corpus 'A': 'sample_size' must be positive, got 0\n"
    assert not out.exists()


def test_stopwords_flag_beats_manifest_beats_environment(data_dir, tmp_path, monkeypatch):
    lists = {}
    for source in ("env", "manifest", "flag"):
        lists[source] = tmp_path / f"{source}.txt"
        lists[source].write_text("team\n", encoding="utf-8")
    monkeypatch.setenv(cli.STOPWORDS_ENV, str(lists["env"]))

    def stopwords_used(run, analysis, *flags) -> str:
        manifest = tmp_path / "run.json"
        corpora = [
            {"csv_path": str(data_dir / "corpus_process.csv"), "label": "A"},
            {"csv_path": str(data_dir / "corpus_leadership.csv"), "label": "B"},
        ]
        manifest.write_text(json.dumps({"corpora": corpora, "analysis": analysis}))
        out = tmp_path / run
        argv = ["compare", "--config", str(manifest), "--out", str(out), "--formats", "json"]
        assert cli.main([*argv, *flags]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return report["provenance"]["policies"]["graph_policy"]["stopwords"]

    assert stopwords_used("env", {}) == str(lists["env"])
    with_path = {"stopwords_path": str(lists["manifest"])}
    assert stopwords_used("manifest", with_path) == str(lists["manifest"])
    flag = ["--stopwords", str(lists["flag"])]
    assert stopwords_used("flag", with_path, *flag) == str(lists["flag"])


def test_artifact_names_collapse_runs_of_punctuation(data_dir, tmp_path):
    out = tmp_path / "out"
    corpora = (
        CorpusConfig(csv_path=str(data_dir / "corpus_process.csv"), label="Org. Sci. -- 2020"),
        CorpusConfig(csv_path=str(data_dir / "corpus_leadership.csv"), label="B"),
    )
    run_compare(RunConfig(corpora=corpora, output=OutputConfig(str(out), formats=("csv",))))
    assert (out / "metrics_org_sci_2020.csv").exists()
    colliding = (CorpusConfig(csv_path="a.csv", label="A & B"),
                 CorpusConfig(csv_path="b.csv", label="a b"))
    with pytest.raises(ConfigError, match=r"^corpus labels 'A & B' and 'a b' collide"):
        RunConfig(corpora=colliding)


def test_manifest_stream_of_invalid_utf8_names_the_stream(data_dir, tmp_path):
    stream = io.BytesIO(b'{"corpora": [\xff]}')
    message = r"^manifest: not valid UTF-8 at byte 13 \(invalid start byte\)$"
    with pytest.raises(ConfigError, match=message):
        load_run_config(stream)
    stream = io.BytesIO(b'{"corpora": [\xff]}')
    stream.name = "run.json"
    with pytest.raises(ConfigError, match=r"^run\.json: not valid UTF-8 at byte 13 "):
        load_run_config(stream)
    config = make_config(data_dir, tmp_path)
    assert load_run_config(io.BytesIO(json.dumps(asdict(config)).encode())) == config


def test_network_error_names_the_corpus(data_dir, tmp_path, capsys):
    # No title token is in two titles, so pruning leaves the graph no node.
    disjoint = tmp_path / "disjoint.csv"
    disjoint.write_text(
        "Title,Abstract\n"
        "Alpha beta,Leadership matters. Leadership matters a lot for teams.\n"
        "Gamma delta long,Process research studies change over time in organizations.\n"
        "Epsilon zeta longer title,Short one. Another short one. A longer sentence ends it.\n"
    )
    out = tmp_path / "out"
    code = cli.main(
        ["compare", "--corpus-a", str(disjoint), "--corpus-b",
         str(data_dir / "corpus_process.csv"), "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: corpus 'disjoint': the co-word graph has no nodes\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# Manifest reader against its oracle
# ---------------------------------------------------------------------------

# The manifest reader as it was before load_run_config walked the config
# dataclasses' fields: a hand-written JSON kind per key and section, and a
# hand-built RunConfig.  The generic reader must accept, reject and build
# exactly as it does.
_ORACLE_CORPUS_KEYS = {
    "csv_path": "a string",
    "label": "a string",
    "column_map": "an object of strings?",
    "sample_size": "an integer?",
    "seed": "an integer?",
    "author_total": "an integer?",
}
_ORACLE_ANALYSIS_KEYS = {
    "min_title_frequency": "an integer",
    "stopwords_path": "a string?",
    "kde_grid_points": "an integer",
    "network_seed": "an integer",
    "louvain_resolution": "a number",
    "token_policy": "an object",
}
_ORACLE_OUTPUT_KEYS = {"directory": "a string", "formats": "a list of strings"}
_ORACLE_TOKEN_POLICY_KEYS = dict.fromkeys(
    ("keep_numbers", "bind_hyphens", "bind_apostrophes"), "a boolean"
)


def _oracle_is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_ORACLE_IS_KIND = {
    "a string": lambda v: isinstance(v, str),
    "an integer": _oracle_is_int,
    "a number": lambda v: _oracle_is_int(v) or isinstance(v, float),
    "a boolean": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
    "an object of strings": lambda v: isinstance(v, dict)
    and all(isinstance(x, str) for x in v.values()),
    "a list of strings": lambda v: isinstance(v, list)
    and all(isinstance(x, str) for x in v),
}


def _oracle_checked(raw, kinds: dict[str, str], where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind = kinds[key]
        if value is None and kind.endswith("?"):
            continue
        if not _ORACLE_IS_KIND[kind.rstrip("?")](value):
            expected = kind.replace("?", " or null")
            raise ConfigError(f"{where} key {key!r} must be {expected}, got {value!r}")
    return raw


def oracle_load_run_config(raw) -> RunConfig:
    _oracle_checked(
        raw, {"corpora": "a list", "analysis": "an object", "output": "an object"}, "config"
    )
    if "corpora" not in raw:
        raise ConfigError("config must list corpora")
    corpora = []
    for number, entry in enumerate(raw["corpora"], 1):
        _oracle_checked(entry, _ORACLE_CORPUS_KEYS, f"corpus {number}")
        if "csv_path" not in entry or "label" not in entry:
            raise ConfigError("each corpus needs csv_path and label")
        corpora.append(CorpusConfig(**entry))

    analysis_raw = _oracle_checked(raw.get("analysis", {}), _ORACLE_ANALYSIS_KEYS, "analysis")
    token_policy = TokenPolicy(
        **_oracle_checked(
            analysis_raw.get("token_policy", {}), _ORACLE_TOKEN_POLICY_KEYS, "token_policy"
        )
    )
    analysis = AnalysisConfig(
        **{k: v for k, v in analysis_raw.items() if k != "token_policy"},
        token_policy=token_policy,
    )

    output_raw = _oracle_checked(raw.get("output", {}), _ORACLE_OUTPUT_KEYS, "output")
    output = OutputConfig(
        directory=output_raw.get("directory", "lexigauge-out"),
        formats=tuple(output_raw.get("formats", ("json", "csv", "svg", "gexf"))),
    )
    return RunConfig(corpora=tuple(corpora), analysis=analysis, output=output)


# A value other than its default in every field of every config dataclass.
_EVERY_FIELD_SET = RunConfig(
    corpora=(
        CorpusConfig(
            csv_path="a.csv",
            label="A",
            column_map={"title": "T", "year": "Y"},
            sample_size=5,
            seed=3,
            author_total=40,
        ),
        CorpusConfig(
            csv_path="b.csv", label="B", column_map={}, sample_size=7, seed=0, author_total=0
        ),
    ),
    analysis=AnalysisConfig(
        min_title_frequency=3,
        stopwords_path="stops.txt",
        kde_grid_points=64,
        network_seed=7,
        louvain_resolution=0.5,
        token_policy=TokenPolicy(keep_numbers=False, bind_hyphens=False, bind_apostrophes=False),
    ),
    output=OutputConfig(directory="elsewhere", formats=("graphml", "json")),
)


def test_load_run_config_round_trips_a_value_in_every_field():
    config = _EVERY_FIELD_SET
    sections = [
        config, *config.corpora, config.analysis, config.analysis.token_policy, config.output
    ]
    for section in sections:
        for field in fields(section):
            assert getattr(section, field.name) != field.default, field.name
    assert load_run_config(io.StringIO(json.dumps(asdict(config)))) == config


_BASE_MANIFESTS = (
    json.loads(json.dumps(asdict(_EVERY_FIELD_SET))),
    {
        "corpora": [
            {"csv_path": "a.csv", "label": "Journal A", "sample_size": 650, "seed": 42,
             "column_map": {"title": "Title", "abstract": "Abstract"}},
            {"csv_path": "b.csv", "label": "Journal B", "sample_size": None, "seed": None},
        ],
        "analysis": {"louvain_resolution": 1, "token_policy": {"bind_hyphens": False}},
        "output": {"formats": []},
    },
    {"corpora": _TWO_CORPORA},
)
_MANIFEST_KEYS = sorted(
    {
        field.name
        for cls in (RunConfig, CorpusConfig, AnalysisConfig, OutputConfig, TokenPolicy)
        for field in fields(cls)
    }
    | {"made_up_knob"}
)
_MANIFEST_VALUES = st.one_of(
    st.sampled_from(
        [
            None, True, False, 0, 1, -1, 0.0, -0.0, 2.5, -0.5, 10**400, -(10**400),
            float("nan"), float("inf"), float("-inf"), "", "C", "json",
            [], ["json", "graphml"], ["json", "pdf"], ["json", 1], [None],
            {}, {"title": "T"}, {"title": 3}, {"title": None}, {"keep_numbers": False},
            {"csv_path": "c.csv", "label": "C"}, {"made_up_knob": 1},
        ]
    ),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=3),
)


def _json_containers(node):
    """Every JSON object and list in ``node``, ``node`` first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _json_containers(child)


def _seen_values(manifests) -> dict:
    """The values each key, or each list item ("[]"), takes in ``manifests``."""
    seen: dict = {}
    for manifest in manifests:
        for node in _json_containers(manifest):
            items = node.items() if isinstance(node, dict) else (("[]", v) for v in node)
            for key, value in items:
                seen.setdefault(key, []).append(value)
    return seen


# Values from the base manifests let mutations also give manifests that load.
_SEEN_VALUES = _seen_values(_BASE_MANIFESTS)


@st.composite
def mutated_manifests(draw):
    """A base manifest with one to three keys or list items deleted, added,
    or set to an odd value or to one the key takes elsewhere."""
    manifest = copy.deepcopy(draw(st.sampled_from(_BASE_MANIFESTS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_json_containers(manifest))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(("delete", "set", "add") if keys else ("add",)))
        if action == "delete":
            del node[draw(st.sampled_from(keys))]
            continue
        if isinstance(node, list):
            key = draw(st.sampled_from(keys)) if action == "set" else len(node)
            seen = _SEEN_VALUES["[]"]
        else:
            key = draw(st.sampled_from(keys if action == "set" else _MANIFEST_KEYS))
            seen = _SEEN_VALUES.get(key, [None])
        value = copy.deepcopy(draw(st.one_of(st.sampled_from(seen), _MANIFEST_VALUES)))
        if key == len(node):
            node.append(value)
        else:
            node[key] = value
    return manifest


def _outcome(reader, manifest):
    try:
        return reader(copy.deepcopy(manifest))
    except ConfigError:
        return ConfigError


@settings(max_examples=1000, deadline=None)
@given(manifest=mutated_manifests())
def test_load_run_config_agrees_with_oracle_reader(manifest):
    assert _outcome(load_run_config, manifest) == _outcome(oracle_load_run_config, manifest)


@pytest.mark.parametrize("manifest", _BASE_MANIFESTS)
def test_oracle_base_manifests_load(manifest):
    assert load_run_config(manifest) == oracle_load_run_config(manifest)


def test_cli_internal_error_maps_to_2(data_dir, tmp_path, monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "run_compare", boom)
    code = cli.main(
        [
            "compare",
            "--corpus-a", str(data_dir / "corpus_process.csv"),
            "--corpus-b", str(data_dir / "corpus_leadership.csv"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2


def test_cli_metrics_to_stdout(data_dir, capsys):
    code = cli.main(["metrics", str(data_dir / "corpus_process.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "doc_id,title_length_chars,fkgl,yules_k"
    assert len(out.splitlines()) == 21


def test_cli_metrics_to_file(data_dir, tmp_path):
    target = tmp_path / "table.csv"
    code = cli.main(["metrics", str(data_dir / "corpus_process.csv"), "--out", str(target)])
    assert code == 0
    assert len(read_metrics_csv(target)) == 20


def test_cli_semnet_writes_gexf(data_dir, tmp_path, capsys):
    target = tmp_path / "net.gexf"
    code = cli.main(
        ["semnet", str(data_dir / "corpus_leadership.csv"), "--out", str(target)]
    )
    assert code == 0
    root = ET.parse(target).getroot()
    assert root.tag == "{http://www.gexf.net/1.2draft}gexf"
    assert "top betweenness" in capsys.readouterr().out


# Seeds 0 and 5 give different partitions of the leadership corpus.
@pytest.mark.parametrize("seed", [0, 5])
def test_cli_semnet_matches_run_compare_network(data_dir, tmp_path, monkeypatch, seed):
    monkeypatch.delenv(cli.STOPWORDS_ENV, raising=False)
    leadership = data_dir / "corpus_leadership.csv"
    run_compare(
        RunConfig(
            corpora=(
                CorpusConfig(csv_path=str(data_dir / "corpus_process.csv"), label="Process"),
                CorpusConfig(csv_path=str(leadership), label="Leadership"),
            ),
            analysis=AnalysisConfig(network_seed=seed),
            output=OutputConfig(directory=str(tmp_path / "out"), formats=("gexf",)),
        )
    )
    target = tmp_path / "cli.gexf"
    assert cli.main(["semnet", str(leadership), "--seed", str(seed), "--out", str(target)]) == 0
    assert target.read_bytes() == (tmp_path / "out" / "network_leadership.gexf").read_bytes()


def test_cli_semnet_respects_stopwords_env(data_dir, tmp_path, monkeypatch):
    stopfile = tmp_path / "stops.txt"
    stopfile.write_text("leadership\n")
    monkeypatch.setenv(cli.STOPWORDS_ENV, str(stopfile))
    target = tmp_path / "net.gexf"
    code = cli.main(
        ["semnet", str(data_dir / "corpus_leadership.csv"), "--out", str(target)]
    )
    assert code == 0
    payload = target.read_text()
    assert 'id="leadership"' not in payload
    # with the env var cleared the node reappears
    monkeypatch.delenv(cli.STOPWORDS_ENV)
    target2 = tmp_path / "net2.gexf"
    assert cli.main(
        ["semnet", str(data_dir / "corpus_leadership.csv"), "--out", str(target2)]
    ) == 0
    assert 'id="leadership"' in target2.read_text()


def test_cli_stats_over_metric_tables(data_dir, tmp_path, capsys):
    table_a = tmp_path / "a.csv"
    table_b = tmp_path / "b.csv"
    assert cli.main(["metrics", str(data_dir / "corpus_process.csv"), "--out", str(table_a)]) == 0
    assert cli.main(["metrics", str(data_dir / "corpus_leadership.csv"), "--out", str(table_b)]) == 0
    capsys.readouterr()
    result = tmp_path / "stats.json"
    code = cli.main(["stats", str(table_a), str(table_b), "--out", str(result)])
    assert code == 0
    doc = json.loads(result.read_text())
    assert set(doc) == {"title_length", "fkgl", "yules_k"}
    for entry in doc.values():
        assert set(entry) == {"normality_a", "normality_b", "rank_sum"}
        assert 0.0 <= entry["rank_sum"]["p_value"] <= 1.0
    printed = capsys.readouterr().out
    assert re.search(r"p=\d\.\d{2}e[+-]\d+", printed)


_NO_SCIPY_SCRIPT = """
import sys
import lexigauge
from lexigauge.report import (
    KNOWN_FORMATS, CorpusConfig, OutputConfig, RunConfig, run_compare,
)
after_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
run_compare(RunConfig(
    corpora=(
        CorpusConfig(csv_path=sys.argv[1], label="process"),
        CorpusConfig(csv_path=sys.argv[2], label="leadership"),
    ),
    output=OutputConfig(directory=sys.argv[3], formats=KNOWN_FORMATS),
))
after_run = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(after_import, after_run)
"""


def test_import_and_full_comparison_leave_scipy_unimported(data_dir, tmp_path):
    # scipy is a test-only oracle; the runtime depends on numpy alone.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = tmp_path / "out"
    done = subprocess.run(
        [
            sys.executable, "-c", _NO_SCIPY_SCRIPT,
            str(data_dir / "corpus_process.csv"), str(data_dir / "corpus_leadership.csv"),
            str(out),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] []"
    written = {path.suffix for path in out.iterdir()}
    assert {".json", ".csv", ".svg", ".gexf", ".graphml"} <= written


_NO_XML_SCRIPT = """
import sys
from lexigauge import cli
code = cli.main(["compare", "--corpus-a", sys.argv[1], "--corpus-b", sys.argv[2],
                 "--out", sys.argv[3], "--formats", "json,csv,svg,gexf,graphml"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] in ("xml", "pyexpat")))
"""


def test_full_comparison_through_cli_leaves_xml_unimported(data_dir, tmp_path):
    # GEXF, GraphML and the SVGs are written as lines by lexigauge itself.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = tmp_path / "out"
    done = subprocess.run(
        [
            sys.executable, "-c", _NO_XML_SCRIPT,
            str(data_dir / "corpus_process.csv"), str(data_dir / "corpus_leadership.csv"),
            str(out),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert {".gexf", ".graphml", ".svg"} <= {path.suffix for path in out.iterdir()}


def test_compare_artifacts_do_not_depend_on_the_hash_seed(data_dir, tmp_path):
    # A set or a str-keyed dict iterated into an output would order it by
    # the hash seed, which each process draws anew.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    bundles = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        done = subprocess.run(
            [sys.executable, "-m", "lexigauge.cli", "compare",
             "--corpus-a", str(data_dir / "corpus_process.csv"),
             "--corpus-b", str(data_dir / "corpus_leadership.csv"),
             "--out", str(out), "--formats", ",".join(KNOWN_FORMATS)],
            env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        bundles.append({
            path.name: re.sub(rb'"generated_at": "[^"]*"', b"", path.read_bytes())
            for path in out.iterdir()
        })
    assert len(bundles[0]) == 16
    assert bundles[0] == bundles[1]
