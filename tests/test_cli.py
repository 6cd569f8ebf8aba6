"""How the command line names what failed: every exit-1 message of
``compare`` names its corpus once, and every exit-1 message of ``metrics``,
``semnet`` and ``stats`` names its file or metric once."""

import contextlib
import csv
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from lexigauge import cli, report
from lexigauge.errors import CsvParseError, named
from lexigauge.metrics import METRIC_NAMES
from lexigauge.report import KNOWN_FORMATS

_HEADER = ["Id", "Title", "Abstract", "Year", "Cited by", "Author count"]
# The manifest column map that also reads the Id column, so ids can repeat.
_COLUMN_MAP = dict(
    zip(["id", "title", "abstract", "year", "citations", "author_count"], _HEADER)
)


def _write_rows(path: Path, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        csv.writer(stream).writerows([_HEADER, *rows])
    return str(path)


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one ``cli.main`` call; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def test_named_prefixes_once_and_keeps_the_exception():
    original = CsvParseError("bad cell", row=3)
    with pytest.raises(CsvParseError) as caught:
        with named("table.csv"):
            with named("table.csv"):
                raise original
    assert caught.value is original
    assert str(caught.value) == "table.csv: row 3: bad cell"
    assert caught.value.row == 3
    with pytest.raises(KeyError) as other:
        with named("table.csv"):
            raise KeyError("k")
    assert str(other.value) == "'k'"


# ---------------------------------------------------------------------------
# Each message pinned
# ---------------------------------------------------------------------------


def _compare(data_dir, tmp_path, corpus_a: str, *extra) -> tuple[int, str]:
    out = tmp_path / "out"
    code, err = _run(
        ["compare", "--corpus-a", corpus_a, "--label-a", "A",
         "--corpus-b", str(data_dir / "corpus_process.csv"), "--out", str(out), *extra]
    )
    assert not out.exists()
    return code, err


def test_compare_names_a_corpus_without_usable_records(data_dir, tmp_path):
    empty = _write_rows(tmp_path / "empty.csv", [["r1", "", "An abstract.", "", "", ""]])
    assert _compare(data_dir, tmp_path, empty) == (
        1, f"error: corpus 'A': no usable records in {empty}\n"
    )


def test_compare_names_a_corpus_without_abstracts(data_dir, tmp_path):
    rows = [["", "Team process change", "", "", "", ""], ["", "Team leadership", "", "", "", ""]]
    bare = _write_rows(tmp_path / "bare.csv", rows)
    assert _compare(data_dir, tmp_path, bare) == (
        1, "error: corpus 'A': no values for metric 'fkgl' (every document lacks an abstract?)\n"
    )


def test_compare_names_a_corpus_whose_titles_have_one_length(data_dir, tmp_path):
    rows = [["", title, "Some text here.", "", "", ""] for title in ("Team work", "Team play")]
    flat = _write_rows(tmp_path / "flat.csv", rows)
    assert _compare(data_dir, tmp_path, flat) == (
        1,
        "error: corpus 'A': cannot build a density for 'title_length': sample variance is zero\n",
    )


def test_compare_names_a_repeated_id_once(data_dir, tmp_path):
    rows = [["r1", title, "Text.", "", "", ""] for title in ("Team process", "Team change")]
    manifest = tmp_path / "run.json"
    corpora = [
        {"csv_path": _write_rows(tmp_path / "dup.csv", rows), "label": "A",
         "column_map": _COLUMN_MAP},
        {"csv_path": str(data_dir / "corpus_process.csv"), "label": "B"},
    ]
    manifest.write_text(json.dumps({"corpora": corpora}))
    code, err = _run(["compare", "--config", str(manifest), "--out", str(tmp_path / "out")])
    assert (code, err) == (1, "error: corpus 'A': duplicate record id 'r1'\n")


def test_compare_names_the_corpus_of_an_oversized_sample(data_dir, tmp_path):
    leadership = str(data_dir / "corpus_leadership.csv")
    assert _compare(data_dir, tmp_path, leadership, "--sample-size", "500", "--seed", "1") == (
        1, "error: corpus 'A': sample size 500 exceeds its 20 records\n"
    )


def test_compare_names_an_export_changed_while_it_was_read(data_dir, tmp_path, monkeypatch):
    # The export is rewritten between the read of every row and the re-read
    # of the sampled rows' abstracts; one more header byte moves every span.
    export = tmp_path / "leadership.csv"
    shutil.copy(data_dir / "corpus_leadership.csv", export)
    read = report._read_table

    def read_then_rewrite(source, *args, **kwargs):
        table = read(source, *args, **kwargs)
        if source == str(export):
            export.write_bytes(export.read_bytes().replace(b"Title", b"Titles", 1))
        return table

    monkeypatch.setattr(report, "_read_table", read_then_rewrite)
    assert _compare(data_dir, tmp_path, str(export), "--sample-size", "20", "--seed", "0") == (
        1, f"error: corpus 'A': row 2: {export} changed while it was read\n"
    )


def test_single_file_commands_name_their_file(tmp_path):
    disjoint = _write_rows(
        tmp_path / "disjoint.csv",
        [["", "Alpha beta", "Text.", "", "", ""], ["", "Gamma delta", "Text.", "", "", ""]],
    )
    assert _run(["semnet", disjoint, "--out", str(tmp_path / "g.gexf")]) == (
        1, f"error: {disjoint}: the co-word graph has no nodes\n"
    )
    negative = _write_rows(tmp_path / "negative.csv", [["", "Alpha", "Text.", "", "-2", ""]])
    assert _run(["metrics", negative]) == (
        1, f"error: {negative}: record 'row1': negative citation count\n"
    )


def test_a_repeated_over_cap_title_is_named_by_compare_and_semnet(data_dir, tmp_path):
    # Both copies keep all 257 words, whose pairs would make a 32,896-edge clique.
    # The error names the record id ("row3", after the third data row), not
    # the title's position, which a skipped row or a sample would move.
    long_title = " ".join(f"term{i}" for i in range(257))
    rows = [["", "", "No title.", "", "", ""],
            ["", "Team process", "Team work is hard to measure in small firms.", "", "", ""],
            ["", long_title, "Short text here.", "", "", ""],
            ["", long_title, "Teams form. Teams change. Teams last.", "", "", ""],
            ["", long_title + " again", "Teams form again.", "", "", ""]]
    repeated = _write_rows(tmp_path / "repeated.csv", rows)
    message = "record 'row3': title keeps 257 terms, past the cap of 256\n"
    assert _compare(data_dir, tmp_path, repeated) == (1, f"error: corpus 'A': {message}")
    assert _run(["semnet", repeated, "--out", str(tmp_path / "g.gexf")]) == (
        1, f"error: {repeated}: {message}"
    )
    assert not (tmp_path / "g.gexf").exists()
    # Seed 0 samples rows 4 and 5, so the first over-cap title is row 4's.
    assert _compare(data_dir, tmp_path, repeated, "--sample-size", "2", "--seed", "0") == (
        1, f"error: corpus 'A': {message.replace('row3', 'row4')}"
    )


def test_metrics_rejects_a_csv_without_usable_records(tmp_path):
    # Every title is empty: compare rejects the corpus, and so does metrics.
    empty = _write_rows(tmp_path / "empty.csv", [["r1", "", "Some abstract.", "", "", ""]])
    out = tmp_path / "table.csv"
    assert _run(["metrics", empty, "--out", str(out)]) == (
        1, f"error: {empty}: no usable records in {empty}\n"
    )
    assert not out.exists()


def test_semnet_rejects_a_csv_without_usable_records(tmp_path):
    # Every title is empty: semnet fails as metrics and compare do.
    empty = _write_rows(tmp_path / "empty.csv", [["r1", "", "Some abstract.", "", "", ""]])
    out = tmp_path / "graph.gexf"
    assert _run(["semnet", empty, "--out", str(out)]) == (
        1, f"error: {empty}: no usable records in {empty}\n"
    )
    assert not out.exists()


def test_stats_names_the_table_or_the_metric(data_dir, tmp_path):
    good = str(tmp_path / "good.csv")
    assert _run(["metrics", str(data_dir / "corpus_process.csv"), "--out", good])[0] == 0
    lines = Path(good).read_text(encoding="utf-8").splitlines(keepends=True)
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("".join([*lines[:2], lines[2].rsplit(",", 1)[0] + ",x\n", *lines[3:]]))
    assert _run(["stats", good, str(bad_cell)]) == (
        1, f"error: {bad_cell}: row 3: column yules_k: 'x' is not a finite float\n"
    )
    no_abstracts = tmp_path / "no_abstracts.csv"
    no_abstracts.write_text("doc_id,title_length_chars,fkgl,yules_k\nd1,10,,\nd2,12,,\nd3,14,,\n")
    assert _run(["stats", good, str(no_abstracts)]) == (
        1, "error: metric 'fkgl': both samples must be non-empty\n"
    )


@pytest.mark.filterwarnings("error")
def test_stats_on_an_overflowing_column_exits_0_with_a_null_normality(tmp_path):
    table = tmp_path / "overflow.csv"
    table.write_text("doc_id,title_length_chars,fkgl,yules_k\n"
                     "d1,10,1e300,50\nd2,12,-1e300,60\nd3,14,1e300,70\nd4,16,2,80\n")
    out = tmp_path / "stats.json"
    assert _run(["stats", str(table), str(table), "--out", str(out)]) == (0, "")
    fkgl = json.loads(out.read_text(encoding="utf-8"))["fkgl"]
    assert fkgl["normality_a"] is None and fkgl["normality_b"] is None


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--corpus-a", "a.csv", "--corpus-b", "b.csv", "--sample-size", "abc"],
         "argument --sample-size: invalid int value: 'abc'"),
        (["compare", "--corpus-a", "a.csv", "--corpus-b", "b.csv", "--seed", "x"],
         "argument --seed: invalid int value: 'x'"),
        (["semnet", "a.csv", "--min-title-frequency", "1.5"],
         "argument --min-title-frequency: invalid int value: '1.5'"),
        (["semnet", "a.csv", "--resolution", "x"],
         "argument --resolution: invalid float value: 'x'"),
        (["metrics", "a.csv", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
    ids=["sample-size", "seed", "min-title-frequency", "resolution", "unknown-flag",
         "no-subcommand"],
)
def test_a_usage_error_exits_1_with_one_line(argv, message):
    assert _run(argv) == (1, f"error: {message}\n")


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as leaving, contextlib.redirect_stdout(io.StringIO()):
        cli.main(["compare", "--help"])
    assert leaving.value.code == 0


# ---------------------------------------------------------------------------
# Property: every exit is 0 or 1, and exit 1 names its subject once
# ---------------------------------------------------------------------------

_PIECES = ["Σ", "İ", "ß", "ﬁ", '"', "\r", "e.g.", "et al.", " ", ".", "team", "process"]
_WORDS = ["team", "process", "change", "Σigma", "İstanbul", "straße", "ﬁrm", '"firm"', "e.g."]
_YEARS = ["", "2001", "2010", "2020", "1850", "n/a", "2015.0"]
_COUNTS = ["", "0", "3", "12", "x", "1e999"]  # "-1" is the bad count


@st.composite
def _corpus_rows(draw):
    """Rows of a small export with bad years, and at most one fault: a bad
    count, a repeated id, titles that share no word, no abstracts or no
    titles."""
    fault = draw(st.sampled_from([None, None, "count", "id", "disjoint", "abstracts", "titles"]))
    rows = []
    for i in range(draw(st.integers(1, 8) | st.integers(4, 8))):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5))
        title = {"disjoint": f"word{i}a word{i}b", "titles": ""}.get(fault, " ".join(words))
        abstract = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=4, max_size=16)))
        counts = [*_COUNTS, "-1"] if fault == "count" else _COUNTS
        rows.append(
            [f"r{i}", title, "" if fault == "abstracts" else abstract,
             draw(st.sampled_from(_YEARS)),
             draw(st.sampled_from(counts)), draw(st.sampled_from(counts))]
        )
    if fault == "id":
        rows[-1][0] = rows[0][0]
    return rows


def _names_once(code: int, err: str, subjects) -> bool:
    """Exit 0 with nothing on stderr, or exit 1 with one ``error:`` line that
    names exactly one of ``subjects`` once."""
    if code == 0:
        return err == ""
    lines = err.splitlines()
    return (
        code == 1
        and len(lines) == 1
        and lines[0].startswith("error: ")
        and sum(err.count(f"{subject}: ") for subject in subjects) == 1
    )


# No shrink phase: each example runs six commands, and shrinking a failure
# took minutes and hundreds of MB; the failing rows are small as drawn.
@settings(
    max_examples=100,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    report_multiple_bugs=False,
)
@given(
    rows=st.tuples(_corpus_rows(), _corpus_rows()),
    sample_size=st.none() | st.integers(2, 10),
    corrupt_table=st.booleans(),
)
def test_every_failure_names_its_corpus_file_or_metric_once(rows, sample_size, corrupt_table):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [_write_rows(tmp / f"{side}.csv", r) for side, r in zip("ab", rows)]
        corpora = [
            {"csv_path": path, "label": label, "column_map": _COLUMN_MAP,
             "sample_size": sample_size, "seed": 1}
            for path, label in zip(paths, ("alpha", "beta"))
        ]
        manifest = tmp / "run.json"
        manifest.write_text(json.dumps({"corpora": corpora}), encoding="utf-8")
        outcome = _run(["compare", "--config", str(manifest), "--out", str(tmp / "out"),
                        "--formats", "json"])
        assert _names_once(*outcome, ["corpus 'alpha'", "corpus 'beta'"]), outcome

        tables = []
        for path in paths:
            table = path.replace(".csv", "_metrics.csv")
            outcome = _run(["metrics", path, "--out", table])
            assert _names_once(*outcome, [path]), outcome
            if outcome[0] == 0:
                tables.append(table)
            outcome = _run(["semnet", path, "--out", str(tmp / "graph.graphml"),
                            "--format", "graphml"])
            assert _names_once(*outcome, [path]), outcome

        if len(tables) == 2:
            lines = Path(tables[1]).read_text(encoding="utf-8").splitlines(keepends=True)
            if corrupt_table and len(lines) > 1:
                lines[1] = lines[1].rsplit(",", 1)[0] + ",nan\n"
                Path(tables[1]).write_text("".join(lines), encoding="utf-8")
            outcome = _run(["stats", *tables])
            metrics = [f"metric {metric!r}" for metric in METRIC_NAMES]
            assert _names_once(*outcome, [*tables, *metrics]), outcome


# ---------------------------------------------------------------------------
# Property: a successful compare is deterministic
# ---------------------------------------------------------------------------

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


def _artifacts(out: Path) -> dict[str, bytes]:
    """Every file of an output directory, with ``generated_at`` masked."""
    return {
        path.name: _GENERATED_AT.sub(b'"generated_at": null', path.read_bytes())
        for path in sorted(out.iterdir())
    }


@st.composite
def _runnable_rows(draw):
    """Rows of a small export with no fault: every title shares words with
    others and most abstracts hold words, so most drawn pairs run."""
    rows = []
    for i in range(draw(st.integers(3, 8))):
        title = " ".join(draw(st.lists(st.sampled_from(_WORDS[:4]), min_size=1, max_size=5)))
        abstract = " ".join(draw(st.lists(st.sampled_from(_PIECES + _WORDS), max_size=16)))
        rows.append([f"r{i}", title, abstract, draw(st.sampled_from(_YEARS)),
                     draw(st.sampled_from(_COUNTS)), draw(st.sampled_from(_COUNTS))])
    return rows


# No shrink phase, for the reason given above.
@settings(
    max_examples=30,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    report_multiple_bugs=False,
)
@given(
    rows=st.tuples(_runnable_rows(), _runnable_rows()),
    sample_size=st.none() | st.integers(2, 3),
)
def test_compare_twice_writes_identical_artifacts(rows, sample_size):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [_write_rows(tmp / f"{side}.csv", r) for side, r in zip("ab", rows)]
        argv = ["compare", "--corpus-a", paths[0], "--corpus-b", paths[1], "--seed", "3",
                "--out", str(tmp / "out"), "--formats", ",".join(KNOWN_FORMATS)]
        if sample_size is not None:
            argv += ["--sample-size", str(sample_size)]
        code, err = _run(argv)
        assume(code == 0)
        first = _artifacts(tmp / "out")
        shutil.rmtree(tmp / "out")
        assert _run(argv) == (0, "")
        assert _artifacts(tmp / "out") == first
