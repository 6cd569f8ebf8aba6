import csv
import gc
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexigauge import cli
from lexigauge.errors import ConfigError, CsvParseError, DomainError, LexigaugeError
from lexigauge.ingest import (
    DEFAULT_COLUMN_MAP,
    ROUNDTRIP_COLUMN_MAP,
    BibRecord,
    Corpus,
    _parse_int,
    _parse_year,
    _read_table,
    _sample_indices,
    bibliometric_descriptives,
    open_text,
    parse_bibliographic_csv,
    read_csv_rows,
    sample_corpus,
    write_corpus_csv,
)
from lexigauge.metrics import read_metrics_csv

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_two_row_csv():
    corpus = parse_bibliographic_csv(
        io.StringIO("Title,Abstract,Year\nFirst title,First abstract,2015\nSecond,Another,2016\n"),
        label="two",
    )
    assert len(corpus) == 2
    assert corpus.records[0].title == "First title"
    assert corpus.records[0].abstract == "First abstract"
    assert corpus.records[0].year == 2015
    assert corpus.records[1].id != corpus.records[0].id


def test_overflowing_numeric_cells_are_unparseable(tmp_path, capsys):
    text = (
        "Title,Abstract,Year,Cited by\n"
        "First title,Some text.,inf,1e999\n"
        "Second title,Other text.,1e999,-inf\n"
    )
    corpus = parse_bibliographic_csv(io.StringIO(text), label="overflow")
    assert [r.year for r in corpus.records] == [None, None]
    assert [r.citations for r in corpus.records] == [0, 0]
    path = tmp_path / "overflow.csv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["metrics", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_invalid_utf8_csv_is_input_error(tmp_path, capsys):
    # The bad byte sits past the first read chunk, inside the row loop.
    data = b"Title,Abstract\n" + b"Good title,Some text.\n" * 2000 + b"Bad \xff title,x\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    for source in (path, str(path), data, io.BytesIO(data)):
        with pytest.raises(CsvParseError, match="not valid UTF-8"):
            parse_bibliographic_csv(source)
    with pytest.raises(CsvParseError, match="latin1.csv: not valid UTF-8"):
        parse_bibliographic_csv(path)
    assert cli.main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert "latin1.csv: not valid UTF-8" in err
    assert "Traceback" not in err


def test_parse_skips_empty_titles_and_counts_them():
    corpus = parse_bibliographic_csv(
        io.StringIO("Title,Abstract\nKept,x\n,skipped\n   ,also skipped\nAlso kept,y\n"),
        label="skip",
    )
    assert len(corpus) == 2
    assert corpus.skipped_rows == 2


def test_parse_quoted_comma_field():
    corpus = parse_bibliographic_csv(io.StringIO('Title\n"a, b"\n'), label="q")
    assert corpus.records[0].title == "a, b"


# Expected records for the RFC 4180 fixture, derived by hand from the file
# before wiring it through the parser.
RFC_EXPECTED = [
    ("Commas, inside, title", "Plain abstract", 2015, "Journal A", 3, 2),
    ("Simple title", "Abstract with, comma", 2016, "Journal B", 0, 1),
    ('Quoted "word" title', "Abstract two", 2017, "Journal A", 5, 3),
    ("Multi\nline title", "Abstract three", 2018, "Journal C", 1, 1),
    ("Title five", "Multi\nline abstract", 2019, "Journal B", 2, 4),
    ("naïve café title", "Unicode abstract", 2014, "Journal D", 7, 2),
    ("Title seven", "", 2013, "Journal A", 0, 0),
    ("Title eight", "Abstract eight", None, "Journal E", 4, 2),
    ("padded title", "Abstract nine", 2012, "Journal F", 9, 5),
    ("Last title", "Final abstract", 2011, "Journal G", 12, 3),
]


def test_parse_rfc4180_fixture(data_dir):
    corpus = parse_bibliographic_csv(data_dir / "rfc4180_fixture.csv", label="rfc")
    assert len(corpus) == 10
    got = [
        (r.title, r.abstract, r.year, r.venue, r.citations, r.author_count)
        for r in corpus.records
    ]
    assert got == RFC_EXPECTED


def test_parse_accepts_bytes_with_bom():
    payload = "﻿Title,Abstract\nA title,An abstract\n".encode("utf-8")
    corpus = parse_bibliographic_csv(payload, label="bom")
    assert corpus.records[0].title == "A title"


def test_bare_cr_line_endings_parse_alike_from_path_stream_and_bytes(tmp_path):
    data = b"Title,Abstract,Year\rFirst title,One.,2015\rSecond title,Two.,2016\r"
    path = tmp_path / "cr.csv"
    path.write_bytes(data)
    from_path = parse_bibliographic_csv(path).records
    assert [(r.title, r.year) for r in from_path] == [("First title", 2015), ("Second title", 2016)]
    assert parse_bibliographic_csv(io.BytesIO(data)).records == from_path
    assert parse_bibliographic_csv(data).records == from_path
    assert parse_bibliographic_csv(bytearray(data)).records == from_path


def test_abstract_past_default_field_limit_parses(tmp_path, capsys):
    # 150,000 characters is past the csv module's default field limit (131,072).
    abstract = ("Lexical measures vary, by venue. " * 4546)[:150_000]
    data = f'Title,Abstract\nLong one,"{abstract}"\nShort one,Brief.\n'.encode()
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    from_path = parse_bibliographic_csv(path).records
    assert [len(r.abstract) for r in from_path] == [150_000, 6]
    assert parse_bibliographic_csv(data).records == from_path
    assert cli.main(["metrics", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


_BYTE_PIECES = [b'"', b",", b"\r", b"\n", b"\x00", b"\xff", b"1e999", b"nan", b"-3", b"x"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BYTE_PIECES), max_size=40).map(b"".join))
def test_readers_give_a_result_or_an_input_error_on_any_bytes(body):
    headers = (b"", b"Title,Cited by,Year\n", b"doc_id,title_length_chars,fkgl,yules_k\n")
    for data in (header + body for header in headers):
        for read in (parse_bibliographic_csv, lambda d: read_metrics_csv(io.BytesIO(d))):
            try:
                read(data)
            except LexigaugeError:
                pass


def test_parse_binary_stream():
    stream = io.BytesIO(b"Title\nOnly title\n")
    corpus = parse_bibliographic_csv(stream, label="bin")
    assert corpus.records[0].title == "Only title"


def test_parse_binary_stream_leaves_caller_stream_open():
    stream = io.BytesIO(b"Title\nOnly title\n")
    parse_bibliographic_csv(stream, label="bin")
    gc.collect()  # a dropped, undetached text wrapper closes its buffer here
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == b"Title\nOnly title\n"


def test_parse_unbalanced_quote_raises_with_row():
    with pytest.raises(CsvParseError) as err:
        parse_bibliographic_csv(
            io.StringIO('Title,Abstract\nfine,row\n"broken,row\n'), label="bad"
        )
    assert "row" in str(err.value)
    assert err.value.row is not None


def test_parse_bad_quoting_mid_field_raises():
    with pytest.raises(CsvParseError):
        parse_bibliographic_csv(io.StringIO('Title\n"a"b\n'), label="bad")


def test_parse_missing_mapped_column_is_config_error():
    with pytest.raises(ConfigError):
        parse_bibliographic_csv(
            io.StringIO("Title\nok\n"),
            column_map={"title": "Title", "abstract": "Missing Column"},
        )


def test_parse_column_map_must_name_title():
    with pytest.raises(ConfigError):
        parse_bibliographic_csv(io.StringIO("A\nx\n"), column_map={"abstract": "A"})


def test_an_unknown_column_map_field_is_a_config_error(data_dir, tmp_path, capsys):
    column_map = {"title": "Title", "abstract": "Abstract", "yaer": "Year"}
    message = (
        "column_map names unknown fields ['yaer']; "
        "known: ['id', 'title', 'abstract', 'year', 'venue', 'citations', 'author_count']"
    )
    with pytest.raises(ConfigError) as caught:
        parse_bibliographic_csv(data_dir / "corpus_process.csv", column_map=column_map)
    assert str(caught.value) == message
    # The title check's message wins over the unknown field.
    with pytest.raises(ConfigError, match="^column_map must name the title column$"):
        parse_bibliographic_csv(io.StringIO("Year\n2001\n"), column_map={"yaer": "Year"})
    manifest = tmp_path / "run.json"
    corpora = [
        {"csv_path": str(data_dir / "corpus_process.csv"), "label": "A", "column_map": column_map},
        {"csv_path": str(data_dir / "corpus_leadership.csv"), "label": "B"},
    ]
    manifest.write_text(json.dumps({"corpora": corpora}))
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: corpus 'A': {message}\n"
    assert not out.exists()


def test_parse_custom_column_map():
    corpus = parse_bibliographic_csv(
        io.StringIO("T,Y\nMapped title,2012\n"),
        column_map={"title": "T", "year": "Y"},
    )
    assert corpus.records[0].title == "Mapped title"
    assert corpus.records[0].year == 2012


def test_parse_out_of_range_year_treated_missing():
    corpus = parse_bibliographic_csv(
        io.StringIO("Title,Year\na,1850\nb,2150\nc,noise\nd,2000\n")
    )
    assert [r.year for r in corpus.records] == [None, None, None, 2000]


def test_round_trip_parse_write_parse(data_dir):
    first = parse_bibliographic_csv(data_dir / "rfc4180_fixture.csv", label="rt")
    buffer = io.StringIO()
    write_corpus_csv(first, buffer)
    buffer.seek(0)
    second = parse_bibliographic_csv(buffer, column_map=ROUNDTRIP_COLUMN_MAP, label="rt")
    assert second.records == first.records


def test_bare_cr_in_a_cell_round_trips_through_write_corpus_csv(tmp_path):
    # With \n line ends the csv module leaves a bare \r unquoted unless told.
    records = (BibRecord(id="a\rb", title="Two\rlines", abstract="One.\rTwo.", year=2001),)
    path = tmp_path / "cr.csv"
    write_corpus_csv(Corpus(label="cr", records=records), path)
    assert b'"Two\rlines"' in path.read_bytes()
    assert parse_bibliographic_csv(path, column_map=ROUNDTRIP_COLUMN_MAP).records == records


def _oracle_parse(source, column_map=None, label=""):
    """The per-row parser that the column table replaced: one BibRecord per
    row as it is read, so a negative count raises at its row."""
    mapping = dict(DEFAULT_COLUMN_MAP if column_map is None else column_map)
    if "title" not in mapping:
        raise ConfigError("column_map must name the title column")
    if unknown := sorted(set(mapping) - set(ROUNDTRIP_COLUMN_MAP)):
        known = list(ROUNDTRIP_COLUMN_MAP)
        raise ConfigError(f"column_map names unknown fields {unknown}; known: {known}")
    explicit = column_map is not None

    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif not (isinstance(source, (str, Path)) or hasattr(source, "read")):
        raise ConfigError(f"unsupported CSV source: {type(source).__name__}")

    with open_text(source, encoding="utf-8-sig") as stream:
        rows = read_csv_rows(stream)
        _, header = next(rows, (None, None))
        if header is None:
            raise CsvParseError("input has no header row", row=1)
        index = {name: pos for pos, name in enumerate(header)}

        columns: dict[str, int] = {}
        for logical, csv_name in mapping.items():
            if csv_name in index:
                columns[logical] = index[csv_name]
            elif logical == "title" or explicit:
                raise ConfigError(
                    f"column {csv_name!r} (for {logical!r}) not found in header {header}"
                )

        def cell(row: list[str], logical: str) -> str:
            pos = columns.get(logical)
            if pos is None or pos >= len(row):
                return ""
            return row[pos]

        records = []
        skipped = 0
        for data_row, row in enumerate((row for _, row in rows if row), start=1):
            title = cell(row, "title").strip()
            if not title:
                skipped += 1
                continue
            rec_id = cell(row, "id").strip() or f"row{data_row}"
            records.append(
                BibRecord(
                    id=rec_id,
                    title=title,
                    abstract=cell(row, "abstract"),
                    year=_parse_year(cell(row, "year")),
                    venue=cell(row, "venue").strip(),
                    citations=_parse_int(cell(row, "citations")),
                    author_count=_parse_int(cell(row, "author_count")),
                )
            )
        return Corpus(label=label, records=tuple(records), skipped_rows=skipped)


_HEADERS = ["Title", "Abstract", "Year", "Source title", "Cited by", "Author count", "Id", "Note"]
_LOGICAL = ["title", "abstract", "year", "venue", "citations", "author_count", "id", "doi"]
_CELLS = [
    "", " ", "A title", "  Padded title  ", "dup", "a, b", 'say "so"', "two\nlines",
    " 2015 ", "2015.9", "1899", "n/a", "nan", "1e999", "1e300", "-3", "7", "café – ünï",
]
# Faults the reader meets after the rows before them: a malformed quote, an
# unclosed quote and an invalid UTF-8 byte.  The long cell pushes a fault
# past the text layer's first decoded chunk.
_FAULTS = [b'"bad"quote', b'"unclosed', b"caf\xe9"]
_LONG_CELL = "Long abstract. " * 700


def _csv_cell(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _exports(draw):
    """Bytes of a small export and a column map: ragged rows, blank lines,
    an optional BOM and at most one fault, after any row."""
    header = draw(
        st.permutations(_HEADERS)
        | st.lists(st.sampled_from(_HEADERS), min_size=1, max_size=7, unique=True)
    )
    rows = draw(
        st.lists(st.lists(st.sampled_from(_CELLS + [_LONG_CELL]), max_size=len(header) + 1),
                 max_size=10)
    )
    lines = [",".join(map(_csv_cell, row)).encode() for row in [header] + rows]
    fault = draw(st.sampled_from([None] + _FAULTS))
    if fault is not None:
        lines.insert(draw(st.integers(1, len(lines))), fault)
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + newline.join(lines) + newline
    column_map = draw(
        st.sampled_from([None, ROUNDTRIP_COLUMN_MAP])
        | st.dictionaries(st.sampled_from(_LOGICAL), st.sampled_from(_HEADERS + ["Missing"]),
                          max_size=5)
    )
    return data, column_map


def _outcome(call, *args):
    try:
        return call(*args)
    except LexigaugeError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_exports())
@example((b"Id,Title,Cited by\ndup,One,1\ndup,Two,-3\n",
          {"id": "Id", "title": "Title", "citations": "Cited by"}))
@example((b"Title,Cited by,Author count\n,-1,0\nOne,2,-1\nTwo,-3,0\n", None))
def test_parser_equals_the_per_row_oracle(export):
    data, column_map = export
    assert _outcome(parse_bibliographic_csv, data, column_map, "c") == _outcome(
        _oracle_parse, data, column_map, "c"
    )


@pytest.mark.parametrize("fault", _FAULTS)
def test_negative_count_wins_over_a_fault_on_a_later_row(fault):
    # The padding puts the fault past the first decoded chunk of the file.
    padding = b"Padding title,Some abstract.,3\n" * 400
    data = b"Title,Abstract,Cited by\nCounted,x,-3\n" + padding + fault + b"\n"
    for parse in (parse_bibliographic_csv, _oracle_parse):
        with pytest.raises(DomainError, match=r"^record 'row1': negative citation count$"):
            parse(data)


@settings(max_examples=200, deadline=None)
@given(_exports(), st.integers(-1, 12), st.integers(0, 2**32), st.none() | st.integers(0, 50))
def test_sampled_table_equals_sample_and_summary_of_the_parsed_corpus(
    export, n, seed, author_total
):
    data, column_map = export
    table = _outcome(_read_table, data, column_map, "c")
    corpus = _outcome(parse_bibliographic_csv, data, column_map, "c")
    if isinstance(corpus, tuple):
        assert table == corpus
        return
    assert _outcome(table.sample, n, seed) == _outcome(sample_corpus, corpus, n, seed)
    assert _outcome(table.summary, author_total) == _outcome(
        bibliometric_descriptives, corpus, author_total
    )


@settings(max_examples=300, deadline=None)
@given(_exports(), st.integers(-1, 12), st.integers(0, 2**32), st.none() | st.integers(0, 50))
@example((b'Title,Abstract\nOne,"a\nb"\nTwo,"c\r\nd\re"\nThree,f\nFour,"g\n\nh"\n', None),
         2, 0, None)
@example((b'\xef\xbb\xbfTitle,Abstract\r\nOne,a\r\n\r\nTwo,b\r\n', None), 1, 0, None)
def test_sampled_read_of_a_file_equals_sample_and_summary_of_the_parsed_file(
    export, n, seed, author_total
):
    # Every row's abstract is re-read from its byte span, so the sample of
    # every row is drawn too: a wrong span shows as a wrong abstract or as
    # a "changed while it was read" error.
    data, column_map = export
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_bytes(data)
        table = _outcome(_read_table, path, column_map, "c", True)
        corpus = _outcome(parse_bibliographic_csv, path, column_map, "c")
        if isinstance(corpus, tuple):
            assert table == corpus
            return
        header = next(csv.reader(io.StringIO(data.decode("utf-8-sig", "replace"), newline="")))
        abstract = (DEFAULT_COLUMN_MAP if column_map is None else column_map).get("abstract")
        assert (table.source is not None) == (abstract in header)
        for size in (n, len(corpus)):
            assert _outcome(table.sample, size, seed) == _outcome(sample_corpus, corpus, size, seed)
    assert _outcome(table.summary, author_total) == _outcome(
        bibliometric_descriptives, corpus, author_total
    )


@pytest.mark.parametrize(
    "rewritten",
    [
        b"Id,Title,Abstract\nr1,One,First.\nr2,Uno,Second.\n",  # a title
        b"Id,Title,Abstract\nr1,One,First.\nr9,Two,Second.\n",  # an id
        b"Id,Title,Abstract\nr1,One,First.\n",  # cut short
        b"Id,Title,Abstract\nr1,One,First.\nr2,Two,\"Sec\n",  # not one row
        b"Id,Title,Abstract\nr1,One,First.\nr2,Tw\xe9,Second.\n",  # not UTF-8
    ],
)
def test_sampling_a_file_changed_after_its_read_is_an_input_error(tmp_path, rewritten):
    path = tmp_path / "export.csv"
    path.write_bytes(b"Id,Title,Abstract\nr1,One,First.\nr2,Two,Second.\n")
    column_map = {"id": "Id", "title": "Title", "abstract": "Abstract"}
    table = _read_table(path, column_map, "c", sampled=True)
    assert table.sample(2, seed=1).records[1].abstract == "Second."
    path.write_bytes(rewritten)
    message = rf"^row 3: {re.escape(str(path))} changed while it was read$"
    with pytest.raises(CsvParseError, match=message):
        table.sample(2, seed=1)


def test_a_sampled_table_builds_no_full_corpus(tmp_path):
    path = tmp_path / "export.csv"
    path.write_bytes(b"Title,Abstract\nOne,First.\n")
    with pytest.raises(RuntimeError):
        _read_table(path, sampled=True).corpus()


def test_sampled_table_keeps_the_oversized_sample_message():
    table = _read_table(b"Title\nOne\nTwo\n\n,\nThree\n", label="small")
    with pytest.raises(DomainError, match=r"^corpus 'small': sample size 4 exceeds its 3 records$"):
        table.sample(4, seed=1)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def test_bibrecord_rejects_empty_title():
    with pytest.raises(DomainError):
        BibRecord(id="x", title="   ")


def test_bibrecord_rejects_out_of_range_year():
    with pytest.raises(DomainError):
        BibRecord(id="x", title="t", year=1492)


def test_bibrecord_rejects_negative_counts():
    with pytest.raises(DomainError):
        BibRecord(id="x", title="t", citations=-1)
    with pytest.raises(DomainError):
        BibRecord(id="x", title="t", author_count=-2)


def test_corpus_rejects_duplicate_ids():
    records = (BibRecord(id="same", title="a"), BibRecord(id="same", title="b"))
    with pytest.raises(DomainError):
        Corpus(label="dup", records=records)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _corpus(n: int, label: str = "c") -> Corpus:
    return Corpus(
        label=label,
        records=tuple(BibRecord(id=f"r{i}", title=f"Title {i}") for i in range(n)),
    )


def test_sample_full_corpus_any_seed():
    corpus = _corpus(8)
    for seed in [0, 1, 99]:
        assert sample_corpus(corpus, 8, seed).records == corpus.records


def test_sample_single_record_comes_from_corpus():
    corpus = _corpus(100)
    ids = {r.id for r in corpus.records}
    for seed in [1, 2]:
        sample = sample_corpus(corpus, 1, seed)
        assert len(sample) == 1
        assert sample.records[0].id in ids


def test_sample_deterministic_and_subset():
    corpus = _corpus(50)
    a = sample_corpus(corpus, 20, seed=7)
    b = sample_corpus(corpus, 20, seed=7)
    assert a.records == b.records
    assert a.label == corpus.label
    ids = [r.id for r in a.records]
    assert len(set(ids)) == 20
    assert set(ids) <= {r.id for r in corpus.records}


def test_sample_preserves_input_order():
    corpus = _corpus(30)
    sample = sample_corpus(corpus, 10, seed=3)
    positions = [int(r.id[1:]) for r in sample.records]
    assert positions == sorted(positions)


# NumPy does not promise that a Generator method's stream stays the same
# across releases (NEP 19): a release that moves choice(replace=False) fails
# here, instead of quietly changing which rows a seed samples.
@pytest.mark.parametrize(
    "size, n, seed, expected",
    [
        (20, 12, 3, [0, 1, 2, 6, 7, 8, 9, 11, 12, 13, 16, 17]),
        (19, 12, 3, [0, 1, 2, 5, 6, 8, 10, 11, 12, 15, 16, 18]),
        (1000, 5, 12345, [204, 226, 316, 696, 787]),
        (20000, 8, 887, [2833, 5467, 5515, 9264, 16007, 16834, 17796, 17865]),
    ],
)
def test_sample_indices_are_pinned_per_seed(size, n, seed, expected):
    assert _sample_indices(size, n, seed, "pinned") == expected


def test_sample_too_large_raises_naming_corpus():
    with pytest.raises(DomainError) as err:
        sample_corpus(_corpus(5, label="tiny"), 6, seed=0)
    assert "tiny" in str(err.value)


def test_sample_nonpositive_raises():
    with pytest.raises(DomainError):
        sample_corpus(_corpus(5), 0, seed=0)


def test_sample_uniformity_monte_carlo():
    # each record of a 10-record corpus should land in a 5-record sample
    # with frequency 1/2 (within 0.02 over 10,000 fresh seeds)
    corpus = _corpus(10)
    counts = {r.id: 0 for r in corpus.records}
    reps = 10_000
    for seed in range(reps):
        for record in sample_corpus(corpus, 5, seed).records:
            counts[record.id] += 1
    for count in counts.values():
        assert count / reps == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# Bibliometric descriptives
# ---------------------------------------------------------------------------


def test_authors_per_document_reference_ratios():
    corpus = _corpus(791)
    summary = bibliometric_descriptives(corpus, distinct_author_total=1542)
    assert summary.authors_per_document == pytest.approx(1.95, abs=0.005)

    corpus = _corpus(5895)
    summary = bibliometric_descriptives(corpus, distinct_author_total=15642)
    assert summary.authors_per_document == pytest.approx(2.65, abs=0.005)


def test_author_total_times_documents_is_exact():
    corpus = _corpus(791)
    summary = bibliometric_descriptives(corpus, distinct_author_total=1542)
    assert summary.authors_per_document * summary.document_count == pytest.approx(
        1542, rel=1e-12
    )


def test_flat_yearly_counts_mean_zero_growth():
    records = tuple(
        BibRecord(id=f"r{i}", title="t", year=2010 + (i // 100)) for i in range(200)
    )
    summary = bibliometric_descriptives(Corpus(label="flat", records=records))
    assert summary.annual_growth_pct == 0.0
    assert summary.timespan == (2010, 2011)


def test_cagr_hand_value():
    # counts {2010: 4, 2012: 9} -> (9/4)^(1/2) - 1 = 50%
    records = tuple(
        BibRecord(id=f"a{i}", title="t", year=2010) for i in range(4)
    ) + tuple(BibRecord(id=f"b{i}", title="t", year=2012) for i in range(9))
    summary = bibliometric_descriptives(Corpus(label="cagr", records=records))
    assert summary.annual_growth_pct == pytest.approx(50.0, rel=1e-9)


def test_missing_years_excluded_from_growth_only():
    records = (
        BibRecord(id="a", title="t", year=2010, citations=10),
        BibRecord(id="b", title="t", year=None, citations=20),
        BibRecord(id="c", title="t", year=2011, citations=30),
    )
    summary = bibliometric_descriptives(Corpus(label="m", records=records))
    assert summary.document_count == 3  # record without year still counted
    assert summary.timespan == (2010, 2011)
    assert summary.citations_per_document == pytest.approx(20.0)


def test_author_total_defaults_to_per_record_sum():
    records = (
        BibRecord(id="a", title="t", author_count=2),
        BibRecord(id="b", title="t", author_count=3),
    )
    summary = bibliometric_descriptives(Corpus(label="s", records=records))
    assert summary.author_total == 5
    assert summary.authors_per_document == pytest.approx(2.5)


def test_an_author_total_past_float_range_is_a_domain_error():
    corpus = _corpus(3)
    with pytest.raises(DomainError, match=r"^authors per document is past the float range$"):
        bibliometric_descriptives(corpus, distinct_author_total=10**400)
    summary = bibliometric_descriptives(corpus, distinct_author_total=3 * 10**300)
    assert summary.authors_per_document == 1e300


def test_empty_corpus_raises():
    with pytest.raises(DomainError):
        bibliometric_descriptives(Corpus(label="empty", records=()))
