"""Bibliographic CSV ingestion, reproducible sampling, and journal-level
bibliometric descriptives.

Input files are UTF-8 CSV exports (RFC 4180 quoting, optional BOM) with one
row per document.  Column names are mapped through a configurable column
map; only the title column is mandatory.  Every CSV table of the package is
read through ``read_csv_rows`` and written through ``write_csv``.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, CsvParseError, DomainError, LexigaugeError

__all__ = [
    "BibRecord",
    "Corpus",
    "BiblioSummary",
    "DEFAULT_COLUMN_MAP",
    "open_text",
    "read_csv_rows",
    "write_csv",
    "parse_bibliographic_csv",
    "require_records",
    "write_corpus_csv",
    "sample_corpus",
    "bibliometric_descriptives",
]

# Identity of the sampling generator, recorded in report provenance so a
# sample can be reproduced exactly.
SAMPLING_RNG = "numpy.random.Generator(PCG64)"

YEAR_RANGE = (1900, 2100)

# A full-text abstract or a long id can pass the csv module's default field
# limit (131,072 characters).  The limit is process-wide, so it is raised once
# here: raising and restoring it around each read races between threads.
csv.field_size_limit(max(csv.field_size_limit(), 2**31 - 1))

# Logical field -> default CSV header (Scopus-style export names).
DEFAULT_COLUMN_MAP = {
    "title": "Title",
    "abstract": "Abstract",
    "year": "Year",
    "venue": "Source title",
    "citations": "Cited by",
    "author_count": "Author count",
}

# Column map matching write_corpus_csv output; round-trips every field.  Its
# keys are BibRecord's fields in constructor order: the columns of a _Table.
ROUNDTRIP_COLUMN_MAP = {"id": "Id", **DEFAULT_COLUMN_MAP}
_FIELDS = tuple(ROUNDTRIP_COLUMN_MAP)


@dataclass(frozen=True)
class BibRecord:
    """One bibliographic document."""

    id: str
    title: str
    abstract: str = ""
    year: int | None = None
    venue: str = ""
    citations: int = 0
    author_count: int = 0

    def __post_init__(self):
        if not self.title.strip():
            raise DomainError(f"record {self.id!r}: title is empty")
        if self.year is not None and not YEAR_RANGE[0] <= self.year <= YEAR_RANGE[1]:
            raise DomainError(f"record {self.id!r}: year {self.year} out of range")
        if self.citations < 0:
            raise DomainError(f"record {self.id!r}: negative citation count")
        if self.author_count < 0:
            raise DomainError(f"record {self.id!r}: negative author count")


@dataclass(frozen=True)
class Corpus:
    """A labeled, ordered collection of records with unique ids.

    ``skipped_rows`` counts input rows dropped for having an empty title;
    it is parse metadata, not part of the corpus content.
    """

    label: str
    records: tuple[BibRecord, ...]
    skipped_rows: int = 0

    def __post_init__(self):
        _require_unique_ids(self.label, [record.id for record in self.records])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def titles(self) -> list[str]:
        return [record.title for record in self.records]


def _require_unique_ids(label: str, ids: list[str]) -> None:
    """Raise DomainError naming the first id that repeats an earlier one."""
    if len(set(ids)) == len(ids):
        return
    seen = set()
    for rec_id in ids:
        if rec_id in seen:
            raise DomainError(f"corpus {label!r}: duplicate record id {rec_id!r}")
        seen.add(rec_id)


@dataclass(frozen=True)
class BiblioSummary:
    """Journal-level descriptives: documents, authors, ratios, growth."""

    document_count: int
    author_total: int
    authors_per_document: float
    citations_per_document: float
    annual_growth_pct: float
    timespan: tuple[int, int] | None


def _parse_int(raw: str, default: int | None = 0) -> int | None:
    raw = raw.strip()
    if not raw:
        return default
    try:
        return int(float(raw))
    except (ValueError, OverflowError):  # "n/a", "nan"; "1e999", "inf"
        return default


def _parse_year(raw: str) -> int | None:
    year = _parse_int(raw, default=None)
    if year is not None and YEAR_RANGE[0] <= year <= YEAR_RANGE[1]:
        return year
    return None


@contextmanager
def open_text(target, mode: str = "r", encoding: str = "utf-8"):
    """Text stream over ``target`` for the span of a ``with`` block.

    A path is opened in ``mode`` (newline translation off) and closed on
    exit.  A binary stream being read is wrapped, and the wrapper detached
    on exit so the caller's stream stays open.  A text stream is used as is.
    Invalid UTF-8 read through the stream raises CsvParseError naming
    ``target``.
    """
    try:
        if isinstance(target, (str, Path)):
            with open(target, mode, encoding=encoding, newline="") as stream:
                yield stream
        elif "r" in mode and isinstance(target.read(0), bytes):
            wrapper = io.TextIOWrapper(target, encoding=encoding, newline="")
            try:
                yield wrapper
            finally:
                wrapper.detach()
        else:
            yield target
    except UnicodeDecodeError as exc:
        name = target if isinstance(target, (str, Path)) else getattr(target, "name", "input")
        raise CsvParseError(f"{name}: not valid UTF-8 ({exc.reason})") from exc


def read_csv_rows(stream):
    """Yield ``(line number, row)`` for each row of an open text stream,
    read as strict RFC 4180.  The line number is that of the row's last
    physical line; any csv.Error becomes CsvParseError naming it."""
    reader = csv.reader(stream, strict=True)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise CsvParseError(str(exc), row=reader.line_num) from exc


def write_csv(target, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``target`` (a path or a text
    stream) as RFC 4180 with ``\\n`` line ends.  Cells are formatted by the
    csv module: None is an empty cell, a float its shortest round-trip repr."""
    with open_text(target, "w") as stream:
        # The csv module quotes a cell holding a bare \r only when \r is in
        # the line terminator, so rows end in \r\n and are cut back to \n.
        lines = SimpleNamespace(write=lambda line: stream.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_bibliographic_csv(
    source,
    column_map: dict[str, str] | None = None,
    label: str = "",
) -> Corpus:
    """Parse a bibliographic CSV export into a Corpus.

    ``source`` may be a path, a text stream, a binary stream or ``bytes``
    (decoded as UTF-8, BOM tolerated).  ``column_map`` maps logical names
    (title, abstract, year, venue, citations, author_count, id) to CSV
    headers: the title at least, and no other field.  Rows whose title is
    empty are skipped and counted.  Missing abstract/citations default to
    empty / 0; unparseable or out-of-range years are treated as absent.

    Raises CsvParseError (with a row number) on malformed CSV, CsvParseError
    naming the source on invalid UTF-8, and ConfigError on an unknown field
    or when an explicitly mapped column is missing from the header.
    """
    return _read_table(source, column_map, label).corpus()


class _Table:
    """The usable rows of one export as columns, one list per BibRecord
    field in row order.  Records are built only for the rows asked for.
    A table of spans, read for a sample from a regular file, holds each
    row's ``(last line, start, stop)`` byte span in the file in place of its
    abstract, and re-reads the abstracts of the records it builds."""

    def __init__(self, label: str, cells: dict[str, tuple], source=None):
        """Columns of the rows in ``cells`` (one tuple per mapped field) that
        have a title; an unmapped field reads as a column of "" cells.
        ``source`` is a table of spans' path and field -> position map."""
        blank = ("",) * len(cells.get("title", ()))
        titles = [title.strip() for title in cells.get("title", blank)]
        columns = [
            [rec_id.strip() or f"row{row}" for row, rec_id in enumerate(cells.get("id", blank), 1)],
            titles,
            list(cells.get("abstract", blank)),
            _parse_cells(cells.get("year", blank), _parse_year),
            [venue.strip() for venue in cells.get("venue", blank)],
            _parse_cells(cells.get("citations", blank), _parse_int),
            _parse_cells(cells.get("author_count", blank), _parse_int),
        ]
        keep = list(map(bool, titles))
        self.label = label
        self.skipped_rows = len(keep) - sum(keep)
        if self.skipped_rows:
            columns = [list(compress(column, keep)) for column in columns]
        self.columns = columns  # in _FIELDS order
        (self.ids, self.titles, self.abstracts, self.years, self.venues,
         self.citations, self.author_counts) = columns
        self.source = source

    def __len__(self) -> int:
        return len(self.ids)

    def _records(self, rows: list[int]) -> tuple[BibRecord, ...]:
        columns = [[column[i] for i in rows] for column in self.columns]
        if self.source is not None:
            columns[2] = _reread_abstracts(*self.source, *columns[:3])
        return tuple(map(BibRecord, *columns))

    def corpus(self) -> Corpus:
        """Corpus of every row."""
        if self.source is not None:
            raise RuntimeError("a table read for a sample holds no abstracts")
        return Corpus(self.label, tuple(map(BibRecord, *self.columns)), self.skipped_rows)

    def sample(self, n: int, seed: int) -> Corpus:
        """The records ``sample_corpus(self.corpus(), n, seed)`` would hold."""
        return Corpus(self.label, self._records(_sample_indices(len(self), n, seed, self.label)))

    def summary(self, distinct_author_total: int | None = None) -> BiblioSummary:
        """``bibliometric_descriptives(self.corpus(), distinct_author_total)``."""
        return _summary(self.years, self.author_counts, self.citations, distinct_author_total)

    def check_counts(self) -> None:
        """Raise the DomainError that building the record of the first row
        with a negative count raises."""
        if min(self.citations, default=0) < 0 or min(self.author_counts, default=0) < 0:
            pairs = zip(self.citations, self.author_counts)
            self._records([next(row for row, pair in enumerate(pairs) if min(pair) < 0)])


def _read_table(
    source, column_map: dict[str, str] | None = None, label: str = "", sampled: bool = False
) -> _Table:
    """Read and check every row of an export, as ``parse_bibliographic_csv``
    documents, into a _Table.  When the table is ``sampled`` and ``source``
    names a regular file, each row's abstract is left in the file and its
    byte span kept instead, so an unsampled row's abstract is never held."""
    mapping = dict(DEFAULT_COLUMN_MAP if column_map is None else column_map)
    if "title" not in mapping:
        raise ConfigError("column_map must name the title column")
    if unknown := sorted(mapping.keys() - _FIELDS):
        raise ConfigError(f"column_map names unknown fields {unknown}; known: {list(_FIELDS)}")

    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif not (isinstance(source, (str, Path)) or hasattr(source, "read")):
        raise ConfigError(f"unsupported CSV source: {type(source).__name__}")

    # A pipe cannot be read twice, so its abstracts are held.
    counted = sampled and isinstance(source, (str, Path)) and os.path.isfile(source)
    fields: list[str] = []
    picked: list = []  # the mapped cells of each row that is not blank
    located = None  # for a table of spans: (line, start, stop) of each picked row
    fault = None
    try:
        with open_text(source, encoding="utf-8-sig") as stream:
            if counted:
                # The text layer drops a leading BOM, 3 bytes of the file.
                end = [3 if stream.buffer.peek(3).startswith(codecs.BOM_UTF8) else 0]
                stream = _utf8_counted(stream, end)
            rows = read_csv_rows(stream)
            _, header = next(rows, (None, None))
            if header is None:
                raise CsvParseError("input has no header row", row=1)
            index = {name: pos for pos, name in enumerate(header)}

            columns: dict[str, int] = {}
            for logical, csv_name in mapping.items():
                if csv_name in index:
                    columns[logical] = index[csv_name]
                elif logical == "title" or column_map is not None:
                    raise ConfigError(
                        f"column {csv_name!r} (for {logical!r}) not found in header {header}"
                    )

            fields = [field for field in _FIELDS if field in columns]
            if counted and "abstract" in columns:
                fields.remove("abstract")
                located = []
            positions = [columns[field] for field in fields]
            get = itemgetter(*positions)
            pad = [""] * (max(positions) + 1)  # a short row's missing cells are ""
            append = picked.append
            if located is None:
                for _, row in rows:
                    if len(row) >= len(pad):
                        append(get(row))
                    elif row:
                        append(get(row + pad))
            else:
                # The reader reads no line past a row's last, so ``end[0]``
                # is the end of the row just read.
                stop = end[0]
                for line, row in rows:
                    start, stop = stop, end[0]
                    if row:
                        append(get(row if len(row) >= len(pad) else row + pad))
                        located.append((line, start, stop))
    except LexigaugeError as exc:
        fault = exc

    # A one-field itemgetter picks the cell itself.
    cells = dict(zip(fields, zip(*picked) if len(fields) > 1 else [tuple(picked)]))
    if located is not None:
        cells["abstract"] = located
    table = _Table(label, cells, None if located is None else (source, columns))
    # A negative count is a fault of its row, so it wins over a fault further
    # on in the file.
    table.check_counts()
    if fault is not None:
        raise fault
    _require_unique_ids(label, table.ids)
    return table


def _utf8_counted(lines, end: list[int]):
    """Yield each of ``lines`` after adding its UTF-8 length to ``end[0]``."""
    for line in lines:
        end[0] += len(line) if line.isascii() else len(line.encode())
        yield line


def _reread_abstracts(path, columns: dict[str, int], ids, titles, spans) -> list[str]:
    """The abstract cells of rows read earlier from ``path``, one per
    ``(line, start, stop)`` byte span, taken as the first read took them.
    Raises CsvParseError naming the row's line when a span no longer holds
    one row with the title and id that the first read found there."""
    width = max(columns.values()) + 1
    title, rec_id, abstract = columns["title"], columns.get("id"), columns["abstract"]
    abstracts = []
    with open(path, "rb", buffering=0) as raw:
        for (line, start, stop), want_id, want_title in zip(spans, ids, titles):
            raw.seek(start)
            try:
                # The reader takes the span as one line: a line end in quotes
                # is cell text, and a line end outside quotes ends the row.
                [row] = csv.reader([raw.read(stop - start).decode()], strict=True)
            except (ValueError, csv.Error):  # not UTF-8, or not one row
                row = []
            row += [""] * (width - len(row))  # as the first read padded it
            if row[title].strip() != want_title or (
                rec_id is not None and (row[rec_id].strip() or want_id) != want_id
            ):
                raise CsvParseError(f"{path} changed while it was read", row=line)
            abstracts.append(row[abstract])
    return abstracts


def _parse_cells(cells, parse) -> list:
    """``[parse(cell) for cell in cells]``, calling ``parse`` once per
    distinct cell."""
    parsed = {cell: parse(cell) for cell in set(cells)}
    return list(map(parsed.__getitem__, cells))


def require_records(corpus: Corpus | _Table, source) -> None:
    """Raise DomainError naming ``source`` when ``corpus`` holds no record
    (every row had an empty title)."""
    if len(corpus) == 0:
        raise DomainError(f"no usable records in {source}")


def write_corpus_csv(corpus: Corpus, target) -> None:
    """Serialize a corpus back to CSV (RFC 4180); parsing the output with
    ROUNDTRIP_COLUMN_MAP reproduces the records field-for-field."""
    write_csv(target, ROUNDTRIP_COLUMN_MAP.values(), map(attrgetter(*_FIELDS), corpus.records))


def sample_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Uniform random sample of exactly ``n`` records, without replacement.

    Deterministic in (corpus, n, seed); the sample preserves the input
    ordering of the chosen records and the corpus label.
    """
    chosen = _sample_indices(len(corpus.records), n, seed, corpus.label)
    return Corpus(label=corpus.label, records=tuple(corpus.records[i] for i in chosen))


def _sample_indices(size: int, n: int, seed: int, label: str) -> list[int]:
    """The sorted positions of a seeded sample of ``n`` of ``size`` rows."""
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n}")
    if n > size:
        raise DomainError(f"corpus {label!r}: sample size {n} exceeds its {size} records")
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.sort(rng.choice(size, size=n, replace=False)).tolist()


def bibliometric_descriptives(
    corpus: Corpus, distinct_author_total: int | None = None
) -> BiblioSummary:
    """Journal-level summary in the shape of a bibliometric overview table.

    The author total defaults to the sum of per-record author counts; pass
    ``distinct_author_total`` when a deduplicated corpus-level figure is
    known (per-record sums double-count recurring authors).  Annual growth
    is the compound annual growth rate of yearly document counts between
    the first and last observed year, in percent; records without a year
    are excluded from the growth computation only.
    """
    records = corpus.records
    return _summary(
        [r.year for r in records],
        [r.author_count for r in records],
        [r.citations for r in records],
        distinct_author_total,
    )


def _summary(
    years: list[int | None],
    author_counts: list[int],
    citations: list[int],
    distinct_author_total: int | None,
) -> BiblioSummary:
    """``bibliometric_descriptives`` over one list per record field."""
    doc_count = len(citations)
    if doc_count == 0:
        raise DomainError("cannot summarize an empty corpus")
    author_total = (
        distinct_author_total if distinct_author_total is not None else sum(author_counts)
    )
    citations_total = sum(citations)
    try:
        authors_per_document = author_total / doc_count
    except OverflowError:  # the message leaves out the number, which may be too long to print
        raise DomainError("authors per document is past the float range") from None

    years = [year for year in years if year is not None]
    timespan = (min(years), max(years)) if years else None
    growth = 0.0
    if timespan and timespan[1] > timespan[0]:
        first, last = timespan
        ratio = years.count(last) / years.count(first)
        growth = (ratio ** (1.0 / (last - first)) - 1.0) * 100.0

    return BiblioSummary(
        document_count=doc_count,
        author_total=author_total,
        authors_per_document=authors_per_document,
        citations_per_document=citations_total / doc_count,
        annual_growth_pct=growth,
        timespan=timespan,
    )
