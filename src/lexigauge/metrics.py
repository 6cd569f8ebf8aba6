"""Per-document lexical measures: title length, readability, lexical diversity.

Title length is a normalized character count; readability is the
Flesch-Kincaid grade level 0.39*(words/sentences) + 11.8*(syllables/words)
- 15.59; diversity is Yule's K, 1e4 * [-1/N + sum_i f(i) * (i/N)^2] over
the token-frequency spectrum (0 = every token unique, higher = more
repetition).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, filterfalse
from operator import mul

from .errors import CsvParseError, DomainError, named
from .ingest import open_text, read_csv_rows, write_csv
from .textproc import (
    DEFAULT_TOKEN_POLICY, TokenPolicy, _syllable_counts, count_sentences, tokenize
)

__all__ = [
    "LexicalRecord",
    "title_length",
    "fkgl",
    "yules_k",
    "lexical_records",
    "metric_vectors",
    "write_metrics_csv",
    "read_metrics_csv",
]

METRIC_NAMES = ("title_length", "fkgl", "yules_k")


@dataclass(frozen=True)
class LexicalRecord:
    """The three metric values for one document.

    ``fkgl`` and ``yules_k`` are None when the document has no abstract
    text (no words to measure).
    """

    doc_id: str
    title_length_chars: int
    fkgl: float | None
    yules_k: float | None


def title_length(title: str, include_spaces: bool = True) -> int:
    """Character count of a title.

    The title is trimmed and internal whitespace runs are collapsed to
    single spaces; every remaining Unicode character counts, including
    punctuation and (by default) the spaces themselves.
    ``include_spaces=False`` counts non-space characters only, an
    alternative convention some tools report.
    """
    normalized = " ".join(title.split())
    if not normalized:
        raise DomainError("title is empty after whitespace trimming")
    if include_spaces:
        return len(normalized)
    return len(normalized.replace(" ", ""))


def fkgl(text: str, policy: TokenPolicy = DEFAULT_TOKEN_POLICY) -> float:
    """Flesch-Kincaid grade level of running text.

    May be negative for very simple text; raises DomainError when the text
    contains no words (the words-per-sentence term would divide by zero).
    """
    counts = Counter(tokenize(text, policy))
    syllables = dict(zip(counts, _syllable_counts(list(counts))))
    return _fkgl(text, counts, syllables)


def _fkgl(text: str, counts: Counter, syllables: dict[str, int]) -> float:
    # ``counts`` is Counter(tokens of text); ``syllables`` holds each token.
    n_words = counts.total()
    if n_words == 0:
        raise DomainError("cannot compute a grade level for text with no words")
    n_sentences = max(count_sentences(text), 1)
    n_syllables = sum(map(mul, counts.values(), map(syllables.__getitem__, counts)))
    return 0.39 * (n_words / n_sentences) + 11.8 * (n_syllables / n_words) - 15.59


def yules_k(tokens) -> float:
    """Yule's K of a token sequence (or TokenStream).

    Computed as 1e4 * (S2 - N) / N^2 over N tokens, where S2 is the sum of
    squared type counts (= sum_i i^2 * f(i) over the frequency spectrum):
    the exact integer form of 1e4 * [-1/N + sum_i f(i) * (i/N)^2].  An
    all-distinct stream yields exactly 0.0.
    """
    return _yules_k(Counter(tokens))


def _yules_k(counts: Counter) -> float:
    n = counts.total()
    if n == 0:
        raise DomainError("Yule's K requires at least one token")
    v = counts.values()
    s2 = sum(map(mul, v, v))
    return 1e4 * (s2 - n) / (n * n)


# (document, type) pairs per block of lexical_records: enough that the
# syllable pass's per-call cost is small against its per-type cost, few
# enough that the block's Counters stay a small share of the heap.
_BLOCK_PAIRS = 1 << 14


def lexical_records(corpus, policy: TokenPolicy = DEFAULT_TOKEN_POLICY) -> list[LexicalRecord]:
    """Compute the metric row for every record of a corpus (ingest.Corpus).

    Abstract-less documents receive None for fkgl / yules_k; they still get
    a title length.  Errors are annotated with the offending document id.
    Each abstract is tokenized once; both metrics read that token count.
    Documents are finished in blocks of about ``_BLOCK_PAIRS`` (document,
    type) pairs, so that the syllables of a block's types not yet in the
    syllable table are counted in one array pass.  The table lives only
    for this call; the values equal per-document counting.
    """
    syllables: dict[str, int] = {}
    rows: list[LexicalRecord] = []
    block = []
    pairs = 0
    for record in corpus.records:
        with named(f"document {record.id!r}"):
            length = title_length(record.title)
            counts = Counter(tokenize(record.abstract, policy))
        block.append((record, length, counts))
        pairs += len(counts)
        if pairs >= _BLOCK_PAIRS:
            rows += _finish_block(block, syllables)
            block, pairs = [], 0
    rows += _finish_block(block, syllables)
    return rows


def _finish_block(block, syllables: dict[str, int]) -> list[LexicalRecord]:
    types = chain.from_iterable(counts for _, _, counts in block)
    new = list(dict.fromkeys(filterfalse(syllables.__contains__, types)))
    syllables.update(zip(new, _syllable_counts(new)))
    # Neither metric raises on a non-empty count, so no document is named here.
    return [
        LexicalRecord(
            doc_id=record.id,
            title_length_chars=length,
            fkgl=_fkgl(record.abstract, counts, syllables) if counts else None,
            yules_k=_yules_k(counts) if counts else None,
        )
        for record, length, counts in block
    ]


# ---------------------------------------------------------------------------
# Metric table CSV (doc_id,title_length_chars,fkgl,yules_k)
# ---------------------------------------------------------------------------

_CSV_HEADER = ["doc_id", "title_length_chars", "fkgl", "yules_k"]


def write_metrics_csv(records: list[LexicalRecord], target) -> None:
    """Write the per-document metric table; floats keep full precision
    (shortest round-trip repr), empty cells for missing abstracts."""
    rows = ((r.doc_id, r.title_length_chars, r.fkgl, r.yules_k) for r in records)
    write_csv(target, _CSV_HEADER, rows)


def read_metrics_csv(source) -> list[LexicalRecord]:
    """Read a metric table written by :func:`write_metrics_csv`.

    Malformed (non-RFC 4180) quoting, a row of the wrong width, or a cell
    that is not a finite number (``nan``, ``inf``, ``1e999``) raises
    CsvParseError naming its row, and the column of a bad cell.
    """
    with open_text(source) as stream:
        rows = read_csv_rows(stream)
        _, header = next(rows, (None, None))
        if header != _CSV_HEADER:
            raise CsvParseError(f"expected header {_CSV_HEADER}, got {header}", row=1)
        records = []
        for line, row in rows:
            if len(row) != len(_CSV_HEADER):
                raise CsvParseError(
                    f"expected {len(_CSV_HEADER)} fields, got {len(row)}", row=line
                )
            doc_id, length, grade, diversity = row
            records.append(
                LexicalRecord(
                    doc_id=doc_id,
                    title_length_chars=_cell(int, length, "title_length_chars", line),
                    fkgl=None if grade == "" else _cell(float, grade, "fkgl", line),
                    yules_k=None if diversity == "" else _cell(float, diversity, "yules_k", line),
                )
            )
        return records


def _cell(convert, raw: str, column: str, line: int):
    try:
        value = convert(raw)
        if math.isfinite(value):  # an int past float range overflows here
            return value
    except (ValueError, OverflowError):
        pass
    raise CsvParseError(
        f"column {column}: {raw!r} is not a finite {convert.__name__}", row=line
    )


def metric_vectors(records: list[LexicalRecord]) -> dict[str, list[float]]:
    """Extract per-metric value vectors, skipping missing-abstract entries
    for fkgl / yules_k (title lengths are always present)."""
    return {
        "title_length": [float(r.title_length_chars) for r in records],
        "fkgl": [r.fkgl for r in records if r.fkgl is not None],
        "yules_k": [r.yules_k for r in records if r.yules_k is not None],
    }
