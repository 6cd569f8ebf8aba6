"""Seeded synthetic Scopus-style CSV exports for the benchmark workloads.

Only the standard library ``csv`` module writes the files; nothing from
lexigauge is used, so the inputs do not depend on the code under test.
The same (spec, seed) always gives the same bytes.

Sizes that drive the cost of a stage (rows, words per abstract, number
and length of long abstracts, words per title) are fixed profiles that
the seed only shuffles, so runs on different seeds do about the same
amount of work; the seed chooses which words go where.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

HEADER = [
    "Authors",
    "Title",
    "Year",
    "Source title",
    "Cited by",
    "DOI",
    "Abstract",
    "Author count",
]

# Every word starts with one of these clusters, which no English stopword
# does, so no generated word is dropped by the co-word stopword list.
_FIRST_ONSETS = ["bl", "br", "cl", "cr", "dr", "fl", "gl", "gr", "pl", "pr",
                 "sc", "sk", "sl", "sp", "st", "tr"]
_ONSETS = ["b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v",
           "w", "br", "cl", "cr", "dr", "fl", "gr", "pl", "pr", "sc", "sh", "sl",
           "sp", "st", "tr", "th", "ch", "qu"]
_NUCLEI = ["a", "e", "i", "o", "u", "y", "ai", "ea", "ee", "io", "ou", "oa"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ng", "ct", "x"]
_SUFFIXES = ["", "", "", "", "e", "es", "ed", "ing", "ly", "tion", "ment",
             "ness", "al", "ity", "le", "ful"]
_TITLE_FILLERS = ["of", "the", "and", "in", "for", "on", "a", "with"]


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one synthetic export.

    abstract_words: inclusive (low, high) range of words per abstract.
    tail_share / tail_chars: share of rows whose abstract is a full-text
        tail, and the inclusive range of those tails' lengths in characters.
    title_vocab / title_zipf: size and Zipf exponent of the title
        vocabulary; a smaller vocabulary gives a denser co-word graph.
    """

    rows: int
    title_words: int
    title_fillers: int
    title_vocab: int
    title_zipf: float
    abstract_words: tuple[int, int]
    abstract_vocab: int = 30_000
    abstract_zipf: float = 1.05
    tail_share: float = 0.0
    tail_chars: tuple[int, int] = (50_000, 80_000)
    venue: str = "Journal"
    first_year: int = 2001


def vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct pronounceable lowercase pseudo-words, shortest
    first, so that under a Zipf draw the frequent words are the short ones
    as in real text."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        need = size - len(words)
        syllables = rng.choice([1, 2, 2, 3, 3, 4], size=need)
        first = rng.integers(0, len(_FIRST_ONSETS), size=need)
        onsets = rng.integers(0, len(_ONSETS), size=(need, 4))
        nuclei = rng.integers(0, len(_NUCLEI), size=(need, 4))
        codas = rng.integers(0, len(_CODAS), size=(need, 4))
        suffixes = rng.integers(0, len(_SUFFIXES), size=need)
        for i in range(need):
            word = _FIRST_ONSETS[first[i]] + "".join(
                (_ONSETS[onsets[i, k]] if k else "") + _NUCLEI[nuclei[i, k]] + _CODAS[codas[i, k]]
                for k in range(syllables[i])
            ) + _SUFFIXES[suffixes[i]]
            if word not in seen:
                seen.add(word)
                words.append(word)
    return sorted(words, key=lambda w: (len(w), w))


def _zipf_tokens(rng: np.random.Generator, vocab_size: int, exponent: float, n: int) -> np.ndarray:
    """``n`` word ids in random order whose counts follow a Zipf law exactly:
    each id's count is its expected count, rounded by largest remainder.
    The counts do not depend on the seed, only the order does."""
    weights = 1.0 / np.arange(1, vocab_size + 1, dtype=float) ** exponent
    expected = n * weights / weights.sum()
    counts = np.floor(expected).astype(np.int64)
    remainder = n - int(counts.sum())
    counts[np.argsort(-(expected - counts), kind="stable")[:remainder]] += 1
    return rng.permutation(np.repeat(np.arange(vocab_size), counts))


def _abstract(rng: np.random.Generator, words: list[str]) -> str:
    """Sentences of 8-28 words: capitalised, terminated, with an occasional
    abbreviation, decimal number or hyphenated pair for the splitter and
    tokenizer to handle."""
    sentences = []
    start = 0
    lengths = rng.integers(8, 29, size=len(words) // 8 + 1)
    extras = rng.random(len(lengths))
    for length, extra in zip(lengths, extras):
        chunk = words[start:start + int(length)]
        if not chunk:
            break
        start += len(chunk)
        if extra < 0.05 and len(chunk) > 3:
            chunk[2] = f"{chunk[2]} (e.g. {chunk[3]})"
        elif extra < 0.10 and len(chunk) > 3:
            chunk[1] = f"{chunk[1]} et al. {chunk[2]}"
        elif extra < 0.15:
            chunk.append(f"{int(extra * 1000) % 90 + 1}.{int(extra * 1e5) % 10}%")
        elif extra < 0.20 and len(chunk) > 2:
            chunk[1] = f"{chunk[1]}-{chunk[2]}"
        sentence = " ".join(chunk)
        mark = "?" if extra > 0.97 else "."
        sentences.append(sentence[0].upper() + sentence[1:] + mark)
    return " ".join(sentences)


def write_export(path, spec: CorpusSpec, seed: int) -> None:
    """Write one export to ``path``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    title_vocab = vocabulary(rng, spec.title_vocab)
    abstract_vocab = vocabulary(rng, spec.abstract_vocab)
    surnames = [w.capitalize() for w in vocabulary(rng, 2_000)]

    n = spec.rows
    # Fixed length profile, shuffled: an even spread over the range.
    lo, hi = spec.abstract_words
    abstract_lengths = rng.permutation(lo + (np.arange(n) * (hi - lo + 1)) // n)
    tails = round(n * spec.tail_share)
    tail_rows = set(rng.choice(n, size=tails, replace=False).tolist()) if tails else set()
    tail_targets = iter(
        spec.tail_chars[0]
        + (np.arange(tails) * (spec.tail_chars[1] - spec.tail_chars[0] + 1)) // max(tails, 1)
    )
    # Every word and its space take at least 4 characters, so a tail of
    # ``target`` characters needs fewer than target // 3 words.
    tail_tokens = _zipf_tokens(rng, spec.abstract_vocab, spec.abstract_zipf,
                               tails * (spec.tail_chars[1] // 3))

    abstract_tokens = _zipf_tokens(rng, spec.abstract_vocab, spec.abstract_zipf,
                                  int(abstract_lengths.sum()))
    title_tokens = _zipf_tokens(rng, spec.title_vocab, spec.title_zipf, n * spec.title_words)
    fillers = rng.integers(0, len(_TITLE_FILLERS), size=(n, spec.title_fillers))
    years = spec.first_year + np.minimum(
        rng.geometric(0.12, size=n), 20
    )
    cited = rng.geometric(0.08, size=n) - 1
    author_counts = rng.integers(1, 8, size=n)
    author_ids = rng.integers(0, len(surnames), size=(n, 7))

    with open(path, "w", encoding="utf-8-sig", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        offset = tail_offset = 0
        for i in range(n):
            length = int(abstract_lengths[i])
            words = [abstract_vocab[t] for t in abstract_tokens[offset:offset + length]]
            offset += length
            abstract = _abstract(rng, words)
            if i in tail_rows:
                target = int(next(tail_targets))
                words = [abstract_vocab[t] for t in
                         tail_tokens[tail_offset:tail_offset + target // 3]]
                tail_offset += target // 3
                abstract = _abstract(rng, words)[:target].rstrip() + "."
            title = [title_vocab[t] for t in
                     title_tokens[i * spec.title_words:(i + 1) * spec.title_words]]
            for k, filler in enumerate(fillers[i]):
                title.insert(1 + 3 * k, _TITLE_FILLERS[filler])
            title_text = " ".join(title)
            authors = "; ".join(
                f"{surnames[a]} {chr(65 + a % 26)}." for a in author_ids[i, :author_counts[i]]
            )
            writer.writerow([
                authors,
                title_text[0].upper() + title_text[1:],
                int(years[i]),
                spec.venue,
                int(cited[i]),
                f"10.5555/{spec.venue.lower().replace(' ', '-')}.{seed}.{i}",
                abstract,
                int(author_counts[i]),
            ])
