"""Deterministic text segmentation primitives.

Tokens, sentences, syllables, and the token-frequency spectrum that the
lexical metrics are defined over.  All functions are pure; behaviour is
controlled only by the explicit policy objects so that metric values are
reproducible across runs and machines.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import pairwise
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "TokenPolicy",
    "TokenStream",
    "FrequencySpectrum",
    "DEFAULT_ABBREVIATIONS",
    "tokenize",
    "split_sentences",
    "count_sentences",
    "count_syllables",
    "frequency_spectrum",
]

# Version tag for the segmentation rule set; recorded in report provenance
# because metric values are only comparable under identical rules.
SEGMENTATION_RULES_VERSION = "1"


@dataclass(frozen=True)
class TokenPolicy:
    """Controls word segmentation.

    keep_numbers: keep tokens with no letters (e.g. "2020").
    bind_hyphens: "top-tier" stays one token instead of two.
    bind_apostrophes: "yule's" stays one token; trailing possessive
        apostrophes never bind ("articles'" -> "articles").

    A flag that is not a bool raises ConfigError naming it.
    """

    keep_numbers: bool = True
    bind_hyphens: bool = True
    bind_apostrophes: bool = True

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, bool):
                raise ConfigError(f"{name!r} must be a boolean, got {value!r}")


DEFAULT_TOKEN_POLICY = TokenPolicy()

# Word characters: Unicode letters and digits, underscore excluded.
_WORD = r"[^\W_]"
_HAS_WORD = re.compile(_WORD)


@cache
def _token_pattern(bind_hyphens: bool, bind_apostrophes: bool) -> re.Pattern:
    joiners = (r"\-" if bind_hyphens else "") + ("'’" if bind_apostrophes else "")
    if joiners:
        return re.compile(rf"{_WORD}+(?:[{joiners}]{_WORD}+)*")
    return re.compile(rf"{_WORD}+")


@cache
def _latin1_tokenizer(bind_hyphens: bool, bind_apostrophes: bool):
    """A ``bytes.translate`` table over Latin-1 that lowercases each word
    character, keeps each joiner the token pattern binds and blanks every
    other byte, and per joiner a pattern that finds it outside a word."""
    # Every Latin-1 word character lowercases to one Latin-1 word character.
    latin1 = list(map(chr, range(256)))
    pattern = _token_pattern(bind_hyphens, bind_apostrophes)
    joiners = [c for c in latin1 if not _HAS_WORD.match(c) and pattern.fullmatch(f"a{c}a")]
    table = "".join(c.lower() if _HAS_WORD.match(c) else c if c in joiners else " " for c in latin1)
    # Literal-prefix scans, far faster than a scan for a character class.
    misplaced = [
        re.compile(rf"{j}(?:(?!{_WORD})|(?<!{_WORD}{j}))") for j in map(re.escape, joiners)
    ]
    return table.encode("latin-1"), misplaced


def _latin1(text: str) -> bytes | None:
    """``text`` encoded as Latin-1, or None if a character lies outside it."""
    data = text.encode("latin-1", "ignore")
    return data if len(data) == len(text) else None


@dataclass(frozen=True)
class TokenStream:
    """Lowercased word tokens."""

    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def tokenize(text: str, policy: TokenPolicy = DEFAULT_TOKEN_POLICY) -> TokenStream:
    """Segment ``text`` into lowercase word tokens.

    Punctuation is never a token.  Intra-word hyphens/apostrophes bind per
    ``policy``; diacritic letters count as word characters.  Empty text (or
    text with no word characters) yields an empty stream.  Latin-1 text is
    translated through a table derived from the token pattern, its misplaced
    joiners blanked, and split; other text is matched with the pattern and
    lowercased per token.  Both give the same tokens.
    """
    flags = (policy.bind_hyphens, policy.bind_apostrophes)
    data = _latin1(text)
    tokens = _general_tokens(text, *flags) if data is None else _latin1_tokens(data, *flags)
    if not policy.keep_numbers:
        tokens = [t for t in tokens if any(c.isalpha() for c in t)]
    return TokenStream(tuple(tokens))


def _latin1_tokens(data: bytes, bind_hyphens: bool, bind_apostrophes: bool) -> list[str]:
    # A joiner not between two word characters is blanked, which moves no
    # other joiner out of place; each run of non-spaces is then one token.
    table, misplaced = _latin1_tokenizer(bind_hyphens, bind_apostrophes)
    spaced = data.translate(table).decode("latin-1")
    for pattern in misplaced:
        spaced = pattern.sub(" ", spaced)
    return spaced.split()


def _general_tokens(text: str, bind_hyphens: bool, bind_apostrophes: bool) -> list[str]:
    # Lowercasing can split a token ("İ" -> "i" + a combining mark), so
    # the text is matched first and lowercased per token.
    return [t.lower() for t in _token_pattern(bind_hyphens, bind_apostrophes).findall(text)]


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# Abbreviations whose trailing period must not end a sentence.  Every entry
# is lowercase ASCII, which the window test of ``_boundaries`` relies on.
DEFAULT_ABBREVIATIONS = frozenset(
    {"e.g.", "i.e.", "et al.", "vs.", "cf.", "etc."}
)

_TERMINATOR = re.compile(r"[.!?]+")
_OPENER = re.compile(r"\s+(\S)")


# The class of each character for the sentence scan: an upper-case letter
# or digit "A", which opens a sentence, whitespace " ", a terminator ".",
# anything else "x".  A terminator run is a boundary where its last "." is
# followed by whitespace and an "A".
def _sentence_class(char: str) -> str:
    if char.isupper() or char.isdigit():
        return "A"
    if char.isspace():
        return " "
    return "." if _TERMINATOR.match(char) else "x"


_SENTENCE_CLASSES = "".join(map(_sentence_class, map(chr, range(256)))).encode("latin-1")
_BOUNDARY = re.compile(rb"\.(?= +A)")
# An entry that ends the window and follows no word character; the window
# holds the longest entry and the character before it.
_ABBREVIATION_END = re.compile(
    rf"(?<!{_WORD})(?:{'|'.join(map(re.escape, sorted(DEFAULT_ABBREVIATIONS)))})\Z"
)
_WINDOW = 1 + max(map(len, DEFAULT_ABBREVIATIONS))


def split_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences.

    A run of ``.``, ``!`` or ``?`` ends a sentence when followed by
    whitespace and an uppercase letter or digit, or when it ends the text.
    Periods closing an entry of ``DEFAULT_ABBREVIATIONS`` never split.  Text
    containing at least one word character but no terminator is a single
    sentence; a stretch between boundaries that holds no word character is
    none.
    """
    spans = pairwise([0, *_boundaries(text), len(text)])
    return [text[a:b].strip() for a, b in spans if _HAS_WORD.search(text, a, b)]


def count_sentences(text: str) -> int:
    """``len(split_sentences(text))``: the same boundary scan, without
    building the sentence strings."""
    boundaries = _boundaries(text)
    if _latin1(text) is None:  # "Ⓐ" opens a sentence but is no word character
        spans = pairwise([0, *boundaries, len(text)])
        return sum(1 for a, b in spans if _HAS_WORD.search(text, a, b))
    # Every Latin-1 opener is a word character, so each boundary opens a
    # sentence, and the text before the first is one if it holds a word.
    before_first = boundaries[0] if boundaries else len(text)
    return len(boundaries) + bool(_HAS_WORD.search(text, 0, before_first))


def _boundaries(text: str) -> list[int]:
    """The end of each terminator run in ``text`` that is followed by
    whitespace and a character that opens a sentence, and does not close an
    abbreviation.  A boundary at the end of the text, or before trailing
    whitespace, would change no sentence, so none is returned."""
    data = _latin1(text)
    if data is not None:
        ends = map(re.Match.end, _BOUNDARY.finditer(data.translate(_SENTENCE_CLASSES)))
    else:
        ends = (
            end
            for end in map(re.Match.end, _TERMINATOR.finditer(text))
            if (opener := _OPENER.match(text, end)) and _sentence_class(opener[1]) == "A"
        )
    # The lowercased window ends in an entry exactly where text[:end].lower()
    # does.  Lowercasing is per character but for final sigma, whose form
    # depends on the text before it; an entry is ASCII and both forms of
    # sigma are alphanumeric, so either form decides the test alike.
    return [
        end
        for end in ends
        if not _ABBREVIATION_END.search(text[max(end - _WINDOW, 0) : end].lower())
    ]


# ---------------------------------------------------------------------------
# Syllable counting
# ---------------------------------------------------------------------------

_VOWELS = frozenset("aeiouy")
_VOWEL_RUN = re.compile(r"[aeiouy]+")
_ALPHA_SPLIT = re.compile(r"[^a-z]+")

# /iz/ after sibilants: "boxes", "pages", "houses" keep their final syllable.
_PRONOUNCED_ES = frozenset("scgxzj")
# Suffixes that leave a preceding stem-final silent "e" silent:
# "manage+ment" -> 3, "love+ly" -> 2.  Longest match wins.
_NEUTRAL_SUFFIXES = ("ments", "ment", "fully", "ness", "less", "ful", "ly")


def count_syllables(word: str) -> int:
    """Heuristic syllable count for one token; always >= 1.

    Counts maximal vowel runs (a, e, i, o, u, y) over the lowercased word,
    then discounts silent "e": word-final ("like"), before inflections
    ("makes", "walked"), and before neutral suffixes ("management"), with
    the usual consonant-le ("table"), pronounced-es ("boxes") and
    pronounced-ed ("wanted") exceptions.  Tokens without a-z letters
    (numerals, symbol runs) and vowel-less acronyms count as 1.  Hyphenated
    or apostrophised tokens are counted per alphabetic part and summed.
    """
    total = 0
    for part in _ALPHA_SPLIT.split(word.lower()):
        if part:
            total += _part_syllables(part)
    return max(total, 1)


def _part_syllables(part: str) -> int:
    runs = len(_VOWEL_RUN.findall(part))
    if runs <= 1:
        return runs
    if _has_silent_e(part):
        runs -= 1
    return max(runs, 1)


def _is_cons(ch: str) -> bool:
    return ch not in _VOWELS


# Every ending _has_silent_e looks at, tested first in one C call.
_SILENT_E_ENDINGS = ("e", "ed", "es", *("e" + suffix for suffix in _NEUTRAL_SUFFIXES))


def _has_silent_e(p: str) -> bool:
    if not p.endswith(_SILENT_E_ENDINGS):
        return False
    # Word-final "e": silent after a consonant, except consonant+"le"
    # ("table" keeps it, "whale" and "like" drop it).
    if p.endswith("e"):
        if len(p) < 2 or not _is_cons(p[-2]):
            return False
        if p.endswith("le") and len(p) >= 3 and _is_cons(p[-3]):
            return False
        return True
    # "...ed": silent unless the /id/ cases "ted"/"ded" ("wanted", "needed").
    if p.endswith("ed"):
        if len(p) < 3 or not _is_cons(p[-3]):
            return False
        return p[-3] not in "td"
    # "...es": silent unless pronounced /iz/ after sibilants ("boxes",
    # "pages") or part of consonant+"les" ("tables").
    if p.endswith("es"):
        if len(p) < 3 or not _is_cons(p[-3]):
            return False
        if p[-3] in _PRONOUNCED_ES:
            return False
        if p[-3] == "h" and len(p) >= 4 and p[-4] in "cs":  # "watches", "washes"
            return False
        if p[-3] == "l" and len(p) >= 4 and _is_cons(p[-4]):  # "tables"
            return False
        return True
    # Stem-final silent "e" before a neutral suffix ("manage+ment").
    for suffix in _NEUTRAL_SUFFIXES:
        if p.endswith("e" + suffix):
            i = len(p) - len(suffix) - 2
            if i >= 0 and _is_cons(p[i]):
                return True
            return False
    return False


# ``bytes.translate`` tables from lowercased ASCII text to bool bytes: is
# the byte a-z, a vowel, a newline.
_LETTER_BYTES = bytes("a" <= chr(b) <= "z" for b in range(256))
_VOWEL_BYTES = bytes(chr(b) in _VOWELS for b in range(256))
_NEWLINE_BYTES = bytes(chr(b) == "\n" for b in range(256))
# Each ending as the shift that leaves a part's last len(ending) bytes of a
# little-endian word of its last 8 bytes, and those bytes' value.
_ENDING_KEYS = [
    (64 - 8 * len(ending), int.from_bytes(ending.encode(), "little"))
    for ending in _SILENT_E_ENDINGS
]


def _syllable_counts(words: list[str]) -> list[int]:
    """``count_syllables`` of each of ``words`` (none holding a newline),
    in one array pass.

    The words are joined by newlines, lowercased and encoded one byte per
    character ("?" for each character outside ASCII, which splits parts as
    ``_ALPHA_SPLIT`` does).  Vowel runs are counted per ``[a-z]`` part by
    ``searchsorted``; a part with two or more runs whose tail is one of
    ``_SILENT_E_ENDINGS`` goes to ``_has_silent_e``; ``bincount`` sums the
    parts of each word.
    """
    if not words:
        return []
    # Eight newlines first, so that every part has eight bytes before its end.
    text = "\n" * 8 + "\n".join(words).lower() + "\n"
    data = text.encode("ascii", "replace")
    letters, vowels, newlines = (
        np.frombuffer(data.translate(table), bool)
        for table in (_LETTER_BYTES, _VOWEL_BYTES, _NEWLINE_BYTES)
    )
    data = np.frombuffer(data, np.uint8)
    # Starts and (exclusive) ends of parts alternate among the edges.
    edges = np.flatnonzero(np.diff(letters, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    run_starts = np.flatnonzero(np.diff(vowels, prepend=False))[::2]
    runs = np.searchsorted(run_starts, ends) - np.searchsorted(run_starts, starts)
    multi = np.flatnonzero(runs >= 2)
    # Every ending is letters, and a part is preceded by a non-letter, so an
    # ending that matches a part's last bytes lies within the part.  Every
    # byte is ASCII, so the signed word is never negative.
    tail = data[ends[multi, None] + np.arange(-8, 0)].view("<i8").ravel()
    candidate = np.zeros(multi.size, bool)
    for shift, key in _ENDING_KEYS:
        candidate |= tail >> shift == key
    multi = multi[candidate]
    parts = map(text.__getitem__, map(slice, starts[multi].tolist(), ends[multi].tolist()))
    runs[multi[np.fromiter(map(_has_silent_e, parts), bool, multi.size)]] -= 1
    word_ends = np.flatnonzero(newlines)[8:]
    totals = np.bincount(np.searchsorted(word_ends, starts), runs, len(words))
    return np.maximum(totals, 1).astype(np.intp).tolist()


# ---------------------------------------------------------------------------
# Frequency spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencySpectrum:
    """Token-frequency spectrum: ``spectrum[i]`` = number of types that
    occur exactly ``i`` times among ``n_tokens`` tokens."""

    n_tokens: int
    n_types: int
    spectrum: dict[int, int]


def frequency_spectrum(tokens) -> FrequencySpectrum:
    """Exact frequency spectrum of a token sequence (or TokenStream)."""
    freq = Counter(tokens)
    spectrum = dict(sorted(Counter(freq.values()).items()))
    return FrequencySpectrum(
        n_tokens=sum(freq.values()), n_types=len(freq), spectrum=spectrum
    )


# ---------------------------------------------------------------------------
# Configuration text
# ---------------------------------------------------------------------------


def read_config_text(path: str | Path) -> str:
    """The UTF-8 text of a configuration file; invalid UTF-8 raises
    ConfigError naming the file."""
    return decode_config_text(Path(path).read_bytes(), path)


def decode_config_text(data: bytes | str, name) -> str:
    """``data`` as text: bytes are decoded as UTF-8, and invalid UTF-8
    raises ConfigError naming ``name``."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{name}: not valid UTF-8 at byte {exc.start} ({exc.reason})") from exc
