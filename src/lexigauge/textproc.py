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
from itertools import accumulate, pairwise
from pathlib import Path

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
    "load_token_policy",
    "load_abbreviations",
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
    """

    keep_numbers: bool = True
    bind_hyphens: bool = True
    bind_apostrophes: bool = True


DEFAULT_TOKEN_POLICY = TokenPolicy()

# Word characters: Unicode letters and digits, underscore excluded.  In
# lowercased ASCII text they are exactly [a-z0-9], a class the regex engine
# tests faster.
_WORD = r"[^\W_]"
_LOWER_ASCII_WORD = "[a-z0-9]"


@cache
def _token_pattern(bind_hyphens: bool, bind_apostrophes: bool, word: str = _WORD) -> re.Pattern:
    joiners = (r"\-" if bind_hyphens else "") + ("'’" if bind_apostrophes else "")
    if joiners:
        return re.compile(rf"{word}+(?:[{joiners}]{word}+)*")
    return re.compile(rf"{word}+")


@cache
def _ascii_token_table(bind_hyphens: bool, bind_apostrophes: bool) -> bytes:
    """A ``bytes.translate`` table that lowercases [A-Z], keeps [a-z0-9] and
    the bound joiners ("’" is never ASCII), and blanks every other byte."""
    joiners = b"-" * bind_hyphens + b"'" * bind_apostrophes
    table = bytearray(b" " * 256)
    for kept in b"abcdefghijklmnopqrstuvwxyz0123456789" + joiners:
        table[kept] = kept
    table[65:91] = table[97:123]
    return bytes(table)


@cache
def _misplaced_joiner(joiner: str) -> re.Pattern:
    # ``joiner`` not between two [a-z0-9]: literal-prefix scans, far faster
    # than a scan for a character class.
    return re.compile(rf"{joiner}(?:(?![a-z0-9])|(?<![a-z0-9]{joiner}))")


@dataclass(frozen=True)
class TokenStream:
    """Lowercased word tokens plus the character count of the source text."""

    tokens: tuple[str, ...]
    source_char_count: int

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def tokenize(text: str, policy: TokenPolicy = DEFAULT_TOKEN_POLICY) -> TokenStream:
    """Segment ``text`` into lowercase word tokens.

    Punctuation is never a token.  Intra-word hyphens/apostrophes bind per
    ``policy``; diacritic letters count as word characters.  Empty text (or
    text with no word characters) yields an empty stream.
    """
    flags = (policy.bind_hyphens, policy.bind_apostrophes)
    tokens = _ascii_tokens(text, *flags) if text.isascii() else _general_tokens(text, *flags)
    if not policy.keep_numbers:
        tokens = [t for t in tokens if any(c.isalpha() for c in t)]
    return TokenStream(tokens=tuple(tokens), source_char_count=len(text))


def _ascii_tokens(text: str, bind_hyphens: bool, bind_apostrophes: bool) -> list[str]:
    # After the translate, a token is a run of non-spaces exactly when each
    # joiner in it sits between two word characters, as the pattern binds.
    table = _ascii_token_table(bind_hyphens, bind_apostrophes)
    spaced = text.encode("ascii").translate(table).decode("ascii")
    joiners = "-" * bind_hyphens + "'" * bind_apostrophes
    if any(_misplaced_joiner(joiner).search(spaced) for joiner in joiners):
        return _token_pattern(bind_hyphens, bind_apostrophes, _LOWER_ASCII_WORD).findall(spaced)
    return spaced.split()


def _general_tokens(text: str, bind_hyphens: bool, bind_apostrophes: bool) -> list[str]:
    # Lowercasing can split a token ("İ" -> "i" + a combining mark), so
    # the text is matched first and lowercased per token.
    return [t.lower() for t in _token_pattern(bind_hyphens, bind_apostrophes).findall(text)]


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# Abbreviations whose trailing period must not end a sentence.  Entries are
# matched case-insensitively against the text ending at the period.
DEFAULT_ABBREVIATIONS = frozenset(
    {"e.g.", "i.e.", "et al.", "vs.", "cf.", "etc."}
)

_TERMINATOR = re.compile(r"[.!?]+")
_NEXT_VISIBLE = re.compile(r"\s*(.?)", re.DOTALL)
_HAS_WORD = re.compile(_WORD)


# The class of each ASCII character for the whole-text sentence scan: a
# terminator ".", whitespace " ", a letter or digit that may open a sentence
# "A", another letter "a", anything else "x".  A terminator run opens a
# sentence where its last "." is followed by whitespace and an "A".
def _sentence_class(char: str) -> str:
    if char in ".!?":
        return "."
    if char.isspace():
        return " "
    if char.isupper() or char.isdigit():
        return "A"
    return "a" if char.islower() else "x"


_ASCII_SENTENCE_CLASSES = bytes(ord(_sentence_class(chr(b))) for b in range(128)).ljust(256, b"x")
_OPENS_SENTENCE = re.compile(rb"\.(?= +A)")
_CLASS_WORD = re.compile(rb"[Aa]")


def split_sentences(
    text: str, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """Split ``text`` into sentences.

    A run of ``.``, ``!`` or ``?`` ends a sentence when followed by
    whitespace and an uppercase letter or digit, or when it ends the text.
    Periods belonging to ``abbreviations`` never split.  Text containing at
    least one word character but no terminator is a single sentence.
    """
    spans = _sentence_spans(text, check_abbreviations(abbreviations))
    return [text[a:b].strip() for a, b in spans if _HAS_WORD.search(text, a, b)]


def count_sentences(
    text: str, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
) -> int:
    """``len(split_sentences(text, abbreviations))``, without building the
    sentence strings."""
    return _count_sentences(text, check_abbreviations(abbreviations))


def _count_sentences(text: str, abbreviations: frozenset[str]) -> int:
    if not text.isascii():
        spans = _sentence_spans(text, abbreviations)
        return sum(1 for a, b in spans if _HAS_WORD.search(text, a, b))
    # The rule of _sentence_spans over character classes.  A boundary
    # followed by whitespace and an "A" opens a sentence that holds the "A";
    # one followed by whitespace alone opens none, so it is not looked for.
    # The text before the first boundary is a sentence if it holds a word.
    classes = text.encode("ascii").translate(_ASCII_SENTENCE_CLASSES)
    lowered = text.lower()
    suffixes = tuple(abbreviations)
    boundaries = [
        end
        for end in map(re.Match.end, _OPENS_SENTENCE.finditer(classes))
        if not (
            lowered.endswith(suffixes, 0, end)
            and _ends_with_abbreviation(lowered, end, abbreviations)
        )
    ]
    before_first = boundaries[0] if boundaries else len(text)
    return len(boundaries) + bool(_CLASS_WORD.search(classes, 0, before_first))


def _is_abbreviation(entry: str) -> bool:
    return entry.endswith((".", "!", "?")) and entry == entry.lower()


def check_abbreviations(abbreviations: frozenset[str]) -> frozenset[str]:
    """``abbreviations``, or ConfigError naming an entry that is empty, not lowercase
    or without a final terminator: it would match every terminator or none."""
    bad = sorted(entry for entry in abbreviations if not _is_abbreviation(entry))
    if bad:
        raise ConfigError(f"abbreviation {bad[0]!r} is not lowercase ending in '.', '!' or '?'")
    return abbreviations


def _sentence_spans(text: str, abbreviations: frozenset[str]):
    """``(start, end)`` of each stretch of ``text`` between sentence
    boundaries; the ones that hold a word character are the sentences."""
    # Abbreviations are matched in the text lowercased once.  That equals
    # text[:end].lower() wherever text[end] is whitespace or absent, final
    # sigma included ("AB'Σ." -> "ab'ς.", which a window "'Σ." would miss).
    # Lowercasing can lengthen a character ("İ" -> "i̇"): map offsets onto it.
    lowered = text.lower()
    at = range(len(text) + 1)
    if len(lowered) != len(text):
        at = list(accumulate((len(c.lower()) for c in text), initial=0))
    # One C-level suffix test per terminator; only a hit pays for the exact
    # per-abbreviation check of the character before it.
    suffixes = tuple(abbreviations)
    boundaries = []
    for match in _TERMINATOR.finditer(text):
        end = match.end()
        if end < len(text):
            if not text[end].isspace():
                continue  # "4.8" or "e.g" mid-abbreviation: no split
            following = _NEXT_VISIBLE.match(text, end).group(1)
            if following and not (following.isupper() or following.isdigit()):
                continue  # continuation starts lowercase: no split
        if lowered.endswith(suffixes, 0, at[end]) and _ends_with_abbreviation(
            lowered, at[end], abbreviations
        ):
            continue
        boundaries.append(end)
    return pairwise([0, *boundaries, len(text)])


def _ends_with_abbreviation(lowered: str, end: int, abbreviations) -> bool:
    # Compares in place: slicing ``lowered[:end]`` would copy the text at
    # every terminator.
    return any(
        lowered.endswith(abbr, 0, end)
        and (end == len(abbr) or not lowered[end - len(abbr) - 1].isalnum())
        for abbr in abbreviations
    )


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
# Plain-text policy loaders
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


def _word_list_entries(path: str | Path) -> list[tuple[int, str]]:
    """``(line number, entry)`` for each stripped, lowercased entry; ``#``
    comments and blank lines ignored."""
    entries = []
    for lineno, line in enumerate(read_config_text(path).splitlines(), 1):
        line = line.strip().lower()
        if line and not line.startswith("#"):
            entries.append((lineno, line))
    return entries


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Load a sentence-abbreviation list: one entry per line, ``#`` comments
    and blank lines ignored; entries lowercased.  Abbreviations are tested
    only where a sentence could end, so an entry that does not end in
    ``.``, ``!`` or ``?`` raises ConfigError."""
    entries = _word_list_entries(path)
    for lineno, entry in entries:
        if not _is_abbreviation(entry):  # entries are non-empty and lowercased
            raise ConfigError(
                f"{path}:{lineno}: abbreviation {entry!r} does not end in '.', '!' or '?'"
            )
    return frozenset(entry for _, entry in entries)


_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def load_token_policy(path: str | Path) -> TokenPolicy:
    """Load a TokenPolicy from a plain-text file: one ``flag = value`` entry
    per line (flags: keep_numbers, bind_hyphens, bind_apostrophes)."""
    values = {}
    for lineno, line in enumerate(read_config_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'flag = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip().lower()
        if key not in TokenPolicy.__dataclass_fields__:
            raise ConfigError(f"{path}:{lineno}: unknown token policy flag {key!r}")
        if raw not in _BOOL_VALUES:
            raise ConfigError(f"{path}:{lineno}: expected a boolean, got {raw!r}")
        values[key] = _BOOL_VALUES[raw]
    return TokenPolicy(**values)
