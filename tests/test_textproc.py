import itertools
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexigauge import textproc
from lexigauge.textproc import (
    DEFAULT_ABBREVIATIONS,
    TokenPolicy,
    count_sentences,
    count_syllables,
    frequency_spectrum,
    split_sentences,
    tokenize,
)

# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

# Hand-tokenized fixture: each case was segmented by hand under the default
# policy (lowercase; intra-word hyphens/apostrophes bind; punctuation never
# a token; numbers kept) before the tokenizer was written.
HAND_TOKENIZED = [
    ("Mediated Sensemaking", ["mediated", "sensemaking"]),
    ("", []),
    ("top-tier, alike?", ["top-tier", "alike"]),
    ("Yule's K", ["yule's", "k"]),
    ("state-of-the-art methods", ["state-of-the-art", "methods"]),
    ("A B C", ["a", "b", "c"]),
    ("42 items", ["42", "items"]),
    ("the 2nd wave", ["the", "2nd", "wave"]),
    ("co-word networks!", ["co-word", "networks"]),
    ("don't stop", ["don't", "stop"]),
    ("rock 'n' roll", ["rock", "n", "roll"]),
    ("naïve café", ["naïve", "café"]),
    ("Águila económica", ["águila", "económica"]),
    ("semi--structured", ["semi", "structured"]),
    ("end-", ["end"]),
    ("-start", ["start"]),
    ("(parenthetical)", ["parenthetical"]),
    ("x;y,z", ["x", "y", "z"]),
    ("management—business", ["management", "business"]),
    ("titles' length", ["titles", "length"]),
    ("it's AMJ's style", ["it's", "amj's", "style"]),
    ("3.14 approx", ["3", "14", "approx"]),
    ("multi-level mixed-effects", ["multi-level", "mixed-effects"]),
    ("UPPER lower MiXeD", ["upper", "lower", "mixed"]),
    ("  spaced   out  ", ["spaced", "out"]),
    ("tab\tand\nnewline", ["tab", "and", "newline"]),
    ("one_two", ["one", "two"]),
    ("curly ’quotes’ bind", ["curly", "quotes", "bind"]),
    ("l’objet d’étude", ["l’objet", "d’étude"]),
    ("100% effective", ["100", "effective"]),
]


@pytest.mark.parametrize("text,expected", HAND_TOKENIZED)
def test_tokenize_hand_fixture(text, expected):
    assert list(tokenize(text).tokens) == expected


def test_tokenize_records_source_length():
    assert tokenize("abc def").source_char_count == 7


def test_tokens_have_no_whitespace_or_empties():
    stream = tokenize("A mixed, top-tier sample; 42 items (naïve).")
    assert all(tok for tok in stream.tokens)
    assert all(not any(c.isspace() for c in tok) for tok in stream.tokens)


def test_tokenize_policy_drop_numbers():
    policy = TokenPolicy(keep_numbers=False)
    assert list(tokenize("42 items 2nd 100%", policy).tokens) == ["items", "2nd"]


def test_tokenize_policy_unbind_hyphens():
    policy = TokenPolicy(bind_hyphens=False)
    assert list(tokenize("top-tier", policy).tokens) == ["top", "tier"]


def test_tokenize_policy_unbind_apostrophes():
    policy = TokenPolicy(bind_apostrophes=False)
    assert list(tokenize("yule's", policy).tokens) == ["yule", "s"]


def test_tokenize_idempotent_on_token_text():
    texts = [t for t, _ in HAND_TOKENIZED if t]
    for text in texts:
        first = list(tokenize(text).tokens)
        again = list(tokenize(" ".join(first)).tokens)
        assert again == first


def _finditer_tokenize(text, policy):
    """Oracle: tokenize as written before it used ``findall``, with one
    ``Match.group(0)`` and one ``str.lower`` per match."""
    joiners = (r"\-" if policy.bind_hyphens else "") + ("'’" if policy.bind_apostrophes else "")
    pattern = r"[^\W_]+" + (rf"(?:[{joiners}][^\W_]+)*" if joiners else "")
    tokens = [m.group(0).lower() for m in re.finditer(pattern, text)]
    if not policy.keep_numbers:
        tokens = [t for t in tokens if any(c.isalpha() for c in t)]
    return tokens


# Letters whose lowercase form is longer ("İ"), context-dependent ("Σ") or
# another script's, joiners, underscore, digits (ASCII and Arabic-Indic), a
# combining mark, and separators.
_TOKEN_ALPHABET = "aZéßΣσςİIКжǅ'’-_09٣\u0301 .,\t\n"
_ALL_POLICIES = [TokenPolicy(*flags) for flags in itertools.product([False, True], repeat=3)]


@pytest.mark.parametrize("policy", _ALL_POLICIES, ids=repr)
@settings(max_examples=150, deadline=None)
@given(text=st.one_of(st.text(_TOKEN_ALPHABET, max_size=60), st.text(max_size=30)))
def test_tokenize_matches_finditer_oracle(policy, text):
    stream = tokenize(text, policy)
    assert list(stream.tokens) == _finditer_tokenize(text, policy)
    assert stream.source_char_count == len(text)


@pytest.mark.parametrize("policy", _ALL_POLICIES, ids=repr)
@settings(max_examples=150, deadline=None)
@given(text=st.text("aZiIyY'-_09 .,\t\n", max_size=60))
def test_tokenize_matches_finditer_oracle_on_ascii_text(policy, text):
    # ASCII text is lowercased whole before matching, not token by token.
    assert list(tokenize(text, policy).tokens) == _finditer_tokenize(text, policy)


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# 20 hand-annotated sentences; the paragraph below is their space-join, and
# exact boundary agreement is required.  Written before the splitter.
ANNOTATED_SENTENCES = [
    "Corpus statistics summarize how titles behave at scale.",
    "Several indices exist (e.g. grade levels) for prose difficulty.",
    "Some tools report word counts, i.e. token totals, instead.",
    "The baseline appears in Smith et al. Table 3 reports the rest.",
    "Is a longer title always harder to index?",
    "Absolutely not!",
    "Mean length rose from 9.5 to 11.2 words per title.",
    "The ratio was 0.5 vs. 0.7 in the second sample.",
    "Reviewers disagreed about edge cases.",
    "Consider the title 2020 Vision for Management Research.",
    "It mixes numerals and words freely.",
    "See the appendix for the full derivation.",
    "Titles with colons split readers into camps; editors too.",
    "Was the difference significant?",
    "The test said yes.",
    "Still, effect sizes matter more than verdicts.",
    "A grade level near 12 suits general readers.",
    "Denser abstracts demand patience.",
    "Shorter sentences help.",
    "The last sentence has no terminator at all",
]


def test_split_sentences_annotated_paragraph():
    paragraph = " ".join(ANNOTATED_SENTENCES)
    assert split_sentences(paragraph) == ANNOTATED_SENTENCES


def test_split_sentences_basic_cases():
    assert split_sentences("A b. C d.") == ["A b.", "C d."]
    assert split_sentences("no terminator here") == ["no terminator here"]
    assert split_sentences("") == []
    assert split_sentences("...") == []


def test_split_sentences_lowercase_continuation():
    assert split_sentences("It held at 3. miles later it failed.") == [
        "It held at 3. miles later it failed."
    ]


def test_split_sentences_terminator_then_digit():
    assert split_sentences("It broke. 42 units were lost.") == [
        "It broke.",
        "42 units were lost.",
    ]


def test_split_sentences_one_sentence_for_any_wordy_text():
    for text in ["word", "two words", "Ends with period.", "ends!", "q?"]:
        assert len(split_sentences(text)) >= 1


def _quadratic_split_sentences(text):
    """Oracle: the splitter before it became linear, which lowercased the
    whole prefix and copied the whole remainder at every terminator."""
    boundaries = []
    for match in re.finditer(r"[.!?]+", text):
        end = match.end()
        if end < len(text):
            if not text[end].isspace():
                continue
            following = text[end:].lstrip()
            if following and not (following[0].isupper() or following[0].isdigit()):
                continue
        head = text[:end].lower()
        if any(
            head.endswith(abbr)
            and (len(head) == len(abbr) or not head[-len(abbr) - 1].isalnum())
            for abbr in DEFAULT_ABBREVIATIONS
        ):
            continue
        boundaries.append(end)
    sentences = []
    start = 0
    for end in [*boundaries, len(text)]:
        chunk = text[start:end].strip()
        if chunk and re.search(r"[^\W_]", chunk):
            sentences.append(chunk)
        start = end
    return sentences


# Letters whose lowercase form is longer ("İ") or depends on context ("Σ"),
# the terminators, several kinds of whitespace, digits and an apostrophe.
_SPLIT_ALPHABET = "aAeEgiIİΣσςxX09.!?'  \t\n\u00a0"


@settings(max_examples=400, deadline=None)
@given(text=st.text(_SPLIT_ALPHABET, max_size=60))
def test_split_sentences_matches_quadratic_oracle(text):
    assert split_sentences(text) == _quadratic_split_sentences(text)


@pytest.mark.parametrize(
    "text",
    [
        # "Σ" lowercases to final "ς" after a letter, apostrophes between
        # included.  In the second text that letter lies outside the window
        # that _boundaries lowercases, which sees "σ".
        "AB'Σ. Next one.",
        "AB''''''Σ. Next one.",
        "Dr. İ. Next one. İİ e.g. More.",
        "Tab.\tNew.\nLine. 7 items",
    ],
)
def test_split_sentences_matches_quadratic_oracle_examples(text):
    assert split_sentences(text) == _quadratic_split_sentences(text)


def _any_case(entry):
    return st.tuples(*(st.sampled_from(sorted({c, c.upper()})) for c in entry)).map("".join)


# Each abbreviation in any mix of cases ("E.G.", "Et Al.", "vS."), beside
# letters whose lowercase is longer ("İ"), depends on the letters before
# it ("Σ") or is ASCII though the letter is not (U+212A KELVIN SIGN), and
# combining marks, terminators, openers and whitespace of several kinds.
_ABBREVIATED_TEXT = st.lists(
    st.one_of(
        st.sampled_from(sorted(DEFAULT_ABBREVIATIONS)).flatmap(_any_case),
        st.sampled_from([*"İΣσς\u212a\u0307\u0301aAxX9.!?'", " ", "\t", "\n", "\xa0", "\u2003"]),
    ),
    max_size=20,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=_ABBREVIATED_TEXT)
@example(text="AB'Σ. Next one. İ.E. x Σ Et Al. Y \u212aVS. Z")
@example(text="Dr. İ. Next one. İİ e.g. More.")
def test_split_sentences_matches_quadratic_oracle_beside_abbreviations(text):
    sentences = split_sentences(text)
    assert sentences == _quadratic_split_sentences(text)
    assert count_sentences(text) == len(sentences)


def test_split_sentences_abbreviation_ending_a_longer_word_splits():
    # "pre.g." ends with "e.g." and "xvs." with "vs.", but a letter precedes
    # each, so neither is the abbreviation.
    text = "Pre.g. Then. Xvs. Now. Cf. Done."
    expected = ["Pre.g.", "Then.", "Xvs.", "Now.", "Cf. Done."]
    assert split_sentences(text) == _quadratic_split_sentences(text) == expected


def test_split_sentences_long_dot_run():
    text = "Word" + "." * 200_000 + " Next words"
    assert split_sentences(text) == ["Word" + "." * 200_000, "Next words"]


# Latin-1 text takes the whole-text class scan; a trailing "—", outside
# Latin-1, sends the same text through the per-terminator scan.
@pytest.mark.parametrize("suffix", ["", "—"], ids=["latin-1", "general"])
def test_split_sentences_terminator_before_long_whitespace(suffix):
    text = "Word." + " \t\n\x85\xa0" * 40_000 + suffix
    assert split_sentences(text) == [text.strip()]
    assert count_sentences(text) == 1


@pytest.mark.parametrize("suffix", ["", "—"], ids=["latin-1", "general"])
def test_split_sentences_many_short_sentences(suffix):
    text = "A" + ". A" * 99_999 + suffix
    sentences = split_sentences(text)
    assert len(sentences) == count_sentences(text) == 100_000
    assert sentences[-1] == "A" + suffix


def test_a_stretch_opened_by_an_upper_case_non_word_character_is_no_sentence():
    # "Ⓐ" is upper case, so a boundary before it stands, but it is no word
    # character, so the stretch it opens holds no word.
    text = "Foo. Ⓐ. Bar"
    assert split_sentences(text) == _quadratic_split_sentences(text) == ["Foo.", "Bar"]
    assert count_sentences(text) == 2


@settings(max_examples=400, deadline=None)
@given(
    text=st.one_of(st.text(_SPLIT_ALPHABET, max_size=60), st.text("aAeE09.!? \t\n", max_size=60))
)
@example(text="Word" + "." * 200_000 + " Next words")
@example(text="Dr. İ. Next one. İİ e.g. More.")
@example(text="AB'Σ. Next one.")
@example(text="Pre.g. Then. Xvs. Now. Cf. Done.")
def test_count_sentences_equals_len_split_sentences(text):
    assert count_sentences(text) == len(split_sentences(text))


# Every ASCII character, with the ones the two segmentation paths treat
# specially drawn more often: terminators, joiners, underscore, digits,
# upper case, and whitespace that ``str.split`` and ``\s`` both know.
_ASCII_TEXT = st.text(
    st.one_of(
        st.characters(max_codepoint=127),
        st.sampled_from(".!?-'_09AZ \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"),
        st.sampled_from("aegixz"),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(text=_ASCII_TEXT)
@example(text="a--b")
@example(text="-a")
@example(text="a-")
@example(text="a-'b")
@example(text="'quoted'")
@example(text="e.g. x")
@example(text="e.g. X")
@example(text="4.8")
@example(text="...A")
@example(text="One. Two!")
@example(text="One.\x0b\x1c\x1fTwo")
@example(text="One? Two. \t\x1c\n")
def test_ascii_segmentation_equals_the_general_path(text):
    # ASCII text takes the whole-text byte passes; the token pattern, which
    # text outside Latin-1 takes, is the oracle for its tokens.
    for policy in _ALL_POLICIES:
        general = textproc._general_tokens(text, policy.bind_hyphens, policy.bind_apostrophes)
        if not policy.keep_numbers:
            general = [t for t in general if any(c.isalpha() for c in t)]
        assert list(tokenize(text, policy).tokens) == general, policy
    assert count_sentences(text) == len(split_sentences(text))


# Every Latin-1 code point, with more of the ones whose classes differ from
# ASCII's: "©", accented letters, word characters that are neither upper
# nor lower case ("¼ ½ ¾"), lowercase letters without a Latin-1 upper case
# ("µ ß ÿ"), ordinal indicators ("ª º"), whitespace "\x85" and "\xa0"; and
# the joiners and terminators.
_LATIN1_TEXT = st.text(
    st.one_of(
        st.characters(max_codepoint=255),
        st.sampled_from("©¼½¾µßÿªº\x85\xa0"),
        st.sampled_from("áéíñóúüÁÉÍÑÓÚÜçÇ"),
        st.sampled_from(".!?-' aAX0"),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(text=_LATIN1_TEXT)
@example(text="¼")
@example(text="½. Éa")
@example(text="Año. Él")
@example(text="a\x85B. C")
@example(text="e.g.\xa0X")
@example(text="ÿ-ß'ª -x")
@example(text="Fin. ¾ más. 2020 © Elsevier Ltd.")
def test_latin1_segmentation_equals_the_general_path(text):
    # Latin-1 text takes whole-text byte passes; the token pattern and the
    # quadratic splitter are the oracles.
    for policy in _ALL_POLICIES:
        general = textproc._general_tokens(text, policy.bind_hyphens, policy.bind_apostrophes)
        if not policy.keep_numbers:
            general = [t for t in general if any(c.isalpha() for c in t)]
        assert list(tokenize(text, policy).tokens) == general, policy
    sentences = split_sentences(text)
    assert sentences == _quadratic_split_sentences(text)
    assert count_sentences(text) == len(sentences)


# ---------------------------------------------------------------------------
# Syllables
# ---------------------------------------------------------------------------


_ENDINGS = ["", "e", "ed", "es", "le", "les", "ted", "ches", "ment", "ments", "ly", "ful",
            "fully", "ness", "less", "ing"]


@settings(max_examples=500, deadline=None)
@given(
    stem=st.text("aeiouybcdlmnsthgxz-'A", max_size=10),
    endings=st.lists(st.sampled_from(_ENDINGS), max_size=2),
)
def test_count_syllables_same_without_the_silent_e_gate(stem, endings):
    word = stem + "".join(endings)
    gated = count_syllables(word)
    # Every string ends with "", so this tuple lets every part past the gate.
    with mock.patch.object(textproc, "_SILENT_E_ENDINGS", ("",)):
        assert count_syllables(word) == gated


# Pieces of drawn words: letters (a Kelvin sign lowercases to "k", "İ" to
# "i" plus a combining dot), joiners, digits, and parts with no a-z letter.
_PASS_PIECES = [*"aeiouybcdlmnsthgxzrAEYK", "é", "İ", "\u212a", "-", "'", "’", "2", "42",
                "é-", "-'", *_ENDINGS, *textproc._SILENT_E_ENDINGS]


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.lists(st.sampled_from(_PASS_PIECES), max_size=8).map("".join),
                      max_size=40))
@example(words=[stem + ending for stem in ("", "b", "ab", "tab", "mak", "eu")
                for ending in textproc._SILENT_E_ENDINGS])
@example(words=["", "-", "42", "é", "İİ", "\u212aate", "Tables", "well-made", "it's"])
def test_syllable_pass_equals_count_syllables(words):
    assert textproc._syllable_counts(words) == [count_syllables(w) for w in words]


def _lexicon(data_dir):
    pairs = []
    for line in (data_dir / "syllable_lexicon.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            word, count = line.split()
            pairs.append((word, int(count)))
    return pairs


def test_syllable_lexicon_size(data_dir):
    assert len(_lexicon(data_dir)) == 200


def test_syllables_match_dictionary_lexicon(data_dir):
    mismatches = [
        (word, expected, count_syllables(word))
        for word, expected in _lexicon(data_dir)
        if count_syllables(word) != expected
    ]
    assert mismatches == []


def test_syllable_pass_matches_dictionary_lexicon(data_dir):
    words, counts = zip(*_lexicon(data_dir))
    assert textproc._syllable_counts(list(words)) == list(counts)


@pytest.mark.parametrize(
    "word,expected",
    [("cat", 1), ("management", 3), ("table", 2), ("like", 1)],
)
def test_syllables_named_examples(word, expected):
    assert count_syllables(word) == expected


def test_syllables_always_at_least_one():
    for word in ["b", "mb", "xyz", "42", "%", "q-t", "'", "2020"]:
        assert count_syllables(word) >= 1


def test_syllables_additive_over_text():
    tokens = tokenize("The quick management table sat quietly.").tokens
    first, second = tokens[:3], tokens[3:]
    total = sum(count_syllables(t) for t in tokens)
    assert total == sum(count_syllables(t) for t in first) + sum(
        count_syllables(t) for t in second
    )


# ---------------------------------------------------------------------------
# Frequency spectrum
# ---------------------------------------------------------------------------


def test_spectrum_forced_examples():
    spec = frequency_spectrum(["a", "b", "a", "b"])
    assert (spec.n_tokens, spec.n_types, spec.spectrum) == (4, 2, {2: 2})
    spec = frequency_spectrum(["a", "b", "c"])
    assert (spec.n_tokens, spec.n_types, spec.spectrum) == (3, 3, {1: 3})
    spec = frequency_spectrum([])
    assert (spec.n_tokens, spec.n_types, spec.spectrum) == (0, 0, {})


def test_spectrum_accepts_token_stream():
    spec = frequency_spectrum(tokenize("a b a b"))
    assert spec.spectrum == {2: 2}


def test_spectrum_invariants_against_naive_oracle():
    rng = random.Random(20240902)
    alphabet = [f"t{i}" for i in range(50)]
    for _ in range(25):
        tokens = [rng.choice(alphabet) for _ in range(1000)]
        spec = frequency_spectrum(tokens)
        naive = Counter(Counter(tokens).values())
        assert spec.spectrum == dict(naive)
        assert sum(i * f for i, f in spec.spectrum.items()) == spec.n_tokens == 1000
        assert sum(spec.spectrum.values()) == spec.n_types
        assert all(1 <= i <= spec.n_tokens and f >= 1 for i, f in spec.spectrum.items())


# ---------------------------------------------------------------------------
# Abbreviations
# ---------------------------------------------------------------------------


def test_default_abbreviations_contain_spec_entries():
    for abbr in ["e.g.", "i.e.", "et al.", "vs."]:
        assert abbr in DEFAULT_ABBREVIATIONS
    # The window test of _boundaries is exact only for lowercase ASCII entries.
    assert all(abbr.isascii() and abbr == abbr.lower() for abbr in DEFAULT_ABBREVIATIONS)


def test_split_sentences_splits_after_a_period_outside_the_fixed_list():
    # "Proc.", "Natl." and "Acad." are no entries, so a capital after each
    # opens a sentence; "e.g." and "et al." never end one.
    assert split_sentences("Proc. Natl. Acad. Next part.") == [
        "Proc.", "Natl.", "Acad.", "Next part."
    ]
    assert split_sentences("Smith et al. Show it, e.g. Two cases.") == [
        "Smith et al. Show it, e.g. Two cases."
    ]
