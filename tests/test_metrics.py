import io
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexigauge import cli, textproc
from lexigauge.errors import ConfigError, CsvParseError, DomainError
from lexigauge.ingest import BibRecord, Corpus
from lexigauge.metrics import (
    LexicalRecord,
    fkgl,
    lexical_records,
    metric_vectors,
    read_metrics_csv,
    title_length,
    write_metrics_csv,
    yules_k,
)
from lexigauge.textproc import (
    DEFAULT_ABBREVIATIONS,
    TokenPolicy,
    count_syllables,
    frequency_spectrum,
    split_sentences,
    tokenize,
)
from test_textproc import _ABBREVIATION_SETS, _SPLIT_ALPHABET, _TOKEN_ALPHABET, _finditer_tokenize

# ---------------------------------------------------------------------------
# Title length
# ---------------------------------------------------------------------------


def test_title_length_examples():
    assert title_length("Mediated Sensemaking") == 20
    assert title_length("abc") == 3


def test_title_length_normalizes_whitespace():
    assert title_length("  Mediated\t\tSensemaking  ") == 20
    assert title_length("a   b") == 3


def test_title_length_counts_punctuation_and_spaces():
    assert title_length("a, b!") == 5


def test_title_length_unicode_scalars():
    assert title_length("naïve café") == 10


def test_title_length_without_spaces():
    assert title_length("Mediated Sensemaking", include_spaces=False) == 19


def test_title_length_empty_raises():
    with pytest.raises(DomainError):
        title_length("   \t ")


def test_title_length_matches_naive_count_on_normalized_strings():
    rng = random.Random(7)
    words = ["alpha", "beta", "gamma", "co-word", "x1"]
    for _ in range(50):
        title = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        assert title_length(title) == len(title)


# ---------------------------------------------------------------------------
# FKGL
# ---------------------------------------------------------------------------


def test_fkgl_the_cat_sat():
    # w=3, sen=1, syll=3: 0.39*3 + 11.8*1 - 15.59 = -2.62
    assert fkgl("The cat sat.") == pytest.approx(-2.62, abs=0.01)


def test_fkgl_two_sentences_hand_value():
    # w=4, sen=2, all 1-syllable: 0.39*2 + 11.8*1 - 15.59 = -3.01
    assert fkgl("Aaa bbb. Ccc ddd.") == pytest.approx(-3.01, abs=1e-9)


def test_fkgl_no_words_raises():
    with pytest.raises(DomainError):
        fkgl("... !!! ...")


def test_fkgl_unterminated_text_is_one_sentence():
    # same words, no terminator: identical value to the terminated form
    assert fkgl("The cat sat") == pytest.approx(fkgl("The cat sat."), abs=1e-12)


def _fkgl_formula(w, sen, syll):
    return 0.39 * (w / sen) + 11.8 * (syll / w) - 15.59


def test_fkgl_monotonicity_in_components():
    rng = random.Random(20240903)
    for _ in range(1000):
        sen = rng.randint(1, 10)
        w = rng.randint(sen, sen * 30)
        syll = rng.randint(w, w * 4)
        base = _fkgl_formula(w, sen, syll)
        # strictly increasing in syllables, words and sentences fixed
        assert _fkgl_formula(w, sen, syll + 1) > base
        # strictly increasing in words-per-sentence, syllables-per-word fixed
        assert _fkgl_formula(2 * w, sen, 2 * syll) > base


# ---------------------------------------------------------------------------
# Yule's K
# ---------------------------------------------------------------------------


def test_yules_k_all_distinct_is_exactly_zero():
    assert yules_k(["a", "b", "c", "d"]) == 0.0


def test_yules_k_abab():
    assert yules_k(["a", "b", "a", "b"]) == 2500.0


def test_yules_k_single_token_is_zero():
    assert yules_k(["only"]) == 0.0


def test_yules_k_empty_raises():
    with pytest.raises(DomainError):
        yules_k([])


def test_yules_k_repeated_token_closed_form():
    for m in range(2, 101):
        expected = 1e4 * (1.0 - 1.0 / m)
        assert yules_k(["tok"] * m) == pytest.approx(expected, abs=1e-9)


def test_yules_k_permutation_invariant():
    rng = random.Random(99)
    tokens = [rng.choice("abcde") for _ in range(200)]
    reference = yules_k(tokens)
    for _ in range(10):
        rng.shuffle(tokens)
        assert yules_k(tokens) == reference


def test_yules_k_duplication_increases_k():
    distinct = [f"w{i}" for i in range(30)]
    assert yules_k(distinct) == 0.0
    assert yules_k(distinct * 2) > yules_k(distinct)


def test_yules_k_accepts_token_stream():
    assert yules_k(tokenize("a b a b")) == 2500.0


def _spectrum_yules_k(tokens):
    """Oracle: Yule's K through the frequency spectrum, S2 = sum i^2 f(i)."""
    spectrum = frequency_spectrum(tokens)
    n = spectrum.n_tokens
    s2 = sum(i * i * count for i, count in spectrum.spectrum.items())
    return 1e4 * (s2 - n) / (n * n)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "de", "f-g", "2020"]), min_size=1, max_size=200))
def test_yules_k_equals_spectrum_formula(tokens):
    assert yules_k(tokens) == _spectrum_yules_k(tokens)
    stream = tokenize(" ".join(tokens))
    assert yules_k(stream) == _spectrum_yules_k(stream)


_POLICIES = [TokenPolicy(*flags) for flags in itertools.product([False, True], repeat=3)]
_PROSE_PIECES = [*"aeiouybcdlmstZé \n", "the ", "tables ", "well-made ", "it's ", "2020 ", ". ", "! "]
_PROSE = st.lists(st.sampled_from(_PROSE_PIECES), max_size=40).map("".join)


@pytest.mark.parametrize("policy", _POLICIES, ids=repr)
@settings(max_examples=60, deadline=None)
@given(text=_PROSE)
def test_fkgl_equals_per_occurrence_formula(policy, text):
    tokens = tokenize(text, policy)
    if len(tokens) == 0:
        with pytest.raises(DomainError):
            fkgl(text, policy)
        return
    n_sentences = max(len(split_sentences(text)), 1)
    n_syllables = sum(count_syllables(token) for token in tokens)
    expected = 0.39 * (len(tokens) / n_sentences) + 11.8 * (n_syllables / len(tokens)) - 15.59
    assert fkgl(text, policy) == expected


def test_lexical_records_tokenizes_each_abstract_once(monkeypatch):
    import lexigauge.metrics as metrics

    calls = []

    def counting_tokenize(text, policy):
        calls.append(text)
        return tokenize(text, policy)

    monkeypatch.setattr(metrics, "tokenize", counting_tokenize)
    corpus = Corpus(
        label="three",
        records=(
            BibRecord(id="d1", title="One", abstract="The cat sat. The dog ran."),
            BibRecord(id="d2", title="Two", abstract=""),
            BibRecord(id="d3", title="Three", abstract="Words, words, words."),
        ),
    )
    rows = lexical_records(corpus)
    assert calls == [record.abstract for record in corpus.records]
    assert [r.yules_k is None for r in rows] == [False, True, False]


def test_lexical_records_counts_syllables_once_per_distinct_token(monkeypatch):
    import lexigauge.metrics as metrics

    calls = Counter()

    def counting_count_syllables(token):
        calls[token] += 1
        return count_syllables(token)

    corpus = Corpus(
        label="shared",
        records=(
            BibRecord(id="d1", title="One", abstract="The cat sat on the mat."),
            BibRecord(id="d2", title="Two", abstract=""),
            BibRecord(id="d3", title="Three", abstract="The dog sat. The cat ran away."),
        ),
    )
    # Computed before patching, since fkgl() also calls metrics.count_syllables.
    per_document = [fkgl(r.abstract) if r.abstract else None for r in corpus.records]
    distinct = set().union(*(tokenize(record.abstract) for record in corpus.records))
    monkeypatch.setattr(metrics, "count_syllables", counting_count_syllables)
    rows = lexical_records(corpus)
    assert calls == Counter(dict.fromkeys(distinct, 1))
    assert [r.fkgl for r in rows] == per_document
    # A second call builds its own table: nothing is cached across calls.
    assert lexical_records(corpus) == rows
    assert calls == Counter(dict.fromkeys(distinct, 2))


def _per_type_lexical_records(corpus, policy, abbreviations):
    """Oracle: lexical_records before its per-token work moved into C-level
    builtins, with per-token ``lower()``, ``len(split_sentences(...))``, a
    per-type ``.get`` loop over one corpus syllable table and a ``c * c``
    generator."""
    syllables = {}
    rows = []
    for record in corpus.records:
        counts = Counter(_finditer_tokenize(record.abstract, policy))
        grade = diversity = None
        if counts:
            n_words = counts.total()
            n_sentences = max(len(split_sentences(record.abstract, abbreviations)), 1)
            n_syllables = 0
            for token, n in counts.items():
                per_token = syllables.get(token)
                if per_token is None:
                    per_token = syllables[token] = count_syllables(token)
                n_syllables += n * per_token
            grade = 0.39 * (n_words / n_sentences) + 11.8 * (n_syllables / n_words) - 15.59
            s2 = sum(c * c for c in counts.values())
            diversity = 1e4 * (s2 - n_words) / (n_words * n_words)
        rows.append(LexicalRecord(record.id, title_length(record.title), grade, diversity))
    return rows


def _hex(value):
    return None if value is None else value.hex()


def _hex_rows(rows):
    """Each row with its floats as ``float.hex``, so equality is bit equality."""
    return [(r.doc_id, r.title_length_chars, _hex(r.fkgl), _hex(r.yules_k)) for r in rows]


_ASCII_PIECES = [*"aeiouybcdlmstZ \n", "The ", "tables ", "well-made ", "it's ", "2020 ", "4.8 ",
                 ". ", "! ", "? ", "e.g. ", "E.g. ", "et al. ", "vs. ", "_", "x9"]
_ASCII_ABSTRACT = st.lists(st.sampled_from(_ASCII_PIECES), max_size=30).map("".join)
_ABSTRACT = st.one_of(
    _ASCII_ABSTRACT,
    st.text("aAbZ09.!?'-_ \t\n", max_size=60),
    st.text(_SPLIT_ALPHABET, max_size=60),
    st.text(_TOKEN_ALPHABET, max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(
    abstracts=st.lists(_ABSTRACT, min_size=1, max_size=6),
    policy=st.sampled_from(_POLICIES),
    abbreviations=_ABBREVIATION_SETS,
)
def test_lexical_records_bit_identical_to_per_type_oracle(abstracts, policy, abbreviations):
    corpus = Corpus(
        label="drawn",
        records=tuple(
            BibRecord(id=f"d{i}", title=f"Title {i}", abstract=abstract)
            for i, abstract in enumerate(abstracts)
        ),
    )
    assert _hex_rows(lexical_records(corpus, policy, abbreviations)) == _hex_rows(
        _per_type_lexical_records(corpus, policy, abbreviations)
    )


def test_lexical_records_bit_identical_to_per_type_oracle_on_examples():
    abstracts = [
        "Dr. İ. Next one. İİ e.g. More.",
        "AB'Σ. Next one. Σσς words.",
        "Word" + "." * 200_000 + " Next words",
        "The Tables were well-made, e.g. here. It's 2020! Again? Yes.",
        "Pre.g. Then. Xvs. Now. Cf. Done.",
    ]
    corpus = Corpus(
        label="examples",
        records=tuple(
            BibRecord(id=f"d{i}", title="T", abstract=a) for i, a in enumerate(abstracts)
        ),
    )
    for abbreviations in (DEFAULT_ABBREVIATIONS, frozenset({"i̇.", "σ.", "ς.", "e.g."})):
        for policy in _POLICIES:
            assert _hex_rows(lexical_records(corpus, policy, abbreviations)) == _hex_rows(
                _per_type_lexical_records(corpus, policy, abbreviations)
            )


# ---------------------------------------------------------------------------
# Per-corpus records and the metric CSV
# ---------------------------------------------------------------------------


def _toy_corpus():
    return Corpus(
        label="toy",
        records=(
            BibRecord(id="d1", title="Alpha beta gamma", abstract="The cat sat."),
            BibRecord(id="d2", title="Delta", abstract=""),
        ),
    )


def test_lexical_records_handles_missing_abstract():
    rows = lexical_records(_toy_corpus())
    assert [r.doc_id for r in rows] == ["d1", "d2"]
    assert rows[0].fkgl == pytest.approx(-2.62, abs=0.01)
    assert rows[1].fkgl is None and rows[1].yules_k is None
    assert rows[1].title_length_chars == 5


def test_metric_vectors_excludes_missing_abstracts():
    vectors = metric_vectors(lexical_records(_toy_corpus()))
    assert len(vectors["title_length"]) == 2
    assert len(vectors["fkgl"]) == 1
    assert len(vectors["yules_k"]) == 1


def test_metrics_csv_round_trip_preserves_full_precision():
    rows = [
        LexicalRecord("d1", 20, -2.619999999999999, 2500.0),
        LexicalRecord("d2", 5, None, None),
        LexicalRecord("d3", 7, 21.123456789012345, 309.62000000000006),
    ]
    buffer = io.StringIO()
    write_metrics_csv(rows, buffer)
    buffer.seek(0)
    assert read_metrics_csv(buffer) == rows


def test_metrics_csv_header_shape():
    buffer = io.StringIO()
    write_metrics_csv([], buffer)
    assert buffer.getvalue().splitlines()[0] == "doc_id,title_length_chars,fkgl,yules_k"


@pytest.mark.parametrize(
    "row,column",
    [
        ("d1,abc,1.5,2.5", "title_length_chars"),
        ("d1,12,high,2.5", "fkgl"),
        ("d1,12,1.5,--", "yules_k"),
        ("d1,12,nan,2.5", "fkgl"),
        ("d1,12,-inf,2.5", "fkgl"),
        ("d1,12,1.5,inf", "yules_k"),
        ("d1,12,1.5,1e999", "yules_k"),
        pytest.param("d1," + "9" * 400 + ",1.5,2.5", "title_length_chars", id="past-float-range"),
    ],
)
def test_read_metrics_csv_names_row_and_column_of_bad_cell(row, column):
    table = f"doc_id,title_length_chars,fkgl,yules_k\nd0,7,1.0,2.0\n{row}\n"
    with pytest.raises(CsvParseError, match=f"row 3: column {column}: "):
        read_metrics_csv(io.StringIO(table))


def test_cli_stats_on_bad_cell_is_input_error(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("doc_id,title_length_chars,fkgl,yules_k\nd1,abc,1.5,2.5\n", encoding="utf-8")
    assert cli.main(["stats", str(table), str(table)]) == 1
    err = capsys.readouterr().err
    assert "row 2: column title_length_chars: 'abc'" in err
    assert "Traceback" not in err


_HEADER = "doc_id,title_length_chars,fkgl,yules_k\n"


def test_cli_stats_reads_doc_id_past_default_field_limit(tmp_path):
    # 140,000 characters is past the csv module's default field limit (131,072).
    long_id = "d" * 140_000
    table_a = tmp_path / "a.csv"
    table_a.write_text(_HEADER + f"{long_id},12,8.5,100.0\nd2,30,11.25,150.5\nd3,41,14.0,220.0\n")
    table_b = tmp_path / "b.csv"
    table_b.write_text(_HEADER + "e1,25,9.5,120.0\ne2,33,12.5,180.0\ne3,47,15.0,260.0\n")
    assert cli.main(["stats", str(table_a), str(table_b), "--out", str(tmp_path / "s.json")]) == 0
    assert read_metrics_csv(table_a)[0].doc_id == long_id


def test_cli_stats_on_bad_quoting_is_input_error(tmp_path, capsys):
    table = tmp_path / "quoted.csv"
    table.write_text(_HEADER + '"a"b,1,2.0,3.0\n')
    assert cli.main(["stats", str(table), str(table)]) == 1
    err = capsys.readouterr().err
    assert "row 2: " in err
    assert "Traceback" not in err


def test_cli_stats_on_non_finite_cell_is_input_error(tmp_path, capsys):
    table = tmp_path / "nan.csv"
    table.write_text(_HEADER + "d0,7,1.0,2.0\nd1,12,nan,2.5\n")
    assert cli.main(["stats", str(table), str(table)]) == 1
    err = capsys.readouterr().err
    assert "row 3: column fkgl: 'nan'" in err
    assert "Traceback" not in err


def test_cli_stats_json_has_no_nan_when_sum_of_squares_overflows(tmp_path):
    # Finite but huge fkgl cells: the Shapiro-Wilk sum of squares overflows,
    # which is reported as a null normality, never as a NaN statistic.
    table_a = tmp_path / "a.csv"
    table_a.write_text(_HEADER + "".join(f"d{i},{10 + i},{i}e200,{100 + 7 * i}.5\n" for i in range(1, 9)))
    table_b = tmp_path / "b.csv"
    table_b.write_text(_HEADER + "".join(f"e{i},{12 + 3 * i},{1.5 * i},{90 + 11 * i}.25\n" for i in range(1, 9)))
    out = tmp_path / "s.json"
    assert cli.main(["stats", str(table_a), str(table_b), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
    assert payload["fkgl"]["normality_a"] is None
    assert payload["fkgl"]["normality_b"]["n"] == 8


_METRIC_CELLS = st.none() | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            LexicalRecord,
            st.text(st.sampled_from(',"\n\r xé'), max_size=10),
            st.integers(-(10**12), 10**12),
            _METRIC_CELLS,
            _METRIC_CELLS,
        ),
        max_size=8,
    )
)
def test_metrics_csv_round_trip_property(records):
    buffer = io.StringIO()
    write_metrics_csv(records, buffer)
    buffer.seek(0)
    recovered = read_metrics_csv(buffer)
    assert recovered == records
    assert repr(recovered) == repr(records)  # == does not tell -0.0 from 0.0


# ---------------------------------------------------------------------------
# Reference self-measurement fixtures
# ---------------------------------------------------------------------------


def test_reference_title_char_counts(data_dir):
    title = (data_dir / "reference_title.txt").read_text(encoding="utf-8").strip()
    assert title_length(title) == 113
    assert title_length(title, include_spaces=False) == 98


def test_reference_abstract_segmentation(data_dir):
    abstract = (data_dir / "reference_abstract.txt").read_text(encoding="utf-8").strip()
    tokens = tokenize(abstract)
    assert len(tokens) == 70
    assert len(tokens) != len(set(tokens.tokens))  # repetition present
    assert math.isfinite(fkgl(abstract))


# ---------------------------------------------------------------------------
# Abbreviation sets
# ---------------------------------------------------------------------------

_THREE_DOCUMENTS = Corpus(
    label="three",
    records=tuple(
        BibRecord(id=f"d{i}", title=f"Title {i}", abstract="One thing. Two things. Three.")
        for i in range(3)
    ),
)


def test_fkgl_and_lexical_records_check_the_abbreviation_set():
    # At -3.14 the three sentences count; {""} would make them one (-1.84).
    assert fkgl("One thing. Two things. Three.") == pytest.approx(-3.14, abs=0.005)
    with pytest.raises(ConfigError, match=r"^abbreviation '' is not lowercase"):
        fkgl("One thing. Two things. Three.", abbreviations=frozenset({""}))
    for bad in ("thing", "E.G."):
        with pytest.raises(ConfigError, match=f"^abbreviation '{bad}' is not lowercase"):
            lexical_records(_THREE_DOCUMENTS, abbreviations=frozenset({bad}))
        with pytest.raises(ConfigError):
            lexical_records(Corpus(label="empty", records=()), abbreviations=frozenset({bad}))


def test_lexical_records_checks_the_abbreviation_set_once_per_call(monkeypatch):
    checked = []
    rule = textproc._is_abbreviation
    monkeypatch.setattr(
        textproc, "_is_abbreviation", lambda entry: checked.append(entry) or rule(entry)
    )
    records = lexical_records(_THREE_DOCUMENTS)
    assert len(records) == 3
    assert sorted(checked) == sorted(DEFAULT_ABBREVIATIONS)
