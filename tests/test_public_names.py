"""The public names of lexigauge and the signatures of its public
functions, pinned: adding, removing or changing one is a change to this
file, so it shows in review as a test diff."""

import importlib
import inspect
import pkgutil
import types

import pytest

import lexigauge

# Each submodule's ``__all__``, in its own order; None where it has none.
MODULE_ALL = {
    "cli": None,
    "errors": None,
    "ingest": [
        "BibRecord", "Corpus", "BiblioSummary", "DEFAULT_COLUMN_MAP", "open_text",
        "read_csv_rows", "write_csv", "parse_bibliographic_csv", "require_records",
        "sample_corpus", "bibliometric_descriptives",
    ],
    "metrics": [
        "LexicalRecord", "title_length", "fkgl", "yules_k", "lexical_records",
        "metric_vectors", "write_metrics_csv", "read_metrics_csv",
    ],
    "report": [
        "CorpusConfig", "AnalysisConfig", "OutputConfig", "RunConfig", "CorpusResult",
        "ComparisonReport", "load_run_config", "analyze_network", "normality_or_none",
        "run_compare", "as_json", "emit_density_svg", "report_json_bytes",
    ],
    "semnet": [
        "GraphPolicy", "CoWordGraph", "CommunityPartition", "CentralityScores", "ClusterInfo",
        "ClusterSummary", "build_coword_graph", "modularity", "louvain_communities",
        "betweenness", "cluster_summary", "export_graph", "load_stopwords",
        "default_stopwords",
    ],
    "stats": [
        "Descriptives", "NormalityResult", "RankSumResult", "DensitySeries", "descriptives",
        "shapiro_wilk", "wilcoxon_rank_sum", "kde", "effect_size_from_z",
        "p_two_sided_from_z", "ndtr", "ndtri",
    ],
    "textproc": [
        "TokenPolicy", "TokenStream", "FrequencySpectrum", "DEFAULT_ABBREVIATIONS",
        "tokenize", "split_sentences", "count_sentences", "count_syllables",
        "frequency_spectrum",
    ],
}

# The names ``import lexigauge`` gives, submodules aside, in sorted order.
PACKAGE_NAMES = [
    "AnalysisConfig", "BibRecord", "BiblioSummary", "CentralityScores", "ClusterSummary",
    "CoWordGraph", "CommunityPartition", "ComparisonReport", "ConfigError",
    "ConsistencyError", "Corpus", "CorpusConfig", "CsvParseError", "DegenerateDataError",
    "DensitySeries", "Descriptives", "DomainError", "FrequencySpectrum", "GraphPolicy",
    "LexicalRecord", "LexigaugeError", "NormalityResult", "OutputConfig", "RankSumResult",
    "RunConfig", "TokenPolicy", "TokenStream", "betweenness",
    "bibliometric_descriptives", "build_coword_graph", "cluster_summary", "count_syllables",
    "descriptives", "emit_density_svg", "export_graph", "fkgl",
    "frequency_spectrum", "kde", "lexical_records", "load_run_config", "load_stopwords",
    "louvain_communities", "modularity", "parse_bibliographic_csv", "read_metrics_csv",
    "report_json_bytes", "run_compare", "sample_corpus", "shapiro_wilk", "split_sentences",
    "title_length", "tokenize", "wilcoxon_rank_sum", "write_metrics_csv", "yules_k",
]

# Names retired from the package, which no pipeline or CLI path reached; the
# tests keep them as oracles in tests/oracles.py.
RETIRED = {
    "errors": ["UnsupportedDataError"],
    "ingest": ["write_corpus_csv"],
    "stats": ["exact_rank_sum_p", "z_from_effect_size"],
}

# ``str(inspect.signature(f))`` of each function a submodule's ``__all__``
# names, in ``MODULE_ALL`` order.
SIGNATURES = {
    "ingest.open_text": "(target, mode: 'str' = 'r', encoding: 'str' = 'utf-8')",
    "ingest.read_csv_rows": "(stream)",
    "ingest.write_csv": "(target, header, rows) -> 'None'",
    "ingest.parse_bibliographic_csv": (
        "(source, column_map: 'dict[str, str] | None' = None, label: 'str' = '') -> 'Corpus'"
    ),
    "ingest.require_records": "(corpus: 'Corpus | _Table', source) -> 'None'",
    "ingest.sample_corpus": "(corpus: 'Corpus', n: 'int', seed: 'int') -> 'Corpus'",
    "ingest.bibliometric_descriptives": (
        "(corpus: 'Corpus', distinct_author_total: 'int | None' = None) -> 'BiblioSummary'"
    ),
    "metrics.title_length": "(title: 'str', include_spaces: 'bool' = True) -> 'int'",
    "metrics.fkgl": (
        "(text: 'str', policy: 'TokenPolicy' = TokenPolicy(keep_numbers=True, "
        "bind_hyphens=True, bind_apostrophes=True)) -> 'float'"
    ),
    "metrics.yules_k": "(tokens) -> 'float'",
    "metrics.lexical_records": (
        "(corpus, policy: 'TokenPolicy' = TokenPolicy(keep_numbers=True, bind_hyphens=True, "
        "bind_apostrophes=True)) -> 'list[LexicalRecord]'"
    ),
    "metrics.metric_vectors": "(records: 'list[LexicalRecord]') -> 'dict[str, list[float]]'",
    "metrics.write_metrics_csv": "(records: 'list[LexicalRecord]', target) -> 'None'",
    "metrics.read_metrics_csv": "(source) -> 'list[LexicalRecord]'",
    "report.load_run_config": "(source) -> 'RunConfig'",
    "report.analyze_network": (
        "(titles, analysis: 'AnalysisConfig') -> 'tuple[CoWordGraph, CommunityPartition, "
        "CentralityScores, ClusterSummary]'"
    ),
    "report.normality_or_none": "(values) -> 'NormalityResult | None'",
    "report.run_compare": "(config: 'RunConfig') -> 'ComparisonReport'",
    "report.as_json": "(result) -> 'dict | None'",
    "report.emit_density_svg": (
        "(series_a: 'DensitySeries', series_b: 'DensitySeries', labels: 'tuple[str, str]', "
        "title: 'str' = '') -> 'bytes'"
    ),
    "report.report_json_bytes": "(report: 'ComparisonReport') -> 'bytes'",
    "semnet.build_coword_graph": (
        "(titles, policy: 'GraphPolicy' = GraphPolicy(min_title_frequency=2, "
        "token_policy=TokenPolicy(keep_numbers=True, bind_hyphens=True, bind_apostrophes=True), "
        "stopwords=None)) -> 'CoWordGraph'"
    ),
    "semnet.modularity": (
        "(graph: 'CoWordGraph', assignment: 'dict[str, int]', "
        "resolution: 'float' = 1.0) -> 'float'"
    ),
    "semnet.louvain_communities": (
        "(graph: 'CoWordGraph', resolution: 'float' = 1.0, "
        "seed: 'int' = 0) -> 'CommunityPartition'"
    ),
    "semnet.betweenness": "(graph: 'CoWordGraph') -> 'CentralityScores'",
    "semnet.cluster_summary": (
        "(graph: 'CoWordGraph', partition: 'CommunityPartition', "
        "scores: 'CentralityScores') -> 'ClusterSummary'"
    ),
    "semnet.export_graph": (
        "(graph: 'CoWordGraph', partition: 'CommunityPartition', scores: 'CentralityScores', "
        "format: 'str' = 'gexf') -> 'bytes'"
    ),
    "semnet.load_stopwords": "(path: 'str | Path') -> 'frozenset[str]'",
    "semnet.default_stopwords": "() -> 'frozenset[str]'",
    "stats.descriptives": "(values) -> 'Descriptives'",
    "stats.shapiro_wilk": "(values) -> 'NormalityResult'",
    "stats.wilcoxon_rank_sum": "(x, y) -> 'RankSumResult'",
    "stats.kde": "(values, grid_points: 'int' = 512) -> 'DensitySeries'",
    "stats.effect_size_from_z": "(z: 'float', n_total: 'int') -> 'float'",
    "stats.p_two_sided_from_z": "(z: 'float') -> 'float'",
    "stats.ndtr": "(a: 'float') -> 'float'",
    "stats.ndtri": "(y: 'float') -> 'float'",
    "textproc.tokenize": (
        "(text: 'str', policy: 'TokenPolicy' = TokenPolicy(keep_numbers=True, "
        "bind_hyphens=True, bind_apostrophes=True)) -> 'TokenStream'"
    ),
    "textproc.split_sentences": "(text: 'str') -> 'list[str]'",
    "textproc.count_sentences": "(text: 'str') -> 'int'",
    "textproc.count_syllables": "(word: 'str') -> 'int'",
    "textproc.frequency_spectrum": "(tokens) -> 'FrequencySpectrum'",
}


def test_every_submodule_is_pinned():
    found = {info.name for info in pkgutil.iter_modules(lexigauge.__path__)}
    assert found == set(MODULE_ALL)


@pytest.mark.parametrize("name", MODULE_ALL)
def test_module_all_is_pinned(name):
    module = importlib.import_module(f"lexigauge.{name}")
    assert getattr(module, "__all__", None) == MODULE_ALL[name]
    for public in MODULE_ALL[name] or ():
        assert hasattr(module, public)


def test_package_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(lexigauge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PACKAGE_NAMES


def test_function_signatures_are_pinned():
    found = {}
    for name, public in MODULE_ALL.items():
        module = importlib.import_module(f"lexigauge.{name}")
        for attribute in public or ():
            value = getattr(module, attribute)
            if callable(value) and not inspect.isclass(value):
                found[f"{name}.{attribute}"] = str(inspect.signature(value))
    assert found == SIGNATURES


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    module = importlib.import_module(f"lexigauge.{name}")
    for retired in RETIRED[name]:
        assert not hasattr(module, retired)
        assert not hasattr(lexigauge, retired)
