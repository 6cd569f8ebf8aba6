"""The public names of lexigauge, pinned: adding or removing one is a
change to this file, so it shows in review as a test diff."""

import importlib
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
        "write_corpus_csv", "sample_corpus", "bibliometric_descriptives",
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
        "shapiro_wilk", "wilcoxon_rank_sum", "exact_rank_sum_p", "kde", "z_from_effect_size",
        "effect_size_from_z", "p_two_sided_from_z", "ndtr", "ndtri",
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
    "RunConfig", "TokenPolicy", "TokenStream", "UnsupportedDataError", "betweenness",
    "bibliometric_descriptives", "build_coword_graph", "cluster_summary", "count_syllables",
    "descriptives", "emit_density_svg", "exact_rank_sum_p", "export_graph", "fkgl",
    "frequency_spectrum", "kde", "lexical_records", "load_run_config", "load_stopwords",
    "louvain_communities", "modularity", "parse_bibliographic_csv", "read_metrics_csv",
    "report_json_bytes", "run_compare", "sample_corpus", "shapiro_wilk", "split_sentences",
    "title_length", "tokenize", "wilcoxon_rank_sum", "write_corpus_csv",
    "write_metrics_csv", "yules_k",
]


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
