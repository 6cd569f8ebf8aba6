"""lexigauge: lexical-structure analytics for bibliographic corpora.

Ingest bibliographic CSV exports, measure title length, Flesch-Kincaid
grade level and Yule's K per document, compare two corpora with
nonparametric tests, build title co-word networks, and emit a structured
comparison report with plot-ready density data and graph exports.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    CsvParseError,
    DegenerateDataError,
    DomainError,
    LexigaugeError,
    UnsupportedDataError,
)
from .ingest import (
    BibRecord,
    BiblioSummary,
    Corpus,
    bibliometric_descriptives,
    parse_bibliographic_csv,
    sample_corpus,
    write_corpus_csv,
)
from .metrics import (
    LexicalRecord,
    fkgl,
    lexical_records,
    read_metrics_csv,
    title_length,
    write_metrics_csv,
    yules_k,
)
from .report import (
    AnalysisConfig,
    ComparisonReport,
    CorpusConfig,
    OutputConfig,
    RunConfig,
    emit_density_svg,
    load_run_config,
    report_json_bytes,
    run_compare,
)
from .semnet import (
    CentralityScores,
    ClusterSummary,
    CommunityPartition,
    CoWordGraph,
    GraphPolicy,
    betweenness,
    build_coword_graph,
    cluster_summary,
    export_graph,
    load_stopwords,
    louvain_communities,
    modularity,
)
from .stats import (
    DensitySeries,
    Descriptives,
    NormalityResult,
    RankSumResult,
    descriptives,
    exact_rank_sum_p,
    kde,
    shapiro_wilk,
    wilcoxon_rank_sum,
)
from .textproc import (
    FrequencySpectrum,
    TokenPolicy,
    TokenStream,
    count_syllables,
    frequency_spectrum,
    split_sentences,
    tokenize,
)
