"""End-to-end two-corpus comparison: configuration, pipeline orchestration,
report assembly, and artifact emission (JSON report, metric and density
CSVs, density SVGs, graph exports).

A run is deterministic: the same configuration and inputs produce
byte-identical artifacts, except for the ``generated_at`` provenance field
of the JSON report, which is isolated so determinism checks can exclude it.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ConsistencyError, DomainError, named
from .ingest import (
    SAMPLING_RNG,
    BiblioSummary,
    _read_table,
    require_records,
    write_csv,
)
from .metrics import (
    METRIC_NAMES,
    LexicalRecord,
    lexical_records,
    metric_vectors,
    read_metrics_csv,
    write_metrics_csv,
)
from .semnet import (
    ClusterSummary,
    CentralityScores,
    CommunityPartition,
    CoWordGraph,
    GraphPolicy,
    XML_TEXT_ESCAPES,
    _check_resolution,
    _export_graph,
    betweenness,
    build_coword_graph,
    cluster_summary,
    load_stopwords,
    louvain_communities,
    xml_text_fault,
)
from .stats import (
    QUARTILE_METHOD,
    DensitySeries,
    Descriptives,
    NormalityResult,
    RankSumResult,
    _check_kde_grid,
    descriptives,
    kde,
    shapiro_wilk,
    wilcoxon_rank_sum,
)
from .textproc import (
    DEFAULT_TOKEN_POLICY,
    SEGMENTATION_RULES_VERSION,
    TokenPolicy,
    decode_config_text,
    read_config_text,
)

__all__ = [
    "CorpusConfig",
    "AnalysisConfig",
    "OutputConfig",
    "RunConfig",
    "CorpusResult",
    "ComparisonReport",
    "load_run_config",
    "analyze_network",
    "normality_or_none",
    "run_compare",
    "as_json",
    "emit_density_svg",
    "report_json_bytes",
]

KNOWN_FORMATS = ("json", "csv", "svg", "gexf", "graphml")

@dataclass(frozen=True)
class CorpusConfig:
    csv_path: str
    label: str
    column_map: dict[str, str] | None = None
    sample_size: int | None = None
    seed: int | None = None
    author_total: int | None = None

    def __post_init__(self):
        if fault := xml_text_fault(self.label):
            raise ConfigError(f"corpus label {self.label!r} {fault}")
        for key in ("sample_size", "seed", "author_total"):
            value = getattr(self, key)
            if value is None:
                continue
            if not _is_int(value):
                raise ConfigError(
                    f"corpus {self.label!r}: {key!r} must be an integer, got {value!r}"
                )
            if value < 0 and key != "sample_size":  # RunConfig refuses a sample_size below 1
                raise ConfigError(
                    f"corpus {self.label!r}: {key!r} must be non-negative, got {value}"
                )


@dataclass(frozen=True)
class AnalysisConfig:
    min_title_frequency: int = 2
    stopwords_path: str | None = None
    kde_grid_points: int = 256
    network_seed: int = 0
    louvain_resolution: float = 1.0
    token_policy: TokenPolicy = DEFAULT_TOKEN_POLICY

    def __post_init__(self):
        if self.network_seed < 0:
            raise ConfigError(f"'network_seed' must be non-negative, got {self.network_seed}")
        _check_kde_grid(self.kde_grid_points, "'kde_grid_points'", ConfigError)
        _check_resolution(self.louvain_resolution, "'louvain_resolution'", ConfigError)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "lexigauge-out"
    formats: tuple[str, ...] = ("json", "csv", "svg", "gexf")


@dataclass(frozen=True)
class RunConfig:
    """One comparison run: exactly two corpora plus analysis/output options."""

    corpora: tuple[CorpusConfig, CorpusConfig]
    analysis: AnalysisConfig = AnalysisConfig()
    output: OutputConfig = OutputConfig()

    def __post_init__(self):
        if len(self.corpora) != 2:
            raise ConfigError(
                f"a comparison needs exactly two corpora, got {len(self.corpora)}"
            )
        labels = [c.label for c in self.corpora]
        if _slug(labels[0]) == _slug(labels[1]):
            raise ConfigError(
                f"corpus labels {labels[0]!r} and {labels[1]!r} collide once "
                "normalized for artifact file names"
            )
        for corpus in self.corpora:
            if corpus.sample_size is not None:
                if corpus.seed is None:
                    raise ConfigError(
                        f"corpus {corpus.label!r}: a seed is required when "
                        "sample_size is set"
                    )
                if corpus.sample_size <= 0:
                    raise ConfigError(
                        f"corpus {corpus.label!r}: sample_size must be positive"
                    )
        for fmt in self.output.formats:
            if fmt not in KNOWN_FORMATS:
                raise ConfigError(
                    f"unknown output format {fmt!r}; known: {', '.join(KNOWN_FORMATS)}"
                )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _section(cls) -> tuple:
    return "an object", lambda v: isinstance(v, dict), lambda v, key: _from_json(cls, v, key)


def _corpora(entries, key) -> tuple:
    return tuple(_from_json(CorpusConfig, e, f"corpus {n}") for n, e in enumerate(entries, 1))


# How a manifest holds a config field, keyed by the field's annotation: the
# JSON kind, its check, and how to read a value that passes (None keeps it as
# is).  A trailing " | None" on the annotation also admits null.
_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str), None),
    "int": ("an integer", _is_int, None),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float), None),
    "bool": ("a boolean", lambda v: isinstance(v, bool), None),
    "dict[str, str]": (
        "an object of strings",
        lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
        None,
    ),
    "tuple[str, ...]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        lambda v, key: tuple(v),
    ),
    "tuple[CorpusConfig, CorpusConfig]": ("a list", lambda v: isinstance(v, list), _corpora),
    "TokenPolicy": _section(TokenPolicy),
    "AnalysisConfig": _section(AnalysisConfig),
    "OutputConfig": _section(OutputConfig),
}


def _from_json(cls, raw, where: str):
    """The ``cls`` config that the JSON object ``raw`` spells out: every key a
    field of ``cls`` with a value of its annotation's kind, every field
    without a default present.  ``where`` names ``raw`` in errors."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(declared)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    values = {}
    for name, field in declared.items():
        if name not in raw:
            if field.default is MISSING and field.default_factory is MISSING:
                raise ConfigError(f"{where} needs {name!r}")
            continue
        value = raw[name]
        annotation = field.type.removesuffix(" | None")
        nullable = annotation != field.type
        if value is not None or not nullable:
            expected, check, read = _KINDS[annotation]
            if not check(value):
                expected += " or null" if nullable else ""
                raise ConfigError(f"{where} key {name!r} must be {expected}, got {value!r}")
            value = read(value, name) if read else value
        values[name] = value
    return cls(**values)


def load_run_config(source) -> RunConfig:
    """Load a RunConfig from a JSON manifest (path, stream, or dict).

    Raises ConfigError naming the key when an entry is missing, unknown or
    of the wrong JSON type (integers exclude booleans; null is accepted
    only where the field is optional), and naming the file (or the
    stream's ``name``) when its bytes are not UTF-8 or its text not JSON.
    """
    if isinstance(source, (str, Path)):
        name, text = source, read_config_text(source)
    elif hasattr(source, "read"):
        name = getattr(source, "name", "manifest")
        text = decode_config_text(source.read(), name)
    else:
        return _from_json(RunConfig, source, "config")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSON, digit-limit or depth fault
        raise ConfigError(f"{name}: {exc}") from exc
    return _from_json(RunConfig, raw, "config")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class CorpusResult:
    """Everything computed for one corpus in a run."""

    label: str
    source_csv: str
    parsed_documents: int
    skipped_rows: int
    sample_size: int | None
    sample_seed: int | None
    bibliometrics: BiblioSummary
    records: list[LexicalRecord]
    missing_abstract_count: int
    descriptives: dict[str, Descriptives]
    normality: dict[str, NormalityResult | None]
    densities: dict[str, DensitySeries]
    graph: CoWordGraph
    partition: CommunityPartition
    centrality: CentralityScores
    clusters: ClusterSummary


@dataclass
class ComparisonReport:
    """The aggregate artifact of one two-corpus comparison run."""

    corpora: tuple[CorpusResult, CorpusResult]
    comparisons: dict[str, RankSumResult]
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": "1",
            "corpora": [_corpus_json(c) for c in self.corpora],
            "comparisons": {
                metric: as_json(r) for metric, r in self.comparisons.items()
            },
            "provenance": self.provenance,
        }


# Result fields whose JSON key differs from the dataclass field name.
_JSON_KEYS = {"minimum": "min", "maximum": "max"}


def as_json(result) -> dict | None:
    """JSON object of a result dataclass (``None`` stays ``None``): its
    fields by name, with ``Descriptives``' minimum/maximum as min/max."""
    if result is None:
        return None
    return {_JSON_KEYS.get(k, k): v for k, v in asdict(result).items()}


def _corpus_json(c: CorpusResult) -> dict:
    return {
        "label": c.label,
        "source_csv": c.source_csv,
        "parsed_documents": c.parsed_documents,
        "skipped_rows": c.skipped_rows,
        "sample_size": c.sample_size,
        "analyzed_documents": len(c.records),
        "missing_abstract_count": c.missing_abstract_count,
        "bibliometrics": as_json(c.bibliometrics),
        "metric_counts": {m: len(v) for m, v in metric_vectors(c.records).items()},
        "descriptives": {m: as_json(d) for m, d in c.descriptives.items()},
        "normality": {m: as_json(r) for m, r in c.normality.items()},
        "network": {
            "node_count": c.graph.node_count(),
            "edge_count": c.graph.edge_count(),
            "modularity_q": c.partition.modularity_q,
            "community_count": c.partition.community_count(),
            "top_betweenness_token": c.clusters.top_betweenness_token,
            "clusters": [as_json(info) for info in c.clusters.clusters],
        },
    }


def report_json_bytes(report: ComparisonReport) -> bytes:
    """Deterministic JSON rendering of a report (sorted keys, full-precision
    floats, trailing newline)."""
    return (
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2, allow_nan=False)
        + "\n"
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def analyze_network(
    titles, analysis: AnalysisConfig
) -> tuple[CoWordGraph, CommunityPartition, CentralityScores, ClusterSummary]:
    """The co-word network stage of one corpus: the title graph under
    ``analysis``'s graph settings, its seeded communities, betweenness and
    degree scores, and the cluster summary.  ``titles`` is as for
    ``build_coword_graph``: given record ids, an over-cap title is named by
    its id.  Louvain and betweenness share the graph's one CSR."""
    policy = GraphPolicy(
        min_title_frequency=analysis.min_title_frequency,
        token_policy=analysis.token_policy,
        stopwords=(
            load_stopwords(analysis.stopwords_path) if analysis.stopwords_path else None
        ),
    )
    graph = build_coword_graph(titles, policy)
    partition = louvain_communities(graph, analysis.louvain_resolution, analysis.network_seed)
    centrality = betweenness(graph)
    return graph, partition, centrality, cluster_summary(graph, partition, centrality)


def normality_or_none(values) -> NormalityResult | None:
    """The Shapiro-Wilk test of ``values``, or None where it does not apply
    (n outside 3..5000, identical values, a sum of squares past float range)."""
    try:
        return shapiro_wilk(values)
    except DomainError:
        return None


def _analyze_corpus(config: CorpusConfig, analysis: AnalysisConfig) -> CorpusResult:
    # Every row is read and checked, but records are built only for the
    # rows that are analyzed, and a sample's abstracts are re-read from the
    # file, so no unsampled abstract is held.
    table = _read_table(config.csv_path, config.column_map, config.label,
                        sampled=config.sample_size is not None)
    require_records(table, config.csv_path)

    biblio = table.summary(distinct_author_total=config.author_total)

    if config.sample_size is None:
        analyzed = table.corpus()
    else:
        analyzed = table.sample(config.sample_size, config.seed)
    parsed_documents, skipped_rows = len(table), table.skipped_rows
    del table  # the rows left out of a sample are freed before the analysis

    records = lexical_records(analyzed, policy=analysis.token_policy)
    vectors = metric_vectors(records)
    missing = len(records) - len(vectors["fkgl"])

    desc: dict[str, Descriptives] = {}
    normality: dict[str, NormalityResult | None] = {}
    densities: dict[str, DensitySeries] = {}
    for metric in METRIC_NAMES:
        values = vectors[metric]
        if not values:
            raise DomainError(
                f"no values for metric {metric!r} (every document lacks an abstract?)"
            )
        desc[metric] = descriptives(values)
        normality[metric] = normality_or_none(values)
        with named(f"cannot build a density for {metric!r}"):
            densities[metric] = kde(values, grid_points=analysis.kde_grid_points)

    graph, partition, centrality, clusters = analyze_network(
        {record.id: record.title for record in analyzed.records}, analysis
    )
    return CorpusResult(
        label=config.label,
        source_csv=str(config.csv_path),
        parsed_documents=parsed_documents,
        skipped_rows=skipped_rows,
        sample_size=config.sample_size,
        sample_seed=config.seed,
        bibliometrics=biblio,
        records=records,
        missing_abstract_count=missing,
        descriptives=desc,
        normality=normality,
        densities=densities,
        graph=graph,
        partition=partition,
        centrality=centrality,
        clusters=clusters,
    )


def run_compare(config: RunConfig) -> ComparisonReport:
    """Execute the full comparison pipeline and write the artifact bundle.

    Pipeline per corpus: parse -> bibliometrics -> optional seeded sample ->
    per-document metrics -> descriptives/normality/density -> co-word
    network.  Cross-corpus: a rank-sum comparison per metric.  Artifacts are
    written to a temporary directory and moved into place only on success,
    so a failing run leaves no partial outputs.
    """
    results = []
    for corpus in config.corpora:
        with named(f"corpus {corpus.label!r}"):
            results.append(_analyze_corpus(corpus, config.analysis))

    comparisons: dict[str, RankSumResult] = {}
    vectors_a = metric_vectors(results[0].records)
    vectors_b = metric_vectors(results[1].records)
    for metric in METRIC_NAMES:
        comparisons[metric] = wilcoxon_rank_sum(vectors_a[metric], vectors_b[metric])

    provenance = {
        "tool": "lexigauge",
        "tool_version": __version__,
        "rng_algorithm": SAMPLING_RNG,
        "numpy_version": np.__version__,
        "segmentation_rules_version": SEGMENTATION_RULES_VERSION,
        "quartile_method": QUARTILE_METHOD,
        "p_value_display": "scientific, 3 significant digits (full precision in JSON)",
        "seeds": {
            "samples": {
                c.label: c.seed for c in config.corpora
            },
            "network": config.analysis.network_seed,
        },
        "policies": {
            "token_policy": asdict(config.analysis.token_policy),
            "graph_policy": {
                "min_title_frequency": config.analysis.min_title_frequency,
                "stopwords": (
                    str(config.analysis.stopwords_path)
                    if config.analysis.stopwords_path
                    else "bundled-default"
                ),
                "unweighted_paths": True,
            },
            "louvain_resolution": config.analysis.louvain_resolution,
            "kde_grid_points": config.analysis.kde_grid_points,
            "syllables": "vowel-run heuristic with silent-e rules; acronyms and numerals count 1",
        },
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }

    report = ComparisonReport(
        corpora=tuple(results), comparisons=comparisons, provenance=provenance
    )
    _write_artifacts(report, config)
    return report


def _audited_metrics_csv(corpus: CorpusResult) -> str:
    """The corpus's metric table as CSV text, audited as written: a drift of
    the descriptives recomputed from the text is an internal error."""
    buffer = io.StringIO()
    write_metrics_csv(corpus.records, buffer)
    buffer.seek(0)
    recovered = metric_vectors(read_metrics_csv(buffer))
    for metric in METRIC_NAMES:
        if descriptives(recovered[metric]) != corpus.descriptives[metric]:
            raise ConsistencyError(
                f"corpus {corpus.label!r}: metric table round-trip changed "
                f"the {metric!r} descriptives"
            )
    return buffer.getvalue()


def _slug(label: str) -> str:
    words = "".join(c.lower() if c.isalnum() else " " for c in label).split()
    return "_".join(words) or "corpus"


def _write_artifacts(report: ComparisonReport, config: RunConfig) -> None:
    formats = set(config.output.formats)
    out_dir = Path(config.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=".lexigauge-", dir=out_dir))
    try:
        if "json" in formats:
            (tmp_dir / "report.json").write_bytes(report_json_bytes(report))

        for corpus in report.corpora:
            slug = _slug(corpus.label)
            table = _audited_metrics_csv(corpus)
            if "csv" in formats:
                (tmp_dir / f"metrics_{slug}.csv").write_text(table, encoding="utf-8", newline="")
                for metric, series in corpus.densities.items():
                    rows = zip(series.grid, series.density)
                    write_csv(tmp_dir / f"density_{metric}_{slug}.csv", ("x", "density"), rows)
            if wanted := [fmt for fmt in ("gexf", "graphml") if fmt in formats]:
                render = _export_graph(corpus.graph, corpus.partition, corpus.centrality)
                for fmt in wanted:
                    (tmp_dir / f"network_{slug}.{fmt}").write_bytes(render(fmt))

        if "svg" in formats:
            a, b = report.corpora
            for metric in METRIC_NAMES:
                (tmp_dir / f"density_{metric}.svg").write_bytes(
                    emit_density_svg(
                        a.densities[metric],
                        b.densities[metric],
                        labels=(a.label, b.label),
                        title=metric.replace("_", " "),
                    )
                )

        # The bundle is whatever the temporary directory holds; every target
        # is checked before the first move, so a blocked one moves nothing.
        names = [path.name for path in tmp_dir.iterdir()]
        for target in map(out_dir.joinpath, names):
            if target.exists() and not target.is_file():
                raise ConfigError(f"{target}: exists and is not a regular file")
        for name in names:
            os.replace(tmp_dir / name, out_dir / name)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Density SVG
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728")
_SVG_W, _SVG_H = 720, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 42, 52


def emit_density_svg(
    series_a: DensitySeries,
    series_b: DensitySeries,
    labels: tuple[str, str],
    title: str = "",
) -> bytes:
    """Render two density series as one self-contained SVG: two labeled
    curves (the only ``path`` elements), ticked axes, no external assets.
    Deterministic byte output for identical inputs.  Raises DomainError for
    a bad series, for a degenerate plot frame, and for a title or label
    that cannot be written as XML."""
    for text in (title, *labels):
        if fault := xml_text_fault(text):
            raise DomainError(f"SVG text {text!r} {fault}")
    for series in (series_a, series_b):
        if len(series.grid) == 0:
            raise DomainError("cannot plot an empty density series")
        if len(series.grid) != len(series.density):
            raise DomainError("density series grid/density lengths differ")
        if not all(math.isfinite(v) for v in series.grid) or not all(
            math.isfinite(v) for v in series.density
        ):
            raise DomainError("density series contains non-finite values")

    x_min = min(series_a.grid[0], series_b.grid[0])
    x_span = max(series_a.grid[-1], series_b.grid[-1]) - x_min or math.nan
    y_max = _nice_ceil(max(max(series_a.density), max(series_b.density)))
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_min) / x_span * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - y / y_max * plot_h

    # The plot frame: a non-zero, finite x span (zero is NaN above; a descending
    # grid draws a reversed axis), a finite y-axis top and finite curve
    # positions, which a point far outside the frame can overflow.
    curves = [[(sx(x), sy(d)) for x, d in zip(s.grid, s.density)] for s in (series_a, series_b)]
    positions = [v for curve in curves for point in curve for v in point]
    if not all(map(math.isfinite, (x_span, y_max, *positions))):
        raise DomainError("degenerate plot ranges")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]

    def add_text(x, y, size, body: str, anchor=' text-anchor="middle"', transform="") -> None:
        parts.append(
            f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"'
            f"{transform}>{body.translate(XML_TEXT_ESCAPES)}</text>"
        )

    def add_line(x1, y1, x2, y2) -> None:
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>')

    if title:
        add_text(f"{_SVG_W / 2:.1f}", 24, 16, title)
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    add_line(x0, y0, x0 + plot_w, y0)
    add_line(x0, _MARGIN_T, x0, y0)
    for i in range(5):
        # Each step is a share of the span, so the last tick cannot overflow.
        xt = x_min + x_span * (i / 4)
        px = f"{sx(xt):.2f}"
        add_line(px, y0, px, y0 + 5)
        add_text(px, y0 + 20, 11, f"{xt:.4g}")
        yt = y_max * (i / 4)
        py = sy(yt)
        add_line(x0 - 5, f"{py:.2f}", x0, f"{py:.2f}")
        add_text(x0 - 8, f"{py + 4:.2f}", 11, f"{yt:.4g}", anchor=' text-anchor="end"')
    add_text(f"{x0 + plot_w / 2:.1f}", _SVG_H - 14, 12, "value")
    y_mid = f"{_MARGIN_T + plot_h / 2:.1f}"
    add_text(18, y_mid, 12, "density", transform=f' transform="rotate(-90 18 {y_mid})"')

    for curve, color in zip(curves, _SVG_COLORS):
        points = " L".join(f"{x:.2f},{y:.2f}" for x, y in curve)
        parts.append(f'<path d="M{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    legend_x = x0 + plot_w - 160
    for i, (label, color) in enumerate(zip(labels, _SVG_COLORS)):
        ly = _MARGIN_T + 14 + i * 18
        parts.append(
            f'<rect x="{legend_x}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        add_text(legend_x + 18, ly + 2, 12, label, anchor="")

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _nice_ceil(value: float) -> float:
    """Round up to two significant figures (upper bound for the y-axis);
    1.0 for a value <= 0.  A positive value below the smallest normal float
    raises DomainError: its rounding step, 10**(exponent - 1), is 0.0."""
    if value <= 0:
        return 1.0
    if value < sys.float_info.min:
        raise DomainError(f"density peak {value!r} is below the smallest normal float")
    exponent = math.floor(math.log10(value))
    scale = 10.0 ** (exponent - 1)
    return math.ceil(value / scale) * scale
