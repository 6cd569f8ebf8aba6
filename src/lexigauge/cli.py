"""Command-line interface.

Subcommands:
  compare  full two-corpus comparison run (report bundle)
  metrics  per-document metric table for one CSV
  semnet   co-word network export for one CSV
  stats    normality + rank-sum tests over two metric tables

Exit codes: 0 success, 1 input/configuration error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .errors import LexigaugeError, named
from .ingest import parse_bibliographic_csv, require_records
from .metrics import METRIC_NAMES, lexical_records, metric_vectors, read_metrics_csv, write_metrics_csv
from .report import (
    KNOWN_FORMATS,
    AnalysisConfig,
    CorpusConfig,
    OutputConfig,
    RunConfig,
    analyze_network,
    as_json,
    load_run_config,
    normality_or_none,
    run_compare,
)
from .semnet import export_graph
from .stats import wilcoxon_rank_sum

STOPWORDS_ENV = "LEXIGAUGE_STOPWORDS"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise LexigaugeError, so they
    exit 1 with one line like every other input error; subparsers are
    made from the same class."""

    def error(self, message):
        raise LexigaugeError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexigauge",
        description="Lexical-structure comparison of bibliographic corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run the full two-corpus comparison")
    compare.set_defaults(run=_cmd_compare)
    compare.add_argument("--config", help="JSON run manifest")
    compare.add_argument("--corpus-a", help="CSV path of the first corpus")
    compare.add_argument("--label-a", help="label of the first corpus")
    compare.add_argument("--corpus-b", help="CSV path of the second corpus")
    compare.add_argument("--label-b", help="label of the second corpus")
    compare.add_argument("--sample-size", type=int, help="sample size for both corpora")
    compare.add_argument("--seed", type=int, help="sampling seed for both corpora")
    compare.add_argument("--stopwords", help="stopword list path")
    compare.add_argument("--out", help="output directory")
    compare.add_argument(
        "--formats", help=f"comma-separated subset of {','.join(KNOWN_FORMATS)}"
    )

    metrics = sub.add_parser("metrics", help="emit the per-document metric table")
    metrics.set_defaults(run=_cmd_metrics)
    metrics.add_argument("csv", help="bibliographic CSV export")
    metrics.add_argument("--out", help="output CSV path (default: stdout)")

    semnet = sub.add_parser("semnet", help="build and export the title co-word network")
    semnet.set_defaults(run=_cmd_semnet)
    semnet.add_argument("csv", help="bibliographic CSV export")
    semnet.add_argument("--out", help="output path (default: <csv>_network.<format>)")
    semnet.add_argument("--format", choices=("gexf", "graphml"), default="gexf")
    defaults = AnalysisConfig()
    semnet.add_argument("--min-title-frequency", type=int, default=defaults.min_title_frequency)
    semnet.add_argument("--stopwords", help="stopword list path")
    semnet.add_argument(
        "--seed", type=int, default=defaults.network_seed, help="community detection seed"
    )
    semnet.add_argument("--resolution", type=float, default=defaults.louvain_resolution)

    stats = sub.add_parser("stats", help="compare two per-document metric tables")
    stats.set_defaults(run=_cmd_stats)
    stats.add_argument("metrics_a", help="metric CSV of the first corpus")
    stats.add_argument("metrics_b", help="metric CSV of the second corpus")
    stats.add_argument("--out", help="output JSON path (default: stdout)")
    return parser


def _stopwords_path(flag_value: str | None, config_value: str | None = None) -> str | None:
    return flag_value or config_value or os.environ.get(STOPWORDS_ENV) or None


def _cmd_compare(args) -> int:
    if args.config:
        config = load_run_config(args.config)
    else:
        if not (args.corpus_a and args.corpus_b):
            raise LexigaugeError(
                "compare needs either --config or both --corpus-a and --corpus-b"
            )
        config = None

    overrides = {
        key: value
        for key, value in (("sample_size", args.sample_size), ("seed", args.seed))
        if value is not None
    }

    def corpus_config(base: CorpusConfig | None, csv_path, label) -> CorpusConfig:
        changes = dict(overrides)
        if csv_path:
            changes["csv_path"] = csv_path
        if label:
            changes["label"] = label
        if base is None:
            return CorpusConfig(**{"label": Path(csv_path).stem, **changes})
        return replace(base, **changes)

    corpora = (
        corpus_config(config.corpora[0] if config else None, args.corpus_a, args.label_a),
        corpus_config(config.corpora[1] if config else None, args.corpus_b, args.label_b),
    )
    analysis = config.analysis if config else AnalysisConfig()
    analysis = replace(
        analysis, stopwords_path=_stopwords_path(args.stopwords, analysis.stopwords_path)
    )
    output = config.output if config else OutputConfig()
    if args.out:
        output = replace(output, directory=args.out)
    if args.formats:
        formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
        if not formats:
            raise LexigaugeError(f"argument --formats: {args.formats!r} names no format")
        output = replace(output, formats=formats)

    run = RunConfig(corpora=corpora, analysis=analysis, output=output)
    report = run_compare(run)

    for corpus in report.corpora:
        print(
            f"{corpus.label}: {corpus.parsed_documents} parsed "
            f"({corpus.skipped_rows} skipped), {len(corpus.records)} analyzed, "
            f"{corpus.missing_abstract_count} without abstract"
        )
    for metric, result in report.comparisons.items():
        print(
            f"{metric}: U={result.u_statistic:.1f} p={result.p_value:.2e} "
            f"r={result.effect_size_r:.3f}"
        )
    print(f"artifacts written to {output.directory}")
    return 0


def _cmd_metrics(args) -> int:
    with named(args.csv):
        corpus = parse_bibliographic_csv(args.csv, label=Path(args.csv).stem)
        require_records(corpus, args.csv)
        records = lexical_records(corpus)
    if args.out:
        write_metrics_csv(records, args.out)
        print(f"wrote {args.out} ({len(records)} documents)")
    else:
        write_metrics_csv(records, sys.stdout)
    return 0


def _cmd_semnet(args) -> int:
    analysis = AnalysisConfig(
        min_title_frequency=args.min_title_frequency,
        stopwords_path=_stopwords_path(args.stopwords),
        network_seed=args.seed,
        louvain_resolution=args.resolution,
    )
    with named(args.csv):
        corpus = parse_bibliographic_csv(args.csv, label=Path(args.csv).stem)
        require_records(corpus, args.csv)
        titles = {record.id: record.title for record in corpus.records}
        graph, partition, scores, summary = analyze_network(titles, analysis)
    out = args.out or f"{Path(args.csv).with_suffix('')}_network.{args.format}"
    Path(out).write_bytes(export_graph(graph, partition, scores, args.format))
    print(
        f"wrote {out}: {graph.node_count()} nodes, {graph.edge_count()} edges, "
        f"{partition.community_count()} communities (Q={partition.modularity_q:.3f}), "
        f"top betweenness: {summary.top_betweenness_token}"
    )
    return 0


def _cmd_stats(args) -> int:
    with named(args.metrics_a):
        vectors_a = metric_vectors(read_metrics_csv(args.metrics_a))
    with named(args.metrics_b):
        vectors_b = metric_vectors(read_metrics_csv(args.metrics_b))
    payload = {}
    for metric in METRIC_NAMES:
        x, y = vectors_a[metric], vectors_b[metric]
        entry = {}
        for side, values in (("a", x), ("b", y)):
            entry[f"normality_{side}"] = as_json(normality_or_none(values))
        with named(f"metric {metric!r}"):
            rank = wilcoxon_rank_sum(x, y)
        entry["rank_sum"] = as_json(rank)
        payload[metric] = entry
        print(f"{metric}: p={rank.p_value:.2e} r={rank.effect_size_r:.3f}")
    rendered = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (LexigaugeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
