"""Traced replay of ``run_compare`` from outside the program.

The replay calls the public function of each layer in the order
``lexigauge.report.run_compare`` uses and records a span around each call.
It writes the same artifacts, except the six density CSVs, whose writer is
not public.  Spans are kept in memory and written out when the benchmark
ends.  A second replay re-runs the public ``textproc`` calls that
``lexical_records`` makes, one pass per call, to time them and count their
work.
"""

from __future__ import annotations

import io
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from lexigauge.errors import DegenerateDataError, DomainError
from lexigauge.ingest import Corpus, bibliometric_descriptives, parse_bibliographic_csv, sample_corpus
from lexigauge.metrics import (
    METRIC_NAMES,
    lexical_records,
    metric_vectors,
    read_metrics_csv,
    write_metrics_csv,
)
from lexigauge.report import (
    ComparisonReport,
    CorpusResult,
    RunConfig,
    emit_density_svg,
    report_json_bytes,
)
from lexigauge.semnet import (
    GraphPolicy,
    betweenness,
    build_coword_graph,
    cluster_summary,
    export_graph,
    load_stopwords,
    louvain_communities,
)
from lexigauge.stats import descriptives, kde, shapiro_wilk, wilcoxon_rank_sum
from lexigauge.textproc import (
    TokenPolicy,
    count_syllables,
    frequency_spectrum,
    split_sentences,
    tokenize,
)


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, in memory.

    ``parent`` is the index of the enclosing span in ``spans``, or None.
    Counters are totals per run id.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent, run_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, run_id)

    def count(self, name: str, value: float) -> None:
        self.counts[self.run_id][name] += value

    def totals(self, run_id: int) -> dict[str, float]:
        """Summed span durations by name for one run."""
        sums: dict[str, float] = defaultdict(float)
        for name, start, end, _, rid in self.spans:
            if rid == run_id:
                sums[name] += end - start
        return sums

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans
            ],
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
        }


def replay_compare(config: RunConfig, provenance: dict, out_dir: Path,
                   tracer: Tracer) -> tuple[ComparisonReport, list[Corpus]]:
    """Run the comparison stage by stage under spans and write its
    artifacts to ``out_dir``.  ``provenance`` is taken from a real run, as
    it only records settings and the time.  Returns the report and the
    analyzed corpora."""
    span, count = tracer.span, tracer.count
    analysis = config.analysis
    with span("report.run_compare"):
        policy = GraphPolicy(
            min_title_frequency=analysis.min_title_frequency,
            token_policy=analysis.token_policy,
            stopwords=load_stopwords(analysis.stopwords_path) if analysis.stopwords_path else None,
        )
        results, corpora = [], []
        for corpus in config.corpora:
            with span("ingest.parse"):
                full = parse_bibliographic_csv(
                    corpus.csv_path, column_map=corpus.column_map, label=corpus.label
                )
            count("ingest.rows", len(full) + full.skipped_rows)
            count("ingest.csv_bytes", os.path.getsize(corpus.csv_path))
            with span("ingest.biblio"):
                biblio = bibliometric_descriptives(full, distinct_author_total=corpus.author_total)
            analyzed = full
            if corpus.sample_size is not None:
                with span("ingest.sample"):
                    analyzed = sample_corpus(full, corpus.sample_size, corpus.seed)
            corpora.append(analyzed)
            with span("metrics.lexical_records"):
                records = lexical_records(analyzed, policy=analysis.token_policy)
            count("metrics.docs", len(records))
            vectors = metric_vectors(records)
            desc, normality, densities = {}, {}, {}
            for metric in METRIC_NAMES:
                values = vectors[metric]
                with span("stats.descriptives"):
                    desc[metric] = descriptives(values)
                with span("stats.shapiro"):
                    try:
                        normality[metric] = shapiro_wilk(values)
                    except (DomainError, DegenerateDataError):
                        normality[metric] = None
                with span("stats.kde"):
                    densities[metric] = kde(values, grid_points=analysis.kde_grid_points)
                count("stats.kde_cells", analysis.kde_grid_points * len(values))
            with span("semnet.build"):
                graph = build_coword_graph(analyzed.titles(), policy)
            with span("semnet.louvain"):
                partition = louvain_communities(
                    graph, resolution=analysis.louvain_resolution, seed=analysis.network_seed
                )
            with span("semnet.betweenness"):
                centrality = betweenness(graph)
            with span("semnet.cluster"):
                clusters = cluster_summary(graph, partition, centrality)
            nodes, edges = graph.node_count(), graph.edge_count()
            count("semnet.nodes", nodes)
            count("semnet.edges", edges)
            # Brandes visits each edge from both ends once per BFS source.
            count("semnet.brandes_edge_visits", 2 * edges * nodes)
            count("semnet.communities", partition.community_count())
            results.append(CorpusResult(
                label=corpus.label,
                source_csv=str(corpus.csv_path),
                parsed_documents=len(full),
                skipped_rows=full.skipped_rows,
                sample_size=corpus.sample_size,
                sample_seed=corpus.seed,
                bibliometrics=biblio,
                records=records,
                missing_abstract_count=sum(1 for r in records if r.fkgl is None),
                descriptives=desc,
                normality=normality,
                densities=densities,
                graph=graph,
                partition=partition,
                centrality=centrality,
                clusters=clusters,
            ))

        vectors_a = metric_vectors(results[0].records)
        vectors_b = metric_vectors(results[1].records)
        comparisons = {}
        for metric in METRIC_NAMES:
            with span("stats.rank_sum"):
                comparisons[metric] = wilcoxon_rank_sum(vectors_a[metric], vectors_b[metric])
        report = ComparisonReport(
            corpora=tuple(results), comparisons=comparisons, provenance=provenance
        )

        with span("report.self_audit"):
            for result in results:
                buffer = io.StringIO()
                with span("metrics.write_csv"):
                    write_metrics_csv(result.records, buffer)
                buffer.seek(0)
                recovered = metric_vectors(read_metrics_csv(buffer))
                for metric in METRIC_NAMES:
                    with span("stats.descriptives"):
                        descriptives(recovered[metric])

        with span("report.write_artifacts"):
            out_dir.mkdir(parents=True, exist_ok=True)
            with span("report.json"):
                (out_dir / "report.json").write_bytes(report_json_bytes(report))
            for index, result in enumerate(results):
                with span("metrics.write_csv"):
                    write_metrics_csv(result.records, out_dir / f"metrics_{index}.csv")
                for fmt in ("gexf", "graphml"):
                    with span("semnet.export"):
                        (out_dir / f"network_{index}.{fmt}").write_bytes(
                            export_graph(result.graph, result.partition, result.centrality, fmt)
                        )
            with span("report.svg"):
                a, b = results
                for metric in METRIC_NAMES:
                    (out_dir / f"density_{metric}.svg").write_bytes(emit_density_svg(
                        a.densities[metric], b.densities[metric],
                        labels=(a.label, b.label), title=metric.replace("_", " "),
                    ))
    return report, corpora


def replay_textproc(corpora: list[Corpus], policy: TokenPolicy, tracer: Tracer) -> None:
    """Time the textproc calls ``lexical_records`` makes over the analyzed
    abstracts, one pass per public function, and count their work."""
    span, count = tracer.span, tracer.count
    types: set[str] = set()
    with span("textproc.replay"):
        for corpus in corpora:
            abstracts = [record.abstract for record in corpus]
            with span("textproc.tokenize"):
                streams = [tokenize(text, policy) for text in abstracts]
            measured = [(text, stream) for text, stream in zip(abstracts, streams) if len(stream)]
            with span("textproc.split_sentences"):
                sentences = sum(len(split_sentences(text)) for text, _ in measured)
            with span("textproc.count_syllables"):
                for _, stream in measured:
                    for token in stream.tokens:
                        count_syllables(token)
            with span("textproc.frequency_spectrum"):
                for _, stream in measured:
                    frequency_spectrum(stream)
            count("textproc.tokens", sum(len(stream) for _, stream in measured))
            count("textproc.sentences", sentences)
            for _, stream in measured:
                types.update(stream.tokens)
    counts = tracer.counts[tracer.run_id]
    counts["textproc.types"] = len(types)
    counts["textproc.max_abstract_chars"] = max(
        len(record.abstract) for corpus in corpora for record in corpus
    )
