"""The benchmark's workloads and the per-layer predictions later changes
are judged against.

Why each workload exists is recorded in ``BENCHMARK.json``; the
predictions, which that file has no place for, are recorded here so a
change can cite them by metric name.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

from corpus import CorpusSpec, write_export

LABELS = ("alpha", "beta")


@dataclass(frozen=True)
class Workload:
    """Two exports to compare and the number of documents to analyze from
    each (``sample_size`` None analyzes every row)."""

    corpora: tuple[CorpusSpec, CorpusSpec]
    sample_size: int | None = None

    def analyzed_documents(self) -> tuple[int, int]:
        return tuple(self.sample_size or spec.rows for spec in self.corpora)

    def generate(self, seed: int, index: int, out_dir: Path) -> None:
        """Write export ``index`` (0 or 1) for ``seed``."""
        write_export(out_dir / f"{LABELS[index]}.csv", self.corpora[index], 2 * seed + index)

    def smoke(self) -> "Workload":
        """The same shapes at a size that runs in well under a second."""
        rows = 120 if self.sample_size else 60
        return Workload(
            corpora=tuple(
                replace(spec, rows=rows, title_vocab=min(spec.title_vocab, 400),
                        abstract_vocab=2_000, tail_chars=(5_000, 8_000))
                for spec in self.corpora
            ),
            sample_size=40 if self.sample_size else None,
        )


def _pair(**shape) -> tuple[CorpusSpec, CorpusSpec]:
    """Corpus A and a corpus B whose abstracts are a little longer and more
    varied, so the rank-sum comparisons are not degenerate."""
    low, high = shape.pop("abstract_words")
    a = CorpusSpec(abstract_words=(low, high), venue="Journal A", **shape)
    b = CorpusSpec(
        abstract_words=(low + (high - low) // 10, high + (high - low) // 10),
        abstract_zipf=1.0,
        venue="Journal B",
        first_year=2004,
        **shape,
    )
    return a, b


WORKLOADS = {
    "paper-650": Workload(
        corpora=_pair(rows=20_000, title_words=7, title_fillers=3,
                      title_vocab=8_000, title_zipf=1.0, abstract_words=(150, 250)),
        sample_size=650,
    ),
    "abstracts-long": Workload(
        corpora=_pair(rows=1_200, title_words=4, title_fillers=1,
                      title_vocab=60_000, title_zipf=1.0, abstract_words=(300, 350),
                      tail_share=0.01),
    ),
    "titles-dense": Workload(
        corpora=_pair(rows=1_000, title_words=12, title_fillers=0,
                      title_vocab=1_500, title_zipf=1.25, abstract_words=(25, 35)),
    ),
}


@dataclass(frozen=True)
class Prediction:
    """Layer metrics that a change to their layer should move, the
    end-to-end metrics they should move, the workloads where they should
    (strongest first) and those where no change is predicted."""

    layer_metrics: tuple[str, ...]
    end_to_end: tuple[str, ...]
    moves_on: tuple[str, ...]
    unchanged_on: tuple[str, ...] = ()


PREDICTIONS = (
    Prediction(
        ("semnet.betweenness_s", "semnet.brandes_edge_visits", "semnet.nodes", "semnet.edges"),
        ("run_rel",),
        ("titles-dense", "paper-650"),
        ("abstracts-long",),
    ),
    Prediction(
        ("semnet.build_s", "semnet.louvain_s", "semnet.communities", "semnet.cluster_s",
         "semnet.export_s"),
        ("run_rel",),
        ("titles-dense",),
    ),
    Prediction(
        ("metrics.lexical_records_s", "metrics.docs", "metrics.write_csv_s"),
        ("run_rel",),
        ("abstracts-long", "paper-650"),
        ("titles-dense",),
    ),
    Prediction(
        ("textproc.tokenize_s", "textproc.split_sentences_s", "textproc.count_syllables_s",
         "textproc.frequency_spectrum_s", "textproc.tokens", "textproc.types",
         "textproc.sentences", "textproc.max_abstract_chars",
         "textproc.syllable_calls_per_type"),
        ("run_rel",),
        ("abstracts-long",),
    ),
    Prediction(
        ("ingest.parse_s", "ingest.sample_s", "ingest.biblio_s", "ingest.rows",
         "ingest.csv_bytes"),
        ("run_rel", "peak_rss_mb"),
        ("paper-650",),
        ("abstracts-long", "titles-dense"),
    ),
    # Each stats stage is under 1% of every workload: no change is
    # predicted anywhere.  A large-n KDE workload would be its own change.
    Prediction(
        ("stats.descriptives_s", "stats.shapiro_s", "stats.kde_s", "stats.rank_sum_s",
         "stats.kde_cells"),
        (),
        (),
        ("paper-650", "abstracts-long", "titles-dense"),
    ),
    # CPU time is tracked so that a parallel change trading CPU for wall
    # time shows.
    Prediction(
        ("report.json_s", "report.svg_s", "report.artifact_bytes",
         "report.run_compare_cpu_s"),
        ("run_rel",),
        ("titles-dense",),
    ),
    # The wall time that run_rel divides by the reference time; it moves
    # with run_rel everywhere, and with the host's speed.
    Prediction(
        ("report.run_compare_wall_s",),
        ("run_rel",),
        ("paper-650", "abstracts-long", "titles-dense"),
    ),
    Prediction(("trace.overhead_s",), (), ()),
)


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED INDEX OUT_DIR [--smoke]
    name, seed, index, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    workload = WORKLOADS[name]
    if "--smoke" in sys.argv[5:]:
        workload = workload.smoke()
    workload.generate(seed, index, out)
