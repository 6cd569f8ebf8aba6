"""Regenerate the committed golden artifacts for the report tests.

Runs the bundled toy corpora through the full pipeline with a pinned
configuration and freezes (a) the report JSON with the timestamp field
removed, (b) one density SVG, (c) the report JSON of the sampled run
that CI makes (12 documents of each corpus, seed 3) and (d) the GEXF
network of each corpus, which pins every node's community, betweenness
and degree.  The outputs were reviewed by hand when first generated;
rerun only when an intentional behaviour change is made:

    python tests/make_goldens.py
"""

import json
import shutil
import tempfile
from pathlib import Path

from lexigauge.report import (
    AnalysisConfig,
    CorpusConfig,
    OutputConfig,
    RunConfig,
    emit_density_svg,
    run_compare,
)

DATA = Path(__file__).parent / "data"
# The corpus slugs of golden_config, which name its network exports.
GOLDEN_NETWORKS = ("process_review", "leadership_studies")


def golden_config(out_dir: str) -> RunConfig:
    return RunConfig(
        corpora=(
            CorpusConfig(csv_path=str(DATA / "corpus_process.csv"), label="Process Review"),
            CorpusConfig(
                csv_path=str(DATA / "corpus_leadership.csv"), label="Leadership Studies"
            ),
        ),
        analysis=AnalysisConfig(kde_grid_points=64, network_seed=7),
        output=OutputConfig(directory=out_dir, formats=("json", "csv", "svg", "gexf")),
    )


def sampled_config(out_dir: str) -> RunConfig:
    """``lexigauge compare`` on the toy pair with ``--sample-size 12 --seed 3``."""
    return RunConfig(
        corpora=tuple(
            CorpusConfig(csv_path=str(DATA / f"corpus_{label}.csv"), label=label,
                         sample_size=12, seed=3)
            for label in ("process", "leadership")
        ),
        output=OutputConfig(directory=out_dir, formats=("json",)),
    )


def golden_json(report) -> str:
    """The report JSON without its environment- and location-dependent
    fields (their stability is covered by the rerun-determinism test)."""
    doc = report.to_json_dict()
    doc.pop("provenance")
    for corpus in doc["corpora"]:
        corpus.pop("source_csv")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        report = run_compare(golden_config(tmp))
        sampled = run_compare(sampled_config(tmp))
        for slug in GOLDEN_NETWORKS:
            network = f"network_{slug}.gexf"
            shutil.copyfile(Path(tmp) / network, DATA / f"golden_{network}")

    (DATA / "golden_report.json").write_text(golden_json(report), encoding="utf-8")
    a, b = report.corpora
    svg = emit_density_svg(
        a.densities["fkgl"],
        b.densities["fkgl"],
        labels=(a.label, b.label),
        title="fkgl",
    )
    (DATA / "golden_density.svg").write_bytes(svg)
    (DATA / "golden_report_sampled.json").write_text(golden_json(sampled), encoding="utf-8")
    print(
        "wrote golden_report.json, golden_density.svg, golden_report_sampled.json"
        " and golden_network_{process_review,leadership_studies}.gexf"
    )


if __name__ == "__main__":
    main()
