"""Output checks for one ``run_compare`` artifact directory.

Uses only the standard library, so the checks do not trust the code they
check.  The first good run of a benchmark is checked in full and becomes
the reference; every later run must reproduce its bytes, apart from the
``generated_at`` field of ``report.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from xml.etree import ElementTree as ET

METRICS = ("title_length", "fkgl", "yules_k")
FORMATS = ("json", "csv", "svg", "gexf", "graphml")


def expected_files(slugs: tuple[str, str]) -> list[str]:
    """Every artifact a run with all of FORMATS writes."""
    names = ["report.json"]
    for slug in slugs:
        names.append(f"metrics_{slug}.csv")
        names += [f"density_{metric}_{slug}.csv" for metric in METRICS]
        names += [f"network_{slug}.gexf", f"network_{slug}.graphml"]
    names += [f"density_{metric}.svg" for metric in METRICS]
    return names


def fingerprint(out_dir: Path, names: list[str]) -> dict[str, str]:
    """SHA-256 of each artifact; raises FileNotFoundError if one is missing.
    ``report.json`` is hashed without its ``generated_at`` field."""
    digests = {}
    for name in names:
        data = (out_dir / name).read_bytes()
        if name == "report.json":
            report = json.loads(data)
            del report["provenance"]["generated_at"]
            data = json.dumps(report, sort_keys=True).encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _xml_counts(path: Path) -> tuple[int, int]:
    nodes = edges = 0
    for _, element in ET.iterparse(path):
        tag = element.tag.rsplit("}", 1)[-1]
        if tag == "node":
            nodes += 1
        elif tag == "edge":
            edges += 1
        element.clear()
    return nodes, edges


def check_reference(out_dir: Path, slugs: tuple[str, str],
                    analyzed: tuple[int, int]) -> list[str]:
    """Full check of one run's artifacts; returns the problems found."""
    problems = []
    report = json.loads((out_dir / "report.json").read_bytes())
    for corpus, slug, docs in zip(report["corpora"], slugs, analyzed):
        label = corpus["label"]
        if corpus["analyzed_documents"] != docs:
            problems.append(
                f"{label}: analyzed_documents {corpus['analyzed_documents']}, expected {docs}"
            )
        network = corpus["network"]
        expected = (network["node_count"], network["edge_count"])
        for fmt in ("gexf", "graphml"):
            counts = _xml_counts(out_dir / f"network_{slug}.{fmt}")
            if counts != expected:
                problems.append(
                    f"{label}: {fmt} has {counts[0]} nodes / {counts[1]} edges, "
                    f"report.json says {expected[0]} / {expected[1]}"
                )
    return problems
