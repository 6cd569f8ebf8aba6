"""lexigauge benchmark: times ``lexigauge.report.run_compare`` end to end on
seeded synthetic Scopus-style exports and, with ``--trace 1``, each layer
from outside the program.

    python3 perfbench/run.py --workload paper-650 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Load is a closed loop with one client: one process, one thread, one
``run_compare`` call at a time, each with both corpora, all five output
formats and a fresh output directory.  Inputs are generated in a child
process before anything is timed.

``--trace 0`` reports the end-to-end metrics:
  run_rel      median, over runs, of the wall time of one run_compare call
               in units of the host's speed sampled during the call
               (hostspeed.py): wall time less the samples' own time,
               divided by their mean time
  setup_s      median, over fresh interpreters started after each run, of
               the time to import lexigauge and finish its lazy set-up
  peak_rss_mb  ru_maxrss (2**20 bytes) of this process after its first run
The host is shared and its speed drifts and flickers by half or more, so
the wall time of run_compare is not steady from one benchmark run to the
next; its ratio to the speed sampled during the call is.  The wall times,
samples included, are printed in the summary; --trace 1 reports their
median without sampling.  The first run is a warm-up: it is checked, and
gives the peak RSS, but is not timed.

``--trace 1`` alternates untraced runs with a traced replay (replay.py)
and reports the per-layer metrics: times are medians over the replays,
and times and counts are totals over the two corpora.

Every run is checked (checks.py); a run that raises or fails the check
counts as failed.  The summary goes to standard output, and its last line
is one JSON object with the keys correct, attempted, failed and metrics.
Work files go under .bench_build/perfbench/ and are removed at the end,
apart from the span file that --trace 1 writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from checks import FORMATS, check_reference, expected_files, fingerprint
from hostspeed import HostSpeed
from workloads import LABELS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_RUNS = {0: 2, 1: 1}
CHILD_TIMEOUT_S = 150

NOTES = {
    "semnet.brandes_edge_visits": "computed as 2*E*V, not counted",
    "trace.overhead_s": "traced replay minus untraced run_compare wall time",
}

# Runs in a fresh interpreter; argv[1] is the source directory.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lexigauge
from lexigauge.semnet import default_stopwords
default_stopwords()
lexigauge.tokenize("set up")
print(time.perf_counter() - start)
"""


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


def generate(workload: str, seed: int, work: Path, smoke: bool) -> None:
    """Write both exports, one child process each, so that this process
    holds none of the generator's memory when its peak RSS is read."""
    command = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
    children = [
        subprocess.Popen(command + [str(index), str(work)] + (["--smoke"] if smoke else []))
        for index in range(len(LABELS))
    ]
    try:
        codes = [child.wait(timeout=CHILD_TIMEOUT_S) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"input generation failed with exit codes {codes}")


def lazy_setup() -> None:
    """What the first call would otherwise pay: the default stopword list
    and the compiled token pattern."""
    import lexigauge
    from lexigauge.semnet import default_stopwords

    default_stopwords()
    lexigauge.tokenize("set up")


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import lexigauge and finish its
    lazy set-up, as the interpreter itself measures it."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(done.stdout)


def loop(seconds: float, minimum: int, step) -> None:
    """Call ``step(i)`` at least ``minimum`` times, and again while the
    next call is expected to end within ``seconds`` of the first."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return


class Runs:
    """Untraced, checked ``run_compare`` calls, each into a fresh directory."""

    def __init__(self, run_compare, workload, config_for, work: Path):
        self.run_compare = run_compare
        self.config_for = config_for
        self.work = work
        self.names = expected_files(LABELS)
        self.analyzed = workload.analyzed_documents()
        self.reference: dict[str, str] | None = None
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.relative: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb: float | None = None
        self.artifact_bytes = 0

    def run(self, index: int, host: HostSpeed | None = None):
        """One timed run, during which ``host`` samples the host's speed if
        given; returns its report, or None if it failed."""
        out_dir = self.work / f"out-{index}"
        self.attempted += 1
        try:
            with host.sampling() if host else nullcontext():
                began, began_cpu = time.perf_counter(), time.process_time()
                report = self.run_compare(self.config_for(out_dir))
                wall, cpu = time.perf_counter() - began, time.process_time() - began_cpu
            relative = host.relative(wall) if host else None
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems = self.check(out_dir)
        except Exception:  # any failure of the program counts and the loop goes on
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            print(f"run {index} failed its output check:", *problems, sep="\n  ", file=sys.stderr)
            self.failed += 1
            return None
        self.wall.append(wall)
        self.cpu.append(cpu)
        if host:
            self.relative.append(relative)
        return report

    def check(self, out_dir: Path) -> list[str]:
        present = sorted(os.listdir(out_dir))
        if present != sorted(self.names):
            return [f"artifacts {present}, expected {sorted(self.names)}"]
        if self.reference is None:
            problems = check_reference(out_dir, LABELS, self.analyzed)
            if not problems:
                self.reference = fingerprint(out_dir, self.names)
                self.artifact_bytes = sum((out_dir / n).stat().st_size for n in self.names)
            return problems
        digests = fingerprint(out_dir, self.names)
        return [
            f"{name} differs from the first run"
            for name in self.names
            if digests[name] != self.reference[name]
        ]


def replay_problems(report, replayed) -> list[str]:
    """Values the traced replay must share with run_compare's report."""
    problems = []
    for real, again in zip(report.corpora, replayed.corpora):
        pairs = {
            "analyzed documents": (len(real.records), len(again.records)),
            "descriptives": (real.descriptives, again.descriptives),
            "node count": (real.graph.node_count(), again.graph.node_count()),
            "edge count": (real.graph.edge_count(), again.graph.edge_count()),
            "modularity": (real.partition.modularity_q, again.partition.modularity_q),
            "top token": (real.clusters.top_betweenness_token,
                          again.clusters.top_betweenness_token),
        }
        problems += [
            f"{real.label}: replay {what} {b!r} != run_compare {a!r}"
            for what, (a, b) in pairs.items()
            if a != b
        ]
    return problems


def end_to_end(runs: Runs, seconds: float) -> dict[str, float] | None:
    """The end-to-end metrics, or None if no timed run succeeded."""
    start = time.perf_counter()
    # The warm-up run is checked but not timed: it grows the heap and fills
    # caches, and it reads the peak RSS before the sampler has allocated
    # anything.
    runs.run(0)
    host = HostSpeed()
    # A set-up is measured after each run, so that both medians sample the
    # same stretch of time on a machine whose speed drifts.
    setups: list[float] = []

    def step(index: int) -> None:
        runs.run(index + 1, host)
        setups.append(measure_setup())

    loop(seconds - (time.perf_counter() - start), MIN_RUNS[0], step)
    if not runs.relative:
        return None
    return {
        "run_rel": statistics.median(runs.relative),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": runs.peak_rss_mb,
    }


def per_layer(runs: Runs, seconds: float, units: dict[str, str],
              trace_path: Path) -> tuple[dict[str, float], list[str]]:
    from replay import Tracer, replay_compare, replay_textproc

    tracer = Tracer()
    problems: list[str] = []
    replays: list[int] = []

    def step(index: int) -> None:
        report = runs.run(index)
        if report is None:
            return
        tracer.run_id = index
        out_dir = runs.work / f"replay-{index}"
        config = runs.config_for(out_dir)
        try:
            replayed, corpora = replay_compare(config, report.provenance, out_dir, tracer)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        problems.extend(replay_problems(report, replayed))
        replay_textproc(corpora, config.analysis.token_policy, tracer)
        replays.append(index)

    loop(seconds, MIN_RUNS[1], step)
    trace_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    if not replays:
        raise RuntimeError("no run succeeded, so nothing was replayed")

    totals = [tracer.totals(i) for i in replays]
    counts = tracer.counts[replays[-1]]
    metrics: dict[str, float] = {}
    for name, unit in units.items():
        if name in counts:
            metrics[name] = int(counts[name])
        elif unit == "s":  # the span of a timing metric is its name without "_s"
            metrics[name] = statistics.median(t.get(name[:-2], 0.0) for t in totals)
    metrics["textproc.syllable_calls_per_type"] = counts["textproc.tokens"] / counts["textproc.types"]
    metrics["report.artifact_bytes"] = runs.artifact_bytes
    metrics["report.run_compare_wall_s"] = statistics.median(runs.wall)
    metrics["report.run_compare_cpu_s"] = statistics.median(runs.cpu)
    metrics["trace.overhead_s"] = (
        statistics.median(t["report.run_compare"] for t in totals) - statistics.median(runs.wall)
    )
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "lexigauge" / "__init__.py").is_file():
        print(f"perfbench: no lexigauge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        generate(args.workload, args.seed, work, args.smoke)

        from lexigauge.report import (
            AnalysisConfig, CorpusConfig, OutputConfig, RunConfig, run_compare,
        )

        lazy_setup()
        corpora = tuple(
            CorpusConfig(
                csv_path=str(work / f"{label}.csv"),
                label=label,
                sample_size=workload.sample_size,
                seed=None if workload.sample_size is None else args.seed + index,
            )
            for index, label in enumerate(LABELS)
        )

        def config_for(out_dir: Path) -> RunConfig:
            return RunConfig(
                corpora=corpora,
                analysis=AnalysisConfig(),
                output=OutputConfig(directory=str(out_dir), formats=FORMATS),
            )

        runs = Runs(run_compare, workload, config_for, work)
        problems: list[str] = []
        if args.trace == 0:
            units = declared_units("end_to_end")
            metrics = end_to_end(runs, args.seconds)
        else:
            units = declared_units("per_layer")
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
            metrics, problems = per_layer(runs, args.seconds, units, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print("perfbench: no timed run succeeded", file=sys.stderr)
        return 1

    for problem in problems:
        print("replay mismatch:", problem, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  runs {runs.attempted}  failed {runs.failed}")
    print(f"  {'failure_ratio':32} {runs.failed / runs.attempted:>16.6g} ratio")
    print("  run_compare wall times (s):", " ".join(f"{t:.3f}" for t in runs.wall))
    if runs.relative:
        print("  run_compare relative times:", " ".join(f"{r:.1f}" for r in runs.relative))
    for name, unit in units.items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        print(f"  {name:32} {metrics[name]:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": runs.failed == 0 and not problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
