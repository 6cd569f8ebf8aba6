"""Reference implementations the suite checks lexigauge against.

Each is written from its definition, for small inputs, and is not part of
the package: the exact rank-sum p-value by enumeration, the z that an
effect size implies, a corpus written back to CSV, and betweenness by
listing every shortest path.
"""

import itertools
import math
from collections import deque
from operator import attrgetter

import numpy as np

from lexigauge.ingest import ROUNDTRIP_COLUMN_MAP, write_csv


def exact_rank_sum_p(x, y) -> float:
    """Exact two-sided rank-sum p-value, by enumerating every assignment
    of ranks to the first sample.  Raises ValueError unless both samples
    are non-empty, n_x + n_y <= 20 and every value is finite and distinct,
    so it cannot give a wrong answer silently."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n_x, n = x.size, x.size + y.size
    if n_x == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    if n > 20:
        raise ValueError(f"exact enumeration supports n_x + n_y <= 20, got {n}")
    combined = np.concatenate([x, y])
    if not np.isfinite(combined).all():
        raise ValueError("exact enumeration requires finite values")
    if np.unique(combined).size != n:
        raise ValueError("exact enumeration requires tie-free data")

    # U is the first sample's rank sum less a constant: rank sums order alike.
    observed = (np.argsort(np.argsort(combined))[:n_x] + 1).sum()
    rank_sums = np.fromiter(
        map(sum, itertools.combinations(range(1, n + 1), n_x)), dtype=np.int64
    )
    count = min(int((rank_sums <= observed).sum()), int((rank_sums >= observed).sum()))
    return min(1.0, 2.0 * count / rank_sums.size)


def z_from_effect_size(r: float, n_total: int) -> float:
    """|z| implied by rank-sum effect size r at a combined sample size."""
    return r * math.sqrt(n_total)


def write_corpus_csv(corpus, target) -> None:
    """Write a corpus as CSV through ``lexigauge.ingest.write_csv``; parsing
    the output with ROUNDTRIP_COLUMN_MAP gives back every record field for
    field."""
    fields = attrgetter(*ROUNDTRIP_COLUMN_MAP)
    write_csv(target, ROUNDTRIP_COLUMN_MAP.values(), map(fields, corpus.records))


def brute_force_betweenness(graph) -> dict:
    """Direct from the definition: enumerate every shortest path of every
    unordered pair via BFS-layer DFS, crediting interior nodes."""
    nodes = sorted(graph.node_frequency)
    adjacency = {u: [] for u in nodes}
    for u, v in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    scores = {u: 0.0 for u in nodes}
    for s, t in itertools.combinations(nodes, 2):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if t not in dist:
            continue

        paths = []

        def extend(path):
            head = path[-1]
            if head == t:
                paths.append(path)
                return
            for v in adjacency[head]:
                if v in dist and dist[v] == dist[head] + 1:
                    extend(path + [v])

        extend([s])
        for path in paths:
            for interior in path[1:-1]:
                scores[interior] += 1.0 / len(paths)
    return scores
