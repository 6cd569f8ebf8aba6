"""Title co-word semantic networks.

Nodes are content words; an edge links two words that appear together in at
least one title, weighted by the number of such titles.  Communities come
from greedy modularity optimization (local moves + aggregation, seeded node
order); mediation is measured with unweighted shortest-path betweenness.

Both algorithms run on one sorted-name CSR adjacency, built by ``_csr``.
Edge weights are integer title counts, so every strength, aggregated weight
and half-weight self-loop is an exact float, whatever the summation order.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from math import inf
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, DomainError
from .textproc import DEFAULT_TOKEN_POLICY, TokenPolicy, _word_list_entries, tokenize

__all__ = [
    "GraphPolicy",
    "CoWordGraph",
    "CommunityPartition",
    "CentralityScores",
    "ClusterInfo",
    "ClusterSummary",
    "build_coword_graph",
    "modularity",
    "louvain_communities",
    "betweenness",
    "cluster_summary",
    "export_graph",
    "load_stopwords",
    "default_stopwords",
]

_STOPWORDS_PATH = Path(__file__).parent / "data" / "stopwords_en.txt"


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword list: one lowercase token per line, ``#`` comments
    and blank lines ignored."""
    return frozenset(entry for _, entry in _word_list_entries(path))


@cache
def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list."""
    return load_stopwords(_STOPWORDS_PATH)


@dataclass(frozen=True)
class GraphPolicy:
    """Co-word graph construction policy.

    min_title_frequency: nodes appearing in fewer titles are pruned
    (set to 1 to disable pruning).
    """

    min_title_frequency: int = 2
    token_policy: TokenPolicy = DEFAULT_TOKEN_POLICY
    stopwords: frozenset[str] | None = None


@dataclass
class CoWordGraph:
    """Undirected weighted co-word graph.

    node_frequency: token -> number of titles containing it.
    edges: (u, v) -> number of titles where both occur, one key per pair,
    with u < v and both nodes (as ``build_coword_graph`` emits them); the
    graph algorithms and ``export_graph`` raise ConsistencyError on any other key.
    """

    node_frequency: dict[str, int]
    edges: dict[tuple[str, str], int]

    @property
    def nodes(self) -> set[str]:
        return set(self.node_frequency)

    def node_count(self) -> int:
        return len(self.node_frequency)

    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {node: {} for node in self.node_frequency}
        for (u, v), w in self.edges.items():
            adj[u][v] = w
            adj[v][u] = w
        return adj


@dataclass(frozen=True)
class CommunityPartition:
    """A node -> community assignment with its weighted modularity."""

    assignment: dict[str, int]
    modularity_q: float

    def community_count(self) -> int:
        return len(set(self.assignment.values()))


@dataclass(frozen=True)
class CentralityScores:
    betweenness: dict[str, float]
    degree: dict[str, int]


# Kept terms are paired, so 256 terms make 32,640 pairs; no title of the
# bundled corpora or of the benchmark workloads keeps more than 12.
_MAX_TITLE_TERMS = 256


def build_coword_graph(titles, policy: GraphPolicy = GraphPolicy()) -> CoWordGraph:
    """Build the co-word graph of a title list: prune, then pair.

    Per title: tokenize, drop stopwords and tokens without letters, and
    de-duplicate.  Tokens in fewer than ``policy.min_title_frequency`` titles
    are pruned; each pair of a title's kept tokens is then linked, weighted by
    the number of titles holding both.  The result is invariant under
    permutation of the titles.  A title keeping more than 256 tokens raises
    DomainError naming its position, counted from 1.
    """
    token_sets = [set(tokenize(title, policy.token_policy)) for title in titles]
    if not token_sets:
        raise DomainError("cannot build a co-word graph from zero titles")
    node_frequency = Counter(chain.from_iterable(token_sets))
    stopwords = default_stopwords() if policy.stopwords is None else policy.stopwords
    keep = {
        t
        for t, f in node_frequency.items()
        if f >= policy.min_title_frequency and t not in stopwords and any(map(str.isalpha, t))
    }
    edges: Counter[tuple[str, str]] = Counter()
    for position, terms in enumerate(token_sets, 1):
        kept = sorted(terms & keep)
        if len(kept) > _MAX_TITLE_TERMS:
            raise DomainError(
                f"title {position} keeps {len(kept)} terms, past the cap of {_MAX_TITLE_TERMS}"
            )
        edges.update(combinations(kept, 2))
    return CoWordGraph(
        node_frequency={t: node_frequency[t] for t in sorted(keep)},
        edges=dict(sorted(edges.items())),
    )


def _edge_ends(graph: CoWordGraph):
    """``(names, heads, tails)``: the sorted node names, and for each edge key
    ``(u, v)`` in ``graph.edges`` order the ids of ``u`` and ``v`` in ``names``.
    Raises ConsistencyError on an edge key that is not ``(u, v)`` with
    ``u < v``, both nodes."""
    names = sorted(graph.node_frequency)
    index = {u: i for i, u in enumerate(names)}
    m = len(graph.edges)
    heads = np.fromiter((index.get(u, -1) for u, _ in graph.edges), np.intp, m)
    tails = np.fromiter((index.get(v, -1) for _, v in graph.edges), np.intp, m)
    # Ids follow name order, so u < v holds exactly when -1 < head < tail.
    bad = np.flatnonzero((heads < 0) | (heads >= tails))
    if bad.size:
        edge = list(graph.edges)[bad[0]]
        raise ConsistencyError(f"edge {edge!r} is not (u, v) with u < v, both graph nodes")
    return names, heads, tails


def _csr(graph: CoWordGraph):
    """``(names, indptr, indices, weights)``: node ``i`` is ``names[i]`` (sorted)
    and CSR row ``i`` lists its neighbors in ascending order, with float edge
    weights alongside.  Raises DomainError without nodes, and ConsistencyError
    as ``_edge_ends`` does."""
    if not graph.node_frequency:
        raise DomainError("the co-word graph has no nodes")
    names, heads, tails = _edge_ends(graph)
    n, m = len(names), len(graph.edges)
    weights = np.fromiter(graph.edges.values(), float, m)
    # Both directions of every edge as row * n + column, in ascending order.
    codes = np.concatenate([heads * n + tails, tails * n + heads])
    order = np.argsort(codes)
    codes = codes[order]
    indptr = np.searchsorted(codes, np.arange(n + 1) * n)
    return names, indptr, codes % n, np.concatenate([weights, weights])[order]


# ---------------------------------------------------------------------------
# Modularity and community detection
# ---------------------------------------------------------------------------


def modularity(
    graph: CoWordGraph, assignment: dict[str, int], resolution: float = 1.0
) -> float:
    """Weighted modularity of a partition:
    Q = sum_c [ w_intra(c)/m - resolution * (strength(c)/(2m))^2 ].

    An edgeless graph has Q = 0 by convention.
    """
    missing = graph.nodes - set(assignment)
    if missing:
        raise ConsistencyError(f"assignment misses nodes: {sorted(missing)[:5]}")
    m = float(sum(graph.edges.values()))
    if m == 0:
        return 0.0
    intra: dict[int, float] = defaultdict(float)
    strength: dict[int, float] = defaultdict(float)
    for (u, v), w in graph.edges.items():
        strength[assignment[u]] += w
        strength[assignment[v]] += w
        if assignment[u] == assignment[v]:
            intra[assignment[u]] += w
    q = 0.0
    for community in strength:
        q += intra.get(community, 0.0) / m - resolution * (strength[community] / (2.0 * m)) ** 2
    return q


def louvain_communities(
    graph: CoWordGraph, resolution: float = 1.0, seed: int = 0
) -> CommunityPartition:
    """Greedy modularity community detection (local-move + aggregation).

    Nodes are visited in an order shuffled by ``seed``; each node greedily
    joins the neighboring community with the largest modularity gain (ties
    broken toward the smallest community index), and converged levels are
    aggregated into super-node graphs until no merge improves modularity.
    A community of the last level that is not connected over its own edges
    is then split into its connected components, which at a resolution
    >= 0 never lowers modularity (Traag, Waltman & van Eck 2019, "From
    Louvain to Leiden").  Deterministic for a fixed (graph, seed).  The
    reported modularity is recomputed on the original graph at resolution 1.

    Like ``betweenness``, it runs on the sorted-name CSR from ``_csr``;
    integer edge weights keep every gain exact, whatever the summation order.

    Community ids in the result are canonical: numbered by decreasing
    community size, ties by lexicographically smallest member.
    """
    names, indptr, indices, weights = _csr(graph)
    graph_csr = indptr, indices
    self_w = np.zeros(len(names))
    rng = np.random.Generator(np.random.PCG64(seed))
    # original node -> node id in the current (aggregated) level
    node_of = np.arange(len(names))
    while True:
        comm = _local_moves(indptr, indices, weights, self_w, resolution, rng)
        node_of = comm[node_of]
        if comm.max() + 1 == self_w.size:
            break
        indptr, indices, weights, self_w = _aggregate(indptr, indices, weights, self_w, comm)
    node_of = _split_disconnected(node_of, *graph_csr)

    # Canonical ids: by decreasing size, ties by first (smallest) member name.
    first = np.unique(node_of, return_index=True)[1]
    canonical = np.argsort(np.lexsort((first, -np.bincount(node_of))))
    assignment = dict(zip(names, canonical[node_of].tolist()))
    return CommunityPartition(assignment=assignment, modularity_q=modularity(graph, assignment))


def _split_disconnected(comm, indptr, indices) -> np.ndarray:
    """``comm`` with each community split into its connected components over
    its own edges, relabeled 0..k-1 in order of smallest member."""
    rows = np.repeat(np.arange(comm.size), np.diff(indptr))
    intra = comm[rows] == comm[indices]
    intra_indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[intra], minlength=comm.size))))
    roots = _component_roots(intra_indptr, indices[intra])
    return np.unique(roots, return_inverse=True)[1].reshape(-1)


def _local_moves(indptr, indices, weights, self_w, resolution, rng) -> np.ndarray:
    """One level of greedy local moves; returns a dense community labeling."""
    n = self_w.size
    # The adjacency is symmetric: its column sums are the row strengths.
    strength = (np.bincount(indices, weights, minlength=n) + 2.0 * self_w).tolist()
    m2 = sum(strength)
    if m2 == 0.0:
        return np.arange(n)
    comm = list(range(n))
    comm_tot = strength.copy()
    order = rng.permutation(n).tolist()
    ptr, nbr, wt = indptr.tolist(), indices.tolist(), weights.tolist()
    rows = [list(zip(nbr[a:b], wt[a:b])) for a, b in zip(ptr, ptr[1:])]

    moved = True
    while moved:
        moved = False
        for u in order:
            current = comm[u]
            weight_to: dict[int, float] = defaultdict(float, {current: 0.0})
            for v, w in rows[u]:
                weight_to[comm[v]] += w
            comm_tot[current] -= strength[u]

            # Larger gain, then smaller id: a total order, whatever the scan order.
            best_comm, best_gain = current, -inf
            for candidate, weight in weight_to.items():
                gain = weight - resolution * comm_tot[candidate] * strength[u] / m2
                if gain > best_gain or (gain == best_gain and candidate < best_comm):
                    best_comm, best_gain = candidate, gain

            comm_tot[best_comm] += strength[u]
            if best_comm != current:
                comm[u] = best_comm
                moved = True

    # dense relabel in order of first appearance for stable aggregation
    _, first, inverse = np.unique(comm, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)]


def _aggregate(indptr, indices, weights, self_w, comm):
    """Collapse communities into super-nodes; intra-community weight becomes
    the super-node self-weight, half from each end of an edge."""
    k = int(comm.max()) + 1
    head = np.repeat(comm, np.diff(indptr))
    tail = comm[indices]
    intra = head == tail
    new_self = np.bincount(comm, self_w, k) + np.bincount(head[intra], weights[intra] / 2.0, k)
    codes, inverse = np.unique(head[~intra] * k + tail[~intra], return_inverse=True)
    new_indptr = np.searchsorted(codes, np.arange(k + 1) * k)
    return new_indptr, codes % k, np.bincount(inverse.reshape(-1), weights[~intra]), new_self


# ---------------------------------------------------------------------------
# Betweenness centrality (Brandes, batched level-synchronous BFS over CSR)
# ---------------------------------------------------------------------------

# Cap on the elements of each working array: a batch holds as many BFS
# sources (at least one) as keep both sources x nodes and sources x
# directed edges within it.
_BATCH_ELEMENTS = 1 << 15
_UNREACHED = np.iinfo(np.intp).max


def betweenness(graph: CoWordGraph) -> CentralityScores:
    """Unweighted shortest-path betweenness, each unordered node pair
    counted once; degrees reported alongside.

    Brandes' algorithm on the ``_csr`` adjacency, a batch of sources at a
    time.  A source's BFS stops once it has reached every node of its
    connected component, and its own dependency is never accumulated: the
    levels skipped hold no predecessor edge.  Every floating-point sum runs
    in the order of the single-source queue/stack form, which visits
    neighbors in ascending name order, so the scores are bit-identical to it.
    """
    names, indptr, indices, _ = _csr(graph)
    n = len(names)
    component_size = _component_sizes(indptr, indices)
    scores = np.zeros(n)
    batch = max(1, _BATCH_ELEMENTS // max(n, indices.size))
    for first in range(0, n, batch):
        sources = np.arange(first, min(first + batch, n))
        for row in _dependencies(sources, indptr, indices, component_size[sources]):
            scores += row
    return CentralityScores(
        betweenness=dict(zip(names, (scores / 2.0).tolist())),
        degree=dict(zip(names, np.diff(indptr).tolist())),
    )


def _expand(frontier, indptr, indices):
    """``(tail, counts)``: the far end of every edge out of ``frontier``,
    whose node ``v`` of row ``r`` is ``r * n + v``, addressed the same way
    and ordered by frontier position, then ascending tail; and the number
    of edges out of each frontier node."""
    n = indptr.size - 1
    row_base, ids = np.divmod(frontier, n)
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    slot = np.repeat(starts - np.cumsum(counts) + counts, counts)
    slot += np.arange(slot.size)
    return indices[slot] + np.repeat(row_base * n, counts), counts


def _component_sizes(indptr, indices) -> np.ndarray:
    """The node count of each node's connected component."""
    root_of = _component_roots(indptr, indices)
    return np.bincount(root_of, minlength=root_of.size)[root_of]


def _component_roots(indptr, indices) -> np.ndarray:
    """The smallest node id of each node's connected component: one
    level-synchronous BFS per component, each edge expanded once."""
    n = indptr.size - 1
    root_of = np.full(n, -1)
    for root in range(n):
        if root_of[root] >= 0:
            continue
        frontier = np.array([root])
        while frontier.size:
            root_of[frontier] = root
            tail = _expand(frontier, indptr, indices)[0]
            frontier = np.unique(tail[root_of[tail] < 0])
    return root_of


def _dependencies(sources, indptr, indices, component_size) -> np.ndarray:
    """Brandes dependencies of every node on each of ``sources``, one row
    per source; a source's dependency on itself is 0, never accumulated.

    Node ``v`` of row ``r`` is addressed as ``r * n + v``.  The BFS of all
    rows advances one level per step; ``position`` numbers reached nodes in
    the order the single-source queue would dequeue them (one counter for
    all rows, increasing within each).  Row ``r`` leaves the frontier once
    it has reached ``component_size[r]`` nodes, its source's whole
    component: every edge out of it then ends at a reached node, so no
    predecessor edge is lost.  The first level's predecessor edges all
    start at a source, so the backward pass skips them.  Both cuts leave
    every sum, and its order, as in the single-source form.
    """
    n = indptr.size - 1
    rows = sources.size
    frontier = np.arange(rows) * n + sources
    position = np.full(rows * n, _UNREACHED)
    position[frontier] = np.arange(rows)
    sigma = np.zeros(rows * n)
    sigma[frontier] = 1.0
    reached = rows
    to_reach = component_size.copy()
    levels = []
    while True:
        row = frontier // n
        to_reach -= np.bincount(row, minlength=rows)
        frontier = frontier[to_reach[row] > 0]
        if not frontier.size:
            break
        # Every edge out of the frontier, ordered by row, BFS position of
        # the head, then ascending tail: the queue's visiting order.
        tail, counts = _expand(frontier, indptr, indices)
        # Edges into unreached nodes are the next level's predecessor edges.
        keep = np.flatnonzero(position[tail] == _UNREACHED)
        head = np.repeat(frontier, counts)[keep]
        tail = tail[keep]
        # The first of them into a node discovers it.
        seen = np.arange(tail.size)
        np.minimum.at(position, tail, seen)
        frontier = tail[position[tail] == seen]
        position[frontier] = np.arange(reached, reached + frontier.size)
        reached += frontier.size
        np.add.at(sigma, tail, sigma[head])
        levels.append((head, tail))

    delta = np.zeros(rows * n)
    for head, tail in reversed(levels[1:]):
        # Successors in decreasing BFS position: the stack's popping order.
        order = np.argsort(position[tail])[::-1]
        head, tail = head[order], tail[order]
        np.add.at(delta, head, sigma[head] / sigma[tail] * (1.0 + delta[tail]))
    return delta.reshape(rows, n)


# ---------------------------------------------------------------------------
# Cluster summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterInfo:
    community_id: int
    size: int
    node_share_pct: float
    label_tokens: tuple[str, ...]
    top_betweenness_token: str


@dataclass(frozen=True)
class ClusterSummary:
    """Top-k clusters by node count, with degree-based labels, plus the
    graph-wide highest-betweenness token."""

    clusters: tuple[ClusterInfo, ...]
    total_clusters: int
    total_nodes: int
    top_betweenness_token: str


def cluster_summary(
    graph: CoWordGraph,
    partition: CommunityPartition,
    scores: CentralityScores,
    k: int = 3,
) -> ClusterSummary:
    """Summarize the ``k`` most crowded clusters.

    Clusters are ranked by node count (ties by smallest community id);
    per-cluster labels are the top-3 nodes by degree (ties lexicographic).
    If ``k`` exceeds the cluster count, all clusters are returned.
    """
    _check_same_nodes(graph, partition, scores)
    total = graph.node_count()
    members: dict[int, list[str]] = defaultdict(list)
    for node, community in partition.assignment.items():
        members[community].append(node)

    ranked = sorted(members.items(), key=lambda item: (-len(item[1]), item[0]))
    infos = []
    for community, nodes in ranked[:k]:
        by_degree = sorted(nodes, key=lambda t: (-scores.degree[t], t))
        top_bet = min(nodes, key=lambda t: (-scores.betweenness[t], t))
        infos.append(
            ClusterInfo(
                community_id=community,
                size=len(nodes),
                node_share_pct=100.0 * len(nodes) / total,
                label_tokens=tuple(by_degree[:3]),
                top_betweenness_token=top_bet,
            )
        )
    global_top = min(
        graph.node_frequency, key=lambda t: (-scores.betweenness[t], t)
    )
    return ClusterSummary(
        clusters=tuple(infos),
        total_clusters=len(members),
        total_nodes=total,
        top_betweenness_token=global_top,
    )


def _check_same_nodes(graph, partition, scores):
    nodes = graph.nodes
    for label, mapping in (
        ("partition", partition.assignment),
        ("betweenness", scores.betweenness),
        ("degree", scores.degree),
    ):
        if extra := sorted(set(mapping) - nodes)[:5]:
            raise ConsistencyError(f"{label} references nodes absent from the graph: {extra}")
        if missing := sorted(nodes - set(mapping))[:5]:
            raise ConsistencyError(f"{label} misses graph nodes: {missing}")


# ---------------------------------------------------------------------------
# Graph export (GEXF 1.2draft / GraphML)
# ---------------------------------------------------------------------------

GEXF_NAMESPACE = "http://www.gexf.net/1.2draft"
GRAPHML_NAMESPACE = "http://graphml.graphdrawing.org/xmlns"

# XML escaping as ElementTree writes it: text escapes & < >, and attribute
# values also the quote and the whitespace that normalization would fold.
XML_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
XML_ATTRIB_ESCAPES = XML_TEXT_ESCAPES | str.maketrans(
    {'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)

# Node attributes in export order: (name, GEXF type, GraphML type).
_NODE_ATTRIBUTES = (
    ("community", "integer", "int"),
    ("betweenness", "double", "double"),
    ("degree", "integer", "int"),
    ("title_frequency", "integer", "int"),
)


def export_graph(
    graph: CoWordGraph,
    partition: CommunityPartition,
    scores: CentralityScores,
    format: str = "gexf",
) -> bytes:
    """Serialize the graph with community / betweenness / degree /
    title_frequency node attributes and edge weights, as UTF-8 XML in
    GEXF 1.2draft or GraphML, laid out as ElementTree writes it after ``indent``."""
    _check_same_nodes(graph, partition, scores)
    names, _, _ = _edge_ends(graph)
    if format not in ("gexf", "graphml"):
        raise DomainError(f"unsupported graph format {format!r} (gexf, graphml)")
    # Each name escaped once; ``_edge_ends`` checked every edge end is a node.
    escaped = {node: node.translate(XML_ATTRIB_ESCAPES) for node in names}
    # Each node's escaped name, then its values in _NODE_ATTRIBUTES order.
    nodes = [
        (
            name,
            str(partition.assignment[node]),
            repr(scores.betweenness[node]),
            str(scores.degree[node]),
            str(graph.node_frequency[node]),
        )
        for node, name in escaped.items()
    ]
    edges = [(escaped[u], escaped[v], w) for (u, v), w in sorted(graph.edges.items())]
    lines = (_gexf_lines if format == "gexf" else _graphml_lines)(nodes, edges)
    text = "\n".join(["<?xml version='1.0' encoding='utf-8'?>", *lines])
    return text.encode("utf-8", "xmlcharrefreplace")  # a lone surrogate as &#...;


def _gexf_lines(nodes, edges) -> list[str]:
    body = []
    for name, *values in nodes:
        body += [f'      <node id="{name}" label="{name}">', "        <attvalues>"]
        body += [f'          <attvalue for="{i}" value="{v}" />' for i, v in enumerate(values)]
        body += ["        </attvalues>", "      </node>"]
    edge_lines = [
        f'      <edge id="{i}" source="{u}" target="{v}" weight="{w}" />'
        for i, (u, v, w) in enumerate(edges)
    ]
    return [
        f'<gexf xmlns="{GEXF_NAMESPACE}" version="1.2">',
        '  <graph mode="static" defaultedgetype="undirected">',
        '    <attributes class="node">',
        *(
            f'      <attribute id="{i}" title="{title}" type="{kind}" />'
            for i, (title, kind, _) in enumerate(_NODE_ATTRIBUTES)
        ),
        "    </attributes>",
        *(["    <nodes>", *body, "    </nodes>"] if nodes else ["    <nodes />"]),
        *(["    <edges>", *edge_lines, "    </edges>"] if edges else ["    <edges />"]),
        "  </graph>",
        "</gexf>",
    ]


def _graphml_lines(nodes, edges) -> list[str]:
    keys = [(name, "node", kind) for name, _, kind in _NODE_ATTRIBUTES]
    lines = [f'<graphml xmlns="{GRAPHML_NAMESPACE}">'] + [
        f'  <key id="d_{name}" for="{domain}" attr.name="{name}" attr.type="{kind}" />'
        for name, domain, kind in [*keys, ("weight", "edge", "int")]
    ]
    graph = []  # the data values are numerals, with nothing to escape
    for name, *values in nodes:
        graph.append(f'    <node id="{name}">')
        graph += [f'      <data key="d_{a[0]}">{v}</data>' for a, v in zip(_NODE_ATTRIBUTES, values)]
        graph.append("    </node>")
    for u, v, w in edges:
        graph += [f'    <edge source="{u}" target="{v}">', f'      <data key="d_weight">{w}</data>']
        graph.append("    </edge>")
    start = '  <graph id="G" edgedefault="undirected"'
    lines += [f"{start}>", *graph, "  </graph>"] if graph else [f"{start} />"]
    return lines + ["</graphml>"]
