"""Title co-word semantic networks.

Nodes are content words; an edge links two words that appear together in at
least one title, weighted by the number of such titles.  Communities come
from greedy modularity optimization (local moves + aggregation, seeded node
order); mediation is measured with unweighted shortest-path betweenness.

A ``CoWordGraph`` checks its edge keys once, when it is built, and cannot
change after; both algorithms run on its one sorted-name CSR adjacency.
Edge weights are integer title counts, so every strength, aggregated weight
and half-weight self-loop is an exact float, whatever the summation order;
so is each node's kept weight into a neighboring community, which Louvain
updates as nodes move and which reads exactly 0.0 once no neighbor is left.
Brandes' BFS takes each level from the side with fewer nodes (Beamer,
Asanovic & Patterson 2012): it pushes from the frontier, or pulls from the
unreached nodes when fewer are left; both list the level's edges in the
queue's order, so every betweenness sum runs as in the single-source form.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ConsistencyError, DomainError, check_count
from .textproc import DEFAULT_TOKEN_POLICY, TokenPolicy, read_config_text, tokenize

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
    """Load a stopword list: one token per line, lowercased, ``#`` comments
    and blank lines ignored; invalid UTF-8 raises ConfigError naming the file."""
    lines = (line.strip().lower() for line in read_config_text(path).splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


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


@dataclass(frozen=True)
class CoWordGraph:
    """Undirected weighted co-word graph, read-only once built.

    node_frequency: token -> number of titles containing it.
    edges: (u, v) -> number of titles where both occur, one key per pair,
    with u < v and both nodes (as ``build_coword_graph`` emits them); any
    other key raises ConsistencyError, naming it, when the graph is built.
    Both are copied and held as read-only mappings, in the caller's key
    order.  Weights are stored as given; ``louvain_communities`` raises
    DomainError on one that is not a positive whole number.
    """

    node_frequency: Mapping[str, int]
    edges: Mapping[tuple[str, str], int]
    # Sorted node names, and each edge key's ids in them, in edges order.
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _heads: np.ndarray = field(init=False, repr=False, compare=False)
    _tails: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        node_frequency = MappingProxyType(dict(self.node_frequency))
        edges = MappingProxyType(dict(self.edges))
        names = tuple(sorted(node_frequency))
        index = dict(zip(names, range(len(names))))
        keys = list(edges)
        # Any other key reads as the self-loop (key, key), which the check rejects.
        pairs = chain.from_iterable(k if isinstance(k, tuple) and len(k) == 2 else (k, k) for k in keys)
        heads, tails = np.fromiter(map(index.get, pairs, repeat(-1)), np.intp).reshape(-1, 2).T
        # Ids follow name order, so u < v holds exactly when -1 < head < tail.
        bad = np.flatnonzero((heads < 0) | (heads >= tails))
        if bad.size:
            edge = keys[bad[0]]
            raise ConsistencyError(f"edge {edge!r} is not (u, v) with u < v, both graph nodes")
        # Frozen: the fields are set past __setattr__, as cached_property sets _csr.
        self.__dict__.update(
            node_frequency=node_frequency, edges=edges, _names=names, _heads=heads, _tails=tails
        )

    @property
    def nodes(self) -> set[str]:
        return set(self.node_frequency)

    def node_count(self) -> int:
        return len(self.node_frequency)

    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _csr(self):
        """``(names, indptr, indices, weights)``: node ``i`` is ``names[i]`` (sorted)
        and CSR row ``i`` lists its neighbors in ascending order, with float edge
        weights alongside.  Raises DomainError without nodes."""
        if not self.node_frequency:
            raise DomainError("the co-word graph has no nodes")
        names, heads, tails = self._names, self._heads, self._tails
        n, m = len(names), len(self.edges)
        weights = np.fromiter(self.edges.values(), float, m)
        # Both directions of every edge as row * n + column, in ascending order.
        codes = np.concatenate([heads * n + tails, tails * n + heads])
        order = np.argsort(codes)
        codes = codes[order]
        indptr = np.searchsorted(codes, np.arange(n + 1) * n)
        return names, indptr, codes % n, np.concatenate([weights, weights])[order]


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
    permutation of the titles.  ``titles`` is a sequence of titles, or a
    mapping from record id to title.  A title keeping more than 256 tokens
    raises DomainError naming its record id, or else its position counted
    from 1, and so does a ``min_title_frequency`` that is not an int >= 1.
    """
    check_count(policy.min_title_frequency, "min_title_frequency", 1)
    ids = list(titles) if isinstance(titles, Mapping) else None
    if ids is not None:
        titles = titles.values()
    token_sets = [set(tokenize(title, policy.token_policy)) for title in titles]
    if not token_sets:
        raise DomainError("cannot build a co-word graph from zero titles")
    node_frequency = Counter(chain.from_iterable(token_sets))
    stopwords = default_stopwords() if policy.stopwords is None else policy.stopwords
    names = sorted(
        t
        for t, f in node_frequency.items()
        if f >= policy.min_title_frequency and t not in stopwords and any(map(str.isalpha, t))
    )
    index = dict(zip(names, range(len(names))))
    kept = [sorted([index[t] for t in terms if t in index]) for terms in token_sets]
    sizes = np.fromiter(map(len, kept), np.intp, len(kept))
    if (over := np.flatnonzero(sizes > _MAX_TITLE_TERMS)).size:
        position = int(over[0])
        title = f"title {position + 1}" if ids is None else f"record {ids[position]!r}: title"
        raise DomainError(
            f"{title} keeps {sizes[position]} terms, past the cap of {_MAX_TITLE_TERMS}"
        )
    flat = np.fromiter(chain.from_iterable(kept), np.intp, int(sizes.sum()))
    # Term i pairs with the terms after it in its title, i + 1 up to the title's end.
    after = np.repeat(np.cumsum(sizes), sizes) - np.arange(flat.size) - 1
    first = np.repeat(np.arange(flat.size), after)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(after) - after, after)
    codes, counts = np.unique(flat[first] * len(names) + flat[second], return_counts=True)
    heads, tails = np.divmod(codes, max(len(names), 1))
    named = np.array(names, object)
    edges = dict(zip(zip(named[heads].tolist(), named[tails].tolist()), counts.tolist()))
    return CoWordGraph({t: node_frequency[t] for t in names}, edges)


# ---------------------------------------------------------------------------
# Modularity and community detection
# ---------------------------------------------------------------------------


def modularity(
    graph: CoWordGraph, assignment: dict[str, int], resolution: float = 1.0
) -> float:
    """Weighted modularity of a partition:
    Q = sum_c [ w_intra(c)/m - resolution * (strength(c)/(2m))^2 ].

    An edgeless graph has Q = 0 by convention.  Weights are summed in edge
    order and communities in order of first sight, as a loop over
    ``graph.edges`` would, so Q is that loop's float for any weights.
    Raises ConsistencyError on an unassigned node.
    """
    missing = graph.nodes - set(assignment)
    if missing:
        raise ConsistencyError(f"assignment misses nodes: {sorted(missing)[:5]}")
    labels = np.array([assignment[u] for u in graph._names], object)
    return _modularity(graph, np.unique(labels, return_inverse=True)[1], resolution)


def _modularity(graph: CoWordGraph, community, resolution: float) -> float:
    """``modularity`` with node ``i`` in name order in community ``community[i]``."""
    m = float(sum(graph.edges.values()))
    if m == 0:
        return 0.0
    ends = community[np.column_stack([graph._heads, graph._tails]).ravel()]
    weights = np.fromiter(graph.edges.values(), float, len(graph.edges))
    same = ends[0::2] == ends[1::2]
    strength = np.bincount(ends, np.repeat(weights, 2)).tolist()
    intra = np.bincount(ends[0::2][same], weights[same], len(strength)).tolist()
    q = 0.0
    for c in dict.fromkeys(ends.tolist()):
        q += intra[c] / m - resolution * (strength[c] / (2.0 * m)) ** 2
    return q


def _check_resolution(resolution: float, name: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``resolution`` is an int or a
    float, not a bool, finite and >= 0."""
    number = isinstance(resolution, (int, float)) and not isinstance(resolution, bool)
    if not number or not 0 <= resolution <= sys.float_info.max:  # False for nan
        raise error(f"{name} must be finite and >= 0, got {resolution!r}")


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

    Like ``betweenness``, it runs on the graph's sorted-name CSR; integer
    edge weights keep every gain exact, whatever the summation order.
    Each node's weight into each neighboring community is kept up to date
    as nodes move, not summed again per visit; being exact, an entry reads
    exactly 0.0 when its last neighbor leaves and is deleted, so the
    candidates stay the neighbors' communities plus the node's own.  A
    weight that is not a positive whole number raises DomainError naming
    the first such edge key in name order.  A resolution that is not an int
    or a float (a bool included) or not finite and >= 0, or a seed that is
    not an int >= 0 (a bool or a numpy integer included), raises DomainError
    too.

    Community ids in the result are canonical: numbered by decreasing
    community size, ties by lexicographically smallest member.
    """
    _check_resolution(resolution, "resolution", DomainError)
    check_count(seed, "seed")
    names, indptr, indices, weights = csr = graph._csr
    # Each weight sits in both of its ends' rows; the first fault in CSR
    # order is in the smaller end's row, so (row, column) is its edge key.
    whole = np.isfinite(weights) & (weights > 0) & (np.floor(weights) == weights)
    faults = np.flatnonzero(~whole)
    if faults.size:
        row = int(np.searchsorted(indptr, faults[0], side="right")) - 1
        edge = names[row], names[indices[faults[0]]]
        weight = graph.edges[edge]
        raise DomainError(f"edge {edge!r} has weight {weight!r}, not a positive whole number")
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
    roots = _split_disconnected(node_of, *csr[1:3])

    # Canonical ids: by decreasing size, ties by smallest member (root) name.
    smallest, inverse, size = np.unique(roots, return_inverse=True, return_counts=True)
    community = np.argsort(np.lexsort((smallest, -size)))[inverse]
    q = _modularity(graph, community, 1.0)
    return CommunityPartition(assignment=dict(zip(names, community.tolist())), modularity_q=q)


def _split_disconnected(comm, indptr, indices) -> np.ndarray:
    """The smallest member of each node's connected component over the
    edges inside its community of ``comm``."""
    rows = np.repeat(np.arange(comm.size), np.diff(indptr))
    intra = comm[rows] == comm[indices]
    intra_indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[intra], minlength=comm.size))))
    return _component_roots(intra_indptr, indices[intra])


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
    # links[u]: community -> u's edge weight into it, updated as nodes move.
    # Every node starts alone, and no row repeats a neighbor.
    links = [dict(zip(nbr[a:b], wt[a:b])) for a, b in zip(ptr, ptr[1:])]

    moved = True
    while moved:
        moved = False
        for u in order:
            current = comm[u]
            link, k = links[u], strength[u]
            comm_tot[current] -= k

            # Larger gain, then smaller id: a total order, whatever the scan order.
            best_comm = current
            best_gain = link.get(current, 0.0) - resolution * comm_tot[current] * k / m2
            for candidate, weight in link.items():
                gain = weight - resolution * comm_tot[candidate] * k / m2
                if gain > best_gain or (gain == best_gain and candidate < best_comm):
                    best_comm, best_gain = candidate, gain

            comm_tot[best_comm] += k
            if best_comm != current:
                comm[u] = best_comm
                moved = True
                a, b = ptr[u], ptr[u + 1]
                for v, w in zip(nbr[a:b], wt[a:b]):
                    other = links[v]
                    left = other.pop(current) - w
                    if left:  # exact: 0.0 only when no neighbor of v is left there
                        other[current] = left
                    other[best_comm] = other.get(best_comm, 0.0) + w

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
# directed edges within it.  2^16 measured faster than 2^15 on all three
# benchmark workloads.  Larger caps were faster still on the dense one, but
# test_betweenness_bit_identical_on_dense_graph_in_batches needs two
# sources' directed edges (4 x E = 67,504) above the cap, and 2^18 cost about
# 2 MB more peak RSS.
_BATCH_ELEMENTS = 1 << 16
_UNREACHED = np.iinfo(np.intp).max


def betweenness(graph: CoWordGraph) -> CentralityScores:
    """Unweighted shortest-path betweenness, each unordered node pair
    counted once; degrees reported alongside.

    Brandes' algorithm on the graph's CSR adjacency, a batch of sources at a
    time.  A source's BFS stops once it has reached every node of its
    connected component, and its own dependency is never accumulated: the
    levels skipped hold no predecessor edge.  The backward pass takes each
    level in decreasing discovery rank of the edges' tails, the stack's
    popping order; edges that tie share a tail, so they feed different
    heads.  Each forward level pushes from its frontier, or pulls when the
    unreached nodes of the batch's components are fewer than the frontier's
    nodes (direction-optimizing BFS).  Every floating-point sum runs in the
    order of the single-source queue/stack form, which visits neighbors in
    ascending name order, so the scores are bit-identical to it.
    """
    names, indptr, indices, _ = graph._csr
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
    """The smallest node id of each node's connected component, by hooking
    and shortcutting (Shiloach & Vishkin 1982): each round, every edge that
    joins two trees hooks the larger root under the smaller, then pointer
    jumping flattens each tree onto its root, its smallest node.  Every two
    rounds at least halve the trees that still touch another."""
    parent = np.arange(indptr.size - 1)
    heads = np.repeat(parent, np.diff(indptr))
    while True:
        a, b = parent[heads], parent[indices]
        if np.array_equal(a, b):
            return parent
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand


def _dependencies(sources, indptr, indices, component_size) -> np.ndarray:
    """Brandes dependencies of every node on each of ``sources``, one row
    per source; a source's dependency on itself is 0, never accumulated.

    Node ``v`` of row ``r`` is addressed as ``r * n + v``.  The BFS of all
    rows advances one level per step; ``rank`` marks reached nodes, holding
    for each the index in its level of the edge that discovered it (0 for a
    source).  Row ``r`` leaves the frontier once it has reached
    ``component_size[r]`` nodes, its source's whole component: every edge
    out of it then ends at a reached node, so no predecessor edge is lost.
    The first level's predecessor edges all start at a source, so the
    backward pass skips them.  Both cuts leave every sum, and its order, as
    in the single-source form.

    A level's predecessor edges run from the frontier to an unreached node.
    The level pushes, expanding the frontier's rows, unless the active rows
    hold fewer unreached nodes (``to_reach.sum()``, kept as a Python int)
    than the frontier holds nodes; then it pulls, expanding the rows of the
    active rows' unreached nodes and keeping the edges from the frontier.
    Node counts stand in for the edges each side would scan, with no tuned
    constant.  Unreached nodes ascend and each lists its neighbors in
    ascending order, so a stable sort on the head's frontier position puts
    the pulled edges in the push's order: row, BFS position of the head,
    then ascending tail.  Ranks, sigma and every later sum are the same in
    either direction.

    A tail's discovery rank, the index of the edge that discovered it,
    rises with BFS position, so a stable argsort of ``size - 1 - rank``
    gives the stack's popping order; held in the narrowest unsigned dtype,
    a key of up to 16 bits is radix sorted.  Edges that tie share a tail,
    so they feed different heads, and their order changes no sum.
    """
    n = indptr.size - 1
    rows = sources.size
    frontier = np.arange(rows) * n + sources
    rank = np.full(rows * n, _UNREACHED)
    rank[frontier] = 0
    sigma = np.zeros(rows * n)
    sigma[frontier] = 1.0
    to_reach = component_size.copy()
    unreached_count = int(component_size.sum())
    levels = []
    while True:
        row = frontier // n
        to_reach -= np.bincount(row, minlength=rows)
        unreached_count -= frontier.size
        frontier = frontier[to_reach[row] > 0]
        if not frontier.size:
            break
        # The next level's predecessor edges, frontier to unreached node, in
        # the queue's visiting order: row, BFS position of the head, then
        # ascending tail.
        if unreached_count < frontier.size:
            # Pull; a stable sort on the head's frontier position gives that order.
            unreached = np.flatnonzero(rank == _UNREACHED)
            unreached = unreached[to_reach[unreached // n] > 0]
            position = np.full(rows * n, frontier.size)
            position[frontier] = np.arange(frontier.size)
            head, counts = _expand(unreached, indptr, indices)
            key = position[head]
            keep = np.flatnonzero(key < frontier.size)
            key = key[keep].astype(np.min_scalar_type(frontier.size))
            keep = keep[np.argsort(key, kind="stable")]
            head = head[keep]
            tail = np.repeat(unreached, counts)[keep]
        else:
            # Push, in that order already.
            tail, counts = _expand(frontier, indptr, indices)
            keep = np.flatnonzero(rank[tail] == _UNREACHED)
            head = np.repeat(frontier, counts)[keep]
            tail = tail[keep]
        # The first of them into a node discovers it.
        seen = np.arange(tail.size)
        np.minimum.at(rank, tail, seen)
        first = rank[tail]
        frontier = tail[first == seen]
        np.add.at(sigma, tail, sigma[head])
        # The backward pass's sort key: the tail's rank from the level's end.
        key = (tail.size - 1 - first).astype(np.min_scalar_type(tail.size - 1))
        levels.append((head, tail, key))

    delta = np.zeros(rows * n)
    for head, tail, key in reversed(levels[1:]):
        # Successors in decreasing BFS position: the stack's popping order.
        order = np.argsort(key, kind="stable")
        head, tail = head[order], tail[order]
        np.add.at(delta, head, sigma[head] / sigma[tail] * (1.0 + delta[tail]))
    return delta.reshape(rows, n)


# ---------------------------------------------------------------------------
# Cluster summaries
# ---------------------------------------------------------------------------


_SUMMARIZED_CLUSTERS = 3


@dataclass(frozen=True)
class ClusterInfo:
    community_id: int
    size: int
    node_share_pct: float
    label_tokens: tuple[str, ...]
    top_betweenness_token: str


@dataclass(frozen=True)
class ClusterSummary:
    """The largest clusters by node count, with degree-based labels, plus
    the graph-wide highest-betweenness token."""

    clusters: tuple[ClusterInfo, ...]
    total_clusters: int
    total_nodes: int
    top_betweenness_token: str


def cluster_summary(
    graph: CoWordGraph, partition: CommunityPartition, scores: CentralityScores
) -> ClusterSummary:
    """Summarize the three most crowded clusters, or all if there are fewer.

    Clusters are ranked by node count (ties by smallest community id);
    per-cluster labels are the top-3 nodes by degree (ties lexicographic).
    """
    _check_same_nodes(graph, partition, scores)
    total = graph.node_count()
    members: dict[int, list[str]] = defaultdict(list)
    for node, community in partition.assignment.items():
        members[community].append(node)

    ranked = sorted(members.items(), key=lambda item: (-len(item[1]), item[0]))
    infos = []
    for community, nodes in ranked[:_SUMMARIZED_CLUSTERS]:
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

# What XML 1.0 forbids in a document: the C0 controls other than tab, LF
# and CR, and U+FFFE and U+FFFF.
_NOT_XML = frozenset([*map(chr, range(32)), "\ufffe", "\uffff"]) - set("\t\n\r")


def xml_text_fault(text: str) -> str | None:
    """Why ``text`` cannot be written in an XML document (a node name, or
    SVG text), or None."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "is not valid UTF-8"
    return "holds a character XML 1.0 forbids" if _NOT_XML.intersection(text) else None


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
    GEXF 1.2draft or GraphML, laid out as ElementTree writes it after ``indent``.
    Raises DomainError for a node name that XML cannot hold."""
    if format not in ("gexf", "graphml"):
        raise DomainError(f"unsupported graph format {format!r} (gexf, graphml)")
    return _export_graph(graph, partition, scores)(format)


def _export_graph(graph, partition, scores):
    """The function that renders ``export_graph``'s bytes in a given format,
    from rows escaped once for every format."""
    _check_same_nodes(graph, partition, scores)
    names = graph._names
    for node in names:
        if fault := xml_text_fault(node):
            raise DomainError(f"graph node {node!r} {fault}")
    escaped = [node.translate(XML_ATTRIB_ESCAPES) for node in names]
    # Each node's escaped name, then its values in _NODE_ATTRIBUTES order.
    community, between, degree = partition.assignment, scores.betweenness, scores.degree
    nodes = [
        (name, str(community[u]), repr(between[u]), str(degree[u]), str(graph.node_frequency[u]))
        for u, name in zip(names, escaped)
    ]
    # Edges in key order, as sorted(graph.edges) would list them: ids follow name order.
    order = np.lexsort((graph._tails, graph._heads)).tolist()
    heads, tails, weights = graph._heads.tolist(), graph._tails.tolist(), list(graph.edges.values())
    edges = [(escaped[heads[i]], escaped[tails[i]], weights[i]) for i in order]
    head = "<?xml version='1.0' encoding='utf-8'?>"
    writers = {"gexf": _gexf_lines, "graphml": _graphml_lines}
    return lambda fmt: "\n".join([head, *writers[fmt](nodes, edges)]).encode("utf-8")


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
