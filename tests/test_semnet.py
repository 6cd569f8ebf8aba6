import dataclasses
import itertools
import re
import string
from collections import Counter, defaultdict, deque
from collections.abc import Mapping
from unittest import mock
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexigauge import cli, semnet
from lexigauge.errors import ConfigError, ConsistencyError, DomainError
from lexigauge.ingest import parse_bibliographic_csv
from lexigauge.report import AnalysisConfig, analyze_network
from lexigauge.semnet import (
    _NODE_ATTRIBUTES,
    GEXF_NAMESPACE,
    GRAPHML_NAMESPACE,
    CentralityScores,
    CommunityPartition,
    CoWordGraph,
    GraphPolicy,
    betweenness,
    build_coword_graph,
    cluster_summary,
    default_stopwords,
    export_graph,
    load_stopwords,
    louvain_communities,
    modularity,
)
from lexigauge.textproc import tokenize
from oracles import brute_force_betweenness


def graph_from_edges(edges: dict, extra_nodes=()) -> CoWordGraph:
    freq = Counter()
    for (u, v), w in edges.items():
        freq[u] = max(freq[u], w)
        freq[v] = max(freq[v], w)
    for node in extra_nodes:
        freq.setdefault(node, 1)
    return CoWordGraph(
        node_frequency=dict(freq),
        edges={tuple(sorted(k)): w for k, w in edges.items()},
    )


def neighbor_weights(graph: CoWordGraph) -> dict[str, dict[str, int]]:
    """Each node's neighbors with their edge weights, in node and then edge
    order: the dict-of-dicts view the oracles walk."""
    adjacency = {node: {} for node in graph.node_frequency}
    for (u, v), w in graph.edges.items():
        adjacency[u][v] = w
        adjacency[v][u] = w
    return adjacency


TRIANGLES = graph_from_edges(
    {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("d", "e"): 1, ("d", "f"): 1, ("e", "f"): 1}
)


@st.composite
def random_graphs(draw, max_weight=1, max_nodes=30):
    """Graphs over 1 to ``max_nodes`` random names whose sorted order differs
    from their drawing order; edge density from none to complete, so
    isolated nodes and several components are common.  Edge weights are 1
    to ``max_weight``."""
    names = draw(
        st.lists(st.text("abcdefghij", min_size=1, max_size=3), min_size=1, max_size=max_nodes,
                 unique=True)
    )
    pairs = list(itertools.combinations(sorted(names), 2))
    threshold = draw(st.integers(0, 10))
    draws = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair: 1 for pair, d in zip(pairs, draws) if d < threshold}
    if max_weight > 1:
        weights = draw(st.lists(st.integers(1, max_weight), min_size=len(edges), max_size=len(edges)))
        edges = dict(zip(edges, weights))
    return CoWordGraph(node_frequency={name: 1 for name in names}, edges=edges)


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def test_build_direct_example():
    graph = build_coword_graph(
        ["alpha beta", "alpha gamma"], GraphPolicy(min_title_frequency=1)
    )
    assert graph.nodes == {"alpha", "beta", "gamma"}
    assert graph.edges == {("alpha", "beta"): 1, ("alpha", "gamma"): 1}
    assert graph.node_frequency == {"alpha": 2, "beta": 1, "gamma": 1}


def test_build_deduplicates_within_title():
    graph = build_coword_graph(["alpha alpha beta"], GraphPolicy(min_title_frequency=1))
    assert graph.edges == {("alpha", "beta"): 1}
    assert graph.node_frequency["alpha"] == 1


def test_build_removes_stopwords_and_numerals():
    graph = build_coword_graph(
        ["the alpha and beta of 2020"], GraphPolicy(min_title_frequency=1)
    )
    assert graph.nodes == {"alpha", "beta"}


def test_build_prunes_below_min_title_frequency():
    titles = ["alpha beta", "alpha beta", "alpha gamma"]
    graph = build_coword_graph(titles, GraphPolicy(min_title_frequency=2))
    assert graph.nodes == {"alpha", "beta"}
    assert graph.edges == {("alpha", "beta"): 2}


@pytest.mark.parametrize("frequency,rule", [(0, "positive"), (-3, "positive"),
                                            (True, "an integer"), (2.5, "an integer")])
def test_build_rejects_a_min_title_frequency_that_is_not_a_positive_int(frequency, rule):
    # Unchecked, any frequency below 1 would prune nothing, as 1 does.
    message = rf"^min_title_frequency must be {rule}, got {frequency!r}$"
    with pytest.raises(DomainError, match=message):
        build_coword_graph(["alpha beta"], GraphPolicy(min_title_frequency=frequency))


def test_build_order_invariant():
    titles = [
        "alpha beta gamma",
        "beta delta process",
        "gamma delta alpha",
        "process alpha beta",
    ]
    base = build_coword_graph(titles, GraphPolicy(min_title_frequency=1))
    for perm in itertools.permutations(titles):
        other = build_coword_graph(list(perm), GraphPolicy(min_title_frequency=1))
        assert other.node_frequency == base.node_frequency
        assert other.edges == base.edges


def test_build_empty_input_raises():
    with pytest.raises(DomainError):
        build_coword_graph([])


def test_build_edge_weight_bounded_by_node_frequency():
    rng = np.random.default_rng(17)
    vocab = ["kiln", "ore", "smelt", "flux", "ingot", "slag"]
    titles = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 5), replace=False))
        for _ in range(60)
    ]
    graph = build_coword_graph(titles, GraphPolicy(min_title_frequency=1))
    for (u, v), w in graph.edges.items():
        assert w <= min(graph.node_frequency[u], graph.node_frequency[v])


def test_build_matches_naive_pairwise_oracle():
    rng = np.random.default_rng(18)
    topic_a = ["steel", "alloy", "furnace", "casting", "rolling"]
    topic_b = ["poetry", "meter", "rhyme", "stanza", "verse"]
    titles = []
    for _ in range(25):
        titles.append(" ".join(rng.choice(topic_a, size=3, replace=False)))
        titles.append(" ".join(rng.choice(topic_b, size=3, replace=False)))

    # naive O(titles * tokens^2) counting oracle over the same token rule
    stop = default_stopwords()
    node_oracle: Counter = Counter()
    edge_oracle: Counter = Counter()
    for title in titles:
        toks = sorted(
            {t for t in title.lower().split() if t not in stop and t.isalpha()}
        )
        node_oracle.update(toks)
        for i in range(len(toks)):
            for j in range(i + 1, len(toks)):
                edge_oracle[(toks[i], toks[j])] += 1

    graph = build_coword_graph(titles, GraphPolicy(min_title_frequency=1))
    assert graph.node_frequency == dict(node_oracle)
    assert graph.edges == dict(edge_oracle)


def pair_then_prune(titles, min_title_frequency):
    """The co-word graph built the naive way: count every pair of a title's
    content tokens, then drop the pairs that touch a pruned token."""
    stop = default_stopwords()
    nodes, pairs = Counter(), Counter()
    for title in titles:
        terms = sorted({t for t in tokenize(title) if t not in stop and any(map(str.isalpha, t))})
        nodes.update(terms)
        pairs.update(itertools.combinations(terms, 2))
    keep = {t for t, f in nodes.items() if f >= min_title_frequency}
    return (
        {t: nodes[t] for t in sorted(keep)},
        {(u, v): w for (u, v), w in sorted(pairs.items()) if u in keep and v in keep},
    )


_TITLE_WORDS = ["team", "Team", "process", "change", "firm", "the", "of", "and", "2020",
                "3d", "co-word", "self-efficacy", "e.g.", "leadership"]


@settings(max_examples=300, deadline=None)
@given(
    # A few distinct titles, each drawn again and again: repeated titles.
    titles=st.lists(
        st.lists(st.sampled_from(_TITLE_WORDS), max_size=8).map(" ".join), min_size=1, max_size=6
    ).flatmap(lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=12)),
    min_title_frequency=st.integers(1, 4),
)
def test_build_prunes_then_pairs_like_the_pair_then_prune_oracle(titles, min_title_frequency):
    graph = build_coword_graph(titles, GraphPolicy(min_title_frequency=min_title_frequency))
    nodes, edges = pair_then_prune(titles, min_title_frequency)
    assert list(graph.node_frequency.items()) == list(nodes.items())
    assert list(graph.edges.items()) == list(edges.items())


def test_build_caps_the_kept_terms_of_one_title():
    words = ["zq" + a + b for a, b in itertools.product(string.ascii_lowercase, repeat=2)]
    at_cap, over_cap = " ".join(words[:256]), " ".join(words[:257])
    assert build_coword_graph([at_cap, at_cap]).edge_count() == 256 * 255 // 2
    # A repeated title keeps every term; 257 of them would make 32,896 edges.
    with pytest.raises(DomainError, match=r"^title 3 keeps 257 terms, past the cap of 256$"):
        build_coword_graph(["team process", "team change", over_cap, over_cap])
    # A lone long title keeps none of its terms, so it is pruned, not rejected.
    assert build_coword_graph(["team process", "team change", over_cap]).nodes == {"team"}


def test_build_from_record_ids_names_an_over_cap_title_by_its_id():
    words = ["zq" + a + b for a, b in itertools.product(string.ascii_lowercase, repeat=2)]
    over_cap = " ".join(words[:257])
    titles = {"p1": "team process", "p2": "team change", "x": over_cap, "y": over_cap + " team"}
    message = r"^record 'x': title keeps 257 terms, past the cap of 256$"
    with pytest.raises(DomainError, match=message):
        build_coword_graph(titles)
    del titles["y"]
    assert build_coword_graph(titles) == build_coword_graph(list(titles.values()))


def counter_build(titles, policy: GraphPolicy) -> CoWordGraph:
    """The tuple-Counter build that the integer-code build replaced, kept as
    its oracle: it counts each title's sorted pairs of kept terms as
    ``(u, v)`` keys, then sorts the keys."""
    ids = list(titles) if isinstance(titles, Mapping) else None
    if ids is not None:
        titles = titles.values()
    token_sets = [set(tokenize(title, policy.token_policy)) for title in titles]
    if not token_sets:
        raise DomainError("cannot build a co-word graph from zero titles")
    node_frequency = Counter(itertools.chain.from_iterable(token_sets))
    stopwords = default_stopwords() if policy.stopwords is None else policy.stopwords
    keep = {
        t
        for t, f in node_frequency.items()
        if f >= policy.min_title_frequency and t not in stopwords and any(map(str.isalpha, t))
    }
    edges: Counter = Counter()
    for position, terms in enumerate(token_sets):
        kept = sorted(terms & keep)
        if len(kept) > 256:
            title = f"title {position + 1}" if ids is None else f"record {ids[position]!r}: title"
            raise DomainError(f"{title} keeps {len(kept)} terms, past the cap of 256")
        edges.update(itertools.combinations(kept, 2))
    return CoWordGraph(
        node_frequency={t: node_frequency[t] for t in sorted(keep)},
        edges=dict(sorted(edges.items())),
    )


_ZQ_WORDS = ["zq" + a + b for a, b in itertools.product(string.ascii_lowercase, repeat=2)]
_OVER_CAP = " ".join(_ZQ_WORDS[:257])  # one term past the cap


@settings(max_examples=300, deadline=None)
@given(
    # A few distinct titles, each drawn again and again, so words repeat
    # across titles; a title may keep no word at all.
    titles=st.lists(
        st.lists(st.sampled_from(_TITLE_WORDS + ["team's", "-", "x"]), max_size=8).map(" ".join),
        min_size=1,
        max_size=6,
    ).flatmap(lambda distinct: st.lists(st.sampled_from(distinct), max_size=12)),
    min_title_frequency=st.integers(1, 3),
    by_id=st.booleans(),
)
@example(titles=["the of and", "2020", ""], min_title_frequency=1, by_id=False)
@example(titles=["team", "the team", "2020"], min_title_frequency=1, by_id=True)
@example(titles=["team process", _OVER_CAP, _OVER_CAP], min_title_frequency=2, by_id=True)
@example(titles=["team process", _OVER_CAP, _OVER_CAP], min_title_frequency=2, by_id=False)
def test_integer_build_equals_the_counter_oracle(titles, min_title_frequency, by_id):
    if by_id:
        titles = {f"r{position}": title for position, title in enumerate(titles)}
    policy = GraphPolicy(min_title_frequency=min_title_frequency)
    try:
        expected = counter_build(titles, policy)
    except DomainError as error:
        with pytest.raises(DomainError, match=f"^{re.escape(str(error))}$"):
            build_coword_graph(titles, policy)
        return
    graph = build_coword_graph(titles, policy)
    assert list(graph.node_frequency.items()) == list(expected.node_frequency.items())
    assert list(graph.edges.items()) == list(expected.edges.items())
    assert all(type(w) is int for w in graph.edges.values())


# ---------------------------------------------------------------------------
# Modularity + Louvain
# ---------------------------------------------------------------------------


def independent_modularity(graph: CoWordGraph, assignment: dict) -> float:
    """Matrix evaluation of Q, independent of the implementation route."""
    nodes = sorted(graph.node_frequency)
    index = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for (u, v), w in graph.edges.items():
        A[index[u], index[v]] = w
        A[index[v], index[u]] = w
    two_m = A.sum()
    if two_m == 0:
        return 0.0
    k = A.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[nodes[i]] == assignment[nodes[j]]:
                q += A[i, j] - k[i] * k[j] / two_m
    return q / two_m


def all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield partition + [[first]]


def test_louvain_two_triangles():
    result = louvain_communities(TRIANGLES, seed=5)
    assert result.community_count() == 2
    assert len({result.assignment[c] for c in "abc"}) == 1
    assert len({result.assignment[c] for c in "def"}) == 1
    assert result.modularity_q == pytest.approx(0.5, abs=1e-9)


def test_louvain_single_edge():
    graph = graph_from_edges({("a", "b"): 1})
    result = louvain_communities(graph, seed=0)
    assert result.community_count() == 1
    assert result.modularity_q == pytest.approx(0.0, abs=1e-12)


def test_louvain_k4_single_community_is_global_optimum():
    nodes = ["a", "b", "c", "d"]
    graph = graph_from_edges(
        {(u, v): 1 for u, v in itertools.combinations(nodes, 2)}
    )
    result = louvain_communities(graph, seed=1)
    assert result.community_count() == 1

    best = max(
        independent_modularity(
            graph, {node: i for i, block in enumerate(p) for node in block}
        )
        for p in all_set_partitions(nodes)
    )
    assert result.modularity_q == pytest.approx(best, abs=1e-12)


def test_louvain_deterministic_per_seed():
    for seed in [0, 3, 11]:
        first = louvain_communities(TRIANGLES, seed=seed)
        second = louvain_communities(TRIANGLES, seed=seed)
        assert first.assignment == second.assignment
        assert first.modularity_q == second.modularity_q


def test_louvain_reported_q_recomputable():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {
            (u, v): int(rng.integers(1, 4))
            for u, v in itertools.combinations(nodes, 2)
            if rng.random() < 0.35
        }
        if not edges:
            continue
        graph = graph_from_edges(edges, extra_nodes=nodes)
        result = louvain_communities(graph, seed=int(rng.integers(100)))
        assert independent_modularity(graph, result.assignment) == pytest.approx(
            result.modularity_q, abs=1e-9
        )
        assert modularity(graph, result.assignment) == pytest.approx(
            result.modularity_q, abs=1e-12
        )


def test_louvain_beats_singleton_partition():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {
            (u, v): int(rng.integers(1, 3))
            for u, v in itertools.combinations(nodes, 2)
            if rng.random() < 0.4
        }
        if not edges:
            continue
        graph = graph_from_edges(edges, extra_nodes=nodes)
        result = louvain_communities(graph, seed=7)
        singletons = {node: i for i, node in enumerate(sorted(graph.nodes))}
        assert result.modularity_q >= modularity(graph, singletons) - 1e-12


def test_louvain_every_node_assigned_exactly_once():
    result = louvain_communities(TRIANGLES, seed=2)
    assert set(result.assignment) == TRIANGLES.nodes


def test_louvain_empty_graph_raises():
    with pytest.raises(DomainError):
        louvain_communities(CoWordGraph(node_frequency={}, edges={}))


def test_modularity_formula_on_hand_cases():
    assert modularity(TRIANGLES, {c: 0 for c in "abc"} | {c: 1 for c in "def"}) == (
        pytest.approx(0.5, abs=1e-12)
    )
    edge = graph_from_edges({("a", "b"): 1})
    assert modularity(edge, {"a": 0, "b": 0}) == pytest.approx(0.0, abs=1e-12)
    assert modularity(edge, {"a": 0, "b": 1}) == pytest.approx(-0.5, abs=1e-12)


def test_modularity_rejects_an_unassigned_node():
    with pytest.raises(ConsistencyError, match=r"^assignment misses nodes: \['d', 'f'\]$"):
        modularity(TRIANGLES, dict.fromkeys("abce", 0))


def dict_louvain_communities(
    graph: CoWordGraph, resolution: float = 1.0, seed: int = 0
) -> CommunityPartition:
    """Louvain over a name-indexed list of neighbor dicts, with nested-loop
    aggregation: the form the CSR implementation must reproduce."""
    names = sorted(graph.node_frequency)
    index = {name: i for i, name in enumerate(names)}
    adj = [dict() for _ in names]
    for (u, v), w in graph.edges.items():
        adj[index[u]][index[v]] = float(w)
        adj[index[v]][index[u]] = float(w)
    neighbors = adj
    self_w = [0.0] * len(names)
    rng = np.random.Generator(np.random.PCG64(seed))
    node_of = list(range(len(names)))
    while True:
        level_n = len(adj)
        comm = _dict_local_moves(adj, self_w, resolution, rng)
        n_comms = max(comm) + 1
        node_of = [comm[node] for node in node_of]
        if n_comms == level_n:
            break
        adj, self_w = _dict_aggregate(adj, self_w, comm, n_comms)
    # Split each last-level community into its connected components over its
    # own edges: a BFS from each node not yet reached, in name order.
    root_of = [-1] * len(names)
    for root in range(len(names)):
        if root_of[root] < 0:
            root_of[root] = root
            queue = [root]
            for u in queue:
                for v in neighbors[u]:
                    if root_of[v] < 0 and node_of[v] == node_of[u]:
                        root_of[v] = root
                        queue.append(v)
    members = defaultdict(list)
    for name, root in zip(names, root_of):
        members[root].append(name)
    ordered = sorted(members.values(), key=lambda ms: (-len(ms), min(ms)))
    assignment = {name: new_id for new_id, ms in enumerate(ordered) for name in ms}
    return CommunityPartition(assignment=assignment, modularity_q=modularity(graph, assignment))


def _dict_local_moves(adj, self_w, resolution, rng):
    n = len(adj)
    strength = [sum(adj[u].values()) + 2.0 * self_w[u] for u in range(n)]
    m2 = sum(strength)
    comm = list(range(n))
    if m2 == 0.0:
        return comm
    comm_tot = strength.copy()
    order = [int(i) for i in rng.permutation(n)]
    while True:
        moved = 0
        for u in order:
            current = comm[u]
            weight_to = defaultdict(float)
            for v, w in adj[u].items():
                weight_to[comm[v]] += w
            comm_tot[current] -= strength[u]
            best_comm = current
            best_gain = weight_to.get(current, 0.0) - resolution * comm_tot[current] * strength[u] / m2
            for candidate in sorted(weight_to):
                gain = weight_to[candidate] - resolution * comm_tot[candidate] * strength[u] / m2
                if gain > best_gain or (gain == best_gain and candidate < best_comm):
                    best_gain = gain
                    best_comm = candidate
            comm_tot[best_comm] += strength[u]
            if best_comm != current:
                comm[u] = best_comm
                moved += 1
        if moved == 0:
            break
    relabel = {}
    for c in comm:
        relabel.setdefault(c, len(relabel))
    return [relabel[c] for c in comm]


def _dict_aggregate(adj, self_w, comm, n_comms):
    new_adj = [defaultdict(float) for _ in range(n_comms)]
    new_self = [0.0] * n_comms
    for u in range(len(adj)):
        cu = comm[u]
        new_self[cu] += self_w[u]
        for v, w in adj[u].items():
            if comm[v] == cu:
                new_self[cu] += w / 2.0  # seen from both endpoints
            else:
                new_adj[cu][comm[v]] += w
    return [dict(d) for d in new_adj], new_self


@settings(max_examples=300, deadline=None)
@given(
    graph=random_graphs(max_weight=5),
    resolution=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    seed=st.integers(0, 50),
)
@example(graph=CoWordGraph(node_frequency={"solo": 1}, edges={}), resolution=1.0, seed=0)
@example(graph=TRIANGLES, resolution=1.0, seed=5)
# First-level communities whose first appearances are not in sorted-id order.
@example(
    graph=graph_from_edges(
        {("a", "aa"): 1, ("a", "aaa"): 1, ("a", "ab"): 1, ("a", "b"): 1, ("a", "c"): 1,
         ("a", "d"): 1, ("a", "e"): 1, ("aaa", "d"): 4, ("ab", "ac"): 5, ("ab", "ad"): 5},
        extra_nodes=["f", "g", "h"],
    ),
    resolution=0.1,
    seed=5,
)
# A last level that leaves c and d, whose only neighbor is aaa, in one community.
@example(
    graph=graph_from_edges(
        {("a", "aa"): 1, ("aaa", "ab"): 3, ("aaa", "c"): 1, ("aaa", "d"): 1},
        extra_nodes="abcdef",
    ),
    resolution=2.0,
    seed=11,
)
# A path on which d leaves its own community for e's: f's kept weight into d's
# old, now empty community must be dropped, not held at 0.0, or f joins that
# community on the tie toward the smaller id.
@example(
    graph=graph_from_edges({("a", "b"): 2, ("b", "e"): 2, ("d", "e"): 3, ("d", "f"): 1}),
    resolution=2.0,
    seed=48,
)
def test_louvain_identical_to_dict_louvain(graph, resolution, seed):
    result = louvain_communities(graph, resolution=resolution, seed=seed)
    oracle = dict_louvain_communities(graph, resolution=resolution, seed=seed)
    assert result.assignment == oracle.assignment
    assert repr(result.modularity_q) == repr(oracle.modularity_q)


@pytest.mark.parametrize("resolution", [0.1, 0.5, 1.0, 2.0])
def test_louvain_identical_to_dict_louvain_on_seeded_graphs(resolution):
    for graph in [*oracle_graphs(), dense_graph(n=150)]:
        for seed in range(3):
            result = louvain_communities(graph, resolution=resolution, seed=seed)
            oracle = dict_louvain_communities(graph, resolution=resolution, seed=seed)
            assert result.assignment == oracle.assignment
            assert repr(result.modularity_q) == repr(oracle.modularity_q)


@settings(max_examples=300, deadline=None)
@given(
    graph=random_graphs(max_weight=5, max_nodes=40),
    resolution=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    seed=st.integers(0, 50),
)
@example(graph=TRIANGLES, resolution=0.1, seed=5)
# A last level that leaves cd, ce and cf, whose only neighbor is aaa, in one
# community: three pieces.
@example(
    graph=graph_from_edges(
        {("a", "aa"): 1, ("aaa", "ab"): 6, ("aaa", "cc"): 1, ("aaa", "cd"): 1,
         ("aaa", "ce"): 1, ("aaa", "cf"): 1},
        extra_nodes="abcdef",
    ),
    resolution=1.5,
    seed=17,
)
def test_louvain_communities_are_connected(graph, resolution, seed):
    # Louvain can leave a community internally disconnected (Traag, Waltman
    # & van Eck 2019, "From Louvain to Leiden"); louvain_communities splits
    # each such community of its last level into its connected components.
    nx = pytest.importorskip("networkx")
    whole = networkx_graph(graph)
    assignment = louvain_communities(graph, resolution=resolution, seed=seed).assignment
    for label in set(assignment.values()):
        members = [node for node, community in assignment.items() if community == label]
        assert nx.is_connected(whole.subgraph(members)), (label, members)


def test_louvain_splits_a_community_that_is_not_connected():
    # At this resolution and seed the last level leaves c and d in one
    # community, though their only neighbor, aaa, sits in another.
    graph = graph_from_edges(
        {("a", "aa"): 1, ("aaa", "ab"): 3, ("aaa", "c"): 1, ("aaa", "d"): 1},
        extra_nodes="abcdef",
    )
    assignment = louvain_communities(graph, resolution=2.0, seed=11).assignment
    members = defaultdict(list)
    for node in sorted(assignment):
        members[assignment[node]].append(node)
    assert sorted(members.values()) == [["a", "aa"], ["aaa", "ab"], ["b"], ["c"], ["d"], ["e"], ["f"]]
    merged = dict(assignment, d=assignment["c"])
    assert modularity(graph, assignment, 2.0) > modularity(graph, merged, 2.0)


def loop_modularity(graph: CoWordGraph, assignment: dict, resolution: float = 1.0) -> float:
    """The per-edge dict loop that ``modularity`` replaced, kept as its oracle."""
    m = float(sum(graph.edges.values()))
    if m == 0:
        return 0.0
    intra = defaultdict(float)
    strength = defaultdict(float)
    for (u, v), w in graph.edges.items():
        strength[assignment[u]] += w
        strength[assignment[v]] += w
        if assignment[u] == assignment[v]:
            intra[assignment[u]] += w
    q = 0.0
    for community in strength:
        q += intra.get(community, 0.0) / m - resolution * (strength[community] / (2.0 * m)) ** 2
    return q


@st.composite
def shuffled_partitions(draw):
    """A random graph with its edges in a drawn order and whole or fractional
    weights, and its nodes assigned to a few arbitrary int labels."""
    graph = draw(random_graphs())
    weight = st.integers(1, 50) | st.floats(1e-3, 1e3)
    edges = {key: draw(weight) for key in draw(st.permutations(list(graph.edges)))}
    labels = draw(st.lists(st.integers(), min_size=1, max_size=6))
    assignment = {u: draw(st.sampled_from(labels)) for u in sorted(graph.nodes)}
    return CoWordGraph(node_frequency=graph.node_frequency, edges=edges), assignment


@settings(max_examples=300, deadline=None)
@given(case=shuffled_partitions(), resolution=st.sampled_from([1.0, 0.5, 2.0, 0.3]))
# Labels that a float array would merge: 2**63 and 2**63 + 1 beside -1.
@example(
    case=(TRIANGLES, {"a": -1, "b": 2**63, "c": 2**63} | dict.fromkeys("def", 2**63 + 1)),
    resolution=1.0,
)
def test_modularity_repr_equal_to_the_edge_loop(case, resolution):
    graph, assignment = case
    assert repr(modularity(graph, assignment, resolution)) == repr(
        loop_modularity(graph, assignment, resolution)
    )


@pytest.mark.parametrize("weight", [0, -1, 1.5, float("nan"), float("inf")])
def test_louvain_rejects_a_weight_that_is_not_a_positive_whole_number(weight):
    graph = graph_from_edges({("a", "b"): 1, ("b", "c"): weight, ("c", "d"): 0.5})
    with pytest.raises(DomainError, match=r"edge \('b', 'c'\) has weight"):
        louvain_communities(graph)
    whole = graph_from_edges({("a", "b"): 2, ("b", "c"): 2.0})
    assert louvain_communities(whole).assignment == {"a": 0, "b": 0, "c": 0}


@pytest.mark.parametrize(
    "resolution",
    [float("nan"), float("inf"), float("-inf"), -0.5, 10**400, "1", None, [1.0]],
    ids=["nan", "inf", "-inf", "negative", "past-the-float-range", "str", "none", "list"],
)
def test_louvain_rejects_a_resolution_the_config_rejects(resolution):
    # Louvain would run on each number: nan and inf leave every node of the
    # path alone, and a negative resolution merges it into one community.
    # A value that is not a number must not reach the range check, whose
    # comparison would raise TypeError.
    path = graph_from_edges({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1})
    rule = f"must be finite and >= 0, got {re.escape(repr(resolution))}$"
    with pytest.raises(DomainError, match=f"^resolution {rule}"):
        louvain_communities(path, resolution)
    with pytest.raises(ConfigError, match=f"^'louvain_resolution' {rule}"):
        AnalysisConfig(louvain_resolution=resolution)
    assert louvain_communities(path, 0).community_count() == 1


def test_louvain_rejects_a_negative_seed():
    # numpy's seed sequence would raise a bare ValueError.
    with pytest.raises(DomainError, match=r"^seed must be non-negative, got -1$"):
        louvain_communities(TRIANGLES, seed=-1)


@pytest.mark.parametrize("seed", [2.5, True, np.int64(1)], ids=repr)
def test_louvain_rejects_a_seed_that_is_not_an_int(seed):
    # Unchecked, True would run as seed 1 and 2.5 reach numpy as a TypeError.
    message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(DomainError, match=message):
        louvain_communities(TRIANGLES, seed=seed)


def test_louvain_rejects_a_boolean_resolution():
    with pytest.raises(DomainError, match=r"^resolution must be finite and >= 0, got True$"):
        louvain_communities(TRIANGLES, resolution=True)


@pytest.mark.parametrize(
    "nodes,edges",
    [
        (["a"], {("a", "b"): 1}),
        (["b"], {("a", "b"): 1}),
        (["a", "b"], {("a", "a"): 1}),
        (["a", "b"], {("b", "a"): 1, ("a", "b"): 3}),
    ],
    ids=["missing-tail", "missing-head", "self-loop", "reversed-pair"],
)
@pytest.mark.parametrize(
    "algorithm",
    [
        louvain_communities,
        betweenness,
        lambda graph: modularity(graph, dict.fromkeys(graph.nodes, 0)),
        lambda graph: graph,
    ],
    ids=["louvain_communities", "betweenness", "modularity", "construction"],
)
def test_malformed_edge_key_is_consistency_error(nodes, edges, algorithm):
    # The graph is checked when it is built, so no algorithm ever sees it.
    with pytest.raises(ConsistencyError, match=r"edge \('(a|b)', '(a|b)'\)"):
        algorithm(CoWordGraph(node_frequency={node: 1 for node in nodes}, edges=edges))


@pytest.mark.parametrize(
    "nodes,edges",
    [
        (["a"], {("a", "b"): 1}),
        (["b"], {("a", "b"): 1}),
        (["a", "b"], {("a", "a"): 1}),
        (["a", "b"], {("b", "a"): 1, ("a", "b"): 3}),
    ],
    ids=["missing-tail", "missing-head", "self-loop", "reversed-pair"],
)
@pytest.mark.parametrize("fmt", ["gexf", "graphml"])
def test_export_rejects_malformed_edge_key(nodes, edges, fmt):
    partition = CommunityPartition({node: 0 for node in nodes}, 0.0)
    scores = CentralityScores({node: 0.0 for node in nodes}, {node: 0 for node in nodes})
    with pytest.raises(ConsistencyError, match=r"edge \('(a|b)', '(a|b)'\)"):
        graph = CoWordGraph(node_frequency={node: 1 for node in nodes}, edges=edges)
        export_graph(graph, partition, scores, fmt)


@pytest.mark.parametrize(
    "key", ["ab", ("a", "b", "c"), ("a",), 5], ids=["string", "triple", "single", "int"]
)
@pytest.mark.parametrize(
    "algorithm",
    [
        louvain_communities,
        betweenness,
        lambda graph: modularity(graph, dict.fromkeys(graph.nodes, 0)),
        lambda graph: export_graph(graph, *blank_scores(graph.nodes), "gexf"),
        lambda graph: export_graph(graph, *blank_scores(graph.nodes), "graphml"),
        lambda graph: graph,
    ],
    ids=["louvain_communities", "betweenness", "modularity", "gexf", "graphml", "construction"],
)
def test_edge_key_that_is_not_a_pair_is_consistency_error(key, algorithm):
    # "ab" once unpacked as the edge ("a", "b"); the others raised from unpacking.
    nodes, edges = {"a": 1, "b": 1, "c": 1}, {("a", "b"): 1, key: 1}
    with pytest.raises(ConsistencyError, match=f"^edge {re.escape(repr(key))} is not"):
        algorithm(CoWordGraph(node_frequency=nodes, edges=edges))


def edge_ends(graph_nodes, edges):
    """The edge-key rule a ``CoWordGraph`` applies when it is built, as a
    function of its own, kept as the oracle of that check: the sorted node
    names and each key's ids in them, or the ConsistencyError that names
    the first key that is not ``(u, v)`` with ``u < v``, both nodes."""
    names = sorted(graph_nodes)
    index = {u: i for i, u in enumerate(names)}
    keys = list(edges)
    # Any other key reads as the self-loop (key, key), which the check rejects.
    pairs = itertools.chain.from_iterable(
        k if isinstance(k, tuple) and len(k) == 2 else (k, k) for k in keys
    )
    ids = np.fromiter(map(index.get, pairs, itertools.repeat(-1)), np.intp)
    heads, tails = ids.reshape(-1, 2).T
    bad = np.flatnonzero((heads < 0) | (heads >= tails))
    if bad.size:
        edge = keys[bad[0]]
        raise ConsistencyError(f"edge {edge!r} is not (u, v) with u < v, both graph nodes")
    return names, heads, tails


_KEY_PARTS = st.sampled_from(["a", "b", "c", "d", "z", "", 1])


@settings(max_examples=400, deadline=None)
@given(
    nodes=st.lists(st.sampled_from("abcd"), unique=True),
    keys=st.lists(
        st.one_of(
            st.tuples(_KEY_PARTS, _KEY_PARTS),  # pairs, reversed pairs, self-loops, non-nodes
            st.tuples(_KEY_PARTS, _KEY_PARTS, _KEY_PARTS),
            st.tuples(_KEY_PARTS),
            st.tuples(),
            _KEY_PARTS,
            st.sampled_from(["ab", "ba", None, 2.5, frozenset("ab")]),
        ),
        unique=True,
        max_size=8,
    ),
)
@example(nodes=["a", "b"], keys=[("a", "b")])
@example(nodes=["a", "b"], keys=["ab"])
@example(nodes=["a", "b"], keys=[("a", "b"), ("b", "a")])
@example(nodes=[], keys=[])
def test_construction_checks_edge_keys_as_edge_ends_does(nodes, keys):
    edges = dict.fromkeys(keys, 1)
    try:
        names, heads, tails = edge_ends(nodes, edges)
    except ConsistencyError as error:
        with pytest.raises(ConsistencyError, match=f"^{re.escape(str(error))}$"):
            CoWordGraph(node_frequency=dict.fromkeys(nodes, 1), edges=edges)
        return
    graph = CoWordGraph(node_frequency=dict.fromkeys(nodes, 1), edges=edges)
    assert list(graph._names) == names
    assert graph._heads.tolist() == heads.tolist()
    assert graph._tails.tolist() == tails.tolist()


def test_a_built_graph_cannot_be_changed():
    titles = ["team process change", "team process", "change firm", "firm team"]
    graph, partition, centrality, _ = analyze_network(titles, AnalysisConfig(min_title_frequency=1))
    calls = [
        louvain_communities,
        betweenness,
        lambda graph: modularity(graph, partition.assignment),
        lambda graph: export_graph(graph, partition, centrality, "gexf"),
        lambda graph: export_graph(graph, partition, centrality, "graphml"),
    ]
    before = [call(graph) for call in calls]
    u, v = next(iter(graph.edges))
    with pytest.raises(TypeError):
        graph.edges[v, u] = 1
    with pytest.raises(TypeError):
        graph.node_frequency["outsider"] = 1
    with pytest.raises(TypeError):
        del graph.edges[u, v]
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.edges = {(v, u): 1}
    assert [call(graph) for call in calls] == before


def test_changing_the_dicts_a_graph_was_built_from_changes_nothing():
    node_frequency = {"b": 2, "a": 1, "c": 1}
    edges = {("a", "b"): 3, ("b", "c"): 1}
    graph = CoWordGraph(node_frequency=node_frequency, edges=edges)
    before = louvain_communities(graph), betweenness(graph)
    node_frequency["outsider"] = 1
    del node_frequency["c"]
    edges[("c", "b")] = 5
    edges[("a", "b")] = 7
    assert list(graph.node_frequency.items()) == [("b", 2), ("a", 1), ("c", 1)]
    assert list(graph.edges.items()) == [(("a", "b"), 3), (("b", "c"), 1)]
    assert (louvain_communities(graph), betweenness(graph)) == before
    assert graph == CoWordGraph({"b": 2, "a": 1, "c": 1}, {("a", "b"): 3, ("b", "c"): 1})


def test_replace_checks_the_fields_it_is_given():
    graph = CoWordGraph({"b": 2, "a": 1, "c": 1}, {("a", "b"): 3, ("b", "c"): 1})
    with pytest.raises(ConsistencyError, match=r"^edge \('c', 'b'\) is not"):
        dataclasses.replace(graph, edges={("a", "b"): 3, ("c", "b"): 1})
    with pytest.raises(ConsistencyError, match=r"^edge \('b', 'c'\) is not"):
        dataclasses.replace(graph, node_frequency={"a": 1, "b": 2})
    smaller = dataclasses.replace(graph, edges={("b", "c"): 1})
    assert smaller == CoWordGraph({"b": 2, "a": 1, "c": 1}, {("b", "c"): 1})
    assert (smaller._heads.tolist(), smaller._tails.tolist()) == ([1], [2])


def test_csr_is_built_on_first_use_and_shared_by_louvain_and_betweenness():
    graph = graph_from_edges({("a", "b"): 2, ("b", "c"): 1, ("c", "d"): 1, ("a", "c"): 1})
    assert "_csr" not in vars(graph)
    louvain_communities(graph)
    csr = vars(graph)["_csr"]
    betweenness(graph)
    assert graph._csr is csr
    names, indptr, indices, weights = csr
    assert names == ("a", "b", "c", "d")
    rows = {
        names[i]: {names[j]: w for j, w in zip(indices[lo:hi], weights[lo:hi])}
        for i, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:]))
    }
    assert rows == {
        u: {v: float(w) for v, w in sorted(row.items())}
        for u, row in neighbor_weights(graph).items()
    }
    for row in rows.values():
        assert list(row) == sorted(row)


def blank_scores(nodes) -> tuple[CommunityPartition, CentralityScores]:
    """A partition and scores that put every node of ``nodes`` at zero."""
    return (
        CommunityPartition(dict.fromkeys(nodes, 0), 0.0),
        CentralityScores(dict.fromkeys(nodes, 0.0), dict.fromkeys(nodes, 0)),
    )


# ---------------------------------------------------------------------------
# Betweenness
# ---------------------------------------------------------------------------


def test_betweenness_path():
    graph = graph_from_edges({("a", "b"): 1, ("b", "c"): 1})
    result = betweenness(graph)
    assert result.betweenness == {"a": 0.0, "b": 1.0, "c": 0.0}
    assert result.degree == {"a": 1, "b": 2, "c": 1}


def test_betweenness_star():
    graph = graph_from_edges({("s", "x"): 1, ("s", "y"): 1, ("s", "z"): 1})
    result = betweenness(graph)
    assert result.betweenness["s"] == pytest.approx(3.0)
    assert all(result.betweenness[l] == 0.0 for l in "xyz")


def test_betweenness_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(51)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 13))
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {
            (u, v): 1
            for u, v in itertools.combinations(nodes, 2)
            if rng.random() < 0.3
        }
        if not edges:
            continue
        graph = graph_from_edges(edges, extra_nodes=nodes)
        mine = betweenness(graph).betweenness
        oracle = brute_force_betweenness(graph)
        for node in graph.nodes:
            assert mine[node] == pytest.approx(oracle[node], abs=1e-9)
        checked += 1


def test_betweenness_isolated_and_leaf_nodes_zero():
    graph = graph_from_edges({("a", "b"): 1, ("b", "c"): 1}, extra_nodes=["lone"])
    result = betweenness(graph)
    assert result.betweenness["lone"] == 0.0
    assert result.betweenness["a"] == 0.0
    assert result.degree["lone"] == 0


def test_betweenness_weights_do_not_affect_unit_length_paths():
    light = graph_from_edges({("a", "b"): 1, ("b", "c"): 1})
    heavy = graph_from_edges({("a", "b"): 9, ("b", "c"): 1})
    assert betweenness(light).betweenness == betweenness(heavy).betweenness


def dict_brandes_dependencies(graph: CoWordGraph, source: str, neighbors=None) -> dict:
    """The dependency ``delta`` of every node on ``source``, by the
    single-source queue/stack form of Brandes over name-keyed dicts,
    neighbors visited in ascending name order: the sums run in the order
    the array form must reproduce bit for bit.  ``neighbors``, each node's
    sorted neighbor list, is derived from ``graph`` when not given."""
    nodes = sorted(graph.node_frequency)
    if neighbors is None:
        neighbors = {u: sorted(v) for u, v in neighbor_weights(graph).items()}
    stack = []
    predecessors = {u: [] for u in nodes}
    sigma = {u: 0.0 for u in nodes}
    distance = {u: -1 for u in nodes}
    sigma[source] = 1.0
    distance[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        stack.append(u)
        for v in neighbors[u]:
            if distance[v] < 0:
                distance[v] = distance[u] + 1
                queue.append(v)
            if distance[v] == distance[u] + 1:
                sigma[v] += sigma[u]
                predecessors[v].append(u)
    delta = {u: 0.0 for u in nodes}
    while stack:
        w = stack.pop()
        for u in predecessors[w]:
            delta[u] += (sigma[u] / sigma[w]) * (1.0 + delta[w])
    return delta


def dict_brandes_betweenness(graph: CoWordGraph) -> dict:
    """Betweenness summed from ``dict_brandes_dependencies``, one source at
    a time in ascending name order, a source's own dependency left out."""
    nodes = sorted(graph.node_frequency)
    adjacency = neighbor_weights(graph)
    neighbors = {u: sorted(adjacency[u]) for u in nodes}
    scores = {u: 0.0 for u in nodes}
    for source in nodes:
        delta = dict_brandes_dependencies(graph, source, neighbors)
        for w in nodes:
            if w != source:
                scores[w] += delta[w]
    return {u: scores[u] / 2.0 for u in nodes}


def assert_same_bits(graph: CoWordGraph, oracle: dict) -> None:
    result = betweenness(graph).betweenness
    assert list(result) == list(oracle)
    assert [repr(x) for x in result.values()] == [repr(x) for x in oracle.values()]


# A 6-node path, a disjoint triangle and an isolated node: 10 nodes and 16
# directed edges, so a cap of 160 puts every source in one batch, whose rows
# reach their whole component after 0 to 5 levels.
PATH_TRIANGLE_LONE = graph_from_edges(
    {**{(f"p{i}", f"p{i + 1}"): 1 for i in range(1, 6)},
     ("t1", "t2"): 1, ("t1", "t3"): 1, ("t2", "t3"): 1},
    extra_nodes=["lone"],
)

# Shapes whose hook rounds in _component_roots are many or whose components
# are many: a 2,000-node path and a caterpillar (a 300-node path, each node
# with one leaf that sorts before it) whose names fall in random order along
# them, and 500 disjoint pairs.
PATH_NAMES = [f"p{i:04d}" for i in np.random.default_rng(3).permutation(2000)]
SHUFFLED_PATH = graph_from_edges(dict.fromkeys(itertools.pairwise(PATH_NAMES), 1))
SPINE = [f"s{i:03d}" for i in np.random.default_rng(4).permutation(300)]
CATERPILLAR = graph_from_edges(
    {**dict.fromkeys(itertools.pairwise(SPINE), 1), **{(f"l{s[1:]}", s): 1 for s in SPINE}}
)
DISJOINT_PAIRS = graph_from_edges({(f"a{i:03d}", f"b{i:03d}"): 1 for i in range(500)})


@settings(max_examples=300, deadline=None)
@given(graph=random_graphs(), cap=st.sampled_from([1, 16, 64, 1024, semnet._BATCH_ELEMENTS]))
@example(graph=CoWordGraph(node_frequency={"solo": 1}, edges={}), cap=semnet._BATCH_ELEMENTS)
@example(graph=CoWordGraph(node_frequency={"a": 1, "b": 1, "c": 1}, edges={}), cap=1)
@example(graph=TRIANGLES, cap=16)
@example(graph=PATH_TRIANGLE_LONE, cap=160)
@example(graph=PATH_TRIANGLE_LONE, cap=1)
def test_betweenness_bit_identical_to_dict_brandes(graph, cap):
    with mock.patch.object(semnet, "_BATCH_ELEMENTS", cap):
        assert_same_bits(graph, dict_brandes_betweenness(graph))


@settings(max_examples=300, deadline=None)
@given(graph=random_graphs())
@example(graph=CoWordGraph(node_frequency={"a": 1, "b": 1, "c": 1}, edges={}))
@example(graph=PATH_TRIANGLE_LONE)
@example(graph=SHUFFLED_PATH)
@example(graph=CATERPILLAR)
@example(graph=DISJOINT_PAIRS)
def test_component_roots_are_the_smallest_node_of_each_networkx_component(graph):
    nx = pytest.importorskip("networkx")
    names, indptr, indices, _ = graph._csr
    index = {u: i for i, u in enumerate(names)}
    root_of = {
        u: min(map(index.__getitem__, c))
        for c in nx.connected_components(networkx_graph(graph))
        for u in c
    }
    assert semnet._component_roots(indptr, indices).tolist() == [root_of[u] for u in names]


@settings(max_examples=300, deadline=None)
@given(graph=random_graphs())
@example(graph=CoWordGraph(node_frequency={"a": 1, "b": 1, "c": 1}, edges={}))
@example(graph=SHUFFLED_PATH)
@example(graph=CATERPILLAR)
@example(graph=DISJOINT_PAIRS)
def test_component_sizes_equal_networkx_connected_components(graph):
    nx = pytest.importorskip("networkx")
    names, indptr, indices, _ = graph._csr
    size_of = {u: len(c) for c in nx.connected_components(networkx_graph(graph)) for u in c}
    assert semnet._component_sizes(indptr, indices).tolist() == [size_of[u] for u in names]


def dense_graph(n: int = 290, p: float = 0.4, seed: int = 13) -> CoWordGraph:
    """A dense random core with a ten-node path hanging off one node (so
    BFS from the path's end runs more than ten levels deep), a separate
    triangle and an isolated node."""
    rng = np.random.default_rng(seed)
    core = [f"core{i:03d}" for i in range(n)]
    edges = {pair: 1 for pair in itertools.combinations(core, 2) if rng.random() < p}
    tail = [core[17]] + [f"tail{i}" for i in range(10)]
    edges.update({tuple(sorted(pair)): 1 for pair in itertools.pairwise(tail)})
    edges.update({("x1", "x2"): 1, ("x1", "x3"): 1, ("x2", "x3"): 1})
    return graph_from_edges(edges, extra_nodes=["lone"])


def test_betweenness_bit_identical_on_dense_graph_in_batches():
    graph = dense_graph()
    # Two sources' directed edges exceed the batch cap: one source per batch.
    assert 2 * (2 * graph.edge_count()) > semnet._BATCH_ELEMENTS
    oracle = dict_brandes_betweenness(graph)
    assert_same_bits(graph, oracle)
    # A larger cap: ten batches of about thirty sources each.
    with mock.patch.object(semnet, "_BATCH_ELEMENTS", 1 << 20):
        assert_same_bits(graph, oracle)


def push_only_edge_scans(graph: CoWordGraph) -> int:
    """The edges a BFS that only pushes scans, summed over every source:
    each level's frontier expands its whole rows while nodes of the
    source's component remain unreached."""
    adjacency = neighbor_weights(graph)
    scans = 0
    for source in adjacency:
        levels, seen = [{source}], {source}
        while following := {v for u in levels[-1] for v in adjacency[u]} - seen:
            seen |= following
            levels.append(following)
        reached = 0
        for level in levels:
            reached += len(level)
            if reached < len(seen):
                scans += sum(len(adjacency[u]) for u in level)
    return scans


def test_brandes_pull_scans_fewer_edges_than_push():
    """On the dense graph most levels end with few nodes left to reach, so
    pulling them from the unreached side scans fewer edges than the
    push-only BFS, and leaves every score bit-identical.  The count is
    exact on any host."""
    graph = dense_graph()
    expand, scanned = semnet._expand, []

    def counting_expand(*args):
        tail, counts = expand(*args)
        scanned.append(tail.size)
        return tail, counts

    with mock.patch.object(semnet, "_expand", counting_expand):
        assert_same_bits(graph, dict_brandes_betweenness(graph))
    assert sum(scanned) < push_only_edge_scans(graph)


def test_betweenness_bit_identical_past_exact_path_counts():
    """Thirty layers of eight nodes, each linked to about five nodes of the
    layer above: path counts pass 2**53, where float sums of them depend
    on their order.  Names are shuffled so that id order is not BFS order."""
    graph, most_paths = layered_graph([8] * 30, seed=5)
    assert most_paths > 2**53
    assert_same_bits(graph, dict_brandes_betweenness(graph))


def layered_graph(widths: list[int], seed: int) -> tuple[CoWordGraph, int]:
    """Layers of ``widths`` nodes, top first, each node linked to about 60%
    of the layer above and to at least one node of it, names shuffled; and
    the largest path count from the first node of the top layer."""
    rng = np.random.default_rng(seed)
    names = iter(rng.permutation(sum(widths)))
    layers = [[f"v{next(names):04d}" for _ in range(width)] for width in widths]
    edges = {}
    paths = {layers[0][0]: 1}
    for upper, lower in itertools.pairwise(layers):
        for v in lower:
            for u in upper:
                if rng.random() < 0.6:
                    edges[tuple(sorted((u, v)))] = 1
            edges.setdefault(tuple(sorted((upper[int(rng.integers(len(upper)))], v))), 1)
            paths[v] = sum(paths.get(u, 0) for u in upper if tuple(sorted((u, v))) in edges)
    return graph_from_edges(edges), max(paths.values())


def predecessor_edges_per_level(indptr, indices) -> np.ndarray:
    """Edges (u, v) with dist(s, v) = dist(s, u) + 1, summed over every
    source s and counted by dist(s, u): the predecessor edges of each BFS
    level when every source runs in one batch."""
    n = indptr.size - 1
    heads = np.repeat(np.arange(n), np.diff(indptr))
    adjacency = np.zeros((n, n))
    adjacency[heads, indices] = 1.0
    dist = np.full((n, n), -1)
    frontier, level = np.eye(n, dtype=bool), 0
    while frontier.any():
        dist[frontier] = level
        frontier = (frontier @ adjacency > 0) & (dist < 0)
        level += 1
    return np.bincount(dist[:, heads][dist[:, indices] == dist[:, heads] + 1])


def test_betweenness_bit_identical_with_keys_wider_than_16_bits():
    """A batch level with more than 2**16 predecessor edges orders them by a
    key wider than 16 bits.  Each source's dependencies must be the same
    bits in one batch of every source as alone, where no level needs the
    wide key, and the scores must match the oracle at both extremes."""
    graph, most_paths = layered_graph([16] * 20, seed=5)
    assert most_paths > 2**53
    names, indptr, indices, _ = graph._csr
    assert predecessor_edges_per_level(indptr, indices).max() > 1 << 16
    n = len(names)
    sizes = semnet._component_sizes(indptr, indices)
    together = semnet._dependencies(np.arange(n), indptr, indices, sizes)
    alone = [semnet._dependencies(np.array([s]), indptr, indices, sizes[[s]]) for s in range(n)]
    assert together.tobytes() == np.vstack(alone).tobytes()
    oracle = dict_brandes_betweenness(graph)
    for cap in (1, n * indices.size):
        with mock.patch.object(semnet, "_BATCH_ELEMENTS", cap):
            assert_same_bits(graph, oracle)


@settings(max_examples=300, deadline=None)
@given(graph=random_graphs())
@example(graph=PATH_TRIANGLE_LONE)
@example(graph=TRIANGLES)
@example(graph=layered_graph([4] * 6, seed=7)[0])
@example(graph=layered_graph([8] * 30 + [2], seed=3)[0])
def test_dependency_rows_bit_identical_to_dict_brandes(graph):
    """Each row of ``_dependencies`` is the oracle's ``delta`` of its source,
    with every source in one batch and with one source per batch.  A row's
    own source entry is left at 0, never accumulated, so it is skipped.
    The funnel of thirty layers of eight that end in two pulls levels whose
    path counts pass 2**53, where the order of the pulled edges decides
    the float sums."""
    names, indptr, indices, _ = graph._csr
    n = len(names)
    sizes = semnet._component_sizes(indptr, indices)
    oracle = [dict_brandes_dependencies(graph, source) for source in names]
    for batches in ([np.arange(n)], np.arange(n)[:, None]):
        rows = np.vstack([
            semnet._dependencies(sources, indptr, indices, sizes[sources]) for sources in batches
        ])
        for source, (row, delta) in enumerate(zip(rows, oracle)):
            assert row[source] == 0.0
            got = [repr(x) for v, x in enumerate(row.tolist()) if v != source]
            want = [repr(delta[u]) for v, u in enumerate(names) if v != source]
            assert got == want


def networkx_graph(graph: CoWordGraph):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(graph.node_frequency)
    g.add_weighted_edges_from((u, v, w) for (u, v), w in graph.edges.items())
    return g


def oracle_graphs():
    """Seeded random graphs of varied size and density, weighted, some
    with isolated nodes and several components."""
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        p = float(rng.choice([0.03, 0.1, 0.3, 0.7]))
        nodes = [f"w{i:02d}" for i in range(n)]
        edges = {
            pair: int(rng.integers(1, 5))
            for pair in itertools.combinations(nodes, 2)
            if rng.random() < p
        }
        yield graph_from_edges(edges, extra_nodes=nodes)


def test_betweenness_matches_networkx():
    nx = pytest.importorskip("networkx")
    for graph in [*oracle_graphs(), dense_graph(n=120)]:
        expected = nx.betweenness_centrality(networkx_graph(graph), normalized=False)
        result = betweenness(graph).betweenness
        assert result == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
def test_modularity_matches_networkx(resolution):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31)
    for graph in oracle_graphs():
        if not graph.edges:
            continue
        louvain = louvain_communities(graph, resolution=resolution).assignment
        shuffled = {node: int(rng.integers(0, 4)) for node in sorted(graph.nodes)}
        for assignment in (louvain, shuffled):
            communities = [
                {node for node, c in assignment.items() if c == label}
                for label in set(assignment.values())
            ]
            expected = nx.community.modularity(
                networkx_graph(graph), communities, weight="weight", resolution=resolution
            )
            assert modularity(graph, assignment, resolution) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )


# ---------------------------------------------------------------------------
# Cluster summaries
# ---------------------------------------------------------------------------


def test_cluster_summary_two_triangles():
    partition = louvain_communities(TRIANGLES, seed=5)
    scores = betweenness(TRIANGLES)
    summary = cluster_summary(TRIANGLES, partition, scores)
    assert summary.total_clusters == 2
    assert [round(c.node_share_pct, 6) for c in summary.clusters] == [50.0, 50.0]
    assert set(summary.clusters[0].label_tokens) | set(
        summary.clusters[1].label_tokens
    ) == {"a", "b", "c", "d", "e", "f"}
    assert sum(c.node_share_pct for c in summary.clusters) == pytest.approx(100.0, abs=0.01)


def test_cluster_summary_shares_5_3_2():
    blocks = {
        0: ["a1", "a2", "a3", "a4", "a5"],
        1: ["b1", "b2", "b3"],
        2: ["c1", "c2"],
    }
    edges = {}
    for members in blocks.values():
        for u, v in itertools.combinations(members, 2):
            edges[(u, v)] = 1
    graph = graph_from_edges(edges)
    assignment = {node: cid for cid, members in blocks.items() for node in members}
    partition = CommunityPartition(
        assignment=assignment, modularity_q=modularity(graph, assignment)
    )
    summary = cluster_summary(graph, partition, betweenness(graph))
    assert [c.size for c in summary.clusters] == [5, 3, 2]
    assert [round(c.node_share_pct, 6) for c in summary.clusters] == [50.0, 30.0, 20.0]


def test_cluster_summary_k_larger_than_cluster_count():
    partition = louvain_communities(TRIANGLES, seed=5)
    summary = cluster_summary(TRIANGLES, partition, betweenness(TRIANGLES))
    assert len(summary.clusters) == 2


def test_cluster_summary_keeps_the_three_most_crowded_of_five_clusters():
    # Sizes by community id: 2, 4, 3, 4, 1.  The two of size 4 tie and rank
    # by smallest id; the shares are of all 14 nodes, not of the three kept.
    sizes = {0: 2, 1: 4, 2: 3, 3: 4, 4: 1}
    blocks = {cid: [f"n{cid}_{i}" for i in range(size)] for cid, size in sizes.items()}
    edges = {}
    for members in blocks.values():
        for u, v in itertools.combinations(members, 2):
            edges[(u, v)] = 1
    graph = graph_from_edges(edges, extra_nodes=blocks[4])
    assignment = {node: cid for cid, members in blocks.items() for node in members}
    partition = CommunityPartition(
        assignment=assignment, modularity_q=modularity(graph, assignment)
    )
    summary = cluster_summary(graph, partition, betweenness(graph))
    assert [(c.community_id, c.size) for c in summary.clusters] == [(1, 4), (3, 4), (2, 3)]
    assert summary.total_clusters == 5
    assert summary.total_nodes == 14
    assert [c.node_share_pct for c in summary.clusters] == [
        100.0 * 4 / 14, 100.0 * 4 / 14, 100.0 * 3 / 14
    ]


def test_cluster_summary_labels_are_top_degree():
    # star inside a community: hub has highest degree
    edges = {("hub", leaf): 1 for leaf in ["l1", "l2", "l3", "l4"]}
    edges[("l1", "l2")] = 1
    graph = graph_from_edges(edges)
    assignment = {node: 0 for node in graph.nodes}
    partition = CommunityPartition(
        assignment=assignment, modularity_q=modularity(graph, assignment)
    )
    summary = cluster_summary(graph, partition, betweenness(graph))
    assert summary.clusters[0].label_tokens[0] == "hub"
    assert len(summary.clusters[0].label_tokens) == 3


def test_cluster_summary_planted_bridge_token():
    rng = np.random.default_rng(61)
    topic_a = ["steel", "alloy", "furnace", "casting", "rolling"]
    topic_b = ["poetry", "meter", "rhyme", "stanza", "verse"]
    titles = []
    for _ in range(20):
        titles.append(" ".join(rng.choice(topic_a, size=3, replace=False)))
        titles.append(" ".join(rng.choice(topic_b, size=3, replace=False)))
    for word_a, word_b in zip(topic_a, topic_b):
        titles.append(f"{word_a} analysis")
        titles.append(f"{word_b} analysis")

    graph = build_coword_graph(titles, GraphPolicy(min_title_frequency=1))
    partition = louvain_communities(graph, seed=3)
    scores = betweenness(graph)
    summary = cluster_summary(graph, partition, scores)
    assert summary.top_betweenness_token == "analysis"


def test_cluster_summary_consistency_errors():
    partition = louvain_communities(TRIANGLES, seed=5)
    scores = betweenness(TRIANGLES)
    bad_scores = CentralityScores(
        betweenness={**scores.betweenness, "ghost": 1.0},
        degree={**scores.degree, "ghost": 1},
    )
    with pytest.raises(ConsistencyError):
        cluster_summary(TRIANGLES, partition, bad_scores)
    bad_partition = CommunityPartition(
        assignment={k: v for k, v in partition.assignment.items() if k != "a"},
        modularity_q=0.0,
    )
    with pytest.raises(ConsistencyError):
        cluster_summary(TRIANGLES, bad_partition, scores)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _path_graph_bundle():
    graph = graph_from_edges({("a", "b"): 2, ("b", "c"): 1})
    partition = louvain_communities(graph, seed=0)
    scores = betweenness(graph)
    return graph, partition, scores


def test_gexf_structure():
    graph, partition, scores = _path_graph_bundle()
    payload = export_graph(graph, partition, scores, "gexf")
    root = ET.fromstring(payload)
    ns = {"g": "http://www.gexf.net/1.2draft"}
    assert root.tag == "{http://www.gexf.net/1.2draft}gexf"
    nodes = root.findall(".//g:node", ns)
    edges = root.findall(".//g:edge", ns)
    assert len(nodes) == 3
    assert len(edges) == 2
    assert all(e.get("weight") for e in edges)
    declared = {a.get("title") for a in root.findall(".//g:attribute", ns)}
    assert declared == {"community", "betweenness", "degree", "title_frequency"}
    for node in nodes:
        got = {v.get("for") for v in node.findall(".//g:attvalue", ns)}
        assert got == {"0", "1", "2", "3"}


def test_graphml_structure():
    graph, partition, scores = _path_graph_bundle()
    payload = export_graph(graph, partition, scores, "graphml")
    root = ET.fromstring(payload)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    assert root.tag == "{http://graphml.graphdrawing.org/xmlns}graphml"
    assert len(root.findall(".//g:node", ns)) == 3
    assert len(root.findall(".//g:edge", ns)) == 2
    keys = {k.get("attr.name") for k in root.findall("g:key", ns)}
    assert keys == {"community", "betweenness", "degree", "title_frequency", "weight"}


def _parse_gexf_for_roundtrip(payload: bytes):
    root = ET.fromstring(payload)
    ns = {"g": "http://www.gexf.net/1.2draft"}
    attr_names = {
        a.get("id"): a.get("title") for a in root.findall(".//g:attribute", ns)
    }
    nodes = {}
    for node in root.findall(".//g:node", ns):
        values = {
            attr_names[v.get("for")]: v.get("value")
            for v in node.findall(".//g:attvalue", ns)
        }
        nodes[node.get("id")] = values
    edges = {
        tuple(sorted((e.get("source"), e.get("target")))): e.get("weight")
        for e in root.findall(".//g:edge", ns)
    }
    return nodes, edges


def _parse_graphml_node_values(payload: bytes):
    root = ET.fromstring(payload)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    key_names = {
        k.get("id"): k.get("attr.name")
        for k in root.findall("g:key", ns)
        if k.get("for") == "node"
    }
    return {
        node.get("id"): {key_names[d.get("key")]: d.text for d in node.findall("g:data", ns)}
        for node in root.findall(".//g:node", ns)
    }


def test_gexf_round_trip_preserves_content():
    graph, partition, scores = _path_graph_bundle()
    nodes, edges = _parse_gexf_for_roundtrip(
        export_graph(graph, partition, scores, "gexf")
    )
    assert set(nodes) == graph.nodes
    for name, values in nodes.items():
        assert int(values["community"]) == partition.assignment[name]
        assert float(values["betweenness"]) == scores.betweenness[name]
        assert int(values["degree"]) == scores.degree[name]
        assert int(values["title_frequency"]) == graph.node_frequency[name]
    assert edges == {pair: str(w) for pair, w in graph.edges.items()}
    # GraphML carries the same node attribute values, string for string
    graphml = export_graph(graph, partition, scores, "graphml")
    assert _parse_graphml_node_values(graphml) == nodes


def test_export_rejects_inconsistent_scores():
    graph, partition, scores = _path_graph_bundle()
    bad = CentralityScores(
        betweenness={**scores.betweenness, "ghost": 0.0},
        degree={**scores.degree, "ghost": 0},
    )
    with pytest.raises(ConsistencyError):
        export_graph(graph, partition, bad, "gexf")


def test_export_rejects_unknown_format():
    graph, partition, scores = _path_graph_bundle()
    with pytest.raises(DomainError):
        export_graph(graph, partition, scores, "dot")


@pytest.mark.parametrize("fmt", ["gexf", "graphml"])
@pytest.mark.parametrize(
    ("name", "fault"),
    [
        ("a\x01b", "holds a character XML 1.0 forbids"),
        ("\ufffe", "holds a character XML 1.0 forbids"),
        ("\ud800", "is not valid UTF-8"),
    ],
)
def test_export_rejects_node_name_xml_cannot_hold(name, fault, fmt):
    graph = graph_from_edges({tuple(sorted((name, "word"))): 1})
    with pytest.raises(DomainError) as info:
        export_graph(*analyzed_bundle(graph), fmt)
    assert str(info.value) == f"graph node {name!r} {fault}"


def test_export_deterministic_bytes():
    graph, partition, scores = _path_graph_bundle()
    assert export_graph(graph, partition, scores, "gexf") == export_graph(
        graph, partition, scores, "gexf"
    )


# The ElementTree writer that export_graph replaced, kept as its byte oracle.


def _node_values(node, graph, partition, scores) -> tuple[str, ...]:
    """The exported values of ``node``'s attributes, in _NODE_ATTRIBUTES order."""
    return (
        str(partition.assignment[node]),
        repr(scores.betweenness[node]),
        str(scores.degree[node]),
        str(graph.node_frequency[node]),
    )


def elementtree_export_graph(graph, partition, scores, format):
    root = {"gexf": _gexf_tree, "graphml": _graphml_tree}[format](graph, partition, scores)
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _gexf_tree(graph, partition, scores) -> ET.Element:
    root = ET.Element("gexf", {"xmlns": GEXF_NAMESPACE, "version": "1.2"})
    graph_el = ET.SubElement(
        root, "graph", {"mode": "static", "defaultedgetype": "undirected"}
    )
    attrs = ET.SubElement(graph_el, "attributes", {"class": "node"})
    for attr_id, (title, kind, _) in enumerate(_NODE_ATTRIBUTES):
        ET.SubElement(
            attrs, "attribute", {"id": str(attr_id), "title": title, "type": kind}
        )
    nodes_el = ET.SubElement(graph_el, "nodes")
    for node in sorted(graph.node_frequency):
        node_el = ET.SubElement(nodes_el, "node", {"id": node, "label": node})
        values = ET.SubElement(node_el, "attvalues")
        for attr_id, value in enumerate(_node_values(node, graph, partition, scores)):
            ET.SubElement(values, "attvalue", {"for": str(attr_id), "value": value})
    edges_el = ET.SubElement(graph_el, "edges")
    for edge_id, ((u, v), w) in enumerate(sorted(graph.edges.items())):
        ET.SubElement(
            edges_el,
            "edge",
            {"id": str(edge_id), "source": u, "target": v, "weight": str(w)},
        )
    return root


def _graphml_tree(graph, partition, scores) -> ET.Element:
    root = ET.Element("graphml", {"xmlns": GRAPHML_NAMESPACE})
    keys = [(name, "node", kind) for name, _, kind in _NODE_ATTRIBUTES]
    for name, domain, kind in [*keys, ("weight", "edge", "int")]:
        ET.SubElement(
            root,
            "key",
            {"id": f"d_{name}", "for": domain, "attr.name": name, "attr.type": kind},
        )
    graph_el = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "undirected"})
    for node in sorted(graph.node_frequency):
        node_el = ET.SubElement(graph_el, "node", {"id": node})
        for (name, _, _), value in zip(
            _NODE_ATTRIBUTES, _node_values(node, graph, partition, scores)
        ):
            data = ET.SubElement(node_el, "data", {"key": f"d_{name}"})
            data.text = value
    for (u, v), w in sorted(graph.edges.items()):
        edge_el = ET.SubElement(graph_el, "edge", {"source": u, "target": v})
        data = ET.SubElement(edge_el, "data", {"key": "d_weight"})
        data.text = str(w)
    return root


# Characters XML escapes or ElementTree passes through as they are, and
# letters whose case mapping changes length.  Names XML cannot hold are
# rejected instead (test_export_rejects_node_name_xml_cannot_hold).
_NAME_CHARACTERS = (
    ["a", "b", " ", "-", "&", "<", ">", '"', "'", "\r", "\n", "\t"]
    + ["é", "İ", "ß"]
)


@st.composite
def export_bundles(draw):
    """A graph over 0-12 names of those characters, edgeless as often as
    not, with arbitrary communities, degrees, frequencies and betweenness
    values from 1e-20 to 1e20 (the writer reads them, it does not check them)."""
    names = draw(
        st.lists(
            st.lists(st.sampled_from(_NAME_CHARACTERS), min_size=1, max_size=4).map("".join),
            max_size=12,
            unique=True,
        )
    )
    pairs = list(itertools.combinations(sorted(names), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = {pair: draw(st.integers(1, 10**6)) for pair in sorted(chosen)}
    graph = CoWordGraph(
        node_frequency={name: draw(st.integers(1, 10**6)) for name in names}, edges=edges
    )
    betweenness_values = st.one_of(st.just(0.0), st.floats(1e-20, 1e20))
    partition = CommunityPartition(
        assignment={name: draw(st.integers(0, len(names))) for name in names},
        modularity_q=0.0,
    )
    scores = CentralityScores(
        betweenness={name: draw(betweenness_values) for name in names},
        degree={name: draw(st.integers(0, len(names))) for name in names},
    )
    return graph, partition, scores


def analyzed_bundle(graph: CoWordGraph):
    return graph, louvain_communities(graph), betweenness(graph)


@settings(max_examples=400, deadline=None)
@given(bundle=export_bundles())
@example(bundle=(CoWordGraph({}, {}), CommunityPartition({}, 0.0), CentralityScores({}, {})))
@example(bundle=analyzed_bundle(TRIANGLES))
def test_export_bytes_equal_elementtree_oracle(bundle):
    for fmt in ("gexf", "graphml"):
        assert export_graph(*bundle, fmt) == elementtree_export_graph(*bundle, fmt)


def test_export_bytes_equal_elementtree_oracle_on_corpora(data_dir):
    bundles = [analyzed_bundle(dense_graph(n=120))]
    for name in ("corpus_process.csv", "corpus_leadership.csv"):
        titles = parse_bibliographic_csv(data_dir / name).titles()
        bundles.append(analyze_network(titles, AnalysisConfig())[:3])
    for bundle in bundles:
        for fmt in ("gexf", "graphml"):
            assert export_graph(*bundle, fmt) == elementtree_export_graph(*bundle, fmt)


def dense_titles(graph: CoWordGraph) -> list[str]:
    """Titles whose co-word graph at min_title_frequency 1 has the edges and
    nodes of ``graph``: one title per edge, and one per isolated node."""
    linked = set(itertools.chain.from_iterable(graph.edges))
    return [" ".join(key) for key in graph.edges] + sorted(graph.nodes - linked)


@pytest.mark.parametrize("source", ["corpus_process.csv", "corpus_leadership.csv", "dense"])
def test_analyze_network_equals_the_public_functions(source, data_dir):
    if source == "dense":
        dense = dense_graph(n=120)
        graph, *shared = analyze_network(dense_titles(dense), AnalysisConfig(min_title_frequency=1))
        assert graph.nodes == dense.nodes and graph.edges.keys() == dense.edges.keys()
    else:
        titles = parse_bibliographic_csv(data_dir / source).titles()
        graph, *shared = analyze_network(titles, AnalysisConfig())
    partition, centrality, _ = shared
    public = louvain_communities(graph), betweenness(graph)
    assert (partition, centrality) == public
    # The comparison's artifacts write both formats from one set of rows.
    render = semnet._export_graph(graph, partition, centrality)
    for fmt in ("gexf", "graphml"):
        assert render(fmt) == export_graph(graph, *public, fmt)


# ---------------------------------------------------------------------------
# Stopword loading
# ---------------------------------------------------------------------------


def test_default_stopwords_lowercase_function_words():
    stops = default_stopwords()
    assert {"the", "and", "of", "for"} <= stops
    assert "leadership" not in stops
    assert all(w == w.lower() for w in stops)


def test_load_stopwords_override(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# mine\nAlpha\n  beta\t\n\n  # indented note\n")
    assert load_stopwords(path) == frozenset({"alpha", "beta"})


def test_invalid_utf8_stopwords_is_input_error(data_dir, tmp_path, capsys):
    path = tmp_path / "stops.txt"
    path.write_bytes(b"the\n\xffbad\n")
    with pytest.raises(ConfigError, match="stops.txt: not valid UTF-8"):
        load_stopwords(path)
    code = cli.main(
        ["semnet", str(data_dir / "corpus_process.csv"), "--stopwords", str(path),
         "--out", str(tmp_path / "net.gexf")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "stops.txt: not valid UTF-8" in err
    assert "Traceback" not in err
