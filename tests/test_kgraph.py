"""Knowledge graph tests. The k-shortest-path implementation is checked
against an independent brute-force enumeration of all simple paths, and
the perturbation protocols are audited edit by edit."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import adjacency_rows, arc_adjacency, arc_yen, relation_mask

from kgchat import kgraph
from kgchat.kgraph import (
    SELF_LOOP,
    AdjacencyTensor,
    GraphError,
    KnowledgeGraph,
    Triple,
    build_adjacency,
    graph_edit_distance,
    k_shortest_paths,
    load_triples_tsv,
    out_neighbourhood,
    perturb_all,
    perturb_last1,
    perturb_last2,
    sample_subgraph,
    sample_subgraphs,
    save_triples_tsv,
)


def T(h, r, t):
    return Triple(h, r, t)


# ---------------------------------------------------------------------------
# brute-force path oracle: enumerate every simple path by walking the
# same bidirectional arc set, with no pruning or heaps involved.


def all_simple_paths(graph, source, target):
    arcs = {}
    for t in graph.triples:
        arcs.setdefault(t.head, []).append((t.relation, t.tail, 0, t))
        if t.tail != t.head:
            arcs.setdefault(t.tail, []).append((t.relation, t.head, 1, t))

    found = []

    def walk(node, visited, trips, key):
        if node == target and trips:
            found.append((len(trips), key, tuple(trips)))
            return
        for rel, nxt, flag, trip in arcs.get(node, []):
            if nxt in visited:
                continue
            walk(nxt, visited | {nxt}, trips + [trip], key + ((rel, nxt, flag),))

    if source == target:
        return [[]]
    walk(source, {source}, [], ())
    found.sort()
    return [list(trips) for _, _, trips in found]


def random_graph(rng, n_entities, n_triples, n_relations=2):
    ents = [f"e{i}" for i in range(n_entities)]
    rels = [f"r{i}" for i in range(n_relations)]
    triples = set()
    guard = 0
    while len(triples) < n_triples and guard < 200:
        guard += 1
        h, t = rng.choice(ents, size=2, replace=False)
        triples.add(T(str(h), str(rng.choice(rels)), str(t)))
    return KnowledgeGraph(triples, extra_entities=ents, extra_relations=rels)


# ---------------------------------------------------------------------------
# KnowledgeGraph basics


def test_graph_vocabularies_come_from_triples():
    g = KnowledgeGraph([T("a", "r", "b")], extra_entities=["z"])
    assert g.entities == {"a", "b", "z"}
    assert g.relations == {"r"}
    assert len(g) == 1


def test_graph_rejects_reserved_relation():
    with pytest.raises(GraphError):
        KnowledgeGraph([T("a", SELF_LOOP, "b")])


def test_graph_is_immutable():
    g = KnowledgeGraph([T("a", "r", "b")])
    with pytest.raises(AttributeError):
        g.triples = frozenset()


def test_tsv_round_trip(tmp_path):
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "s", "c"), T("甄嬛", "IsTitleOf", "熹妃")])
    path = tmp_path / "kg.tsv"
    save_triples_tsv(g, path)
    loaded = load_triples_tsv(path)
    assert loaded.triples == g.triples


def test_tsv_comments_and_blank_lines(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("# comment\n\na\tr\tb\n", encoding="utf-8")
    assert load_triples_tsv(path).triples == {T("a", "r", "b")}


def test_tsv_malformed_line_reports_number(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\na\tb\n", encoding="utf-8")
    with pytest.raises(GraphError, match="line 2"):
        load_triples_tsv(path)


# ---------------------------------------------------------------------------
# k shortest paths


def test_single_edge_path():
    g = KnowledgeGraph([T("a", "r", "b")])
    assert k_shortest_paths(g, "a", "b", 3) == [[T("a", "r", "b")]]


def test_reverse_traversal_of_directed_triple():
    # Stored direction is a->b; walking b->a reports the stored triple.
    g = KnowledgeGraph([T("a", "r", "b")])
    assert k_shortest_paths(g, "b", "a", 1) == [[T("a", "r", "b")]]


def test_source_equals_target_gives_single_empty_path():
    g = KnowledgeGraph([T("a", "r", "b")])
    assert k_shortest_paths(g, "a", "a", 4) == [[]]


def test_unreachable_gives_no_paths():
    g = KnowledgeGraph([T("a", "r", "b"), T("c", "r", "d")])
    assert k_shortest_paths(g, "a", "d", 3) == []


def test_unknown_entity_raises():
    g = KnowledgeGraph([T("a", "r", "b")])
    with pytest.raises(GraphError):
        k_shortest_paths(g, "a", "nope", 1)
    with pytest.raises(GraphError):
        k_shortest_paths(g, "a", "b", 0)


def test_parallel_relations_are_distinct_paths():
    g = KnowledgeGraph([T("a", "r1", "b"), T("a", "r2", "b")])
    paths = k_shortest_paths(g, "a", "b", 5)
    assert paths == [[T("a", "r1", "b")], [T("a", "r2", "b")]]


def test_tie_breaking_prefers_smaller_relation_then_entity():
    g = KnowledgeGraph([
        T("s", "r1", "m1"), T("m1", "r1", "t"),
        T("s", "r1", "m2"), T("m2", "r1", "t"),
        T("s", "r0", "m3"), T("m3", "r9", "t"),
    ])
    paths = k_shortest_paths(g, "s", "t", 3)
    # All three have length 2; lexicographic (relation, entity) order decides.
    assert paths[0][0] == T("s", "r0", "m3")
    assert paths[1][0] == T("s", "r1", "m1")
    assert paths[2][0] == T("s", "r1", "m2")


@pytest.mark.parametrize("seed", range(12))
def test_k_shortest_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities=6, n_triples=9)
    ents = sorted(g.entities)
    src = ents[int(rng.integers(len(ents)))]
    dst = ents[int(rng.integers(len(ents)))]
    expect = all_simple_paths(g, src, dst)[:5]
    got = k_shortest_paths(g, src, dst, 5)
    assert got == expect


def test_five_node_parallel_routes_match_enumeration():
    g = KnowledgeGraph([
        T("a", "r", "b"), T("b", "r", "e"),
        T("a", "s", "c"), T("c", "s", "e"),
        T("a", "r", "d"), T("d", "r", "e"), T("d", "s", "e"),
    ])
    assert k_shortest_paths(g, "a", "e", 10) == all_simple_paths(g, "a", "e")


# ---------------------------------------------------------------------------
# subgraph sampling and GED


def test_sample_subgraph_unions_pairwise_paths():
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "r", "c"), T("x", "r", "y")])
    sub = sample_subgraph(g, ["a"], ["c"])
    assert sub.triples == {T("a", "r", "b"), T("b", "r", "c")}
    multi = sample_subgraph(g, ["a", "x"], ["c", "y"])
    assert multi.triples == g.triples


def test_sample_subgraph_self_pair_keeps_isolated_entity():
    g = KnowledgeGraph([T("a", "r", "b")])
    sub = sample_subgraph(g, ["a"], ["a"])
    assert sub.triples == set()
    assert sub.entities == {"a"}


def test_sample_subgraph_respects_k():
    # k = 1 keeps only the single best route.
    g = KnowledgeGraph([T("a", "r1", "b"), T("a", "r2", "b")])
    sub = sample_subgraph(g, ["a"], ["b"], k=1)
    assert sub.triples == {T("a", "r1", "b")}


def reference_best_path(adj, source, target, banned_arcs, banned_nodes):
    """The uniform-cost search `_best_path` replaced: a heap of whole
    paths, each pushed with its full (relation, neighbor, flag) key."""
    heap = [(0, (), source, ())]
    seen = set()
    while heap:
        _, _, node, arcs = heapq.heappop(heap)
        if node == target:
            return arcs
        if node in seen:
            continue
        seen.add(node)
        for arc in adj.get(node, ()):
            if arc.neighbor in seen or arc.neighbor in banned_nodes:
                continue
            if (node, arc) in banned_arcs:
                continue
            nxt = arcs + (arc,)
            key = tuple((a.relation, a.neighbor, a.flag) for a in nxt)
            heapq.heappush(heap, (len(nxt), key, arc.neighbor, nxt))
    return None


def graph_with_parallels_and_loop(rng, n_entities, n_triples):
    """A random graph plus a parallel triple beside its first one, a
    self-loop, and one entity with no edges."""
    g = random_graph(rng, n_entities, n_triples, n_relations=3)
    first = min(g.triples)
    extra = {T(first.head, "r9", first.tail), T(first.tail, "r0", first.tail)}
    return KnowledgeGraph(g.triples | extra,
                          extra_entities=g.entities | {"lonely"})


def ranked_steps(graph):
    """Every (node, arc) step of the arc adjacency, in the order of the
    ranks the traversal index gives them."""
    adj = arc_adjacency(graph)
    return adj, sorted(((node, arc) for node in adj for arc in adj[node]),
                       key=lambda step: step[1])


@pytest.mark.parametrize("seed", range(30))
def test_traversal_index_ranks_the_arcs_in_key_order(seed):
    rng = np.random.default_rng(seed)
    g = graph_with_parallels_and_loop(rng, 7, int(rng.integers(4, 14)))
    index = kgraph._traversal_adjacency(g)
    adj, steps = ranked_steps(g)
    assert index.names == tuple(sorted(g.entities))
    assert all(index.names[index.ids[e]] == e for e in g.entities)
    assert index.triple == tuple(arc.triple for _, arc in steps)
    assert [index.names[n] for n in index.target] \
        == [arc.neighbor for _, arc in steps]
    rank = {step: r for r, step in enumerate(steps)}
    for node, name in enumerate(index.names):
        assert index.arcs[node] == tuple(
            (rank[(name, arc)], index.ids[arc.neighbor])
            for arc in adj.get(name, ()))
    assert kgraph._traversal_adjacency(g) is index


@pytest.mark.parametrize("seed", range(30))
def test_best_path_matches_the_heap_search_it_replaced(seed):
    # the id-based search against the heap search over arc tuples; the
    # same random bans, as arc ranks and node marks on one side and as
    # (node, arc) steps and entity names on the other
    rng = np.random.default_rng(seed)
    g = graph_with_parallels_and_loop(rng, 7, int(rng.integers(4, 14)))
    index = kgraph._traversal_adjacency(g)
    adj, steps = ranked_steps(g)
    ents = sorted(g.entities)
    for _ in range(20):
        src, dst = (str(e) for e in rng.choice(ents, size=2))
        banned_nodes = {str(e) for e in rng.choice(ents, size=2)} - {src}
        picks = rng.random(len(steps)) < 0.2
        banned_ranks = {r for r, pick in enumerate(picks) if pick}
        blocked = [name in banned_nodes for name in index.names]
        got = kgraph._best_path(index, index.ids[src], index.ids[dst],
                                banned_ranks, blocked)
        assert blocked == [name in banned_nodes for name in index.names]
        want = reference_best_path(adj, src, dst,
                                   {steps[r] for r in banned_ranks},
                                   banned_nodes)
        assert (None if got is None
                else tuple(steps[r][1] for r in got)) == want


@pytest.mark.parametrize("seed", range(20))
def test_k_shortest_paths_match_the_arc_search_they_replaced(seed):
    rng = np.random.default_rng(1000 + seed)
    g = graph_with_parallels_and_loop(rng, 7, int(rng.integers(4, 16)))
    adj = arc_adjacency(g)
    ents = sorted(g.entities)
    for src, dst in itertools.permutations(ents, 2):
        for k in range(1, 7):
            want = [[arc.triple for arc in path]
                    for path in arc_yen(adj, src, dst, k)]
            assert k_shortest_paths(g, src, dst, k) == want


@pytest.mark.parametrize("seed", range(10))
def test_trusted_graph_equals_the_validated_one(seed):
    rng = np.random.default_rng(seed)
    g = graph_with_parallels_and_loop(rng, 8, int(rng.integers(3, 14)))
    for triples in (frozenset(), frozenset(sorted(g.triples)[:2]), g.triples):
        for extra in (frozenset(), frozenset({"lonely"}), g.entities):
            trusted = KnowledgeGraph._trusted(triples, extra)
            checked = KnowledgeGraph(triples, extra_entities=extra)
            assert trusted == checked
            assert hash(trusted) == hash(checked)
            assert (trusted.entities, trusted.relations) \
                == (checked.entities, checked.relations)


@pytest.mark.parametrize("bad, message", [
    (T("a", SELF_LOOP, "b"), f"{SELF_LOOP} is reserved and cannot be stored"),
    (T("", "r", "b"), "triple with empty field"),
    (T("a", "", "b"), "triple with empty field"),
    (T("a", "r", None), "triple with empty field"),
    (T("a", "r", 7), "triple with a non-string field"),
    (T(("a",), "r", "b"), "triple with a non-string field"),
], ids=("self", "empty_head", "empty_relation", "none_tail", "int_tail",
        "tuple_head"))
def test_malformed_triple_is_named_in_the_error(bad, message):
    good = [T("a", "r", "b"), T("b", "s", "c"), T("c", "r", "a")]
    for triples in (good + [bad], [list(t) for t in good + [bad]]):
        with pytest.raises(GraphError) as exc:
            KnowledgeGraph(triples)
        assert str(exc.value) == f"{message}: {bad}"


def test_sampling_checks_k_before_any_request():
    # no request below needs a path search, so k is the only fault
    g = KnowledgeGraph([T("a", "r", "b")])
    for sample in (lambda: sample_subgraph(g, ["a"], ["a"], k=0),
                   lambda: sample_subgraph(g, [], [], k=0),
                   lambda: sample_subgraphs(g, [(["a"], ["a"]), ([], ["b"])],
                                            k=0),
                   lambda: sample_subgraphs(g, [], k=0)):
        with pytest.raises(GraphError, match="k must be >= 1"):
            sample()


@pytest.mark.parametrize("seed", range(24))
def test_sample_subgraphs_is_the_union_of_per_pair_paths(seed):
    # random multi-entity turns over a graph with parallel triples, a
    # self-loop and an unreachable entity; self pairs, unreachable pairs
    # and repeated pairs all occur
    rng = np.random.default_rng(seed)
    g = graph_with_parallels_and_loop(rng, 8, int(rng.integers(5, 14)))
    ents = sorted(g.entities)
    first = min(g.triples)

    def pick():
        return [str(e) for e in rng.choice(ents, size=int(rng.integers(0, 4)),
                                           replace=False)]

    requests = [(pick(), pick()) for _ in range(10)]
    requests += [([first.head, "lonely"], [first.tail, first.head]),
                 (["lonely"], ["lonely", ents[0]])]
    requests += requests[:4]
    for k in (1, 3, 5):
        got = sample_subgraphs(g, requests, k)
        assert len(got) == len(requests)
        for (sources, targets), sub in zip(requests, got):
            triples, isolated = set(), set()
            for s in set(sources):
                for t in set(targets):
                    if s == t:
                        isolated.add(s)
                        continue
                    for path in k_shortest_paths(g, s, t, k):
                        triples.update(path)
            checked = KnowledgeGraph(triples, extra_entities=isolated)
            assert sub == checked and hash(sub) == hash(checked)
            assert sub == sample_subgraph(g, sources, targets, k)


def test_sample_subgraphs_searches_each_distinct_pair_once(monkeypatch):
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "r", "c"), T("a", "s", "c")])
    searched = []
    real = kgraph.k_shortest_paths

    def counting(graph, source, target, k):
        searched.append((source, target))
        return real(graph, source, target, k)

    monkeypatch.setattr(kgraph, "k_shortest_paths", counting)
    requests = [(["a"], ["c"]), (["a", "b"], ["c"]), (["a"], ["c", "a"]),
                (["b"], ["c"])]
    subs = sample_subgraphs(g, requests, k=2)
    assert sorted(searched) == [("a", "c"), ("b", "c")]
    assert subs[2].triples == subs[0].triples
    assert subs[2].entities == subs[0].entities | {"a"}
    assert subs[3].triples == {T("b", "r", "c"), T("a", "r", "b"),
                               T("a", "s", "c")}


def test_sample_subgraphs_rejects_unknown_entities():
    g = KnowledgeGraph([T("a", "r", "b")])
    with pytest.raises(GraphError, match="nope"):
        sample_subgraphs(g, [(["a"], ["b"]), (["nope"], [])])


def test_ged_is_symmetric_difference():
    g1 = KnowledgeGraph([T("a", "r", "b"), T("b", "r", "c")])
    g2 = KnowledgeGraph([T("a", "r", "b"), T("b", "r", "d")])
    assert graph_edit_distance(g1, g2) == 2
    assert graph_edit_distance(g1, g1) == 0
    assert graph_edit_distance(g1, KnowledgeGraph()) == 2


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_ged_triangle_inequality_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = random_graph(rng, 5, 6)
    b = random_graph(rng, 5, 6)
    c = random_graph(rng, 5, 6)
    assert graph_edit_distance(a, b) == graph_edit_distance(b, a)
    assert graph_edit_distance(a, c) <= graph_edit_distance(a, b) + graph_edit_distance(b, c)


# ---------------------------------------------------------------------------
# out-neighbourhoods


def test_out_neighbourhood_of_a_source_with_no_out_edge():
    g = KnowledgeGraph([T("a", "r", "b"), T("c", "r", "b")],
                       extra_entities=["z"])
    for source in ("b", "z"):
        sub = out_neighbourhood(g, [source], 3)
        assert sub == KnowledgeGraph(extra_entities=[source])


def test_out_neighbourhood_follows_a_cycle_once():
    cycle = [T("a", "r", "b"), T("b", "s", "c"), T("c", "r", "a")]
    g = KnowledgeGraph(cycle + [T("d", "r", "a")])
    assert out_neighbourhood(g, ["a"], 1) == KnowledgeGraph(cycle[:1])
    assert out_neighbourhood(g, ["a"], 2) == KnowledgeGraph(cycle[:2])
    for hops in (3, 6):
        assert out_neighbourhood(g, ["a"], hops) == KnowledgeGraph(cycle)


def test_out_neighbourhood_leaves_out_entities_beyond_the_hops():
    """On a chain, `hops` steps reach hops + 1 entities; the triple
    leaving the last of them is left out, and so are entities that only
    point at the sources."""
    chain = [T(f"n{i}", "r", f"n{i + 1}") for i in range(5)]
    g = KnowledgeGraph(chain + [T("x", "r", "n0"), T("n0", "s", "n2")])
    sub = out_neighbourhood(g, ["n0", "ghost"], 2)
    assert sub.entities == {"n0", "n1", "n2", "n3"}
    assert sub.triples == {*chain[:3], T("n0", "s", "n2")}


def test_out_neighbourhood_without_a_source_in_the_graph_is_the_graph():
    g = KnowledgeGraph([T("a", "r", "b")], extra_entities=["c"])
    for sources in ((), ["ghost"]):
        assert out_neighbourhood(g, sources, 2) is g
    with pytest.raises(GraphError, match="hops"):
        out_neighbourhood(g, ["a"], 0)


@pytest.mark.parametrize("seed", range(20))
def test_out_neighbourhood_matches_directed_distances(seed):
    """Entities at directed distance <= hops from a source, and the
    triples whose head lies at distance <= hops - 1, against a
    breadth-first oracle of distances."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 9, 14)
    sources = [f"e{i}" for i in rng.choice(11, size=3, replace=False)]
    dist = {s: 0 for s in sources if s in g.entities}
    queue = list(dist)
    for node in queue:
        for t in sorted(g.triples):
            if t.head == node and t.tail not in dist:
                dist[t.tail] = dist[node] + 1
                queue.append(t.tail)
    for hops in (1, 2, 4):
        sub = out_neighbourhood(g, sources, hops)
        if not dist:
            assert sub is g
            continue
        assert sub.entities == {e for e, d in dist.items() if d <= hops}
        assert sub.triples == {t for t in g.triples
                               if dist.get(t.head, hops) < hops}


def test_out_edges_is_built_once_per_graph():
    g = KnowledgeGraph([T("a", "r", "b"), T("a", "s", "c"), T("b", "r", "c")])
    out = kgraph.out_edges(g)
    assert {h: set(ts) for h, ts in out.items()} == {
        "a": {T("a", "r", "b"), T("a", "s", "c")}, "b": {T("b", "r", "c")}}
    assert kgraph.out_edges(g) is out


# ---------------------------------------------------------------------------
# adjacency tensor


def test_adjacency_self_loops_and_normalized_tails():
    g = KnowledgeGraph([T("a", "r", "b"), T("a", "r", "c")])
    adj = build_adjacency(g, ("a", "b", "c"), ("r",))
    rows = adjacency_rows(adj)
    assert rows[(0, 1)] == ((0, 1.0),)  # self-loop for a
    assert rows[(0, 0)] == ((1, 0.5), (2, 0.5))  # tails split evenly
    assert (1, 0) not in rows  # absent (head, relation) carries no mass
    mask = relation_mask(adj)
    assert mask[0, 0] == 1.0
    assert mask[1, 0] == 0.0
    assert np.all(mask[:, adj.self_index] == 1.0)


def test_adjacency_total_weight_per_head():
    g = KnowledgeGraph([T("a", "r", "b"), T("a", "s", "b"), T("a", "s", "c")])
    adj = build_adjacency(g, ("a", "b", "c"), ("r", "s"))
    rows = adjacency_rows(adj)
    for head, n_active in ((0, 2), (1, 0), (2, 0)):
        total = sum(w for (h, _), tails in rows.items() if h == head for _, w in tails)
        assert total == pytest.approx(1.0 + n_active)


def test_adjacency_rejects_unknown_vocab_entries():
    g = KnowledgeGraph([T("a", "r", "b")])
    with pytest.raises(GraphError):
        build_adjacency(g, ("a",), ("r",))
    with pytest.raises(GraphError):
        build_adjacency(g, ("a", "b"), ())
    with pytest.raises(GraphError):
        build_adjacency(g, ("a", "b"), ("r", SELF_LOOP))


def test_adjacency_edge_order_self_block_then_sorted_triples():
    g = KnowledgeGraph([T("c", "r", "a"), T("a", "r", "b")])
    adj = build_adjacency(g, ("a", "b", "c"), ("r",))
    n = adj.n_entities
    assert list(adj.head[:n]) == [0, 1, 2]
    assert list(adj.tail[:n]) == [0, 1, 2]
    assert list(adj.head[n:]) == [0, 2]  # (a,r,b) sorts before (c,r,a)


# ---------------------------------------------------------------------------
# perturbations


def test_perturb_all_batch_of_two_swaps():
    a = KnowledgeGraph([T("a", "r", "b")])
    b = KnowledgeGraph([T("x", "r", "y")])
    out = perturb_all([a, b], seed=0)
    assert out[0].graph == b and out[1].graph == a
    assert out[0].hypothesis == {"x", "y"}
    assert out[1].hypothesis == {"a", "b"}


def test_perturb_all_rejects_singleton_batch():
    with pytest.raises(GraphError):
        perturb_all([KnowledgeGraph([T("a", "r", "b")])], seed=0)


@pytest.mark.parametrize("seed", range(100))
def test_perturb_all_is_derangement_preserving_multiset(seed):
    graphs = [KnowledgeGraph([T(f"a{i}", "r", f"b{i}")]) for i in range(6)]
    out = perturb_all(graphs, seed=seed)
    origin = [[g is r.graph for g in graphs].index(True) for r in out]
    assert sorted(origin) == list(range(6))
    assert all(j != i for i, j in enumerate(origin))


def test_perturb_all_deterministic():
    graphs = [KnowledgeGraph([T(f"a{i}", "r", f"b{i}")]) for i in range(5)]
    first = perturb_all(graphs, seed=9)
    second = perturb_all(graphs, seed=9)
    assert all(a.graph is b.graph for a, b in zip(first, second))


def test_perturb_last1_single_path():
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "s", "c")],
                       extra_entities=["d", "e"])
    res = perturb_last1(g, [[T("a", "r", "b"), T("b", "s", "c")]], seed=1,
                        pool=g.entities)
    assert len(res.edits) == 1
    old, new = res.edits[0]
    assert old == T("b", "s", "c")
    assert new.head == "b" and new.relation == "s" and new.tail != "c"
    assert res.hypothesis == {new.tail}
    assert old not in res.graph.triples and new in res.graph.triples
    assert T("a", "r", "b") in res.graph.triples


def test_perturb_last1_dedupes_shared_final_triple():
    g = KnowledgeGraph([T("a", "r", "b"), T("x", "r", "b"), T("b", "s", "c")],
                       extra_entities=["d", "e", "f"])
    paths = [[T("a", "r", "b"), T("b", "s", "c")],
             [T("x", "r", "b"), T("b", "s", "c")]]
    res = perturb_last1(g, paths, seed=3, pool=g.entities)
    assert len(res.edits) == 1


def test_perturb_last1_edit_log_equals_triple_difference():
    rng = np.random.default_rng(0)
    for seed in range(25):
        g = random_graph(rng, 6, 8)
        paths = [[t] for t in sorted(g.triples)[:3]]
        res = perturb_last1(g, paths, seed=seed, pool=g.entities)
        delta = g.triples ^ res.graph.triples
        logged = {t for pair in res.edits for t in pair}
        assert delta == logged


def test_perturb_last1_deterministic_given_seed():
    g = KnowledgeGraph([T("a", "r", "b")], extra_entities=["c", "d", "e", "f"])
    r1 = perturb_last1(g, [[T("a", "r", "b")]], seed=5, pool=g.entities)
    r2 = perturb_last1(g, [[T("a", "r", "b")]], seed=5, pool=g.entities)
    assert r1.edits == r2.edits


def test_perturb_last1_pool_exhaustion():
    g = KnowledgeGraph([T("a", "r", "b")])
    with pytest.raises(GraphError, match="pool"):
        perturb_last1(g, [[T("a", "r", "b")]], seed=0, pool=["b"])


def test_perturb_last1_returns_none_without_a_real_step():
    g = KnowledgeGraph([T("a", "r", "b")], extra_entities=["c"])
    assert perturb_last1(g, [], seed=0, pool=g.entities) is None
    assert perturb_last1(g, [[]], seed=0, pool=g.entities) is None
    # a walk that only idled has no real step to edit
    idle = [[T("a", SELF_LOOP, "a"), T("a", SELF_LOOP, "a")]]
    assert perturb_last1(g, idle, seed=0, pool=g.entities) is None


def test_perturb_last1_drops_self_loop_steps():
    g = KnowledgeGraph([T("a", "r", "b")], extra_entities=["c", "d"])
    path = [T("a", "r", "b"), T("b", SELF_LOOP, "b")]
    res = perturb_last1(g, [path], seed=0, pool=g.entities)
    assert res == perturb_last1(g, [path[:1]], seed=0, pool=g.entities)
    assert [old for old, _ in res.edits] == [T("a", "r", "b")]


def test_perturb_last2_rewires_both_steps():
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "s", "c")],
                       extra_entities=["d", "e", "f"])
    res = perturb_last2(g, [[T("a", "r", "b"), T("b", "s", "c")]], seed=2,
                        pool=g.entities)
    assert len(res.edits) == 2
    (old1, new1), (old2, new2) = res.edits
    assert old1 == T("a", "r", "b") and old2 == T("b", "s", "c")
    assert new1.head == "a" and new1.relation == "r" and new1.tail != "b"
    assert new2.relation == "s" and new2.tail != "c"
    assert new2.head == new1.tail  # the rewired steps still chain
    assert res.hypothesis == {new2.tail}
    assert g.triples ^ res.graph.triples == {old1, old2, new1, new2}


def test_perturb_last2_skips_short_paths():
    g = KnowledgeGraph([T("a", "r", "b")], extra_entities=["c", "d"])
    assert perturb_last2(g, [[T("a", "r", "b")]], seed=0, pool=g.entities) is None
    # one real step around a self-loop is still one step
    idle = [[T("a", SELF_LOOP, "a"), T("a", "r", "b"), T("b", SELF_LOOP, "b")]]
    assert perturb_last2(g, idle, seed=0, pool=g.entities) is None


def test_perturb_last2_edits_the_real_steps_around_a_self_loop():
    g = KnowledgeGraph([T("a", "q", "b"), T("b", "r", "c")],
                       extra_entities=["d", "e", "f"])
    real = (T("a", "q", "b"), T("b", "r", "c"))
    # the walk idles at b before its last step, so p[-2] is a self-loop
    path = [real[0], T("b", SELF_LOOP, "b"), real[1]]
    res = perturb_last2(g, [path], seed=0, pool=g.entities)
    assert tuple(old for old, _ in res.edits) == real
    assert res == perturb_last2(g, [real], seed=0, pool=g.entities)


def test_perturb_edits_only_the_paths_long_enough():
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "s", "c"), T("x", "r", "y")],
                       extra_entities=["d", "e", "f"])
    paths = [[T("x", "r", "y")], [T("a", "r", "b"), T("b", "s", "c")]]
    res = perturb_last2(g, paths, seed=1, pool=g.entities)
    assert {old for old, _ in res.edits} == {T("a", "r", "b"), T("b", "s", "c")}
    assert T("x", "r", "y") in res.graph.triples


def test_grounding_paths_reach_targets_within_four_steps():
    chain = [T(f"n{i}", "r", f"n{i + 1}") for i in range(6)]
    g = KnowledgeGraph(chain + [T("n0", "s", "n2")])
    paths = kgraph.grounding_paths(g, ["n0", "ghost"], ["n2", "n5", "ghost"])
    assert sorted(paths) == sorted([
        tuple(chain[:2]), (T("n0", "s", "n2"),),
        (T("n0", "s", "n2"), *chain[2:5])])
    assert kgraph.grounding_paths(g, ["n2"], ["n2"]) == []


def test_perturb_last2_longer_path_uses_final_two():
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "r", "c"), T("c", "s", "d")],
                       extra_entities=["e", "f", "g"])
    path = [T("a", "r", "b"), T("b", "r", "c"), T("c", "s", "d")]
    res = perturb_last2(g, [path], seed=4, pool=g.entities)
    removed = {old for old, _ in res.edits}
    assert removed == {T("b", "r", "c"), T("c", "s", "d")}
    assert T("a", "r", "b") in res.graph.triples


def test_perturb_last2_deterministic_and_logged():
    g = KnowledgeGraph([T("a", "r", "b"), T("b", "s", "c")],
                       extra_entities=["d", "e", "f", "g"])
    path = [[T("a", "r", "b"), T("b", "s", "c")]]
    r1 = perturb_last2(g, path, seed=11, pool=g.entities)
    r2 = perturb_last2(g, path, seed=11, pool=g.entities)
    assert r1.edits == r2.edits
    delta = g.triples ^ r1.graph.triples
    assert delta == {t for pair in r1.edits for t in pair}
