"""Knowledge graph toolbox.

Directed labeled triples, TSV persistence, deterministic k-shortest
loopless paths (bidirectional traversal over the stored directed
edges), per-turn subgraph sampling (one path search per distinct entity
pair for a whole corpus), the out-neighbourhood an N-hop walk from a
turn's sources can use, triple-level graph edit distance,
the normalized adjacency tensor that the reasoning decoder walks, and
the three graph perturbation protocols used to probe whether a trained
model actually reads its graph.

The path searches run on integers: each graph keeps one traversal
index, its entities numbered as nodes and its arcs numbered by rank in
key order, and paths become triples only when they are returned. A
graph built from triples of a graph already checked (a turn's sampled
subgraph, a bundle's subgraph row) is not checked again;
`KnowledgeGraph` itself checks its triples by column, on the distinct
names.

Everything here is deterministic: collections are processed in sorted
order and ties are broken lexicographically by (relation, entity).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

SELF_LOOP = "<self>"


class GraphError(ValueError):
    """Malformed triples, unknown entities, or an unusable perturbation."""


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


class KnowledgeGraph:
    """Immutable set of triples plus the entity/relation vocabularies
    they induce. `extra_entities` keeps nodes that currently have no
    edges (isolated sources, entities orphaned by a perturbation).
    The traversal index the path searches walk, and the head -> triples
    index the directed walks read (`out_edges`), are built on first use
    and kept with the graph; an edit makes a new graph, never a stale
    index."""

    __slots__ = ("triples", "entities", "relations", "_traversal", "_out")

    def __init__(self, triples: Iterable[Triple] = (),
                 extra_entities: Iterable[str] = (),
                 extra_relations: Iterable[str] = ()):
        ts = frozenset(t if type(t) is Triple else Triple(*t) for t in triples)
        heads, relations, tails = _columns(ts)
        relations = frozenset(relations)
        entities = frozenset(heads).union(tails)
        # checked by column, on the distinct names; the per-triple loop
        # runs only to name the offending triple
        if SELF_LOOP in relations or not _all_names(relations) \
                or not _all_names(entities):
            raise _malformed(ts)
        self._set(ts, entities.union(extra_entities),
                  relations.union(extra_relations))

    @classmethod
    def _trusted(cls, triples: frozenset,
                 extra_entities: frozenset = frozenset()) -> KnowledgeGraph:
        """The graph of `triples`, stored `Triple`s of a validated graph,
        with nothing re-wrapped or re-checked: it equals (and hashes as)
        `KnowledgeGraph(triples, extra_entities)`."""
        heads, relations, tails = _columns(triples)
        graph = object.__new__(cls)
        graph._set(triples, frozenset(heads).union(tails, extra_entities),
                   frozenset(relations))
        return graph

    def _set(self, triples: frozenset, entities: frozenset,
             relations: frozenset) -> None:
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "entities", entities)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_traversal", None)
        object.__setattr__(self, "_out", None)

    def __setattr__(self, *_):
        raise AttributeError("KnowledgeGraph is immutable")

    def __eq__(self, other):
        return (isinstance(other, KnowledgeGraph)
                and self.triples == other.triples
                and self.entities == other.entities
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.triples, self.entities, self.relations))

    def __len__(self):
        return len(self.triples)

    def __repr__(self):
        return (f"KnowledgeGraph({len(self.triples)} triples, "
                f"{len(self.entities)} entities, {len(self.relations)} relations)")

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples)


def _columns(triples: frozenset) -> tuple:
    """(heads, relations, tails) of a set of triples."""
    return tuple(zip(*triples)) if triples else ((), (), ())


def _all_names(values: frozenset) -> bool:
    return all(isinstance(v, str) and v for v in values)


def _malformed(triples: frozenset) -> GraphError:
    """The error naming the first triple, in iteration order, that is
    reserved or has an empty field; failing that, one with a field that
    is not a string."""
    for t in triples:
        if t.relation == SELF_LOOP:
            return GraphError(f"{SELF_LOOP} is reserved and cannot be stored: {t}")
        if not t.head or not t.relation or not t.tail:
            return GraphError(f"triple with empty field: {t}")
    return GraphError("triple with a non-string field: "
                      f"{next(t for t in triples if not _all_names(t))}")


# ---------------------------------------------------------------------------
# TSV persistence: head <TAB> relation <TAB> tail, '#' starts a comment.


def _utf8_lines(fh, error: type):
    """fh's lines; text that is not UTF-8 raises `error` naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{fh.name}: not UTF-8 text ({exc.reason})") from None


def load_triples_tsv(path, extra_entities: Iterable[str] = ()) -> KnowledgeGraph:
    """The graph of a head/relation/tail TSV file, with `extra_entities`
    added as nodes (the file holds no entity without a triple)."""
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(_utf8_lines(fh, GraphError), start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                raise GraphError(f"{path}: line {lineno}: expected 3 tab-separated "
                                 f"fields, got {line!r}")
            triples.append(Triple(parts[0].strip(), parts[1].strip(), parts[2].strip()))
    return KnowledgeGraph(triples, extra_entities=extra_entities)


def save_triples_tsv(graph: KnowledgeGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# head\trelation\ttail\n")
        for t in graph.sorted_triples():
            fh.write(f"{t.head}\t{t.relation}\t{t.tail}\n")


# ---------------------------------------------------------------------------
# k shortest loopless paths


class _Traversal(NamedTuple):
    """A graph's traversal index: its entities as node ids and its
    walkable arcs as ranks (see `_traversal_adjacency`)."""
    ids: dict          # entity -> node id
    names: tuple       # node id -> entity
    arcs: tuple        # node id -> ((arc rank, neighbour id), ...) by rank
    triple: tuple      # arc rank -> the stored triple the arc walks
    target: tuple      # arc rank -> the neighbour id the arc leads to


def _traversal_adjacency(graph: KnowledgeGraph) -> _Traversal:
    """The index the path searches walk, built once per graph.

    Stored triples are walkable in both directions: a triple (h, r, t)
    gives the arc h -> t with flag 0 and, unless it is a self-loop, the
    arc t -> h with flag 1; either arc reports the stored triple. An
    arc's rank is its position in the sort of all arcs by (relation,
    neighbour, flag, triple), so tuples of ranks compare as tuples of
    those keys, and each node's arcs are listed in key order. The flag
    and triple fix the node an arc leaves, so a rank names one step."""
    if graph._traversal is None:
        names = tuple(sorted(graph.entities))
        ids = {e: i for i, e in enumerate(names)}
        keys = []
        for t in graph.triples:
            head, tail = ids[t.head], ids[t.tail]
            keys.append((t.relation, t.tail, 0, t, head, tail))
            if tail != head:
                keys.append((t.relation, t.head, 1, t, tail, head))
        keys.sort()
        arcs: list[list] = [[] for _ in names]
        for rank, (*_, frm, to) in enumerate(keys):
            arcs[frm].append((rank, to))
        object.__setattr__(graph, "_traversal", _Traversal(
            ids, names, tuple(map(tuple, arcs)),
            tuple(key[3] for key in keys), tuple(key[5] for key in keys)))
    return graph._traversal


def _best_path(index: _Traversal, source: int, target: int, banned_arcs,
               blocked: list):
    """The path from node `source` to node `target` minimizing (length,
    lexicographic path key), avoiding the arc ranks in `banned_arcs` and
    the nodes marked in `blocked` (a per-node list, left unchanged).
    Returns a tuple of arc ranks, or None when target is unreachable.

    Breadth-first, each node's arcs taken in key order: nodes then
    leave the queue in (length, key) order of their paths, so the first
    arc that reaches a node ends that node's best path. Each node is
    entered once and remembers the step that reached it."""
    if source == target:
        return ()
    arcs = index.arcs
    seen = blocked.copy()
    seen[source] = True
    via = {}
    queue = [source]
    for node in queue:   # grows as nodes are entered
        for rank, nxt in arcs[node]:
            if seen[nxt] or rank in banned_arcs:
                continue
            seen[nxt] = True
            via[nxt] = (node, rank)
            if nxt == target:
                path = []
                while nxt != source:
                    nxt, rank = via[nxt]
                    path.append(rank)
                return tuple(reversed(path))
            queue.append(nxt)
    return None


def _yen(index: _Traversal, source: int, target: int, k: int) -> list:
    """Yen (1971): the k shortest loopless source -> target paths over a
    traversal index, as tuples of arc ranks ordered by (length, key)."""
    unblocked = [False] * len(index.names)
    first = _best_path(index, source, target, (), unblocked)
    if first is None:
        return []

    accepted = [first]
    candidates: list = []
    known = {first}
    while len(accepted) < k:
        prev = accepted[-1]
        root_nodes = unblocked.copy()   # prev's nodes before the spur node
        spur_node = source
        for i, rank in enumerate(prev):
            root = prev[:i]
            banned_arcs = {path[i] for path in accepted
                           if len(path) > i and path[:i] == root}
            spur = _best_path(index, spur_node, target, banned_arcs,
                              root_nodes)
            if spur is not None:
                cand = root + spur
                if cand not in known:
                    known.add(cand)
                    heapq.heappush(candidates, (len(cand), cand))
            root_nodes[spur_node] = True
            spur_node = index.target[rank]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates)[1])
    return accepted


def _check_entities(graph: KnowledgeGraph, entities: Iterable[str]) -> None:
    for e in entities:
        if e not in graph.entities:
            raise GraphError(f"unknown entity {e!r}")


def k_shortest_paths(graph: KnowledgeGraph, source: str, target: str,
                     k: int) -> list[list[Triple]]:
    """Yen-style enumeration of the k shortest loopless paths between two
    entities, treating every stored triple as walkable in both
    directions with unit weight. Paths are reported as sequences of the
    stored triples. Parallel triples between the same endpoints yield
    distinct paths. source == target yields one empty path.

    The search walks the graph's traversal index on node ids and arc
    ranks; the index is built on the first call for a graph and reused
    by every later one, and paths become triples only here. Per-turn
    sampling (`sample_subgraphs`) calls this once per distinct pair.
    """
    if k < 1:
        raise GraphError("k must be >= 1")
    _check_entities(graph, (source, target))
    if source == target:
        return [[]]
    index = _traversal_adjacency(graph)
    return [[index.triple[rank] for rank in path]
            for path in _yen(index, index.ids[source], index.ids[target], k)]


def shortest_path_lengths(graph: KnowledgeGraph,
                          pairs: Iterable[tuple[str, str]]) -> dict:
    """Hop counts for each (source, target) pair under the same
    bidirectional traversal as k_shortest_paths; unreachable pairs map
    to None. One BFS per distinct source."""
    index = _traversal_adjacency(graph)
    pairs = sorted(set(pairs))
    for pair in pairs:
        _check_entities(graph, pair)
    by_source: dict[str, list] = {}
    out = {}
    for s, t in pairs:
        dist = by_source.get(s)
        if dist is None:
            dist = by_source[s] = [None] * len(index.names)
            start = index.ids[s]
            dist[start] = 0
            queue = [start]
            for node in queue:   # grows as nodes are reached
                hops = dist[node] + 1
                for _, nxt in index.arcs[node]:
                    if dist[nxt] is None:
                        dist[nxt] = hops
                        queue.append(nxt)
        out[(s, t)] = dist[index.ids[t]]
    return out


def sample_subgraph(graph: KnowledgeGraph, sources: Iterable[str],
                    targets: Iterable[str], k: int = 5) -> KnowledgeGraph:
    """Union of the triples on the top-k shortest paths over every
    (source, target) pair. A pair with source == target contributes its
    endpoint as an isolated node so the turn can still ground on it.
    To sample many turns over one graph, `sample_subgraphs` searches
    each distinct pair once."""
    if k < 1:
        raise GraphError("k must be >= 1")
    sources = sorted(set(sources))
    targets = sorted(set(targets))
    _check_entities(graph, sources + targets)
    triples: set[Triple] = set()
    isolated: set[str] = set()
    for s in sources:
        for t in targets:
            if s == t:
                isolated.add(s)
                continue
            for path in k_shortest_paths(graph, s, t, k):
                triples.update(path)
    return KnowledgeGraph._trusted(frozenset(triples), frozenset(isolated))


def sample_subgraphs(graph: KnowledgeGraph,
                     requests: Iterable[tuple[Iterable[str], Iterable[str]]],
                     k: int = 5) -> list[KnowledgeGraph]:
    """`sample_subgraph(graph, sources, targets, k)` for each
    (sources, targets) request, in order: one turn's subgraph per
    request. Yen runs once per distinct (source, target) pair, on the
    graph's traversal index built once, and the pair's triples serve
    every request that names it; a turn's graph is built from those
    stored triples without checking them again. The per-pair results
    live only for this call."""
    if k < 1:
        raise GraphError("k must be >= 1")
    by_pair: dict[tuple[str, str], KnowledgeGraph] = {}
    out = []
    for sources, targets in requests:
        sources = sorted(set(sources))
        targets = sorted(set(targets))
        _check_entities(graph, sources + targets)
        triples: set[Triple] = set()
        entities: set[str] = set()
        for s in sources:
            for t in targets:
                sub = by_pair.get((s, t))
                if sub is None:
                    sub = by_pair[(s, t)] = sample_subgraph(graph, (s,), (t,), k)
                triples |= sub.triples
                entities |= sub.entities
        out.append(KnowledgeGraph._trusted(frozenset(triples),
                                           frozenset(entities)))
    return out


def graph_edit_distance(a: KnowledgeGraph, b: KnowledgeGraph) -> int:
    """Symmetric difference of the triple sets (insertions + deletions)."""
    return len(a.triples ^ b.triples)


# ---------------------------------------------------------------------------
# Directed neighbourhoods: what a head -> tail walk can reach


def out_edges(graph: KnowledgeGraph) -> dict:
    """head -> the stored triples leaving it, in the graph's iteration
    order; an entity with no out-edge has no key. Built once per graph
    and kept with it."""
    if graph._out is None:
        out: dict = {}
        for t in graph.triples:
            out.setdefault(t.head, []).append(t)
        object.__setattr__(graph, "_out", out)
    return graph._out


def out_neighbourhood(graph: KnowledgeGraph, sources: Iterable[str],
                      hops: int) -> KnowledgeGraph:
    """The part of `graph` a walk of `hops` head -> tail steps from the
    sources can use: the entities within `hops` steps of the sources
    that are in the graph, and every triple leaving an entity within
    `hops - 1` steps. Any other triple leaves an entity that holds no
    walk mass before the last step, so a walk over this graph gives
    every entity it holds the mass the whole graph's walk gives it, and
    every other entity none. When no source is in the graph, the whole
    graph: a walk then starts from every entity."""
    if hops < 1:
        raise GraphError(f"hops must be >= 1, got {hops}")
    reached = graph.entities.intersection(sources)
    if not reached:
        return graph
    out = out_edges(graph)
    frontier = reached
    triples: set[Triple] = set()
    for _ in range(hops):
        leaving = [t for e in frontier for t in out.get(e, ())]
        triples.update(leaving)
        frontier = {t.tail for t in leaving}.difference(reached)
        if not frontier:
            break
        reached = reached.union(frontier)
    return KnowledgeGraph._trusted(frozenset(triples), reached)


# ---------------------------------------------------------------------------
# Adjacency tensor
#
# Logical shape |V| x |L'| x |V| over the entity list it is built on (for
# the model, one turn's subgraph entities), where L' is the global
# relation set plus SELF_LOOP. Realized as flat edge arrays: the
# self-loop block first (one per entity, weight 1, in entity-index
# order), then the graph's triples sorted by (head, relation, tail) with
# weight 1/#tails of their (head, relation) group. The fixed edge order
# keeps hop accumulation bit-reproducible.


@dataclass(frozen=True)
class AdjacencyTensor:
    entities: tuple
    relations: tuple          # global relations + SELF_LOOP last
    head: np.ndarray
    rel: np.ndarray
    tail: np.ndarray
    weight: np.ndarray

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def self_index(self) -> int:
        return len(self.relations) - 1

    def entity_index(self, entity: str) -> int:
        try:
            return self._entity_pos[entity]
        except KeyError:
            raise GraphError(f"unknown entity {entity!r}") from None

    @cached_property
    def _entity_pos(self) -> dict:
        return {e: i for i, e in enumerate(self.entities)}


@lru_cache(maxsize=8)
def _relation_index(relations: tuple) -> dict:
    """relation -> position for a relation vocabulary, built and checked
    once per vocabulary: every turn's graph is indexed against the same
    relations, each over its own entities."""
    if SELF_LOOP in relations:
        raise GraphError(f"{SELF_LOOP} must not appear in the relation vocabulary")
    rpos = {r: i for i, r in enumerate(relations)}
    if len(rpos) != len(relations):
        raise GraphError("duplicate entries in a vocabulary")
    return rpos


def build_adjacency(graph: KnowledgeGraph, entities: Sequence[str],
                    relations: Sequence[str]) -> AdjacencyTensor:
    """Index a graph against an entity list (a turn's own entities, in
    vocabulary order, for the model) and the global relations.

    Every entity gets a self-loop with weight 1 under the reserved
    SELF_LOOP relation; each (head, relation) group present in the graph
    distributes weight 1/#tails over its tails. (head, relation) pairs
    absent from the graph have no edge and carry zero mass.
    """
    entities = tuple(entities)
    relations = tuple(relations)
    rpos = _relation_index(relations)
    epos = {e: i for i, e in enumerate(entities)}
    if len(epos) != len(entities):
        raise GraphError("duplicate entries in a vocabulary")
    missing = graph.entities.difference(epos)
    if missing:
        raise GraphError(f"entities missing from vocabulary: {sorted(missing)[:5]}")
    missing_r = graph.relations.difference(rpos)
    if missing_r:
        raise GraphError(f"relations missing from vocabulary: {sorted(missing_r)}")

    n = len(entities)
    self_idx = len(relations)
    groups: dict[tuple[int, int], list[int]] = {}
    for t in graph.triples:
        groups.setdefault((epos[t.head], rpos[t.relation]), []).append(epos[t.tail])

    heads = list(range(n))
    rels = [self_idx] * n
    tails = list(range(n))
    weights = [1.0] * n
    for (h, r) in sorted(groups):
        ts = sorted(groups[(h, r)])
        w = 1.0 / len(ts)
        for t in ts:
            heads.append(h)
            rels.append(r)
            tails.append(t)
            weights.append(w)

    return AdjacencyTensor(
        entities=entities,
        relations=relations + (SELF_LOOP,),
        head=np.asarray(heads, dtype=np.int64),
        rel=np.asarray(rels, dtype=np.int64),
        tail=np.asarray(tails, dtype=np.int64),
        weight=np.asarray(weights, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Perturbation protocols

PERTURB_MODES = ("all", "last1", "last2")
GROUNDING_HOPS = 4   # steps of the longest grounding path


@dataclass(frozen=True)
class PerturbationResult:
    """A perturbed graph, the entities an adapted reply is expected to
    draw from, and the exact triple edits ((removed, added) pairs; empty
    for whole-graph swaps)."""
    graph: KnowledgeGraph
    hypothesis: frozenset
    edits: tuple = ()


def perturb_all(graphs: Sequence[KnowledgeGraph], seed: int) -> list[PerturbationResult]:
    """Reassign whole graphs across a batch by a seeded derangement, so
    no item keeps its own graph. Requires a batch of at least 2."""
    n = len(graphs)
    if n < 2:
        raise GraphError("perturb_all needs a batch of >= 2 graphs")
    rng = np.random.default_rng(seed)
    perm = list(range(n))
    # Sattolo's shuffle yields a uniform full cycle: always a derangement.
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    return [PerturbationResult(graphs[j], frozenset(graphs[j].entities))
            for j in perm]


def grounding_paths(graph: KnowledgeGraph, sources: Iterable[str],
                    targets: Iterable[str]) -> list:
    """Loopless directed paths of 1 to GROUNDING_HOPS stored edges from
    a source to a target: the edit paths of a model that infers none."""
    targets = set(targets)
    out = out_edges(graph)
    paths = []
    trails = [(e,) for src in set(sources) for e in out.get(src, ())]
    while trails:
        trail = trails.pop()
        here = trail[-1].tail
        if here in targets:
            paths.append(trail)
        if len(trail) < GROUNDING_HOPS:
            seen = {here} | {t.head for t in trail}
            trails.extend(trail + (e,) for e in out.get(here, ())
                          if e.tail not in seen)
    return paths


def _editable(graph: KnowledgeGraph, paths: Iterable[Sequence[Triple]],
              steps: int) -> list:
    """The paths left with at least `steps` steps once their SELF_LOOP
    steps, which do not move and are no triple, are dropped."""
    real = [tuple(t for t in p if t.relation != SELF_LOOP) for p in paths]
    for t in (t for p in real for t in p):
        if t not in graph.triples:
            raise GraphError(f"path triple not in graph: {t}")
    return [p for p in real if len(p) >= steps]


def _draw(rng: np.random.Generator, candidates: Sequence[str]) -> str:
    return candidates[int(rng.integers(len(candidates)))]


def perturb_last1(graph: KnowledgeGraph, paths: Sequence[Sequence[Triple]],
                  seed: int, pool: Sequence[str]) -> PerturbationResult | None:
    """Replace the tail of each path's final real triple with a random
    pool entity; None when no path has a real step. Identical final
    triples are edited once. Substitutes are drawn so the edit log and
    the triple-set difference agree exactly: a substitute never
    recreates an existing or already-edited triple.
    """
    paths = _editable(graph, paths, 1)
    if not paths:
        return None
    pool = sorted(set(pool))
    finals = sorted({p[-1] for p in paths})

    rng = np.random.default_rng(seed)
    removed = set(finals)
    added: set[Triple] = set()
    edits = []
    for old in finals:
        busy = graph.triples | added | removed   # holds `old` itself
        candidates = [e for e in pool
                      if Triple(old.head, old.relation, e) not in busy]
        if not candidates:
            raise GraphError(f"substitute pool exhausted for {old}")
        new = Triple(old.head, old.relation, _draw(rng, candidates))
        added.add(new)
        edits.append((old, new))

    new_graph = KnowledgeGraph((graph.triples - removed) | added,
                               extra_entities=graph.entities,
                               extra_relations=graph.relations)
    return PerturbationResult(graph=new_graph,
                              hypothesis=frozenset(t.tail for _, t in edits),
                              edits=tuple(edits))


def perturb_last2(graph: KnowledgeGraph, paths: Sequence[Sequence[Triple]],
                  seed: int, pool: Sequence[str]) -> PerturbationResult | None:
    """Rewire the last two real steps of each path: (g, r1, m), (m, r2, t)
    becomes (g, r1, m'), (m', r2, t') with fresh pool entities m' != m
    and t' != t, keeping both relations; None when no path has two real
    steps. Identical trailing pairs are edited once."""
    paths = _editable(graph, paths, 2)
    if not paths:
        return None
    pool = sorted(set(pool))
    pairs = sorted({(p[-2], p[-1]) for p in paths})
    for first, second in pairs:
        if first.tail != second.head:
            raise GraphError(f"path steps do not chain: {first} -> {second}")

    rng = np.random.default_rng(seed)
    removed = {t for pair in pairs for t in pair}
    added: set[Triple] = set()
    edits = []
    for first, second in pairs:
        busy = graph.triples | added | removed
        chosen = None
        for m2 in rng.permutation([e for e in pool if e != first.tail]):
            new1 = Triple(first.head, first.relation, str(m2))
            if new1 in busy:
                continue
            for t2 in rng.permutation([e for e in pool if e != second.tail]):
                new2 = Triple(str(m2), second.relation, str(t2))
                if new2 not in busy and new2 != new1:
                    chosen = (new1, new2)
                    break
            if chosen:
                break
        if chosen is None:
            raise GraphError(f"substitute pool exhausted for {(first, second)}")
        new1, new2 = chosen
        added.update((new1, new2))
        edits.extend([(first, new1), (second, new2)])

    new_graph = KnowledgeGraph((graph.triples - removed) | added,
                               extra_entities=graph.entities,
                               extra_relations=graph.relations)
    return PerturbationResult(graph=new_graph,
                              hypothesis=frozenset(
                                  new.tail for _, new in edits[1::2]),
                              edits=tuple(edits))
