"""Attributed social network substrate.

The paper models an attributed social network as a triple
``G = (V, E, kappa)`` where every vertex carries a set of keywords
(Section III).  :class:`AttributedGraph` is the in-memory representation
used by every algorithm and index in this library.

Design notes
------------
* Vertices are dense integer ids ``0..n-1``.  Dense ids let adjacency be a
  list of sets and let indexes use flat lists instead of dicts, which
  matters for the pure-Python branch-and-bound inner loops.
* Keywords are interned into integer ids by :class:`KeywordTable` so that
  per-vertex keyword sets are ``frozenset[int]`` and query-coverage math
  can use bitmasks (see :mod:`repro.core.coverage`).
* The graph is simple and undirected: self-loops and parallel edges are
  rejected at construction, mirroring the datasets used in the paper
  (friendship / co-authorship networks).
* Instances are immutable after construction except through
  :meth:`AttributedGraph.add_edge` / :meth:`AttributedGraph.remove_edge`,
  which exist to exercise the dynamic index-maintenance path (Section V-B).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Optional

from repro.core.errors import (
    GraphConstructionError,
    KeywordLabelError,
    UnknownVertexError,
)

__all__ = ["KeywordTable", "AttributedGraph", "component_labels"]


def component_labels(adjacency: Sequence[Iterable[int]]) -> list[int]:
    """Return a component id per vertex of *adjacency*.

    Ids are dense and numbered in order of each component's smallest
    vertex, so any two adjacency views of the same graph get identical
    labels.
    """
    component = [-1] * len(adjacency)
    next_id = 0
    for start in range(len(adjacency)):
        if component[start] != -1:
            continue
        component[start] = next_id
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if component[v] == -1:
                    component[v] = next_id
                    stack.append(v)
        next_id += 1
    return component


class KeywordTable:
    """Bidirectional mapping between keyword strings and dense integer ids.

    The paper's figures label vertices with keyword abbreviations such as
    ``SN`` (social network) or ``QP`` (query processing).  Algorithms never
    touch strings: they operate on the integer ids produced here.

    >>> table = KeywordTable()
    >>> table.intern("SN")
    0
    >>> table.intern("QP")
    1
    >>> table.intern("SN")
    0
    >>> table.label(1)
    'QP'
    """

    __slots__ = ("_by_label", "_by_id")

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._by_label: dict[str, int] = {}
        self._by_id: list[str] = []
        for label in labels:
            self.intern(label)

    def intern(self, label: str) -> int:
        """Return the id for *label*, assigning a fresh id on first use."""
        existing = self._by_label.get(label)
        if existing is not None:
            return existing
        keyword_id = len(self._by_id)
        self._by_label[label] = keyword_id
        self._by_id.append(label)
        return keyword_id

    def id_of(self, label: str) -> int:
        """Return the id of an already-interned *label*.

        Raises :class:`KeyError` if the label was never interned.
        """
        return self._by_label[label]

    def get(self, label: str) -> Optional[int]:
        """Return the id of *label*, or ``None`` if not interned."""
        return self._by_label.get(label)

    def label(self, keyword_id: int) -> str:
        """Return the string label for *keyword_id*."""
        return self._by_id[keyword_id]

    def labels(self, keyword_ids: Iterable[int]) -> list[str]:
        """Return labels for a collection of keyword ids (sorted by id)."""
        return [self._by_id[k] for k in sorted(keyword_ids)]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, label: object) -> bool:
        return label in self._by_label

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_id)

    def __repr__(self) -> str:
        return f"KeywordTable({len(self)} keywords)"


class AttributedGraph:
    """A simple undirected graph whose vertices carry keyword sets.

    Parameters
    ----------
    num_vertices:
        Number of vertices; ids are ``0..num_vertices-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Order within a pair is irrelevant.
        Self-loops and duplicates raise :class:`GraphConstructionError`.
    keywords:
        Either a mapping ``vertex -> iterable of keyword labels`` or a
        sequence of length ``num_vertices`` of keyword-label iterables.
        Vertices absent from the mapping get an empty keyword set.
    keyword_table:
        Optional pre-populated :class:`KeywordTable` to share label ids
        across graphs (e.g. a graph and its query generator).

    Examples
    --------
    >>> g = AttributedGraph(3, [(0, 1), (1, 2)], {0: ["SN"], 2: ["QP"]})
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.keyword_labels(0)
    ['SN']
    """

    __slots__ = (
        "_num_vertices",
        "_adjacency",
        "_vertex_keywords",
        "_keyword_table",
        "_num_edges",
        "_version",
        # Weak-referenceable, so caches keyed on a graph need not pin it.
        "__weakref__",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] = (),
        keywords: Mapping[int, Iterable[str]] | Sequence[Iterable[str]] | None = None,
        keyword_table: Optional[KeywordTable] = None,
    ) -> None:
        if num_vertices < 0:
            raise GraphConstructionError(
                f"num_vertices must be non-negative, got {num_vertices}"
            )
        self._num_vertices = num_vertices
        self._adjacency: list[set[int]] = [set() for _ in range(num_vertices)]
        self._keyword_table = keyword_table if keyword_table is not None else KeywordTable()
        self._vertex_keywords: list[frozenset[int]] = [frozenset()] * num_vertices
        self._num_edges = 0
        # Monotonic counter bumped on every mutation; indexes use it to
        # detect that they are stale relative to the graph they indexed.
        self._version = 0

        for u, v in edges:
            self._insert_edge_checked(u, v)

        if keywords is not None:
            self._assign_keywords(keywords)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _insert_edge_checked(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphConstructionError(f"self-loop on vertex {u} is not allowed")
        if v in self._adjacency[u]:
            raise GraphConstructionError(f"duplicate edge ({u}, {v})")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1

    def _assign_keywords(
        self, keywords: Mapping[int, Iterable[str]] | Sequence[Iterable[str]]
    ) -> None:
        if isinstance(keywords, Mapping):
            items: Iterable[tuple[int, Iterable[str]]] = keywords.items()
        else:
            if len(keywords) != self._num_vertices:
                raise GraphConstructionError(
                    "keyword sequence length "
                    f"{len(keywords)} != num_vertices {self._num_vertices}"
                )
            items = enumerate(keywords)
        for vertex, labels in items:
            self._check_vertex(vertex)
            self._vertex_keywords[vertex] = self._intern_labels(labels)

    def _intern_labels(self, labels: Iterable[str]) -> frozenset[int]:
        """Validate *labels*, then intern them as a keyword-id set.

        Raises :class:`KeywordLabelError` before interning anything, so
        a bad label never reaches the shared keyword table.
        """
        if isinstance(labels, (str, bytes)):
            raise KeywordLabelError(
                f"keyword labels must be an iterable of strings, got the bare "
                f"string {labels!r}"
            )
        try:
            checked = list(labels)
        except TypeError:
            raise KeywordLabelError(
                f"keyword labels must be an iterable of strings, got {labels!r}"
            ) from None
        for label in checked:
            if not isinstance(label, str) or not label or "\x00" in label:
                raise KeywordLabelError(
                    f"keyword labels must be non-empty strings without NUL, "
                    f"got {label!r}"
                )
        intern = self._keyword_table.intern
        return frozenset(intern(label) for label in checked)

    def _check_vertex(self, vertex: int) -> None:
        if not isinstance(vertex, int) or isinstance(vertex, bool):
            raise GraphConstructionError(f"vertex ids must be ints, got {vertex!r}")
        if not 0 <= vertex < self._num_vertices:
            raise UnknownVertexError(vertex)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def keyword_table(self) -> KeywordTable:
        """The shared keyword label table."""
        return self._keyword_table

    @property
    def version(self) -> int:
        """Mutation counter; bumped by :meth:`add_edge`/:meth:`remove_edge`."""
        return self._version

    def vertices(self) -> range:
        """Iterate all vertex ids."""
        return range(self._num_vertices)

    def neighbors(self, vertex: int) -> frozenset[int]:
        """Return the (1-hop) neighbour set of *vertex*."""
        self._check_vertex(vertex)
        return frozenset(self._adjacency[vertex])

    def adjacency_view(self) -> Sequence[set[int]]:
        """Return the raw adjacency list (read-only by convention).

        Hot loops (BFS, index construction) use this to skip per-call
        bounds checking and set copying.  Callers must not mutate it.
        """
        return self._adjacency

    def degree(self, vertex: int) -> int:
        """Return the degree of *vertex*."""
        self._check_vertex(vertex)
        return len(self._adjacency[vertex])

    def degrees(self) -> list[int]:
        """Return the degree of every vertex, indexed by vertex id."""
        return [len(adj) for adj in self._adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``(u, v)`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all edges once, as ``(u, v)`` with ``u < v``."""
        for u, adj in enumerate(self._adjacency):
            for v in adj:
                if u < v:
                    yield (u, v)

    def keywords_of(self, vertex: int) -> frozenset[int]:
        """Return the interned keyword ids of *vertex*."""
        self._check_vertex(vertex)
        return self._vertex_keywords[vertex]

    def keyword_labels(self, vertex: int) -> list[str]:
        """Return the keyword labels of *vertex* (sorted by id)."""
        return self._keyword_table.labels(self.keywords_of(vertex))

    def vertices_with_any_keyword(self, keyword_ids: frozenset[int]) -> list[int]:
        """Return vertices whose keyword set intersects *keyword_ids*.

        This is the "remove unqualified users" preprocessing step of
        Algorithm 1: a user must cover at least one query keyword to be a
        KTG candidate.
        """
        return [
            v
            for v in range(self._num_vertices)
            if not keyword_ids.isdisjoint(self._vertex_keywords[v])
        ]

    # ------------------------------------------------------------------
    # Distance primitives
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int, max_depth: Optional[int] = None) -> dict[int, int]:
        """Return hop distances from *source* to every reachable vertex.

        ``max_depth`` truncates the search: only vertices within that many
        hops are returned.  The source itself maps to 0.
        """
        self._check_vertex(source)
        adjacency = self._adjacency
        distances = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: list[int] = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in distances:
                        distances[v] = depth
                        next_frontier.append(v)
            frontier = next_frontier
        return distances

    def hop_distance(self, u: int, v: int, cutoff: Optional[int] = None) -> Optional[int]:
        """Return the shortest-path hop count between *u* and *v*.

        Returns ``None`` if *v* is unreachable from *u* (or farther than
        *cutoff* hops when a cutoff is given).  This is Definition 1's
        social distance, computed by bidirectional-free plain BFS; the
        index structures in :mod:`repro.index` exist to avoid calling it
        in inner loops.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        adjacency = self._adjacency
        seen = {u: 0}
        frontier = [u]
        depth = 0
        while frontier and (cutoff is None or depth < cutoff):
            depth += 1
            next_frontier: list[int] = []
            for x in frontier:
                for y in adjacency[x]:
                    if y == v:
                        return depth
                    if y not in seen:
                        seen[y] = depth
                        next_frontier.append(y)
            frontier = next_frontier
        return None

    def eccentricity(self, vertex: int) -> int:
        """Return the greatest hop distance from *vertex* to any reachable vertex."""
        distances = self.bfs_distances(vertex)
        return max(distances.values(), default=0)

    # ------------------------------------------------------------------
    # Mutation (drives dynamic index maintenance, Section V-B)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)``.

        Raises :class:`GraphConstructionError` on self-loops or duplicates.
        """
        self._insert_edge_checked(u, v)
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``(u, v)``.

        Raises :class:`GraphConstructionError` if the edge does not exist.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adjacency[u]:
            raise GraphConstructionError(f"edge ({u}, {v}) does not exist")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    def set_keywords(self, vertex: int, labels: Iterable[str]) -> None:
        """Replace the keyword set of *vertex* with *labels*.

        Raises :class:`KeywordLabelError` (graph unchanged) unless
        *labels* is an iterable of non-empty strings.
        """
        self._check_vertex(vertex)
        self._vertex_keywords[vertex] = self._intern_labels(labels)
        self._version += 1

    def add_vertex(self, labels: Iterable[str] = ()) -> int:
        """Append a new isolated vertex carrying *labels*; return its id.

        Vertex ids stay dense: the new vertex gets id ``num_vertices``
        (pre-insert).  Connect it with :meth:`add_edge` afterwards.
        Raises :class:`KeywordLabelError` (graph unchanged) unless
        *labels* is an iterable of non-empty strings.
        """
        keyword_ids = self._intern_labels(labels)
        vertex = self._num_vertices
        self._adjacency.append(set())
        self._vertex_keywords.append(keyword_ids)
        self._num_vertices += 1
        self._version += 1
        return vertex

    # ------------------------------------------------------------------
    # Interop & misc
    # ------------------------------------------------------------------
    def connected_components(self) -> list[int]:
        """Return a component id per vertex (see :func:`component_labels`)."""
        return component_labels(self._adjacency)

    def average_degree(self) -> float:
        """Return ``2|E| / |V|`` (0.0 for the empty graph)."""
        if self._num_vertices == 0:
            return 0.0
        return 2.0 * self._num_edges / self._num_vertices

    def subgraph(self, vertices: Sequence[int]) -> "AttributedGraph":
        """Return the induced subgraph on *vertices* with remapped dense ids.

        Vertex ``vertices[i]`` becomes id ``i`` in the returned graph; the
        keyword table is shared with this graph.
        """
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphConstructionError("subgraph vertex list contains duplicates")
        sub = AttributedGraph(len(vertices), keyword_table=self._keyword_table)
        for v in vertices:
            self._check_vertex(v)
        for i, v in enumerate(vertices):
            sub._vertex_keywords[i] = self._vertex_keywords[v]
            for w in self._adjacency[v]:
                j = index.get(w)
                if j is not None and i < j:
                    sub._insert_edge_checked(i, j)
        return sub

    def to_networkx(self):  # pragma: no cover - thin interop shim
        """Return a ``networkx.Graph`` copy with a ``keywords`` node attribute."""
        import networkx as nx

        nx_graph = nx.Graph()
        for v in range(self._num_vertices):
            nx_graph.add_node(v, keywords=self.keyword_labels(v))
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph, keyword_attr: str = "keywords") -> "AttributedGraph":
        """Build an :class:`AttributedGraph` from a ``networkx.Graph``.

        Node ids must be hashable; they are relabelled to dense ints in
        sorted order when possible, insertion order otherwise.  Keywords
        are read from the *keyword_attr* node attribute when present.
        """
        nodes = list(nx_graph.nodes())
        try:
            nodes.sort()
        except TypeError:
            pass
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges() if u != v]
        keywords = {
            index[node]: nx_graph.nodes[node].get(keyword_attr, ())
            for node in nodes
        }
        return cls(len(nodes), edges, keywords)

    def __repr__(self) -> str:
        return (
            f"AttributedGraph(|V|={self._num_vertices}, |E|={self._num_edges}, "
            f"|kappa|={len(self._keyword_table)})"
        )
