"""Coxeter graphs, Coxeter matrices and the associated bilinear form.

A graph on vertices 0..n-1 stores only the bond labels m(i,j) >= 3 (absent
pairs mean m = 2, i.e. commuting generators).  The label ``INFINITY`` marks
an unbounded bond; on disk it is encoded as 0, since genuine labels are
always >= 2.

Graph JSON format::

    {"n": 4, "edges": [[0, 1, 3], [1, 2, 3], [2, 3, 4]]}

``edges`` must be a list.  Edge order is irrelevant, duplicate edges are
rejected, and a third entry of 0 means INFINITY.  The count, the vertices
and the labels must be JSON integers: ``false``, ``true`` and ``0.0`` are
rejected, though Python takes them for 0, 1 and 0.

A graph builds one adjacency on first use (``_adjacency``): each vertex's
neighbours in increasing order with their bonds.  The classifier reads
every subgraph through it, and its searches hold vertex sets as bitmasks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .linalg import Matrix

INFINITY = math.inf


def _is_valid_label(m) -> bool:
    return m is INFINITY or type(m) is int and m >= 2


class CoxeterGraph:
    """Labeled graph of a Coxeter system; immutable after construction."""

    __slots__ = ("n", "labels", "_adj")

    def __init__(self, n: int, edges=()):
        if type(n) is not int or n < 1:
            raise ValidationError(f"vertex count must be a positive integer, got {n!r}")
        labels: dict[tuple[int, int], object] = {}
        pairs = isinstance(edges, dict)  # (i, j) -> m
        try:
            items = iter(edges.items() if pairs else edges)
        except TypeError:
            raise ValidationError(f"edges must hold (i, j, m) triples, got {edges!r}") from None
        for e in items:
            try:
                i, j, m = (*e[0], e[1]) if pairs else e
            except (TypeError, ValueError):
                raise ValidationError(f"each edge must be an (i, j, m) triple, got {e!r}") from None
            if type(i) is not int or type(j) is not int:
                raise ValidationError(f"vertex indices must be integers, got ({i!r}, {j!r})")
            if i == j:
                raise ValidationError(f"self-loop at vertex {i}")
            key = (i, j) if i < j else (j, i)
            if key[0] < 0 or key[1] >= n:
                raise ValidationError(f"vertex out of range in edge ({i}, {j})")
            if key in labels:
                raise ValidationError(f"duplicate edge {key}")
            if not _is_valid_label(m):
                raise ValidationError(f"bond label must be an integer >= 2 or INFINITY, got {m!r}")
            labels[key] = m
        self.n = n
        self.labels = {k: m for k, m in labels.items() if m != 2} if 2 in labels.values() else labels
        self._adj = None

    def _vertex(self, v: int) -> int:
        """v, which must be an exact int in 0..n-1, else ValidationError."""
        if type(v) is not int or not 0 <= v < self.n:
            raise ValidationError(f"unknown vertex {v!r}")
        return v

    def label(self, i: int, j: int):
        """m(i, j); 1 on the diagonal, 2 for non-adjacent pairs."""
        if self._vertex(i) == self._vertex(j):
            return 1
        return self.labels.get((min(i, j), max(i, j)), 2)

    def edges(self) -> list[tuple[int, int, object]]:
        return [(i, j, m) for (i, j), m in sorted(self.labels.items())]

    def _adjacency(self) -> list[dict]:
        """The graph's one adjacency, built on the first call: entry v maps each
        neighbour of v, in increasing order, to its bond; never to be changed."""
        adj = self._adj
        if adj is None:
            adj = self._adj = [{} for _ in range(self.n)]
            for (a, b), m in sorted(self.labels.items()):  # so each entry comes sorted
                adj[a][b] = adj[b][a] = m
        return adj

    def neighbors(self, i: int) -> list[int]:
        return list(self._adjacency()[self._vertex(i)])

    def degree(self, i: int) -> int:
        return len(self._adjacency()[self._vertex(i)])

    def __eq__(self, other):
        if not isinstance(other, CoxeterGraph):
            return NotImplemented
        return self.n == other.n and self.labels == other.labels

    __hash__ = None

    def __repr__(self):
        return f"CoxeterGraph({self.n}, {self.edges()!r})"


class CoxeterMatrix:
    """Symmetric matrix of bond orders: 1 on the diagonal, >= 2 (or INFINITY) off it."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        try:
            rows = tuple(tuple(r) for r in entries)
        except TypeError as e:  # entries, or one of its rows, is not iterable
            raise ValidationError("Coxeter matrix must be an iterable of rows") from e
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValidationError("Coxeter matrix must be square and non-empty")
        for i in range(n):
            if type(rows[i][i]) is not int or rows[i][i] != 1:
                raise ValidationError(f"diagonal entry at {i} must be 1")
            for j in range(n):
                if i != j:
                    if rows[i][j] != rows[j][i]:
                        raise ValidationError(f"matrix is not symmetric at ({i}, {j})")
                    if not _is_valid_label(rows[i][j]):
                        raise ValidationError(
                            f"off-diagonal entry at ({i}, {j}) must be >= 2 or INFINITY"
                        )
        self.entries = rows

    @property
    def n(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, CoxeterMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"CoxeterMatrix({[list(r) for r in self.entries]!r})"


def graph_from_matrix(m: CoxeterMatrix) -> CoxeterGraph:
    """Graph with an edge wherever the bond order is at least 3; the graph
    drops the pairs of order 2."""
    return CoxeterGraph(m.n, [(i, j, m.entries[i][j]) for i in range(m.n) for j in range(i + 1, m.n)])


def matrix_from_graph(g: CoxeterGraph) -> CoxeterMatrix:
    return CoxeterMatrix(
        [[g.label(i, j) for j in range(g.n)] for i in range(g.n)]
    )


_RATIONAL_ENTRIES = {2: Fraction(0), 3: Fraction(-1, 2), INFINITY: Fraction(-1)}


def gram_entry(m):
    """-cos(pi/m), the Gram entry of a bond m: a Fraction when it is rational.

    cos(pi/m) is rational only for m = 2, 3 and the limit m = inf (Niven),
    so only the other bonds load ``cyclotomic``.
    """
    if type(m) is int or m == INFINITY:
        c = _RATIONAL_ENTRIES.get(m)
        if c is not None:
            return c
    from .cyclotomic import real_cos_pi_over

    return -real_cos_pi_over(m)


def gram_matrix(g: CoxeterGraph) -> Matrix:
    """Matrix of the canonical bilinear form: -cos(pi/m(i,j)), unit diagonal.

    Entries that happen to be rational are stored as Fractions.  Each
    distinct label's entry is built once and shared by its cells.
    """
    entry = {m: gram_entry(m) for m in {2, *g.labels.values()}}
    entry[1] = Fraction(1)
    return Matrix([[entry[g.label(i, j)] for j in range(g.n)] for i in range(g.n)])


def _induced(labels: dict, keep) -> CoxeterGraph:
    """Trusted constructor: the graph that valid ``labels`` induce on the
    increasing vertex sequence ``keep``, renumbered 0..len(keep)-1 in order."""
    back = {v: k for k, v in enumerate(keep)}
    g = object.__new__(CoxeterGraph)
    g.n = len(back)
    g.labels = {(back[i], back[j]): m for (i, j), m in labels.items() if i in back and j in back}
    g._adj = None
    return g


def induced_parts(adj, keep) -> list[list[int]]:
    """The connected parts of the subgraph that the adjacency ``adj`` (as
    ``CoxeterGraph._adjacency`` gives it) induces on the increasing vertices
    ``keep``: each a sorted list of vertices, in the order of their least."""
    unseen = set(keep)
    parts = []
    for start in keep:
        if start in unseen:
            unseen.discard(start)
            part = [start]
            for u in part:  # the loop reads what it appends: a breadth-first search
                for w in adj[u]:
                    if w in unseen:
                        unseen.discard(w)
                        part.append(w)
            part.sort()
            parts.append(part)
    return parts


def connected_components(g: CoxeterGraph) -> list[tuple[CoxeterGraph, tuple[int, ...]]]:
    """Induced connected subgraphs, each with its original-vertex tuple.

    The k-th vertex of a component graph corresponds to original vertex
    ``vertices[k]``; components are ordered by smallest original vertex.
    """
    return [(_induced(g.labels, vs), tuple(vs)) for vs in induced_parts(g._adjacency(), range(g.n))]


def subgraph(g: CoxeterGraph, remove_vertices=(), lower_labels=None) -> CoxeterGraph:
    """Subgraph in the Coxeter sense: delete vertices and/or strictly lower labels.

    ``lower_labels`` maps an edge (i, j) in original indices to its new label,
    which must be >= 2 and strictly below the current one (2 removes the edge).
    Vertices are exact ints, as in ``CoxeterGraph``: True is not vertex 1.
    Surviving vertices are re-indexed in increasing order.
    """
    try:
        remove = set(remove_vertices)
    except TypeError:
        raise ValidationError(f"remove_vertices must hold vertices, got {remove_vertices!r}") from None
    for v in remove:
        g._vertex(v)
    if not isinstance(lower_labels or {}, dict):
        raise ValidationError(f"lower_labels must map edges (i, j) to labels, got {lower_labels!r}")
    labels = dict(g.labels)
    for edge, new in (lower_labels or {}).items():
        if not (type(edge) is tuple and len(edge) == 2 and edge[0] != edge[1]
                and all(type(v) is int and 0 <= v < g.n for v in edge)):
            raise ValidationError(f"unknown edge {edge!r}")
        key = (min(edge), max(edge))
        old = g.label(*key)
        if not _is_valid_label(new):
            raise ValidationError(f"new label {new!r} is not a valid bond order")
        if not new < old:
            raise ValidationError(f"label at {key} may only decrease (old {old}, new {new})")
        if new == 2:
            labels.pop(key, None)
        else:
            labels[key] = new
    keep = [v for v in range(g.n) if v not in remove]
    if not keep:
        raise ValidationError("cannot remove every vertex")
    return _induced(labels, keep)


def parse_graph_json(text: str) -> CoxeterGraph:
    """Parse the graph JSON format; raises ValidationError with position info."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer past the interpreter's limit on digits
        raise ValidationError("invalid JSON: a number has too many digits") from e
    except RecursionError as e:
        raise ValidationError("invalid JSON: arrays or objects nested too deeply") from e
    if not isinstance(data, dict) or "n" not in data:
        raise ValidationError('graph JSON must be an object with an "n" field')
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ValidationError(f'"edges" must be a list of [i, j, m] triples, got {edges!r}')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3):
            raise ValidationError(f"each edge must be a [i, j, m] triple, got {e!r}")
        if e[2] == 0 and type(e[2]) is int:
            e[2] = INFINITY
    return CoxeterGraph(data["n"], edges)


def graph_to_json(g: CoxeterGraph) -> str:
    import json

    edges = [[i, j, 0 if m is INFINITY else m] for i, j, m in g.edges()]
    return json.dumps({"n": g.n, "edges": edges}, sort_keys=True)
