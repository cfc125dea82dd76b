"""Recognition of finite Coxeter graphs against the Dynkin+ catalog.

Matching is structural and reads a component once: only a tree (n - 1
edges) with finite bonds can match, and one walk along the vertices of
degree 2 reads a path's bonds from its least end, or the three arm lengths
at a single branch vertex.  Exact arithmetic then checks every verdict
independently: a matched component by Sylvester's criterion on the sparse
pivots of its Gram matrix, a rejected one by certifying a minimal rejected
induced subgraph as affine or hyperbolic (``certify``).  Any disagreement
between the two raises, since it can only mean a bug in one of them.  All
of this reads the graph's one adjacency and its neighbour masks, each
component and candidate as a vertex mask.  ``is_positive_definite`` is the same
decision for the whole graph, with a ``Witness`` (a minimal non-finite
subgraph) on failure; no dense Gram minor is formed.  ``classify.classify``
loads this module, and with it ``graphs`` and ``certify`` (not ``linalg``),
on its first call; ``cyclotomic`` comes only for a bond outside {3, 4, 6, inf}
or an irrational Gram entry on a cycle.
"""

from __future__ import annotations

from collections import namedtuple

from .certify import _certify, _parts, _positive_definite, _vertices, minimal_rejected
from .classify import TypeLabel
from .errors import GuardError, InternalInconsistencyError, ValidationError
from .graphs import INFINITY, CoxeterGraph

VERTEX_GUARD = 48  # classify() refuses larger graphs with GuardError (exit 3)


def catalog_graph(t: TypeLabel) -> CoxeterGraph:
    """Canonical graph of the type, with a fixed vertex numbering.

    A_n: the path 0-1-...-(n-1).
    B_n: edge (0,1) labeled 4, then the path 1-2-...-(n-1).
    D_n: tips 0 and 1 joined to the branch vertex 2, then the path 2-3-...-(n-1).
    E_n: path 0-...-(n-2) with vertex n-1 attached to vertex 2.
    F4:  path with the middle edge labeled 4.  H3/H4: terminal edge labeled 5.
    I2(m): one edge labeled m.
    """
    f, n = t.family, t.rank
    path = [(i, i + 1, 3) for i in range(n - 1)]
    if f == "A" or n == 1:  # B1 is the A1 graph
        return CoxeterGraph(n, path)
    if f == "B":
        return CoxeterGraph(n, [(0, 1, 4)] + path[1:])
    if f == "D":
        return CoxeterGraph(n, [(0, 2, 3), (1, 2, 3)] + path[2:])
    if f == "E":
        return CoxeterGraph(n, path[:-1] + [(2, n - 1, 3)])
    if f == "F":
        return CoxeterGraph(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)])
    if f == "H":
        return CoxeterGraph(n, [(0, 1, 5)] + path[1:])
    return CoxeterGraph(2, [(0, 1, t.bond)])


def affine_catalog(max_rank: int = 8) -> list[tuple[str, CoxeterGraph]]:
    """The standard connected positive semi-definite (determinant-zero) graphs.

    Parameterized families are instantiated with subscript n up to
    ``max_rank`` (a subscript-n graph has n+1 vertices), so ``max_rank`` 0
    lists none of them.  D~n starts at n = 4, the smallest subscript for
    which D_n itself is defined.  The exceptional graphs E~6, E~7, E~8, F~4
    and G~2 are always listed, whatever ``max_rank``.
    """
    out: list[tuple[str, CoxeterGraph]] = []
    if max_rank >= 1:
        out.append(("A~1", CoxeterGraph(2, [(0, 1, INFINITY)])))
    for n in range(2, max_rank + 1):
        cycle = [(i, (i + 1) % (n + 1), 3) for i in range(n + 1)]
        out.append((f"A~{n}", CoxeterGraph(n + 1, cycle)))
    if max_rank >= 2:
        out.append(("B~2=C~2", CoxeterGraph(3, [(0, 1, 4), (1, 2, 4)])))
    for n in range(3, max_rank + 1):
        edges = [(0, 2, 3), (1, 2, 3)] + [(i, i + 1, 3) for i in range(2, n - 1)] + [(n - 1, n, 4)]
        out.append((f"B~{n}", CoxeterGraph(n + 1, edges)))
    for n in range(3, max_rank + 1):
        edges = [(0, 1, 4)] + [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, 4)]
        out.append((f"C~{n}", CoxeterGraph(n + 1, edges)))
    for n in range(4, max_rank + 1):
        edges = [(0, 2, 3), (1, 2, 3)] + [(i, i + 1, 3) for i in range(2, n - 2)]
        edges += [(n - 1, n - 2, 3), (n, n - 2, 3)]
        out.append((f"D~{n}", CoxeterGraph(n + 1, edges)))
    out.append(("E~6", CoxeterGraph(7, [(i, i + 1, 3) for i in range(4)] + [(2, 5, 3), (5, 6, 3)])))
    out.append(("E~7", CoxeterGraph(8, [(i, i + 1, 3) for i in range(6)] + [(3, 7, 3)])))
    out.append(("E~8", CoxeterGraph(9, [(i, i + 1, 3) for i in range(7)] + [(2, 8, 3)])))
    out.append(("F~4", CoxeterGraph(5, [(0, 1, 3), (1, 2, 3), (2, 3, 4), (3, 4, 3)])))
    out.append(("G~2", CoxeterGraph(3, [(0, 1, 3), (1, 2, 6)])))
    return out


class Witness(namedtuple("Witness", "kind index vertices")):
    """Evidence that a graph is not of finite type: a minimal non-finite
    induced subgraph, ``kind`` "affine" (determinant 0) or "hyperbolic"
    (determinant < 0), on the original vertices ``vertices``, sorted;
    ``index`` is their count."""

    __slots__ = ()

    def __str__(self):
        return f"{self.kind} subgraph on vertices {','.join(map(str, self.vertices))}"


class ComponentResult(namedtuple("ComponentResult", "vertices label witness")):
    """One connected component: its vertices, and a TypeLabel or a Witness."""

    __slots__ = ()


class ClassificationResult(namedtuple("ClassificationResult", "components")):
    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return all(c.label is not None for c in self.components)

    def labels(self) -> list[TypeLabel]:
        if not self.is_finite:
            raise ValidationError("graph has a non-finite component")
        return [c.label for c in self.components]

    def __str__(self):
        parts = []
        for c in self.components:
            parts.append(str(c.label) if c.label is not None else f"NotFinite ({c.witness})")
        return " + ".join(parts)


def is_positive_definite(g: CoxeterGraph) -> tuple[bool, Witness | None]:
    """Is the Gram form of g positive definite, that is, is g of finite type?

    ``classify`` decides it; on failure the witness is that of the first
    non-finite component.
    """
    res = classify_components(g)
    return res.is_finite, next((c.witness for c in res.components if c.witness), None)


def _walk(adj, nbr, mask: int, v: int) -> list:
    """The bonds of the path from v in the tree on ``mask``: each step takes
    v out of the mask and moves to the one neighbour of v left in it."""
    bonds = []
    while step := nbr[v] & (mask := mask ^ 1 << v):
        u = step.bit_length() - 1
        bonds.append(adj[v][u])
        v = u
    return bonds


def _match_connected(adj, nbr, mask: int) -> tuple | None:
    """Structural match of the connected graph on the vertex mask ``mask``
    (``adj`` and ``nbr`` as in ``certify``) against the catalog: its TypeLabel's fields.

    Only trees with finite bonds qualify; a connected graph with n - 1 edges
    is a tree.  One pass reads each degree, ``(nbr[v] & mask).bit_count()``, and
    keeps the least end (or A1's vertex) and a branch vertex b; a ``_walk`` from
    the end reads a path's bonds, and one from each neighbour of b, without b, an
    arm's, the first arm with a bond other than 3 ending the match.
    """
    n, total, b, rest = mask.bit_count(), 0, None, mask
    while rest:
        v = rest.bit_length() - 1
        rest ^= 1 << v
        d = (nbr[v] & mask).bit_count()
        total += d
        if d < 2:
            end = v
        elif d > 2:
            if d > 3 or b is not None:
                return None
            b = v
    if total != 2 * n - 2:
        return None
    if b is not None:
        lengths = []
        for s, m in adj[b].items():
            if mask >> s & 1:
                arm = _walk(adj, nbr, mask ^ 1 << b, s)
                if m != 3 or max(arm, default=3) != 3:  # every bond is at least 3
                    return None
                lengths.append(len(arm) + 1)
        short, mid, long = sorted(lengths)
        if short == mid == 1:
            return "D", long + 3, None
        if short == 1 and mid == 2 and long in (2, 3, 4):
            return "E", long + 4, None
        return None
    seq = _walk(adj, nbr, mask, end)
    m = max(seq, default=3)  # A1 has no bond; every bond is at least 3, so one other is the max
    if n == 2 and 4 < m < INFINITY:  # A2, B2 and an INFINITY bond are read below
        return "I2", 2, m
    if m == 3:
        return "A", n, None
    if seq.count(3) < n - 2:
        return None
    terminal = seq.index(m) in (0, n - 2)
    if m == 4 and terminal:
        return "B", n, None
    if m == 4 and n == 4:
        return "F", 4, None
    if m == 5 and terminal and n in (3, 4):
        return "H", n, None
    return None


_LABELS = {}  # match -> its TypeLabel, validated once; not I2(m), whose m is unbounded


def check_vertices(n: int) -> None:
    """GuardError past ``VERTEX_GUARD`` vertices: the bound of every graph check."""
    if n > VERTEX_GUARD:
        raise GuardError(f"classify is capped at {VERTEX_GUARD} vertices, got {n}")


def classify_components(g: CoxeterGraph) -> ClassificationResult:
    """The work of ``classify.classify``, which documents it."""
    check_vertices(g.n)
    adj = g._adjacency()
    nbr = g._nbr  # built with adj
    results = []
    for part in _parts(nbr, (1 << g.n) - 1):
        vertices, match = tuple(_vertices(part)), _match_connected(adj, nbr, part)
        if match is None:
            minimal = minimal_rejected(adj, nbr, part, _match_connected)
            witness = tuple(_vertices(minimal))
            kind = _certify(adj, witness, minimal)
            results.append(ComponentResult(vertices, None, Witness(kind, len(witness), witness)))
        elif _positive_definite(adj, vertices):
            label = _LABELS.get(match)
            if label is None:
                label = TypeLabel(*match)
                if match[0] != "I2":
                    _LABELS[match] = label
            results.append(ComponentResult(vertices, label, None))
        else:
            raise InternalInconsistencyError(
                f"catalog match {TypeLabel(*match)} is not positive definite on component {vertices}"
            )
    return ClassificationResult(tuple(results))


def classification_catalog(max_rank: int = 8, dihedral_bonds=range(5, 13)) -> list[TypeLabel]:
    """Every catalog label of rank <= max_rank (I2 over the given bonds, from
    ``max_rank`` 2 on).  A bond below 5 is a ValidationError: ``classify``
    names I2(3) and I2(4) A2 and B2."""
    dihedral_bonds = list(dihedral_bonds)
    for m in dihedral_bonds:
        if type(m) is int and m < 5:
            raise ValidationError(f"dihedral bond {m} is below 5: classify names I2(3) and I2(4) A2 and B2")
    out = [TypeLabel("A", n) for n in range(1, max_rank + 1)]
    out += [TypeLabel("B", n) for n in range(2, max_rank + 1)]
    out += [TypeLabel("D", n) for n in range(4, max_rank + 1)]
    out += [TypeLabel("E", n) for n in (6, 7, 8) if n <= max_rank]
    if max_rank >= 4:
        out.append(TypeLabel("F", 4))
    out += [TypeLabel("H", n) for n in (3, 4) if n <= max_rank]
    out += [TypeLabel("I2", 2, m) for m in dihedral_bonds if max_rank >= 2]
    return out
