"""Exact checks of ``classify``'s verdicts, with no dense Gram matrix.

A component the catalog matches must pass Sylvester's criterion on the
sparse pivots of its Gram matrix.  A component it rejects is shrunk to a
minimal rejected connected induced subgraph, which must be certified affine
or hyperbolic.  The theory: every proper induced subgraph of a minimal
non-finite graph is finite, so its determinant decides (Humphreys,
*Reflection Groups and Coxeter Groups*, ch. 2 and §6.8-6.9).  ``classify``
imports this module on its first call, so the commands that only name a
type never compile it.

The checks read a graph through one adjacency ``adj``, ``adj[v]`` mapping
each neighbour of v, in increasing order, to its bond, and ``nbr[v]``, the
mask of v's neighbours (both from ``CoxeterGraph._adjacency``).  The sign
checks take a subgraph closed in ``adj`` as its increasing vertex list; the
searches take a vertex mask (bit v for vertex v), so no candidate copies
``adj``.  No elimination divides, and an int pivot takes its sign inline, so
no ``linalg`` loads; bonds 3 and inf (on a forest, 4 and 6) load no cyclotomic.
"""

from __future__ import annotations

from bisect import insort

from .errors import InternalInconsistencyError
from .graphs import INFINITY, CoxeterGraph


class _ByBond(dict):
    """Constants of 2G by bond: integers where given, else ``terms`` (exponent
    -> coefficient) at conductor ``scale`` * m, built on the bond's first use."""

    def __init__(self, given, scale, terms):
        super().__init__(given)
        self.scale, self.terms = scale, terms

    def __missing__(self, m):
        from .cyclotomic import Cyclotomic

        return self.setdefault(m, Cyclotomic(self.scale * m, self.terms))


_WEIGHTS = _ByBond({3: 1, 4: 2, 6: 3, INFINITY: 4}, 1, {0: 2, 1: 1, -1: 1})  # 4cos^2(pi/m)
_ENTRIES = _ByBond({3: -1, INFINITY: -2}, 2, {1: -1, -1: -1})  # -2cos(pi/m), 2G's edge entry


def pivot_signs(g: CoxeterGraph) -> list[int]:
    """Signs of the pivots of Gaussian elimination without row swaps on g's
    Gram matrix, up to the first one that is not positive.

    Each step eliminates a vertex whose row has the fewest nonzeros, the
    least on ties.  In any order the k-th pivot is the ratio of nested
    principal minors of sizes k and k-1, so all n signs are positive
    exactly when the matrix is positive definite (Sylvester), and when the
    first n-1 are, the last is the sign of the determinant.

    On a forest the order always takes a leaf or an isolated vertex, and
    the elimination runs on 2G, whose pivots are twice G's: every diagonal
    starts as num/den = 2/1, and a leaf v with pivot a/b and bond m to u sets
    num[u] = num[u]*a - w*b*den[u] and den[u] = den[u]*a, with the weight
    w = 4cos^2(pi/m) (1, 2, 3, 4 for m = 3, 4, 6, inf; else 2 + zeta_m +
    zeta_m^-1).  Since den > 0, a pivot's sign is sign(num).  When no leaf
    or isolated vertex is left, the graph has a cycle and takes the
    division-free elimination of the sparse rows of 2G, ``_row_signs``.
    """
    return _pivot_signs(g._adjacency(), range(g.n))


def _pivot_signs(adj, vertices) -> list[int]:
    """``pivot_signs`` of the graph on the increasing ``vertices``."""
    signs = _forest_signs(adj, vertices)
    return _row_signs(adj, vertices) if signs is None else signs


def _forest_signs(adj, vertices) -> list[int] | None:
    """``_pivot_signs`` by the leaf recurrence on 2G, or None at a cycle (at once
    for n edges or more).  ``ready`` lists the isolated vertices, then the
    leaves, each increasing: the order of ``pivot_signs``.  ``left`` counts
    remaining neighbours; a vertex at 1 is ``insort``-ed among the leaves, one
    at 0 is next; weights come from ``adj``.  An int pivot takes its sign inline;
    a leaf's update walks its bonds up to the one neighbour still left."""
    left = {v: len(adj[v]) for v in vertices}
    if sum(left.values()) >= 2 * len(left):
        return None
    ready = [v for v in vertices if not left[v]] + [v for v in vertices if left[v] == 1]
    pivot = dict.fromkeys(vertices, (2, 1))  # each diagonal of 2G as (num, den)
    signs = []
    while ready:
        v = ready.pop(0)
        a, b = pivot[v]
        s = (a > 0) - (a < 0) if type(a) is int else a.sign()
        signs.append(s)
        if s <= 0:
            return signs
        if left.pop(v):  # a leaf; an isolated v has no neighbour left
            for u, m in adj[v].items():
                if u in left:
                    left[u] -= 1
                    num, den = pivot[u]
                    pivot[u] = num * a - b * den * _WEIGHTS[m], den * a
                    if left[u] == 1:
                        insort(ready, u)
                    elif not left[u]:
                        ready.remove(u)
                        ready.insert(0, u)
                    break
    return None if left else signs


def _row_signs(adj, vertices) -> list[int]:
    """``_pivot_signs`` on the sparse rows of 2G, 2 on the diagonal and ``_ENTRIES``
    off it, with no division (Bareiss, signs only): the pivot p > 0 of row v turns
    each row u that meets v into p*row_u - row_u[v]*row_v, p times its Schur row."""
    rows = {v: {v: 2} | {u: _ENTRIES[m] for u, m in adj[v].items()} for v in vertices}
    signs = []
    while rows:
        v = min(rows, key=lambda u: (len(rows[u]), u))
        row = rows.pop(v)
        p = row.pop(v)
        signs.append((p > 0) - (p < 0) if type(p) is int else p.sign())
        if signs[-1] <= 0:
            break
        for u in row:
            c = rows[u].pop(v)
            rows[u] = target = {w: p * d for w, d in rows[u].items()}
            for w, d in row.items():
                target[w] = target.get(w, 0) - c * d
    return signs


def positive_definite(g: CoxeterGraph) -> bool:
    """Sylvester's criterion on the sparse pivots; ranks 1 and 2 by closed forms.

    A1 is positive.  A single edge m has determinant 1 - cos^2(pi/m) =
    sin^2(pi/m), positive exactly when m is finite.
    """
    return _positive_definite(g._adjacency(), range(g.n))


def _positive_definite(adj, vertices) -> bool:
    """``positive_definite`` of the graph on the increasing ``vertices``."""
    if len(vertices) < 3:  # A1 has no bond
        return INFINITY not in adj[vertices[0]].values()
    return _pivot_signs(adj, vertices)[-1] > 0


def _vertices(mask: int) -> list[int]:
    """The vertices of the vertex mask ``mask`` (bit v for vertex v), increasing:
    each step takes the lowest set bit, ``mask & -mask``, so no clear bit is read."""
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return vertices


def _parts(nbr, mask: int) -> list[int]:
    """The connected parts of the vertex mask ``mask``, each a mask, in the order
    of their least vertex: one flood fill each, from the lowest vertex left."""
    parts = []
    while mask:
        part = todo = mask & -mask
        mask ^= part
        while todo:
            v = todo.bit_length() - 1
            new = nbr[v] & mask
            mask, part, todo = mask ^ new, part | new, todo ^ (1 << v | new)
        parts.append(part)
    return parts


def minimal_rejected(adj, nbr, mask: int, match) -> int:
    """A minimal connected induced subgraph that ``match(adj, nbr, part)``
    rejects (maps to None) in the connected, rejected graph on the vertex
    mask ``mask``, as its vertex mask.

    One sweep over the vertices: when deleting v leaves a rejected part,
    move into that part.  A vertex whose deletion left only matched parts is
    never tried again, since every part of a smaller set minus v is an
    induced subgraph of one of those parts.  Deleting a leaf of the part
    leaves one part, ``part ^ (1 << v)``; other deletions try its ``_parts``.
    A single vertex (A1) is skipped, and a part of two is rejected exactly at
    the bond INFINITY, by one lookup.  The sweep steps through the vertices
    still in the part by their lowest bit, increasing, and builds no vertex
    list and no cut adjacency; ``_certify`` reads the part through ``adj``.
    """
    part = todo = mask
    while todo:
        low = todo & -todo
        v, rest = low.bit_length() - 1, part ^ low
        for comp in [rest] if (nbr[v] & part).bit_count() == 1 else _parts(nbr, rest):
            size = comp.bit_count()
            if size > 2 and match(adj, nbr, comp) is None or size == 2 and (
                    adj[comp.bit_length() - 1][(comp & -comp).bit_length() - 1] == INFINITY):
                part = comp
                break
        todo = (todo ^ low) & part
    return part


def certify(g: CoxeterGraph) -> str:
    """"affine" or "hyperbolic" for a minimal non-finite connected graph g.

    Every proper induced subgraph of g is finite, so every proper principal
    minor of its Gram matrix is positive and the determinant decides: 0 is
    affine, < 0 hyperbolic (a Lannér graph, of rank at most 5).  Rank 2 is
    the bond INFINITY.  Rank 3 is finite iff 1/p + 1/q + 1/r > 1 over its
    three pairs, m = 2 on an open one, so the integer test qr + pr + pq >
    pqr decides (for a path, 2(p + q) > pq).  From rank 4 on every label is
    at most 5 and the sparse pivot signs decide.  Anything else raises
    InternalInconsistencyError: the matcher and exact arithmetic disagree.
    """
    return _certify(g._adjacency(), range(g.n), (1 << g.n) - 1)


def _certify(adj, vertices, part: int) -> str:
    """``certify`` of the graph on the increasing ``vertices``, with mask ``part``;
    only rank 4 and up cuts ``adj`` to ``part``."""
    n = len(vertices)
    if n == 2 and adj[vertices[0]].get(vertices[1]) == INFINITY:
        return "affine"
    if n == 3:
        a, b, c = vertices
        p, q, r = labels = adj[a].get(b, 2), adj[a].get(c, 2), adj[b].get(c, 2)  # 2 on an open pair
        if INFINITY not in labels:
            total, bound = q * r + p * r + p * q, p * q * r
            if total <= bound:
                return "affine" if total == bound else "hyperbolic"
    if n >= 4:
        cut = {v: {u: m for u, m in adj[v].items() if part >> u & 1} for v in vertices}
        if max((m for row in cut.values() for m in row.values()), default=INFINITY) <= 5:
            signs = _pivot_signs(cut, vertices)
            if len(signs) == n and (signs[-1] == 0 or (signs[-1] < 0 and n <= 5)):
                return "affine" if signs[-1] == 0 else "hyperbolic"
    raise InternalInconsistencyError(f"no exact certificate for the rejected subgraph on {list(vertices)}")
