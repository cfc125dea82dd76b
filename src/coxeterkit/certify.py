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
each neighbour of v, in increasing order, to its bond (as built by
``CoxeterGraph._adjacency``), and a subgraph as its increasing vertex list,
never a renumbered copy: a component is closed in ``adj``, and a candidate of
``minimal_rejected`` refilters the entries of its deleted vertex's neighbours.
No elimination divides; bonds 3 and inf (on a forest, 4 and 6) load no cyclotomic.
"""

from __future__ import annotations

from bisect import insort

from .errors import InternalInconsistencyError
from .graphs import INFINITY, CoxeterGraph, induced_parts
from .linalg import sign


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
    if sum(len(adj[v]) for v in vertices) < 2 * len(vertices):
        signs = _forest_signs(adj, vertices)
        if signs is not None:
            return signs
    return _row_signs(adj, vertices)


def _forest_signs(adj, vertices) -> list[int] | None:
    """``_pivot_signs`` by the leaf recurrence on 2G, or None at a cycle.
    ``ready`` lists the isolated vertices, then the leaves, each increasing:
    the order of ``pivot_signs``.  A vertex whose degree falls to 1 is
    ``insort``-ed among the leaves, and one whose degree falls to 0 is next."""
    left = {v: {u: _WEIGHTS[m] for u, m in adj[v].items()} for v in vertices}
    ready = [v for v in vertices if not left[v]] + [v for v in vertices if len(left[v]) == 1]
    num, den = dict.fromkeys(vertices, 2), dict.fromkeys(vertices, 1)
    signs = []
    while ready:
        v = ready.pop(0)
        a, b = num[v], den[v]
        signs.append(sign(a))
        if signs[-1] <= 0:
            return signs
        for u, w in left.pop(v).items():
            edges = left[u]
            del edges[v]
            num[u] = num[u] * a - b * den[u] * w
            den[u] = den[u] * a
            if len(edges) == 1:
                insort(ready, u)
            elif not edges:
                ready.remove(u)
                ready.insert(0, u)
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
        signs.append(sign(p))
        if signs[-1] <= 0:
            break
        for u in row:
            c = rows[u].pop(v)
            rows[u] = target = {w: p * d for w, d in rows[u].items()}
            for w, d in row.items():
                target[w] = target.get(w, 0) - c * d
    return signs


def positive_definite(g: CoxeterGraph) -> bool:
    """Sylvester's criterion on the sparse pivots; rank 2 by its closed form.

    A single edge m has determinant 1 - cos^2(pi/m) = sin^2(pi/m), positive
    exactly when m is finite.
    """
    return _positive_definite(g._adjacency(), range(g.n))


def _positive_definite(adj, vertices) -> bool:
    """``positive_definite`` of the graph on the increasing ``vertices``."""
    if len(vertices) == 2:
        return INFINITY not in adj[vertices[0]].values()
    return _pivot_signs(adj, vertices)[-1] > 0


def minimal_rejected(adj, vertices, match) -> tuple[list[int], dict]:
    """A minimal connected induced subgraph that ``match`` rejects (maps to
    None) in the connected, rejected graph on the increasing ``vertices``,
    closed in ``adj``: its sorted vertices, and ``adj`` filtered to them.

    One sweep over the vertices: when deleting v leaves a rejected part,
    move into that part.  A vertex whose deletion left only matched parts is
    never tried again, since every part of a smaller set minus v is an
    induced subgraph of one of those parts.  Deleting a leaf leaves one
    part; any other deletion tries the parts of part - {v} in the order of
    their least vertex: a single vertex (A1) is skipped, and a part of two,
    rejected exactly at the bond INFINITY, is decided without ``match``.  A
    candidate is ``sub`` with the entries of v's neighbours refiltered; those
    outside the part stay, unread, until ``sub`` is cut to it at the end.
    """
    part, sub = list(vertices), {v: adj[v] for v in vertices}
    for v in vertices:
        if v in part:
            candidate = sub | {u: {w: m for w, m in sub[u].items() if w != v} for u in sub[v]}
            rest = [u for u in part if u != v]
            for comp in [rest] if len(sub[v]) == 1 else induced_parts(candidate, rest):
                if (match(candidate, comp) is None if len(comp) > 2
                        else len(comp) == 2 and INFINITY in candidate[comp[0]].values()):
                    part, sub = comp, candidate
                    break
    return part, {u: sub[u] for u in part}


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
    return _certify(g._adjacency(), range(g.n))


def _certify(adj, vertices) -> str:
    """``certify`` of the graph on the increasing ``vertices``."""
    n = len(vertices)
    labels = [m for v in vertices for u, m in adj[v].items() if u > v]
    if n == 2 and labels == [INFINITY]:
        return "affine"
    if n == 3 and INFINITY not in labels:
        p, q, r = (labels + [2])[:3]  # a path is the triangle with m = 2 on its open pair
        total, bound = q * r + p * r + p * q, p * q * r
        if total <= bound:
            return "affine" if total == bound else "hyperbolic"
    if n >= 4 and labels and max(labels) <= 5:
        signs = _pivot_signs(adj, vertices)
        if len(signs) == n and (signs[-1] == 0 or (signs[-1] < 0 and n <= 5)):
            return "affine" if signs[-1] == 0 else "hyperbolic"
    raise InternalInconsistencyError(f"no exact certificate for the rejected subgraph on {list(vertices)}")
