"""Exact checks of ``classify``'s verdicts, with no dense Gram matrix.

A component the catalog matches must pass Sylvester's criterion on the
sparse pivots of its Gram matrix.  A component it rejects is shrunk to a
minimal rejected connected induced subgraph, which must be certified affine
or hyperbolic; the parts each deletion leaves come from
``graphs.induced_parts``, the search that splits a graph into components.
The theory: every proper induced subgraph of a minimal non-finite graph is
finite, so its determinant decides (Humphreys, *Reflection Groups and
Coxeter Groups*, ch. 2 and §6.8-6.9).  ``classify`` imports this module on
its first call, so the commands that only name a type never compile it.

On a forest the pivots need no division: ``pivot_signs`` eliminates
leaves of 2G, each diagonal kept as num/den with den > 0, and a leaf with
pivot a/b turns its neighbour's num/den into (num*a - w*b*den)/(den*a),
where w = 4cos^2(pi/m) = 2 + zeta_m + zeta_m^-1 is the int 1, 2, 3 or 4 for
m = 3, 4, 6 or inf, so a forest with only those bonds never loads
``cyclotomic``.  Graphs with a cycle eliminate sparse rows over the field.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInconsistencyError
from .graphs import INFINITY, CoxeterGraph, _induced, gram_entry, induced_parts
from .linalg import invert_scalar, sign

_WEIGHTS = {3: 1, 4: 2, 6: 3, INFINITY: 4}  # the rational values of 4cos^2(pi/m)


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
    zeta_m^-1).  Since den > 0, a pivot's sign is sign(num).  A vertex that
    still has two neighbours when its turn comes lies on a cycle; the graph
    then takes the elimination of sparse rows over the field.
    """
    if len(g.labels) < g.n:
        signs = _forest_signs(g)
        if signs is not None:
            return signs
    return _row_signs(g)


def _forest_signs(g: CoxeterGraph) -> list[int] | None:
    """``pivot_signs`` by the leaf recurrence on 2G, or None at a cycle."""
    weights, adj = {}, {v: {} for v in range(g.n)}
    for (i, j), m in g.labels.items():
        if m not in weights:
            weights[m] = _WEIGHTS.get(m) or _cyclotomic_weight(m)
        adj[i][j] = adj[j][i] = weights[m]
    num, den = [2] * g.n, [1] * g.n
    signs = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        edges = adj.pop(v)
        if len(edges) > 1:
            return None
        a, b = num[v], den[v]
        signs.append(sign(a))
        if signs[-1] <= 0:
            break
        for u, w in edges.items():
            del adj[u][v]
            num[u] = num[u] * a - b * den[u] * w
            den[u] = den[u] * a
    return signs


def _cyclotomic_weight(m: int):
    """4cos^2(pi/m) = 2 + zeta_m + zeta_m^-1, for a bond outside ``_WEIGHTS``."""
    from .cyclotomic import Cyclotomic

    return Cyclotomic(m, {0: 2, 1: 1, -1: 1})


def _row_signs(g: CoxeterGraph) -> list[int]:
    """``pivot_signs`` on sparse Gram rows (1 on the diagonal, -cos(pi/m) on
    each edge) over the field, for graphs with a cycle."""
    entry = {}
    rows = {v: {v: 1} for v in range(g.n)}
    for (i, j), m in g.labels.items():
        c = entry.get(m)
        if c is None:
            c = entry[m] = gram_entry(m)
        rows[i][j] = rows[j][i] = c
    signs = []
    while rows:
        v = min(rows, key=lambda u: (len(rows[u]), u))
        row = rows.pop(v)
        p = row.pop(v)
        signs.append(sign(p))
        if signs[-1] <= 0:
            break
        if row:
            pinv = invert_scalar(p)
            for u, c in row.items():
                f = c * pinv
                target = rows[u]
                del target[v]
                for w, d in row.items():
                    target[w] = target.get(w, 0) - f * d
    return signs


def positive_definite(g: CoxeterGraph) -> bool:
    """Sylvester's criterion on the sparse pivots; rank 2 by its closed form.

    A single edge m has determinant 1 - cos^2(pi/m) = sin^2(pi/m), positive
    exactly when m is finite.
    """
    if g.n == 2:
        return INFINITY not in g.labels.values()
    return pivot_signs(g)[-1] > 0


def minimal_rejected(g: CoxeterGraph, match) -> tuple[list[int], CoxeterGraph]:
    """A minimal connected induced subgraph of g that ``match`` rejects (maps
    to None), as its vertices in g and the subgraph; g is connected and
    rejected.

    One sweep over the vertices: when deleting v leaves a rejected part,
    move into that part.  A vertex whose deletion left only matched parts is
    never tried again, since every part of a smaller set minus v is an
    induced subgraph of one of those parts.  The parts of part - {v} are
    tried in the order of their least vertex, and each is built once.
    """
    part, sub = list(range(g.n)), g
    for v in range(g.n):
        if v not in part:
            continue
        for comp in induced_parts(g, [u for u in part if u != v]):
            candidate = _induced(g.labels, comp)
            if match(candidate) is None:
                part, sub = comp, candidate
                break
    return part, sub


def certify(g: CoxeterGraph) -> str:
    """"affine" or "hyperbolic" for a minimal non-finite connected graph g.

    Every proper induced subgraph of g is finite, so every proper principal
    minor of its Gram matrix is positive and the determinant decides: 0 is
    affine, < 0 hyperbolic (a Lannér graph, of rank at most 5).  Rank 2 is
    the bond INFINITY; rank 3 uses the exact rational criteria (a path
    (p, q) is finite iff 1/p + 1/q > 1/2, a triangle iff 1/p + 1/q + 1/r >
    1); from rank 4 on every label is at most 5 and the sparse pivot signs
    decide.  Anything else raises InternalInconsistencyError: the matcher
    and exact arithmetic disagree.
    """
    labels = list(g.labels.values())
    if g.n == 2 and labels == [INFINITY]:
        return "affine"
    if INFINITY not in labels and g.n == 3:
        bound = Fraction(1, 2) if len(labels) == 2 else Fraction(1)
        total = sum(Fraction(1, m) for m in labels)
        if total <= bound:
            return "affine" if total == bound else "hyperbolic"
    if g.n >= 4 and max(labels) <= 5:
        signs = pivot_signs(g)
        if len(signs) == g.n and (signs[-1] == 0 or (signs[-1] < 0 and g.n <= 5)):
            return "affine" if signs[-1] == 0 else "hyperbolic"
    raise InternalInconsistencyError(f"no exact certificate for the rejected graph {g!r}")
