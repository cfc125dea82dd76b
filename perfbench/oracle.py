"""Finite-type oracle for classify verdicts; it shares no code with coxeterkit.

A Coxeter graph is of finite type exactly when its Gram matrix
G[i][j] = -cos(pi / m_ij) (1 on the diagonal, -1 for an unbounded bond) is
positive definite.  The oracle decides this per connected component:

* rank <= 3 exactly, by rational criteria: an edge m is finite iff m < inf;
  a path (p, q) iff 1/p + 1/q > 1/2; a triangle (p, q, r) iff
  1/p + 1/q + 1/r > 1;
* larger ranks by a float Cholesky factorization with the margin
  PIVOT_MARGIN.  For a positive definite matrix every Cholesky pivot d_k is
  at least its smallest eigenvalue.  A finite Coxeter type of rank <= 8 has
  smallest Gram eigenvalue 1 - cos(pi / h) >= 1 - cos(pi / 30) ~ 0.0055
  (h is the Coxeter number, at most 30 for E8 and H4).  A graph that is not
  of finite type has a first non-positive leading minor, whose pivot is <= 0
  exactly and a few ulps in floats.  A margin between the two decides both.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = 0  # the CLI JSON form writes an unbounded bond as 0
PIVOT_MARGIN = 1e-3
MAX_RANK = 8


def components(n: int, edges) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, in order of least vertex."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, m in edges:
        if m != 2:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def _small_rank_finite(vertices, labels) -> bool:
    inv = [Fraction(0) if m == INF else Fraction(1, m) for m in labels.values()]
    if len(vertices) == 1:
        return True
    if len(vertices) == 2:
        return inv[0] > 0
    if len(inv) == 2:
        return inv[0] + inv[1] > Fraction(1, 2)
    return sum(inv) > 1


def _cholesky_finite(vertices, labels) -> bool:
    k = len(vertices)
    if k > MAX_RANK:
        raise ValueError(f"the float criterion is only certified up to rank {MAX_RANK}")
    index = {v: i for i, v in enumerate(vertices)}
    g = [[1.0 if i == j else 0.0 for j in range(k)] for i in range(k)]
    for (a, b), m in labels.items():
        c = -1.0 if m == INF else -math.cos(math.pi / m)
        g[index[a]][index[b]] = g[index[b]][index[a]] = c
    low = [[0.0] * k for _ in range(k)]
    for j in range(k):
        pivot = g[j][j] - sum(low[j][t] ** 2 for t in range(j))
        if pivot <= PIVOT_MARGIN:
            return False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, k):
            low[i][j] = (g[i][j] - sum(low[i][t] * low[j][t] for t in range(j))) / low[j][j]
    return True


def finite_components(n: int, edges) -> list[tuple[list[int], bool]]:
    """(vertices, is_finite) for each connected component."""
    out = []
    for vs in components(n, edges):
        members = set(vs)
        labels = {(min(i, j), max(i, j)): m for i, j, m in edges if m != 2 and i in members}
        decide = _small_rank_finite if len(vs) <= 3 else _cholesky_finite
        out.append((vs, decide(vs, labels)))
    return out


def expected_verdict(item: dict) -> list[tuple[list[int], object]]:
    """Expected [(vertices, label text, None for not finite, or True for some finite type)]."""
    if "expected" in item:
        return [(list(vs), label) for vs, label in item["expected"]]
    g = item["graph"]
    return [(vs, True if fin else None) for vs, fin in finite_components(g["n"], g.get("edges", []))]


def verdict_matches(expected, got) -> bool:
    """got: [(vertices, label text or None)] as classify reported it."""
    if len(expected) != len(got):
        return False
    for (ev, el), (gv, gl) in zip(sorted(expected), sorted(got, key=lambda c: c[0])):
        if list(ev) != list(gv):
            return False
        if el is True:
            if gl is None:
                return False
        elif el != gl:
            return False
    return True
