"""Young's seminormal form and the Specht modules of S_n.

The irreducible S_n-modules come from Young's seminormal form (Okounkov
and Vershik, "A new approach to representation theory of symmetric
groups", Selecta Math. 1996): the basis of the module of a shape is its
standard tableaux (``tableaux.standard_tableaux``), and the adjacent transposition s_i = (i, i+1) acts
through the axial distance of i and i+1 by checked sparse columns.  The
paper's construction is kept too: the row and column groups of the
identity tableau, each generated by the transpositions of neighbouring
points in its rows or columns, and the Young symmetrizer they give in the
group algebra of S_n.  They and ``specht_module`` import ``groups`` and ``reps`` where
they are used; one guard, ``check_sn``, keeps them at n <= 7.  No table
command loads this module: the tables' S_n characters are the rim-hook
rule's ``tableaux.rim_hook_sum`` with mu = ().
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .classify import TypeLabel
from .errors import GuardError, InternalInconsistencyError, ValidationError
from .permutations import Permutation
from .tableaux import hook_dimension, partition_text, standard_tableaux, validate_partition

SN_GUARD = 7  # largest n whose S_n this module realizes, for modules and row/column groups


def check_sn(shape) -> int:
    """n of a partition of n for a module or row/column groups: ValidationError
    below 2, GuardError past ``SN_GUARD``."""
    n = sum(validate_partition(shape))
    if n < 2:
        raise ValidationError("need a partition of n >= 2")
    if n > SN_GUARD:
        raise GuardError(f"S_n modules and row/column groups capped at n = {SN_GUARD}")
    return n


# -- Young's seminormal form -------------------------------------------------


def _apply(columns, vec: dict) -> dict:
    """Image of a sparse vector {basis index: coefficient} under sparse columns."""
    out: dict = {}
    for t, x in vec.items():
        for u, a in columns[t]:
            out[u] = out.get(u, 0) + a * x
    return {u: y for u, y in out.items() if y}


def _relation_words(n: int):
    """The Coxeter relations of S_n as words in s_0..s_{n-2}."""
    for i in range(n - 1):
        yield (i, i)
        if i + 1 < n - 1:
            yield (i, i + 1) * 3
        for j in range(i + 2, n - 1):
            yield (i, j) * 2


def seminormal_action(shape) -> tuple[tuple, int]:
    """Sparse columns of every adjacent transposition on the module of a shape.

    Returns ``(action, scale)``.  ``action[i][t]`` is scale * s_i v_T for the
    t-th standard tableau T, as a tuple of (basis index, integer) pairs: the
    entries are rational, and ``scale`` is their one common denominator.  If
    i and i+1 share a row of T, s_i fixes v_T; if they share a column, s_i
    negates it.  Otherwise, with the axial distance rho = c_T(i+1) - c_T(i)
    (content = column - row), s_i v_T = v_T / rho + c v_{s_i T}, where c = 1
    for rho > 0 and c = 1 - 1/rho^2 for rho < 0.  Every relation s_i^2,
    (s_i s_{i+1})^3 and (s_i s_j)^2 (|i - j| >= 2) is checked on every basis
    vector, and the basis size against the hook formula.
    """
    tableaux = standard_tableaux(shape)
    if len(tableaux) != hook_dimension(shape):
        raise InternalInconsistencyError(
            f"{len(tableaux)} standard tableaux disagree with the hook formula for {shape}"
        )
    n = sum(shape)
    # axial distances are at most n - 1 in size
    scale = math.lcm(*(rho * rho for rho in range(1, n)))
    index = {word: t for t, word in enumerate(tableaux)}
    action = []
    for i in range(n - 1):
        columns = []
        for t, word in enumerate(tableaux):
            row_i, row_j = word[i], word[i + 1]
            col_i, col_j = word[:i].count(row_i), word[: i + 1].count(row_j)
            if row_i == row_j:
                columns.append(((t, scale),))
            elif col_i == col_j:
                columns.append(((t, -scale),))
            else:
                rho = (col_j - row_j) - (col_i - row_i)
                partner = index[word[:i] + (row_j, row_i) + word[i + 2 :]]
                c = scale if rho > 0 else scale - scale // (rho * rho)
                columns.append(((t, scale // rho), (partner, c)))
        action.append(tuple(columns))
    for rel in _relation_words(n):
        power = scale ** len(rel)
        for t in range(len(tableaux)):
            vec = {t: 1}
            for i in rel:
                vec = _apply(action[i], vec)
            if vec != {t: power}:
                raise InternalInconsistencyError(
                    f"seminormal form of {shape} violates the relation {rel}"
                )
    return tuple(action), scale


# -- the paper's construction and the modules -------------------------------


def identity_tableau_rows(shape) -> list[list[int]]:
    """Row filling of the identity tableau on points 0..n-1."""
    shape = validate_partition(shape)
    rows = []
    k = 0
    for row_len in shape:
        rows.append(list(range(k, k + row_len)))
        k += row_len
    return rows


def row_column_blocks(shape) -> tuple[list[list[int]], list[list[int]]]:
    """Point sets of the rows and columns of the identity tableau (0-based)."""
    shape = validate_partition(shape)
    rows = identity_tableau_rows(shape)
    ncols = shape[0] if shape else 0
    cols = [[rows[i][j] for i in range(len(shape)) if len(rows[i]) > j] for j in range(ncols)]
    return rows, cols


def row_column_groups(shape) -> tuple[Subgroup, Subgroup]:
    """Row and column stabilizers of the identity tableau, as subgroups of S_n,
    each generated by the transpositions of consecutive points in its blocks."""
    n = check_sn(shape)
    from .groups import realize
    from .reps import Subgroup

    def swaps(blocks):
        return [Permutation.transposition(n, a, b) for block in blocks for a, b in zip(block, block[1:])]

    group = realize(TypeLabel("A", n - 1))
    return tuple(Subgroup(group, swaps(blocks)) for blocks in row_column_blocks(shape))


def young_symmetrizer(shape) -> GroupAlgebraElement:
    """c = (sum over the row group) * (signed sum over the column group).

    The product has coefficients in {-1, 0, 1}: row and column stabilizers of
    one tableau intersect trivially, so the products never collapse.
    """
    from .reps import GroupAlgebraElement

    r, c = row_column_groups(shape)
    a = GroupAlgebraElement({g: Fraction(1) for g in r.elements})
    b = GroupAlgebraElement({g: Fraction(g.sign()) for g in c.elements})
    out = a * b
    if len(out) != r.order * c.order:
        raise InternalInconsistencyError("row/column products collapsed unexpectedly")
    return out


@lru_cache(maxsize=None)
def specht_module(shape) -> Representation:
    """Irreducible S_n-module of a shape, in Young's seminormal form.

    The basis is the shape's standard tableaux; the generator matrices are
    the checked sparse columns of ``seminormal_action``, written out dense
    over their common denominator.
    """
    n = check_sn(shape)
    from .groups import realize
    from .linalg import Matrix
    from .reps import Representation

    action, scale = seminormal_action(shape)
    mats = []
    for columns in action:
        rows = [[Fraction(0)] * len(columns) for _ in columns]
        for t, column in enumerate(columns):
            for u, a in column:
                rows[u][t] = Fraction(a, scale)
        mats.append(Matrix(rows))
    return Representation(realize(TypeLabel("A", n - 1)), mats, name=partition_text(shape))
