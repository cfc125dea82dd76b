"""Young symmetrizers, Specht modules and the character table of S_n.

The paper's construction is kept here: the row and column groups of the
identity tableau and the Young symmetrizer they give in the group algebra
of S_n.  The irreducible modules themselves come from Young's seminormal
form in ``tableaux``: the basis is the standard tableaux, the adjacent
transpositions act by checked sparse columns, and a character value is the
trace of a class's word in them, so no computation runs over the n!
elements, and the table's classes are the closed-form ``class_data``, so
no group is built either.  Guards keep modules at n <= 7 and tables at
n <= ``TABLE_GUARD``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .classify import TypeLabel
from .errors import GuardError, InternalInconsistencyError, ValidationError
from .groups import Permutation, class_data, realize
from .reps import ClassFunction, GroupAlgebraElement, Representation, Subgroup
from .tableaux import (
    cycle_word,
    partition_text,
    partitions_of,
    seminormal_action,
    validate_partition,
    word_trace,
)

MODULE_GUARD = 7
SYMMETRIZER_GUARD = 7
TABLE_GUARD = 9


def identity_tableau_rows(shape) -> list[list[int]]:
    """Row filling of the identity tableau on points 0..n-1."""
    shape = validate_partition(shape)
    rows = []
    k = 0
    for row_len in shape:
        rows.append(list(range(k, k + row_len)))
        k += row_len
    return rows


def _block_permutations(n: int, blocks: list[list[int]]):
    """All permutations of 0..n-1 stabilizing each block setwise."""
    out = []
    for assignment in itertools.product(*[itertools.permutations(b) for b in blocks]):
        img = list(range(n))
        for block, perm in zip(blocks, assignment):
            for src, dst in zip(block, perm):
                img[src] = dst
        out.append(Permutation(img))
    return out


def row_column_blocks(shape) -> tuple[list[list[int]], list[list[int]]]:
    """Point sets of the rows and columns of the identity tableau (0-based)."""
    shape = validate_partition(shape)
    rows = identity_tableau_rows(shape)
    ncols = shape[0] if shape else 0
    cols = [[rows[i][j] for i in range(len(shape)) if len(rows[i]) > j] for j in range(ncols)]
    return rows, cols


def row_column_groups(shape) -> tuple[Subgroup, Subgroup]:
    """Row and column stabilizers of the identity tableau, as subgroups of S_n."""
    shape = validate_partition(shape)
    n = sum(shape)
    if n > SYMMETRIZER_GUARD:
        raise GuardError(f"row/column groups capped at n = {SYMMETRIZER_GUARD}")
    if n < 2:
        raise ValidationError("need a partition of n >= 2")
    rows, cols = row_column_blocks(shape)
    group = realize(TypeLabel("A", n - 1))
    row_elements = _block_permutations(n, rows)
    col_elements = _block_permutations(n, cols)
    verify = len(row_elements) <= 200 and len(col_elements) <= 200
    return (
        Subgroup(group, row_elements, verify=verify),
        Subgroup(group, col_elements, verify=verify),
    )


def young_symmetrizer(shape) -> GroupAlgebraElement:
    """c = (sum over the row group) * (signed sum over the column group).

    The product has coefficients in {-1, 0, 1}: row and column stabilizers of
    one tableau intersect trivially, so the products never collapse.
    """
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
    shape = validate_partition(shape)
    n = sum(shape)
    if n < 2:
        raise ValidationError("need a partition of n >= 2")
    if n > MODULE_GUARD:
        raise GuardError(f"module construction capped at n = {MODULE_GUARD}")
    from .linalg import Matrix

    action, scale = seminormal_action(shape)
    mats = []
    for columns in action:
        rows = [[Fraction(0)] * len(columns) for _ in columns]
        for t, column in enumerate(columns):
            for u, a in column:
                rows[u][t] = Fraction(a, scale)
        mats.append(Matrix(rows))
    return Representation(realize(TypeLabel("A", n - 1)), mats, name=partition_text(shape))


@lru_cache(maxsize=None)
def symmetric_character_table(n: int) -> tuple[ClassFunction, ...]:
    """Characters of all irreducible modules of S_n, indexed by partitions_of(n).

    Each value is the trace of a class's adjacent-transposition word in the
    seminormal form, an int (``word_trace`` checks it is integral), in the
    closed-form class order.
    """
    if n < 2:
        raise ValidationError("character table needs n >= 2")
    if n > TABLE_GUARD:
        raise GuardError(f"character tables capped at n = {TABLE_GUARD}")
    group = class_data(TypeLabel("A", n - 1))
    words = [cycle_word(rep.cycle_type()) for rep in group.classes.reps]
    table = []
    for shape in partitions_of(n):
        action, scale = seminormal_action(shape)
        values = [word_trace(action, scale, word) for word in words]
        table.append(ClassFunction(group, values, partition_text(shape)))
    return tuple(table)


@lru_cache(maxsize=None)
def _character_values(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """{(shape, cycle type): value} over the character table of S_n."""
    table = symmetric_character_table(n)
    cycles = [rep.cycle_type() for rep in table[0].domain.classes.reps]
    return {
        (shape, cycle): value
        for shape, chi in zip(partitions_of(n), table)
        for cycle, value in zip(cycles, chi.values)
    }


def symmetric_character_value(shape, cycle: tuple[int, ...]) -> int:
    """Character value of the shape's module at a given cycle type.

    Partitions of 0 and 1 index the one-dimensional characters of the
    (trivial) groups S_0 and S_1, so the value is 1 there.
    """
    shape = tuple(shape)
    if shape in ((), (1,)):
        return 1
    try:
        return _character_values(sum(shape))[shape, tuple(cycle)]
    except KeyError:
        raise ValidationError(f"no character value at shape {shape!r}, cycle type {cycle!r}") from None
