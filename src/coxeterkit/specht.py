"""Partitions, Young tableaux, Young symmetrizers and Specht-type modules.

A module for a partition of n is realized as the left ideal generated by
the Young symmetrizer inside the rational group algebra of S_n, with a
basis extracted by exact integer echelon reduction over the n!-dimensional
coordinate space.  Guards keep this at desk scale (n <= 6 for modules).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .classify import TypeLabel
from .errors import GuardError, InternalInconsistencyError, ValidationError
from .groups import Permutation, realize
from .linalg import Matrix
from .reps import ClassFunction, GroupAlgebraElement, Representation, Subgroup

PARTITION_GUARD = 40
MODULE_GUARD = 6
SYMMETRIZER_GUARD = 7


def partition_text(shape: tuple[int, ...]) -> str:
    """Text form '5+3+1'; the empty partition prints as '-'."""
    return "+".join(str(p) for p in shape) if shape else "-"


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = tuple(int(p) for p in text.split("+"))
    except ValueError as e:
        raise ValidationError(f"bad partition text {text!r}") from e
    return validate_partition(parts)


def validate_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if any(not isinstance(p, int) or p <= 0 for p in parts):
        raise ValidationError(f"partition parts must be positive integers: {parts!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValidationError(f"partition parts must be weakly decreasing: {parts!r}")
    return parts


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse-lexicographic order; () for n = 0."""
    if n < 0:
        raise ValidationError("partitions are defined for n >= 0")
    if n > PARTITION_GUARD:
        raise GuardError(f"partition enumeration capped at n = {PARTITION_GUARD}")
    if n == 0:
        return ((),)

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def hook_lengths(shape) -> list[list[int]]:
    shape = validate_partition(shape)
    cols = [0] * (shape[0] if shape else 0)
    for row_len in shape:
        for j in range(row_len):
            cols[j] += 1
    return [
        [(row_len - j) + (cols[j] - i) - 1 for j in range(row_len)]
        for i, row_len in enumerate(shape)
    ]


def hook_product(shape) -> int:
    h = 1
    for row in hook_lengths(shape):
        for x in row:
            h *= x
    return h


def hook_dimension(shape) -> int:
    """n!/(product of hook numbers); always an exact integer."""
    shape = validate_partition(shape)
    n = sum(shape)
    h = hook_product(shape)
    q, r = divmod(math.factorial(n), h)
    if r:
        raise InternalInconsistencyError(f"hook product {h} does not divide {n}!")
    return q


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


def _echelon_insert(rows: list, vec: dict) -> dict | None:
    """Reduce an integer sparse vector against pivot rows; return the new row.

    ``rows`` holds (pivot_column, row_dict) sorted by pivot column; rows and
    the result are gcd-normalized with a positive pivot entry.
    """
    for pivcol, row in rows:
        c = vec.get(pivcol)
        if c:
            p = row[pivcol]
            new = {k: v * p for k, v in vec.items()}
            for k, v in row.items():
                t = new.get(k, 0) - c * v
                if t:
                    new[k] = t
                else:
                    new.pop(k, None)
            vec = new
        if not vec:
            return None
    if not vec:
        return None
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    pivcol = min(vec)
    sign = 1 if vec[pivcol] > 0 else -1
    return {k: sign * v // g for k, v in vec.items()}


@lru_cache(maxsize=None)
def specht_module(shape) -> Representation:
    """Irreducible S_n-module generated by the Young symmetrizer.

    The basis is the first maximal independent family among the vectors
    g * c (g in canonical element order); generator matrices are solved
    exactly in that basis.
    """
    shape = validate_partition(shape)
    n = sum(shape)
    if n < 2:
        raise ValidationError("need a partition of n >= 2")
    if n > MODULE_GUARD:
        raise GuardError(f"module construction capped at n = {MODULE_GUARD}")
    group = realize(TypeLabel("A", n - 1))
    c = young_symmetrizer(shape)
    coeffs = [int(v) for v in c.coeffs.values()]
    tables = group.generator_tables()
    parent, genidx = group.word_dag()
    # columns[i]: indices of elements[i] * g over the terms g of c, in the
    # order of coeffs; elements[i] = s * elements[parent[i]], so a column
    # tuple is its BFS parent's relabelled through the table of s
    columns = [None] * group.order
    columns[0] = tuple(group.index_of(g) for g in c.coeffs)

    def columns_of(i: int) -> tuple:
        chain = []
        while columns[i] is None:
            chain.append(i)
            i = parent[i]
        cols = columns[i]
        for j in reversed(chain):
            table = tables[genidx[j]]
            cols = columns[j] = tuple([table[k] for k in cols])
        return cols

    def vector_of(cols) -> dict:
        # coordinates of a translate of c in the group-element basis
        return dict(zip(cols, coeffs))

    rows: list[tuple[int, dict]] = []
    basis: list[int] = []
    for si in range(group.order):
        new = _echelon_insert(rows, vector_of(columns_of(si)))
        if new is not None:
            rows.append((min(new), new))
            rows.sort(key=lambda t: t[0])
            basis.append(si)
    dim = len(basis)
    basis_vectors = [vector_of(columns_of(si)) for si in basis]
    pivot_cols = sorted(pc for pc, _ in rows)
    square = Matrix(
        [[Fraction(basis_vectors[j].get(pc, 0)) for j in range(dim)] for pc in pivot_cols]
    )
    # integer inverse over one common denominator: expand is exact in ints
    inverse = square.inverse().entries
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    solve_int = [[int(x * den) for x in row] for row in inverse]

    def expand(vec: dict) -> list[Fraction]:
        rhs = [vec.get(pc, 0) for pc in pivot_cols]
        nums = [sum(a * b for a, b in zip(row, rhs)) for row in solve_int]
        check: dict[int, int] = {}
        for num, basis_vec in zip(nums, basis_vectors):
            if num:
                for k, v in basis_vec.items():
                    check[k] = check.get(k, 0) + num * v
        if {k: t for k, t in check.items() if t} != {k: den * v for k, v in vec.items()}:
            raise InternalInconsistencyError("vector escaped the extracted basis")
        return [Fraction(num, den) for num in nums]

    mats = []
    for table in tables:
        cols = [expand(vector_of([table[k] for k in columns_of(si)])) for si in basis]
        mats.append(Matrix(list(zip(*cols))))
    rep = Representation(group, mats, name=partition_text(shape))
    if rep.dim != hook_dimension(shape):
        raise InternalInconsistencyError(
            f"module dimension {rep.dim} disagrees with the hook formula for {shape}"
        )
    return rep


@lru_cache(maxsize=None)
def symmetric_character_table(n: int) -> tuple[ClassFunction, ...]:
    """Characters of all irreducible modules of S_n, indexed by partitions_of(n)."""
    if n < 2:
        raise ValidationError("character table needs n >= 2")
    if n > MODULE_GUARD:
        raise GuardError(f"character tables capped at n = {MODULE_GUARD}")
    return tuple(specht_module(shape).character() for shape in partitions_of(n))


@lru_cache(maxsize=None)
def _class_index_by_cycle_type(n: int) -> dict[tuple[int, ...], int]:
    group = realize(TypeLabel("A", n - 1))
    return {rep.cycle_type(): k for k, rep in enumerate(group.classes.reps)}


def symmetric_character_value(shape, cycle: tuple[int, ...]) -> Fraction:
    """Character value of the shape's module at a given cycle type.

    Partitions of 0 and 1 index the one-dimensional characters of the
    (trivial) groups S_0 and S_1, so the value is 1 there.
    """
    shape = validate_partition(shape)
    n = sum(shape)
    if n <= 1:
        return Fraction(1)
    table = symmetric_character_table(n)
    idx = list(partitions_of(n)).index(shape)
    cls = _class_index_by_cycle_type(n)[tuple(cycle)]
    return table[idx].values[cls]
