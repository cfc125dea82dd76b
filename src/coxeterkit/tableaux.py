"""Partitions, hooks, standard tableaux and Young's seminormal form.

Group-free combinatorics of S_n = W(A_{n-1}) and of the B_n, D_n and
I2(m) labels: the partition and bipartition lists, the hook-length,
B_n/D_n and dihedral dimension formulas, and the irreducible S_n-modules
in Young's seminormal form (Okounkov and Vershik, "A new approach to
representation theory of symmetric groups", Selecta Math. 1996).  The basis of the module of a shape is its standard
tableaux, and the adjacent transposition s_i = (i, i+1) acts through the
axial distance of i and i+1, so a character value is the trace of a short
word in sparse columns.  Nothing here builds a group.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import GuardError, InternalInconsistencyError, ValidationError

PARTITION_GUARD = 40
BN_DIMENSION_GUARD = 8
DIHEDRAL_GUARD = 24


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


# -- Young's seminormal form -------------------------------------------------


def standard_tableaux(shape) -> tuple[tuple[int, ...], ...]:
    """Standard tableaux of a shape, as row words, in lexicographic order.

    The row word of a tableau on the entries 0..n-1 lists the row of each
    entry; each entry goes at the end of its row, after the smaller ones.
    The first tableau fills the rows in reading order.
    """
    shape = validate_partition(shape)
    n = sum(shape)
    filled = [0] * len(shape)
    word: list[int] = []
    out = []

    def place(k: int):
        if k == n:
            out.append(tuple(word))
            return
        for r, length in enumerate(shape):
            if filled[r] < length and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                word.append(r)
                place(k + 1)
                word.pop()
                filled[r] -= 1

    place(0)
    return tuple(out)


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


def cycle_word(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """s_o s_{o+1} ... s_{o+p-2} over the blocks p of a cycle type, o their offsets.

    The word's permutation has the given cycle type; its length is
    n - (number of blocks).
    """
    word: list[int] = []
    offset = 0
    for p in cycle:
        word.extend(range(offset, offset + p - 1))
        offset += p
    return tuple(word)


def word_trace(action, scale: int, word) -> int:
    """Trace of a word in the adjacent transpositions, one basis vector at a time.

    The trace is a character value of S_n, so an integer: a remainder
    raises InternalInconsistencyError.
    """
    total = 0
    for t in range(len(action[0])):
        vec = {t: 1}
        for i in reversed(word):
            vec = _apply(action[i], vec)
        total += vec.get(t, 0)
    value, remainder = divmod(total, scale ** len(word))
    if remainder:
        raise InternalInconsistencyError(f"the trace of {word} is not an integer")
    return value


# -- labels and dimensions of B_n --------------------------------------------


class BipartitionLabel(namedtuple("BipartitionLabel", "lam mu")):
    """Ordered pair of partitions with |lam| + |mu| = n."""

    __slots__ = ()

    def __new__(cls, lam: tuple[int, ...], mu: tuple[int, ...]):
        validate_partition(lam)
        validate_partition(mu)
        return super().__new__(cls, lam, mu)

    @property
    def a(self) -> int:
        return sum(self.lam)

    @property
    def b(self) -> int:
        return sum(self.mu)

    @property
    def n(self) -> int:
        return self.a + self.b

    def __str__(self):
        return f"B:({partition_text(self.lam)}|{partition_text(self.mu)})"


def bipartitions(n: int) -> list[BipartitionLabel]:
    """All ordered pairs, largest first block first (the trivial label leads)."""
    out = []
    for a in range(n, -1, -1):
        for lam in partitions_of(a):
            for mu in partitions_of(n - a):
                out.append(BipartitionLabel(lam, mu))
    return out


def bn_dimension(n: int, label: BipartitionLabel) -> int:
    return (
        math.comb(n, label.a) * hook_dimension(label.lam) * hook_dimension(label.mu)
    )


def hyperoctahedral_dimensions(n: int) -> list[tuple[BipartitionLabel, int]]:
    """(label, dimension) for every irreducible of B_n, by the formula only."""
    if n < 1 or n > BN_DIMENSION_GUARD:
        raise GuardError(f"dimension lists capped at n = {BN_DIMENSION_GUARD}")
    return [(label, bn_dimension(n, label)) for label in bipartitions(n)]


# -- labels and dimensions of D_n --------------------------------------------


class DnLabel(namedtuple("DnLabel", "lam mu half", defaults=(None,))):
    """Unordered pair {lam, mu} for an irreducible restriction, or a split half.

    ``half`` is "+" or "-" for a half of a self-paired (lam == mu) label.
    """

    __slots__ = ()

    def __new__(cls, lam: tuple[int, ...], mu: tuple[int, ...], half: str | None = None):
        if half is not None and (half not in "+-" or lam != mu):
            raise ValidationError("split labels need lam == mu and half in {+, -}")
        return super().__new__(cls, lam, mu, half)

    def __str__(self):
        if self.half is None:
            return f"D:{{{partition_text(self.lam)}|{partition_text(self.mu)}}}"
        return f"D:({partition_text(self.lam)},{partition_text(self.mu)},{self.half})"


def _pair_key(shape: tuple[int, ...]):
    return (sum(shape), shape)


def dn_dimensions(n: int) -> list[tuple[DnLabel, int]]:
    """(label, dimension) for every irreducible of D_n, by the formula only.

    Res chi_(lam,mu) for each unordered pair lam != mu, first seen in the
    order of ``bipartitions``, keeps the B_n dimension; for n = 2m, each
    self-paired (lam, lam) gives the halves "+" and "-" of half of it.
    """
    if n < 4:
        raise ValidationError("D_n needs n >= 4")
    if n > BN_DIMENSION_GUARD:
        raise GuardError(f"dimension lists capped at n = {BN_DIMENSION_GUARD}")
    out, seen = [], set()
    for label in bipartitions(n):
        pair = frozenset((label.lam, label.mu))
        if label.lam != label.mu and pair not in seen:
            seen.add(pair)
            lam, mu = sorted(pair, key=_pair_key, reverse=True)
            out.append((DnLabel(lam, mu), bn_dimension(n, label)))
    for lam in partitions_of(n // 2) if n % 2 == 0 else ():
        half = bn_dimension(n, BipartitionLabel(lam, lam)) // 2
        out += [(DnLabel(lam, lam, "+"), half), (DnLabel(lam, lam, "-"), half)]
    return out


# -- labels and dimensions of I2(m) ------------------------------------------


def dihedral_dimensions(m: int) -> list[tuple[str, int]]:
    """(name, dimension) for every irreducible of I2(m), by the formula only.

    First "1:(a,b)", the character sending r to a and s to b (a = -1 only
    for even m), then "2:k" for 1 <= k < m/2, with zeta^jk + zeta^-jk on r^j.
    """
    if not (3 <= m <= DIHEDRAL_GUARD):
        raise GuardError(f"dihedral characters need 3 <= m <= {DIHEDRAL_GUARD}")
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))[: 4 - 2 * (m % 2)]
    return [(f"1:({a},{b})", 1) for a, b in signs] + [(f"2:{k}", 2) for k in range(1, (m + 1) // 2)]
