"""Partitions, hooks, S_n characters, and the A, B and D irreducibles' labels.

Group-free combinatorics of S_n = W(A_{n-1}) and of the B_n and D_n
labels: the bipartition lists (the partitions, with their guard, are
``classify.partitions_of``, re-exported here), the hook-length and B_n/D_n
dimension formulas, the standard tableaux, and one Murnaghan-Nakayama
recursion on beta-sets, ``rim_hook_sum``, for the characters of S_n, B_n
and D_n (Macdonald, *Symmetric Functions and Hall Polynomials*, I.7 Ex. 5
and ch. I, app. B).  This is all that ``irreps`` of these
types loads; the S_n modules are in ``specht``.  Nothing here builds a group.
``BN_GUARD`` is the one bound on n for B_n and D_n, which ``check_bn``
checks for the dimension lists here and the entries of ``families``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .classify import check_partitions, partitions_of
from .errors import GuardError, InternalInconsistencyError, ValidationError

BN_GUARD = 8  # largest n of a B_n or D_n dimension list or character table


def check_bn(n: int) -> None:
    """GuardError past ``BN_GUARD``, the one bound on n for B_n and D_n."""
    if n > BN_GUARD:
        raise GuardError(f"B_n and D_n irreducibles capped at n = {BN_GUARD}")


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
    if any(type(p) is not int or p <= 0 for p in parts):
        raise ValidationError(f"partition parts must be positive integers: {parts!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValidationError(f"partition parts must be weakly decreasing: {parts!r}")
    return parts


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


def symmetric_character_value(shape, cycle) -> int:
    """chi_shape at the cycle type ``cycle``, an int, by the Murnaghan-Nakayama
    rule (James-Kerber, *The Representation Theory of the Symmetric Group*,
    2.4.7; Macdonald, *Symmetric Functions and Hall Polynomials*, I.7 Ex. 5).
    Both must be partitions of one n <= ``classify.PARTITION_GUARD``; n = 0
    and 1 give the value 1.  The arguments are checked here, once, and not
    in the recursion."""
    shape, cycle = validate_partition(shape), validate_partition(cycle)
    n = sum(shape)
    if n != sum(cycle):
        raise ValidationError(f"shape {shape!r} and cycle type {cycle!r} partition different n")
    check_partitions(n)
    return rim_hook_sum(shape, (), cycle)


@lru_cache(maxsize=None)
def rim_hook_sum(lam: tuple[int, ...], mu: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi_(lam,mu) of B_n at the signed cycle lengths ``cycles`` (a negative
    cycle of length k written -k), on trusted tuples, unchecked.  A cycle of
    length k comes off as a k-rim hook of lam, or of mu times the cycle's
    sign, each with (-1)^(leg length); the rest of the cycles, in order,
    go on the smaller pair.  With mu = () and positive cycles this is
    chi_lam of S_n, and at a D_n class it is Res chi_(lam,mu).  Any order of
    the cycles gives the value; the callers list them longest first."""
    if not cycles:
        return 1
    k, rest = abs(cycles[0]), cycles[1:]
    total = sum(sign * rim_hook_sum(smaller, mu, rest) for smaller, sign in _rim_hooks(lam, k))
    off_mu = sum(sign * rim_hook_sum(lam, smaller, rest) for smaller, sign in _rim_hooks(mu, k))
    return total + off_mu if cycles[0] > 0 else total - off_mu


@lru_cache(maxsize=None)
def _rim_hooks(shape: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(shape - hook, (-1)^(leg length)) for each rim hook of length k.  On the
    beta-set {shape_i + l - 1 - i}, a hook moves a beta number b to a free
    b - k >= 0, and its leg length is the count of beta numbers between the
    two."""
    length = len(shape)
    beta = [part + length - 1 - i for i, part in enumerate(shape)]
    out = []
    for i, b in enumerate(beta):
        if b >= k and b - k not in beta:
            moved = sorted(beta[:i] + beta[i + 1 :] + [b - k], reverse=True)
            smaller = tuple(x - (length - 1 - j) for j, x in enumerate(moved) if x > length - 1 - j)
            leg = sum(1 for x in beta[i + 1 :] if x > b - k)
            out.append((smaller, (-1) ** leg))
    return tuple(out)


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
    if n < 1:
        raise ValidationError("B_n needs n >= 1")
    check_bn(n)
    return [(label, bn_dimension(n, label)) for label in bipartitions(n)]


# -- labels and dimensions of D_n --------------------------------------------


class DnLabel(namedtuple("DnLabel", "lam mu half", defaults=(None,))):
    """Unordered pair {lam, mu} for an irreducible restriction, or a split half.

    ``half`` is "+" or "-" for a half of a self-paired (lam == mu) label.
    """

    __slots__ = ()

    def __new__(cls, lam: tuple[int, ...], mu: tuple[int, ...], half: str | None = None):
        if half is not None and (half not in ("+", "-") or lam != mu):
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
    check_bn(n)
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
