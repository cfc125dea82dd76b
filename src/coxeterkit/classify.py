"""Type labels, group orders, and the entry point of the classifier.

This is the light front that ``import coxeterkit`` loads: the
``TypeLabel`` value, its parser, the group-order formulas with the one
group-order budget (``check_order``), the one bound on the bond of I2(m)
(``check_bond``), the partitions of n with their bound
(``partitions_of``, ``check_partitions``), and ``classify``.  The
classifier itself is ``catalog``, which ``classify`` imports on its first
call, together with the graph and arithmetic modules; so a command that
only names a type compiles none of them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

from .errors import GuardError, UnsupportedTypeError, ValidationError

_RANK_OK = {  # one rank test per family, so a label evaluates only its own
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 1,  # B1 = Z/2 exists as a group; classification emits n >= 2
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "H": lambda n: n in (3, 4),
    "I2": lambda n: n == 2,
}
_FAMILIES = tuple(_RANK_OK)
_classify_components = None  # catalog.classify_components, once classify has loaded it


class TypeLabel(namedtuple("TypeLabel", "family rank bond", defaults=(None,))):
    """Name of an irreducible finite Coxeter type, e.g. A4, B3, I2(7).

    For classification output, single edges labeled 3 and 4 are always the
    canonical A2 and B2, so I2(m) labels carry m >= 5; dihedral realizations
    accept any m >= 3.  ``rank`` is an int, not a bool or a float, and
    ``bond`` is m for I2 and None otherwise.  Labels are
    immutable, hashable and ordered as (family, rank, bond) tuples.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int, bond: int | None = None):
        if family not in _FAMILIES:
            raise ValidationError(f"unknown family {family!r}")
        if type(rank) is not int or not _RANK_OK[family](rank):
            raise ValidationError(f"invalid rank {rank} for family {family}")
        if family == "I2":
            if not (isinstance(bond, int) and bond >= 3):
                raise ValidationError(f"I2 needs a bond label m >= 3, got {bond!r}")
        elif bond is not None:
            raise ValidationError("bond label is only meaningful for I2")
        return tuple.__new__(cls, (family, rank, bond))

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.bond})"
        return f"{self.family}{self.rank}"


def parse_type_label(text: str) -> TypeLabel:
    """"A4", "I2(7)", ...: one of ABDEFH and ASCII digits, or "I2(" ASCII
    digits ")", after ``strip()``; anything else is a ValidationError."""
    text = text.strip()
    dihedral = text.startswith("I2(") and text.endswith(")")
    digits = text[3:-1] if dihedral else text[1:]
    if (dihedral or text[:1] in tuple("ABDEFH")) and digits.isascii() and digits.isdigit():
        try:
            if dihedral:
                return TypeLabel("I2", 2, int(digits))
            n = int(digits)
        except ValueError as e:  # the digit limit, or an I2 bond below 3
            raise ValidationError(f"bad type string {text!r}") from e
        return TypeLabel(text[0], n)
    raise ValidationError(f"bad type string {text!r}")


def canonical_label(t: TypeLabel) -> TypeLabel:
    """Collapse low-rank coincidences to the one name the classifier emits.

    B1 is the A1 graph; single edges labeled 3 and 4 are A2 and B2.  All
    other labels, including I2(6), are already canonical.
    """
    if t.family == "B" and t.rank == 1:
        return TypeLabel("A", 1)
    if t.family == "I2" and t.bond == 3:
        return TypeLabel("A", 2)
    if t.family == "I2" and t.bond == 4:
        return TypeLabel("B", 2)
    return t


MAX_ORDER = 100_000  # default bound on |W| for every group built from a label


def _order_factors(t: TypeLabel):
    """Factors whose product is |W|: (n+1)! for A_n, 2^n n! for B_n,
    2^(n-1) n! for D_n and 2m for I2(m), each factor at least 2."""
    n = t.rank
    if t.family == "A":
        return range(2, n + 2)
    if t.family == "B":
        return range(2, 2 * n + 1, 2)
    if t.family == "D":
        return itertools.chain((n,), range(2, 2 * n - 1, 2))
    if t.family == "I2":
        return (2, t.bond)
    raise UnsupportedTypeError(f"group order of exceptional type {t} is out of scope")


def coxeter_group_order(t: TypeLabel) -> int:
    return math.prod(_order_factors(t))


_PRINTABLE = 10 ** 4300  # str() refuses ints of more digits, by default


def check_order(label: TypeLabel, max_order: int) -> int:
    """|W| of an A/B/D/I2 label; GuardError when it exceeds ``max_order``.

    The one group-order budget: ``realize`` checks it, and so does every
    type command of the CLI when ``--max-order`` is given.  The order is a
    running product that stops once it passes both the bound and the
    largest order the message can print, so a huge rank costs no more than
    a few thousand multiplications; past that, the message leaves the
    order out.
    """
    cap = max(max_order + 1, _PRINTABLE)
    order = 1
    for factor in _order_factors(label):  # raises UnsupportedTypeError for E/F/H
        order *= factor
        if order >= cap:
            raise GuardError(f"|{label}| exceeds the bound {max_order}")
    if order > max_order:
        raise GuardError(f"|{label}| = {order} exceeds the bound {max_order}")
    return order


# The cost of an I2(m) root system and character table grows with the degree
# of the cyclotomic polynomial of conductor 2m, so prime m cost most: a fresh
# verify I2(79) took 2.3 s and 18 MB, I2(82) 1.5 s (CPython 3.11, 2-vCPU x86).
BOND_BOUND = 82


def check_bond(m: int) -> None:
    """GuardError past ``BOND_BOUND``: the one bound on m for I2(m), which
    ``roots`` and the dihedral dimensions and characters all check."""
    if m > BOND_BOUND:
        raise GuardError(f"bond {m} exceeds the bound {BOND_BOUND}")


PARTITION_GUARD = 40


def check_partitions(n: int) -> None:
    """GuardError past ``PARTITION_GUARD``, for partitions and S_n values."""
    if n > PARTITION_GUARD:
        raise GuardError(f"partition enumeration capped at n = {PARTITION_GUARD}")


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse-lexicographic order; () for n = 0.

    They index the class data of A/B/D, so they live here, where ``realize``
    finds them without compiling ``tableaux``; ``tableaux`` re-exports them.
    """
    if n < 0:
        raise ValidationError("partitions are defined for n >= 0")
    check_partitions(n)
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


def classify(g: CoxeterGraph) -> ClassificationResult:
    """Name each connected component, or mark it NotFinite with a witness.

    A component the catalog matches must also pass Sylvester's criterion on
    the sparse pivots of its Gram matrix (rank 2: a finite bond).  A
    component it rejects is shrunk to a minimal rejected connected induced
    subgraph, which exact arithmetic must certify as affine or hyperbolic;
    the witness names it by its original vertices.  Either disagreement
    raises InternalInconsistencyError.  No dense Gram matrix is built; the
    work is ``catalog.classify_components``, imported and looked up once, on
    the first call.  A graph of more than ``catalog.VERTEX_GUARD`` vertices
    raises GuardError before any work.
    """
    global _classify_components
    if _classify_components is None:
        from .catalog import classify_components as _classify_components
    return _classify_components(g)
