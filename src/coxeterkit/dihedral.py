"""The dihedral groups I2(m): elements, classes, dimensions and characters.

Everything a table command of I2(m) runs, in closed form: the element
r^k s^e, the class representatives and sizes with their invariant, the
Coxeter generators, the dimension list and the characters.  ``irreps``
loads only this module; the characters import the class functions and the
cyclotomic arithmetic where they are built, so nothing of the A/B/D code
and no group enumeration is compiled for a dihedral table.  The dimensions,
and so the characters, take the one bond bound, ``classify.check_bond``.
"""

from __future__ import annotations

from functools import lru_cache

from .classify import TypeLabel, check_bond
from .errors import InternalInconsistencyError, ValidationError


class DihedralElement:
    """Word r^k s^e in the dihedral group of the regular m-gon."""

    __slots__ = ("m", "rotation", "reflected")

    def __init__(self, m: int, rotation: int, reflected: bool):
        if m < 3:
            raise ValidationError(f"dihedral group needs m >= 3, got {m}")
        self.m = m
        self.rotation = rotation % m
        self.reflected = bool(reflected)

    @classmethod
    def identity(cls, m: int) -> "DihedralElement":
        return cls(m, 0, False)

    def __mul__(self, other):
        if not isinstance(other, DihedralElement):
            return NotImplemented
        if self.m != other.m:
            raise ValidationError("dihedral elements from different groups")
        if self.reflected:
            return DihedralElement(
                self.m, self.rotation - other.rotation, not other.reflected
            )
        return DihedralElement(self.m, self.rotation + other.rotation, other.reflected)

    def inverse(self) -> "DihedralElement":
        if self.reflected:
            return self
        return DihedralElement(self.m, -self.rotation, False)

    def __eq__(self, other):
        return (
            isinstance(other, DihedralElement)
            and self.m == other.m
            and self.rotation == other.rotation
            and self.reflected == other.reflected
        )

    def __hash__(self):
        return hash((self.m, self.rotation, self.reflected))

    def is_identity(self) -> bool:
        return self.rotation == 0 and not self.reflected

    def text(self) -> str:
        if self.rotation == 0:
            return "s" if self.reflected else "e"
        r = "r" if self.rotation == 1 else f"r^{self.rotation}"
        return f"{r} s" if self.reflected else r

    def __repr__(self):
        return f"DihedralElement({self.m}, {self.rotation}, {self.reflected})"


def dihedral_class_key(el: DihedralElement):
    """Complete conjugacy invariant in W(I2(m)): r^k s keeps the parity of k
    for even m, and r^k meets r^-k only."""
    m, k = el.m, el.rotation
    if el.reflected:
        return m, True, k % 2 if m % 2 == 0 else 0
    return m, False, min(k, m - k)


def dihedral_classes(m: int) -> tuple[list, list]:
    """(reps, sizes): e, the reflections (s; r s too for even m), then the
    rotation pairs {r^k, r^-k}, in enumeration order."""
    mirrors = (0,) if m % 2 else (0, 1)
    reps = [DihedralElement.identity(m)] + [DihedralElement(m, k, True) for k in mirrors]
    reps += [DihedralElement(m, k, False) for k in range(1, m // 2 + 1)]
    sizes = [1] + [m // len(mirrors)] * len(mirrors) + [2] * ((m - 1) // 2) + [1] * (1 - m % 2)
    return reps, sizes


def dihedral_generators(m: int) -> list:
    """The Coxeter generators s and r s, in catalog vertex order."""
    return [DihedralElement(m, 0, True), DihedralElement(m, 1, True)]


def dihedral_dimensions(m: int) -> list[tuple[str, int]]:
    """(name, dimension) for every irreducible of I2(m), by the formula only.

    First "1:(a,b)", the character sending r to a and s to b (a = -1 only
    for even m), then "2:k" for 1 <= k < m/2, with zeta^jk + zeta^-jk on r^j.
    ValidationError for m < 3, GuardError past ``classify.BOND_BOUND``.
    """
    if m < 3:
        raise ValidationError(f"dihedral characters need m >= 3, got {m}")
    check_bond(m)
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))[: 4 - 2 * (m % 2)]
    return [(f"1:({a},{b})", 1) for a, b in signs] + [(f"2:{k}", 2) for k in range(1, (m + 1) // 2)]


@lru_cache(maxsize=None)
def dihedral_irreducibles(m: int) -> tuple[ClassFunction, ...]:
    """Complete irreducible characters of the dihedral group of order 2m.

    In the order and with the names of ``dihedral_dimensions``, in closed
    form on the class data (Serre, *Linear Representations of Finite
    Groups*, 5.3): "1:(a,b)" is a^j on r^j and a^j b on r^j s, and "2:k" is
    zeta^jk + zeta^-jk on r^j and 0 on reflections.  ``verify`` checks the
    2-dimensional ones against the induction from the rotation subgroup.
    """
    rows = dihedral_dimensions(m)  # raises past the bond bound
    from fractions import Fraction

    from .classes import ClassFunction, class_data
    from .cyclotomic import Cyclotomic

    group = class_data(TypeLabel("I2", 2, m))
    reps = group.classes.reps
    out = []
    for name, dim in rows:
        if dim == 1:
            a, b = map(int, name[3:-1].split(","))
            values = [Fraction(a ** el.rotation * (b if el.reflected else 1)) for el in reps]
        else:
            k = int(name[2:])
            values = [
                Fraction(0) if el.reflected
                else Cyclotomic.zeta(m, k * el.rotation) + Cyclotomic.zeta(m, -k * el.rotation)
                for el in reps
            ]
        out.append(ClassFunction(group, values, name))
    if sum(dim * dim for _, dim in rows) != 2 * m or len(out) != group.classes.count:
        raise InternalInconsistencyError("dihedral character set is not complete")
    return tuple(out)
