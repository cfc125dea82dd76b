"""Class data and class functions, with no group: the core of the table commands.

``class_data`` gives the conjugacy classes of A_n, B_n, D_n and I2(m) in
closed form, ``coxeter_generators`` their Coxeter generators and
``irreducible_characters`` their complete character lists.  Each
dispatches to its family's module (``permutations`` and ``families`` for
A/B/D, ``dihedral`` for I2(m)), imported where it is used, so a command
compiles only its own family's code.  ``ClassFunction`` lives on any
domain with classes: this class data or an enumerated
``groups.RealizedGroup``, of which ``reps.Subgroup`` is a subclass.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .classify import coxeter_group_order
from .errors import InternalInconsistencyError, UnsupportedTypeError, ValidationError


class ConjugacyClasses(namedtuple("ConjugacyClasses", "reps sizes class_of")):
    """Classes of a group: ``reps`` (the first element of each class, in
    enumeration order), ``sizes``, and ``class_of`` (element index -> class
    index; None for the closed-form ``ClassData``, which has no indices)."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.reps)


class ClassData:
    """Conjugacy classes of A_n, B_n, D_n or I2(m) in closed form.

    A group-free domain for class functions, with the ``label``, ``order``
    and ``classes`` of the RealizedGroup: each class is represented by its
    lex-first element (permutation images, then signs with +1 before -1),
    and the classes are sorted by it.  That is the enumeration order of
    ``groups._build_group`` with the first-seen representatives of
    ``RealizedGroup.classes``, so both give the same reps and sizes in the
    same order.  Sizes are n!/z_lam for S_n and 2^n n!/(z_alpha z_beta), with
    (2k)^m_k m_k! in z, for B_n; a D_n class whose cycles are all positive
    of even length is half of its B_n class, the halves told apart by
    ``permutations.diagonal_parity``.  The classes of I2(m) are e, s (size
    m, or m/2 for even m), r s (m/2, even m only) and r^k for
    1 <= k <= m/2 (size 2, or 1 for r^(m/2)), again in enumeration order.
    ``classes.class_of`` is None; ``class_index`` finds an element's class
    from ``key``, the family's complete class invariant, instead.
    """

    __slots__ = ("label", "order", "classes", "_key", "_index")

    def __init__(self, label: TypeLabel, reps, sizes, key):
        self.label = label
        self.order = coxeter_group_order(label)
        self.classes = ConjugacyClasses(tuple(reps), tuple(sizes), None)
        self._key = key
        self._index = {key(rep): k for k, rep in enumerate(reps)}
        if sum(sizes) != self.order or len(self._index) != len(reps):
            raise InternalInconsistencyError(f"closed-form classes of {label} do not partition W")

    def class_index(self, el) -> int:
        try:
            return self._index[self._key(el)]
        except (AttributeError, KeyError):
            raise ValidationError(f"element {el!r} does not belong to {self.label}") from None

    def __repr__(self):
        return f"ClassData({self.label}, order={self.order})"


@lru_cache(maxsize=None)
def class_data(label: TypeLabel) -> ClassData:
    """Closed-form class data of an A/B/D/I2 label; nothing is enumerated."""
    if label.family == "I2":
        from .dihedral import dihedral_class_key, dihedral_classes

        return ClassData(label, *dihedral_classes(label.bond), dihedral_class_key)
    from .permutations import CLASS_KEYS, permutation_classes

    reps, sizes = permutation_classes(label)  # raises UnsupportedTypeError for E/F/H
    return ClassData(label, reps, sizes, CLASS_KEYS[label.family])


def coxeter_generators(label: TypeLabel) -> list:
    """The concrete Coxeter generators of an A/B/D/I2 label, in catalog vertex order."""
    if label.family == "I2":
        from .dihedral import dihedral_generators

        return dihedral_generators(label.bond)
    from .permutations import permutation_generators

    return permutation_generators(label)


def irreducible_characters(label: TypeLabel) -> list:
    """Uniform entry point: the complete named character list for a type."""
    if label.family == "A":
        from .families import symmetric_character_table

        return list(symmetric_character_table(label.rank + 1))
    if label.family == "B":
        from .families import hyperoctahedral_irreducibles

        return [chi for _, chi, _ in hyperoctahedral_irreducibles(label.rank)]
    if label.family == "D":
        from .families import dn_irreducibles

        return [chi for _, chi, _ in dn_irreducibles(label.rank)]
    if label.family == "I2":
        from .dihedral import dihedral_irreducibles

        return list(dihedral_irreducibles(label.bond))
    raise UnsupportedTypeError(f"no character construction for {label}")


class ClassFunction:
    """Values on conjugacy classes, in class order.

    The domain is a RealizedGroup (a Subgroup is one) or the group-free
    ``ClassData``.  Two domains with the same order, class
    representatives and sizes carry the same class functions, so a table on
    the closed-form class data meets characters on the enumerated group.
    """

    __slots__ = ("domain", "values", "name")

    def __init__(self, domain, values, name: str | None = None):
        values = tuple(values)
        if len(values) != domain.classes.count:
            raise ValidationError(
                f"need {domain.classes.count} class values, got {len(values)}"
            )
        self.domain = domain
        self.values = values
        self.name = name

    @property
    def identity_value(self):
        return self.values[0]

    def value_at(self, el):
        return self.values[self.domain.class_index(el)]

    def pointwise(self, other: "ClassFunction") -> "ClassFunction":
        _same_domain(self, other)
        return ClassFunction(self.domain, [a * b for a, b in zip(self.values, other.values)])

    def __add__(self, other):
        _same_domain(self, other)
        return ClassFunction(self.domain, [a + b for a, b in zip(self.values, other.values)])

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return _same_class_data(self.domain, other.domain) and all(
            a == b for a, b in zip(self.values, other.values)
        )

    __hash__ = None

    def conjugate(self) -> "ClassFunction":
        from .linalg import conjugate_scalar

        return ClassFunction(self.domain, [conjugate_scalar(v) for v in self.values], self.name)

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"ClassFunction{label}({[str(v) for v in self.values]})"


def _same_class_data(a, b) -> bool:
    if a is b:
        return True
    if a.order != b.order:
        return False
    x, y = a.classes, b.classes
    return x.sizes == y.sizes and x.reps == y.reps


def _same_domain(f: ClassFunction, g: ClassFunction):
    if not _same_class_data(f.domain, g.domain):
        raise ValidationError("class functions live on different class data")
