"""Enumerated groups: the engine behind ``verify`` and the representation code.

``realize`` builds a finite Coxeter group of type A, B, D or I2 as the
full list of its elements (``permutations`` and ``dihedral`` define them,
and each is loaded for its own families only), listed in closed form in a
canonical order, with index-level generator tables, orbit conjugacy
classes and a word factorization.  ``realize`` is the one entry that takes
the order budget; every group-level entry takes the group it returns.
``reps.Subgroup`` runs on the same engine: the closure of a few
generators, listed in its parent's order, with no graph.  The table
commands never come here: their classes are the closed-form
``classes.class_data``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .catalog import catalog_graph
from .classes import ConjugacyClasses, coxeter_generators
from .classify import MAX_ORDER, TypeLabel, check_order
from .errors import InternalInconsistencyError, ValidationError


class RealizedGroup:
    """A finite group with enumerated elements and a generating set.

    ``realize`` gives the Coxeter groups, generated by their Coxeter
    generators; ``reps.Subgroup`` is the subclass for subgroups, with no
    graph.  ``elements[0]`` is the identity and the element order is
    canonical for the type, so conjugacy classes and all derived data are
    deterministic.  Index-level routines work on ``generator_tables()``
    (order x generators ints) rather than on new element objects.  Lazy
    caches (tables, classes, word factorization, inverses) compute
    idempotent values, so concurrent readers at worst duplicate work.
    """

    def __init__(self, label: TypeLabel, graph: CoxeterGraph, generators, elements):
        self.label = label
        self.graph = graph
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InternalInconsistencyError("duplicate elements in enumeration")
        if not self.elements[0].is_identity():
            raise InternalInconsistencyError("enumeration must start at the identity")
        self._tables = None
        self._classes = None
        self._dag = None
        self._inverses = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self):
        return self.elements[0]

    def index_of(self, el) -> int:
        try:
            return self.index[el]
        except KeyError:
            raise ValidationError(f"element {el!r} does not belong to {self.label}") from None

    def class_index(self, el) -> int:
        return self.classes.class_of[self.index_of(el)]

    def generator_tables(self) -> tuple[tuple[int, ...], ...]:
        """Left action of each generator on indices: i -> index(s * elements[i])."""
        if self._tables is None:
            index, elements = self.index, self.elements
            self._tables = tuple(
                tuple([index[s * x] for x in elements]) for s in self.generators
            )
        return self._tables

    def _inverse_table(self) -> tuple[int, ...]:
        if self._inverses is None:
            self._inverses = tuple([self.index[g.inverse()] for g in self.elements])
        return self._inverses

    @property
    def classes(self) -> ConjugacyClasses:
        """Orbits under conjugation by the generators, swept in index order,
        so each class is represented by its first element."""
        if self._classes is None:
            inv, tables = self._inverse_table(), self.generator_tables()
            class_of = [-1] * self.order
            reps, sizes = [], []
            for i in range(self.order):
                if class_of[i] >= 0:
                    continue
                cls = len(reps)
                class_of[i] = cls
                orbit = [i]
                for j in orbit:
                    for left in tables:
                        k = left[inv[left[inv[j]]]]  # g x g^-1 = g (g x^-1)^-1
                        if class_of[k] < 0:
                            class_of[k] = cls
                            orbit.append(k)
                reps.append(self.elements[i])
                sizes.append(len(orbit))
            self._classes = ConjugacyClasses(tuple(reps), tuple(sizes), tuple(class_of))
        return self._classes

    def word_dag(self):
        """BFS factorization: parent[i], gen[i] with elements[i] = gen * parent.

        Doubles as a check that the generators generate the whole
        enumerated group.
        """
        if self._dag is None:
            n = self.order
            parent = [-1] * n
            genidx = [-1] * n
            seen = [False] * n
            seen[0] = True
            queue = [0]
            tables = self.generator_tables()
            for cur in queue:
                for gi, table in enumerate(tables):
                    j = table[cur]
                    if not seen[j]:
                        seen[j] = True
                        parent[j] = cur
                        genidx[j] = gi
                        queue.append(j)
            if len(queue) != n:
                raise InternalInconsistencyError(
                    f"generators of {self.label} reach only {len(queue)} of {n} elements"
                )
            self._dag = (tuple(parent), tuple(genidx))
        return self._dag

    def __repr__(self):
        return f"RealizedGroup({self.label}, order={self.order})"


@lru_cache(maxsize=None)
def realize(label: TypeLabel, max_order: int = MAX_ORDER) -> RealizedGroup:
    """Concrete group for an A/B/D/I2 label, with canonical element order.

    ``max_order`` is only a guard, checked before any element is built: every
    budget that admits the type gets the same group object, built once.
    """
    return _build_group(label, check_order(label, max_order))


@lru_cache(maxsize=None)
def _build_group(label: TypeLabel, order: int) -> RealizedGroup:
    f, n = label.family, label.rank
    graph = catalog_graph(label)
    gens = coxeter_generators(label)
    # itertools yields valid permutations and signs, so no re-validation
    if f == "I2":
        from .dihedral import DihedralElement

        # e, then r^k s, then r^k: each class first meets its dihedral_classes rep
        m = label.bond
        elements = [DihedralElement.identity(m)] + [DihedralElement(m, k, True) for k in range(m)]
        elements += [DihedralElement(m, k, False) for k in range(1, m)]
    else:
        from .permutations import Permutation, SignedPermutation

        if f == "A":
            elements = [Permutation._trusted(p) for p in itertools.permutations(range(n + 1))]
        else:
            elements = [
                SignedPermutation._trusted(s, Permutation._trusted(p))
                for p in itertools.permutations(range(n))
                for s in itertools.product((1, -1), repeat=n)
                if f == "B" or math.prod(s) == 1
            ]
    group = RealizedGroup(label, graph, gens, elements)
    if group.order != order:
        raise InternalInconsistencyError(
            f"enumerated {group.order} elements of {label}, expected {order}"
        )
    return group


def element_order(x) -> int:
    k = 1
    y = x
    while not y.is_identity():
        y = y * x
        k += 1
    return k


def coxeter_graph(group: RealizedGroup) -> CoxeterGraph:
    """The graph of a group from ``realize``; ValidationError for a ``Subgroup``."""
    if group.graph is None:
        raise ValidationError(f"{group!r} is not a Coxeter group from realize")
    return group.graph


def verify_presentation(group: RealizedGroup) -> bool:
    """Do the concrete generators of a realized Coxeter group satisfy exactly
    the Coxeter relations?

    Checks order(s_i s_j) == m(i, j) for every generator pair (including
    s_i^2 = e on the diagonal) and that the generators generate the whole
    enumerated group.
    """
    graph = coxeter_graph(group)
    gens = group.generators
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            m = graph.label(i, j)
            if element_order(gens[i] * gens[j]) != m:
                return False
    group.word_dag()  # raises if the generators do not generate
    return True
