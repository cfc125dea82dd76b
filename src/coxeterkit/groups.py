"""Enumerated groups: the engine behind ``verify`` and the representation code.

``realize`` builds a finite Coxeter group of type A, B, D or I2 as the
full list of its elements (``permutations`` and ``dihedral`` define them,
and each is loaded for its own families only), in a canonical order, with
index-level generator tables, orbit conjugacy classes and a word
factorization.  The table commands never come here: their classes are the
closed-form ``classes.class_data``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .catalog import catalog_graph
from .classes import ConjugacyClasses, coxeter_generators
from .classify import MAX_ORDER, TypeLabel, check_order
from .errors import InternalInconsistencyError, ValidationError


def conjugacy_orbits(elements, conjugations) -> ConjugacyClasses:
    """Classes as orbits of index maps, one map per generator.

    ``conjugations[k][i]`` is the index of g_k * elements[i] * g_k^-1 for a
    generating set g_k.  Orbits are swept in index order, so each class is
    represented by its first element in enumeration order.
    """
    class_of = [-1] * len(elements)
    reps, sizes = [], []
    for i in range(len(elements)):
        if class_of[i] >= 0:
            continue
        cls = len(reps)
        class_of[i] = cls
        orbit = [i]
        for j in orbit:
            for conj in conjugations:
                k = conj[j]
                if class_of[k] < 0:
                    class_of[k] = cls
                    orbit.append(k)
        reps.append(elements[i])
        sizes.append(len(orbit))
    return ConjugacyClasses(tuple(reps), tuple(sizes), tuple(class_of))


class RealizedGroup:
    """A finite Coxeter group with enumerated elements and Coxeter generators.

    ``elements[0]`` is the identity and the element order is canonical for
    the type, so conjugacy classes and all derived data are deterministic.
    Index-level routines work on ``generator_tables()`` (order x rank ints)
    rather than on new element objects.  Lazy caches (tables, classes, word
    factorization, inverses) compute idempotent values, so concurrent
    readers at worst duplicate work.
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
        if self._classes is None:
            inv = self._inverse_table()
            # s x s^-1 = s (s x^-1)^-1
            conjugations = [
                [left[inv[left[inv[i]]]] for i in range(self.order)]
                for left in self.generator_tables()
            ]
            self._classes = conjugacy_orbits(self.elements, conjugations)
        return self._classes

    def word_dag(self):
        """BFS factorization: parent[i], gen[i] with elements[i] = gen * parent.

        Doubles as a check that the Coxeter generators generate the whole
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


def _enumerate_closure(generators, identity, bound: int):
    """Breadth-first closure under left multiplication by the generators."""
    elements = [identity]
    seen = {identity}
    for x in elements:
        for g in generators:
            y = g * x
            if y not in seen:
                seen.add(y)
                elements.append(y)
                if len(elements) > bound:
                    raise InternalInconsistencyError("closure exceeded the expected order")
    return elements


@lru_cache(maxsize=None)
def realize(label: TypeLabel, max_order: int = MAX_ORDER) -> RealizedGroup:
    """Concrete group for an A/B/D/I2 label, with canonical element order.

    ``max_order`` is only a guard: every budget that admits the type gets the
    same group object, which is built once.
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

        elements = _enumerate_closure(gens, DihedralElement.identity(label.bond), order)
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


def enumerate_group(label: TypeLabel, max_order: int = MAX_ORDER) -> list:
    return list(realize(label, max_order).elements)


def conjugacy_classes(label: TypeLabel, max_order: int = MAX_ORDER) -> list[tuple[object, int]]:
    """(representative, class size) pairs in canonical order."""
    g = realize(label, max_order)
    c = g.classes
    return list(zip(c.reps, c.sizes))


def element_order(x) -> int:
    k = 1
    y = x
    while not y.is_identity():
        y = y * x
        k += 1
    return k


def verify_presentation(label: TypeLabel, max_order: int = MAX_ORDER) -> bool:
    """Do the concrete generators satisfy exactly the Coxeter relations?

    Checks order(s_i s_j) == m(i, j) for every generator pair (including
    s_i^2 = e on the diagonal) and that the generators generate the whole
    enumerated group.
    """
    group = realize(label, max_order)
    graph = group.graph
    gens = group.generators
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            m = graph.label(i, j)
            if element_order(gens[i] * gens[j]) != m:
                return False
    group.word_dag()  # raises if the generators do not generate
    return True
