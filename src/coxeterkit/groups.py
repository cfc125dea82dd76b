"""Concrete realizations of the infinite Coxeter families.

Elements are immutable values: permutations of 0..n-1 (type A), signed
permutations (types B and D), and dihedral words (type I2).  Throughout the
package elements act on the left and (gh)(x) = g(h(x)); the signed product
rule is pinned against signed permutation matrices, which are the
authoritative model.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache

from .classify import MAX_ORDER, TypeLabel, catalog_graph, coxeter_group_order
from .errors import GuardError, InternalInconsistencyError, UnsupportedTypeError, ValidationError


class Permutation:
    """Bijection of {0..n-1}; images[i] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        # images already known to be a permutation (products, inverses)
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        img = list(range(n))
        img[i], img[j] = j, i
        return cls(img)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.size != other.size:
            raise ValidationError("permutations act on different point sets")
        img = self.images
        return Permutation._trusted(tuple([img[j] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(self.size):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths (fixed points included), sorted descending."""
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True))

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def natural_matrix(self) -> Matrix:
        from .linalg import Matrix

        n = self.size
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[self.images[i]][i] = 1
        return Matrix(rows)

    def text(self) -> str:
        """Cycle notation on 1-based points, 'e' for the identity."""
        cyc = self.cycles()
        if not cyc:
            return "e"
        return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cyc)

    def __repr__(self):
        return f"Permutation({self.images!r})"


class SignedPermutation:
    """Pair (signs, perm) acting on R^n as the matrix diag(signs) @ P(perm).

    The basis vector e_i maps to signs[perm(i)] * e_perm(i); the product rule
    below is exactly composition of those matrices.
    """

    __slots__ = ("signs", "perm")

    def __init__(self, signs, perm: Permutation):
        signs = tuple(signs)
        if any(s not in (1, -1) for s in signs):
            raise ValidationError(f"signs must be +-1, got {signs!r}")
        if len(signs) != perm.size:
            raise ValidationError("sign vector length does not match the permutation")
        self.signs = signs
        self.perm = perm

    @classmethod
    def _trusted(cls, signs: tuple, perm: Permutation) -> "SignedPermutation":
        # signs already known to be +-1 of the right length (products, inverses)
        sp = object.__new__(cls)
        sp.signs = signs
        sp.perm = perm
        return sp

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls((1,) * n, Permutation.identity(n))

    @classmethod
    def sign_flip(cls, n: int, i: int) -> "SignedPermutation":
        signs = [1] * n
        signs[i] = -1
        return cls(signs, Permutation.identity(n))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "SignedPermutation":
        return cls((1,) * n, Permutation.transposition(n, i, j))

    @property
    def size(self) -> int:
        return self.perm.size

    def __mul__(self, other):
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if self.size != other.size:
            raise ValidationError("signed permutations act on different point sets")
        # sign at perm(j) is self.signs[perm(j)] * other.signs[j]
        img, mine, theirs = self.perm.images, self.signs, other.signs
        signs = [0] * len(img)
        for j, i in enumerate(img):
            signs[i] = mine[i] * theirs[j]
        perm = Permutation._trusted(tuple([img[j] for j in other.perm.images]))
        return SignedPermutation._trusted(tuple(signs), perm)

    def inverse(self) -> "SignedPermutation":
        img = self.perm.images
        signs = tuple([self.signs[j] for j in img])
        return SignedPermutation._trusted(signs, self.perm.inverse())

    def __eq__(self, other):
        return (
            isinstance(other, SignedPermutation)
            and self.signs == other.signs
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.signs, self.perm.images))

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and self.perm.is_identity()

    def natural_matrix(self) -> Matrix:
        from .linalg import Matrix

        n = self.size
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[self.perm(i)][i] = self.signs[self.perm(i)]
        return Matrix(rows)

    def signed_cycle_type(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(positive-cycle lengths, negative-cycle lengths), each sorted descending.

        A cycle is negative when the product of signs over its points is -1;
        this datum is a complete conjugacy invariant.
        """
        pos, neg = [], []
        for cyc in self.perm.cycles(include_fixed=True):
            prod = 1
            for i in cyc:
                prod *= self.signs[i]
            (pos if prod == 1 else neg).append(len(cyc))
        return tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True))

    def text(self) -> str:
        signs = "[" + ",".join("+1" if s == 1 else "-1" for s in self.signs) + "]"
        return f"{signs} {self.perm.text()}"

    def __repr__(self):
        return f"SignedPermutation({self.signs!r}, {self.perm!r})"


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


def element_text(el) -> str:
    return el.text()


class ConjugacyClasses(namedtuple("ConjugacyClasses", "reps sizes class_of")):
    """Classes of a group: ``reps`` (the first element of each class, in
    enumeration order), ``sizes``, and ``class_of`` (element index -> class
    index; None for the closed-form ``ClassData``, which has no indices)."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.reps)


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


# -- class data in closed form ---------------------------------------------


def _lex_first_images(lengths) -> tuple[int, ...]:
    """Images of the lex-first permutation with these cycle lengths: the
    cycles in increasing length, each on consecutive points."""
    images: list[int] = []
    for k in sorted(lengths):
        start = len(images)
        images.extend(range(start + 1, start + k))
        images.append(start)
    return tuple(images)


def _lex_first_signs(pos, neg) -> tuple[int, ...]:
    """Lex-first signs (+1 before -1) that make ``neg`` the negative cycles of
    ``_lex_first_images(pos + neg)``: of the cycles of each length, the last
    ones are negative, each by a -1 on its last point."""
    negative, left = Counter(neg), Counter(pos + neg)
    signs: list[int] = []
    for k in sorted(pos + neg):
        left[k] -= 1
        signs += [1] * (k - 1) + [-1 if left[k] < negative[k] else 1]
    return tuple(signs)


def _centralizer_order(lengths, weight: int = 1) -> int:
    """Product over the distinct lengths k of (weight * k)^m_k * m_k!."""
    return math.prod((weight * k) ** m * math.factorial(m) for k, m in Counter(lengths).items())


def diagonal_parity(w: SignedPermutation) -> int:
    """Parity of the sign flips of a diagonal d with d w d^-1 sign-free.

    Defined when every cycle of w is positive: d is fixed up to a sign on
    each cycle, so the parity does not depend on d when the cycles have
    even length.  It tells apart the two D_n classes into which such a B_n
    class splits; 0 is the class of the sign-free permutation.
    """
    flips = 0
    for cyc in w.perm.cycles(include_fixed=True):
        d = 1
        for i in cyc[1:]:
            d *= w.signs[i]
            flips += d < 0
    return flips % 2


def _class_key(el, family: str):
    """Complete conjugacy invariant in W(A_n), W(B_n), W(D_n) or W(I2(m));
    in I2(m), r^k s keeps the parity of k for even m, and r^k meets r^-k only."""
    if family == "A":
        return el.cycle_type()
    if family != "I2":
        pos, neg = el.signed_cycle_type()
        if family == "D" and not neg and all(k % 2 == 0 for k in pos):
            return pos, neg, diagonal_parity(el)
        return pos, neg
    m, k = el.m, el.rotation
    if el.reflected:
        return m, True, k % 2 if m % 2 == 0 else 0
    return m, False, min(k, m - k)


def _enumeration_key(el):
    """Sort key of ``_build_group``'s element order."""
    if isinstance(el, Permutation):
        return el.images
    return el.perm.images, tuple([s < 0 for s in el.signs])


class ClassData:
    """Conjugacy classes of A_n, B_n, D_n or I2(m) in closed form.

    A group-free domain for class functions, with the ``label``, ``order``
    and ``classes`` of the RealizedGroup: each class is represented by its
    lex-first element (permutation images, then signs with +1 before -1),
    and the classes are sorted by it.  That is the enumeration order of
    ``_build_group`` with the first-seen representatives of
    ``conjugacy_orbits``, so both give the same reps and sizes in the same
    order.  Sizes are n!/z_lam for S_n and 2^n n!/(z_alpha z_beta), with
    (2k)^m_k m_k! in z, for B_n; a D_n class whose cycles are all positive
    of even length is half of its B_n class, the halves told apart by
    ``diagonal_parity``.  The classes of I2(m) are e, s (size m, or m/2
    for even m), r s (m/2, even m only) and r^k for 1 <= k <= m/2 (size 2,
    or 1 for r^(m/2)), again in enumeration order.  ``classes.class_of`` is
    None; ``class_index`` finds an element's class from its invariant
    instead.
    """

    __slots__ = ("label", "order", "classes", "_index")

    def __init__(self, label: TypeLabel, reps, sizes):
        self.label = label
        self.order = coxeter_group_order(label)
        self.classes = ConjugacyClasses(tuple(reps), tuple(sizes), None)
        self._index = {_class_key(rep, label.family): k for k, rep in enumerate(reps)}
        if sum(sizes) != self.order or len(self._index) != len(reps):
            raise InternalInconsistencyError(f"closed-form classes of {label} do not partition W")

    def class_index(self, el) -> int:
        try:
            return self._index[_class_key(el, self.label.family)]
        except (AttributeError, KeyError):
            raise ValidationError(f"element {el!r} does not belong to {self.label}") from None

    def __repr__(self):
        return f"ClassData({self.label}, order={self.order})"


@lru_cache(maxsize=None)
def class_data(label: TypeLabel) -> ClassData:
    """Closed-form class data of an A/B/D/I2 label; nothing is enumerated."""
    f, n = label.family, label.rank
    if f == "I2":
        # e, the reflections (s; r s too for even m), the rotation pairs {r^k, r^-k}
        m = label.bond
        mirrors = (0,) if m % 2 else (0, 1)
        reps = [DihedralElement.identity(m)] + [DihedralElement(m, k, True) for k in mirrors]
        reps += [DihedralElement(m, k, False) for k in range(1, m // 2 + 1)]
        sizes = [1] + [m // len(mirrors)] * len(mirrors) + [2] * ((m - 1) // 2) + [1] * (1 - m % 2)
        return ClassData(label, reps, sizes)
    from .tableaux import partitions_of

    found = []
    if f == "A":
        for lam in partitions_of(n + 1):
            rep = Permutation._trusted(_lex_first_images(lam))
            found.append((rep, math.factorial(n + 1) // _centralizer_order(lam)))
    elif f in ("B", "D"):
        order_b = 2 ** n * math.factorial(n)
        for a in range(n, -1, -1):
            for pos in partitions_of(a):
                for neg in partitions_of(n - a):
                    if f == "D" and len(neg) % 2:
                        continue
                    perm = Permutation._trusted(_lex_first_images(pos + neg))
                    size = order_b // (_centralizer_order(pos, 2) * _centralizer_order(neg, 2))
                    if f == "D" and not neg and all(k % 2 == 0 for k in pos):
                        # split: the lex-first element of the half of parity 1
                        size //= 2
                        odd = (1,) * (n - 2) + (-1, -1)
                        found.append((SignedPermutation._trusted(odd, perm), size))
                    signs = _lex_first_signs(pos, neg)
                    found.append((SignedPermutation._trusted(signs, perm), size))
    else:
        raise UnsupportedTypeError(f"closed-form class data covers A, B, D and I2, not {label}")
    found.sort(key=lambda pair: _enumeration_key(pair[0]))
    return ClassData(label, [rep for rep, _ in found], [size for _, size in found])


def coxeter_generators(label: TypeLabel) -> list:
    """The concrete Coxeter generators of an A/B/D/I2 label, in catalog vertex order."""
    f, n = label.family, label.rank
    if f == "A":
        return _type_a_generators(n)
    if f == "B":
        return _type_b_generators(n)
    if f == "D":
        return _type_d_generators(n)
    if f == "I2":
        return [DihedralElement(label.bond, 0, True), DihedralElement(label.bond, 1, True)]
    raise UnsupportedTypeError(f"no concrete generators for {label}")


def _type_a_generators(n: int):
    # vertices i <-> adjacent transposition (i, i+1) on n+1 points
    return [Permutation.transposition(n + 1, i, i + 1) for i in range(n)]


def _type_b_generators(n: int):
    gens = [SignedPermutation.sign_flip(n, 0)]
    gens += [SignedPermutation.swap(n, i - 1, i) for i in range(1, n)]
    return gens


def _type_d_generators(n: int):
    # vertex 0: e_0 + e_1 reflection (swap with both signs flipped); the rest
    # are plain adjacent transpositions, matching the catalog vertex order.
    swapflip = SignedPermutation(
        [-1, -1] + [1] * (n - 2), Permutation.transposition(n, 0, 1)
    )
    gens = [swapflip, SignedPermutation.swap(n, 0, 1)]
    gens += [SignedPermutation.swap(n, i - 1, i) for i in range(2, n)]
    return gens


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


def check_order(label: TypeLabel, max_order: int) -> int:
    """|W| of an A/B/D/I2 label; GuardError when it exceeds ``max_order``.

    The one group-order budget: ``realize`` checks it, and so does every
    type command of the CLI when ``--max-order`` is given.
    """
    order = coxeter_group_order(label)  # raises UnsupportedTypeError for E/F/H
    if order > max_order:
        raise GuardError(f"|{label}| = {order} exceeds the bound {max_order}")
    return order


@lru_cache(maxsize=None)
def _build_group(label: TypeLabel, order: int) -> RealizedGroup:
    f, n = label.family, label.rank
    graph = catalog_graph(label)
    gens = coxeter_generators(label)
    # itertools yields valid permutations and signs, so no re-validation
    if f == "A":
        elements = [Permutation._trusted(p) for p in itertools.permutations(range(n + 1))]
    elif f in ("B", "D"):
        elements = [
            SignedPermutation._trusted(s, Permutation._trusted(p))
            for p in itertools.permutations(range(n))
            for s in itertools.product((1, -1), repeat=n)
            if f == "B" or math.prod(s) == 1
        ]
    else:
        elements = _enumerate_closure(gens, DihedralElement.identity(label.bond), order)
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


def cycle_type(p: Permutation) -> tuple[int, ...]:
    return p.cycle_type()


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
