"""Finite-group representation machinery over the concrete realizations.

A Representation stores generator images only; images of arbitrary elements
are evaluated by walking the group's BFS factorization and memoized.  A
Subgroup is the ``groups.RealizedGroup`` that its generators generate, so
its classes are the engine's orbits under conjugation by those generators,
and induction uses the class-size formula: neither sums over the whole
group.  All character arithmetic is exact (Fractions and cyclotomic
values); there is no floating fallback anywhere in this module.  Class
functions themselves are ``classes.ClassFunction``, which the table
commands use without loading this module or ``groups``.
"""

from __future__ import annotations

from fractions import Fraction

from .classes import ClassFunction, _same_domain
from .errors import InternalInconsistencyError, ValidationError
from .groups import RealizedGroup, coxeter_graph


class Subgroup(RealizedGroup):
    """The subgroup that a list of parent elements generates.

    It is a RealizedGroup with the parent's label and no graph, on the
    given generators, so the group engine gives its conjugacy classes
    (classes of H, not G-classes), word factorization and index tables,
    and class functions on the subgroup are first-class objects.  The
    elements are listed in the parent's order; no generators give the
    trivial subgroup.
    """

    def __init__(self, parent: RealizedGroup, generators):
        self.parent = parent
        generators = tuple(generators)
        for g in generators:
            parent.index_of(g)  # ValidationError for a stranger, before any product
        # closure under left multiplication: in a finite group, products reach inverses
        found, where = [parent.identity], {parent.identity: 0}
        tables = [[] for _ in generators]
        for x in found:
            for g, table in zip(generators, tables):
                y = g * x
                j = where.get(y)
                if j is None:
                    j = where[y] = len(found)
                    found.append(y)
                table.append(j)
        by_parent = sorted(range(len(found)), key=lambda i: parent.index[found[i]])
        rank = [0] * len(found)
        for new, old in enumerate(by_parent):
            rank[old] = new
        super().__init__(parent.label, None, generators, [found[i] for i in by_parent])
        self._tables = tuple(tuple([rank[table[i]] for i in by_parent]) for table in tables)

    def index_of(self, el) -> int:
        try:
            return self.index[el]
        except KeyError:
            raise ValidationError(f"element {el!r} is not in the subgroup") from None

    def contains(self, el) -> bool:
        return el in self.index

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"


def inner_product(f: ClassFunction, g: ClassFunction):
    """(1/|G|) sum over G of f(x) conj(g(x)), computed classwise; exact."""
    from .linalg import conjugate_scalar

    _same_domain(f, g)
    sizes = f.domain.classes.sizes
    acc = 0
    for size, a, b in zip(sizes, f.values, g.values):
        acc = acc + size * (a * conjugate_scalar(b))
    return Fraction(1, f.domain.order) * acc


def trivial_character(domain) -> ClassFunction:
    return ClassFunction(domain, [Fraction(1)] * domain.classes.count, "triv")


def regular_character(domain) -> ClassFunction:
    vals = [Fraction(0)] * domain.classes.count
    vals[0] = Fraction(domain.order)
    return ClassFunction(domain, vals, "reg")


class Representation:
    """Group homomorphism into GL_d, stored by its generator images.

    Construction verifies the defining relations (M_i M_j)^m(i,j) = 1 for
    every generator pair of the graph of a group from ``realize`` (so not a
    ``Subgroup``), which also forces each generator image to be invertible.
    """

    def __init__(self, group: RealizedGroup, matrices, name: str | None = None):
        from .linalg import Matrix

        matrices = tuple(matrices)
        if len(matrices) != len(group.generators):
            raise ValidationError("need one matrix per generator")
        dims = {m.rows for m in matrices} | {m.cols for m in matrices}
        if len(dims) != 1:
            raise ValidationError("generator matrices must be square of one size")
        self.group = group
        self.matrices = matrices
        self.dim = matrices[0].rows if matrices else 0
        self.name = name
        if self.dim < 1:
            raise ValidationError("representations here have dimension >= 1")
        self._check_relations()
        self._memo = {0: Matrix.identity(self.dim)}
        self._character = None

    def _check_relations(self):
        graph = coxeter_graph(self.group)
        for i in range(len(self.matrices)):
            for j in range(i, len(self.matrices)):
                m = graph.label(i, j)
                p = self.matrices[i] * self.matrices[j]
                acc = p
                for _ in range(m - 1):
                    acc = acc * p
                if not acc.is_identity():
                    raise ValidationError(
                        f"generator images violate the relation (s{i} s{j})^{m} = 1"
                    )

    def matrix_of(self, el) -> Matrix:
        """Image of an arbitrary element, via the group's BFS factorization."""
        group = self.group
        parent, genidx = group.word_dag()
        i = group.index_of(el)
        chain = []
        while i not in self._memo:
            chain.append(i)
            i = parent[i]
        m = self._memo[i]
        for j in reversed(chain):
            m = self.matrices[genidx[j]] * m
            self._memo[j] = m
        return m

    def character(self) -> ClassFunction:
        if self._character is None:
            vals = [self.matrix_of(rep).trace() for rep in self.group.classes.reps]
            self._character = ClassFunction(self.group, vals, self.name)
        return self._character

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"Representation{label}(dim={self.dim} of {self.group.label})"


def direct_sum(rho: Representation, psi: Representation) -> Representation:
    if rho.group is not psi.group:
        raise ValidationError("direct sum needs representations of one group")
    from .linalg import block_diag

    mats = [block_diag([a, b]) for a, b in zip(rho.matrices, psi.matrices)]
    return Representation(rho.group, mats)


def is_irreducible(rho: Representation) -> bool:
    chi = rho.character()
    return inner_product(chi, chi) == 1


def _as_multiplicity(value) -> int:
    from .linalg import as_rational

    q = as_rational(value)
    if q is None or q.denominator != 1 or q < 0:
        raise ValidationError(f"inner product {value!r} is not a nonnegative integer")
    return int(q)


def multiplicity(rho, irr: ClassFunction) -> int:
    """Multiplicity of a verified irreducible character in rho (or its character)."""
    chi = rho.character() if isinstance(rho, Representation) else rho
    return _as_multiplicity(inner_product(chi, irr))


def decompose(rho, basis: list[ClassFunction]) -> list[tuple[int, int]]:
    """(index, multiplicity) pairs of rho against a complete irreducible set."""
    chi = rho.character() if isinstance(rho, Representation) else rho
    out = []
    total = 0
    for i, irr in enumerate(basis):
        m = _as_multiplicity(inner_product(chi, irr))
        if m:
            out.append((i, m))
            total += m * _as_multiplicity(irr.identity_value)
    if total != _as_multiplicity(chi.identity_value):
        raise ValidationError("basis is incomplete: dimensions do not add up")
    return out


def tensor_decompose(chi: ClassFunction, psi: ClassFunction, basis: list[ClassFunction]) -> list[int]:
    """Multiplicities of each basis element in the pointwise product chi * psi."""
    prod = chi.pointwise(psi)
    return [_as_multiplicity(inner_product(prod, irr)) for irr in basis]


def induce_character(chi: ClassFunction, group: RealizedGroup) -> ClassFunction:
    """Induced character, by the class-size formula.

    Ind chi(g) = |C_G(g)|/|H| * sum over H-classes h^H inside g^G of
    |h^H| chi(h), with |C_G(g)| = |G|/|g^G|.
    """
    sub = chi.domain
    if not isinstance(sub, Subgroup) or sub.parent is not group:
        raise ValidationError("character domain is not a subgroup of the target group")
    gclasses, hclasses = group.classes, sub.classes
    sums = [0] * gclasses.count
    for rep, size, value in zip(hclasses.reps, hclasses.sizes, chi.values):
        k = group.class_index(rep)
        sums[k] = sums[k] + size * value
    vals = [
        Fraction(group.order, sub.order * size) * acc
        for size, acc in zip(gclasses.sizes, sums)
    ]
    out = ClassFunction(group, vals)
    expected_dim = Fraction(group.order, sub.order) * chi.identity_value
    if out.identity_value != expected_dim:
        raise InternalInconsistencyError("induced dimension does not match the index formula")
    return out


def restrict_character(chi: ClassFunction, sub) -> ClassFunction:
    """Restriction to any group-like domain whose elements lie in chi's group."""
    vals = [chi.value_at(rep) for rep in sub.classes.reps]
    return ClassFunction(sub, vals)


class GroupAlgebraElement:
    """Sparse rational combination of group elements, multiplied by convolution."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {g: Fraction(c) for g, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, Fraction(0)) + c
        return GroupAlgebraElement(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, Fraction(0)) - c
        return GroupAlgebraElement(out)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            out: dict = {}
            for g, a in self.coeffs.items():
                for h, b in other.coeffs.items():
                    k = g * h
                    out[k] = out.get(k, Fraction(0)) + a * b
            return GroupAlgebraElement(out)
        return GroupAlgebraElement({g: c * Fraction(other) for g, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and self.coeffs == other.coeffs

    __hash__ = None

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        parts = [f"{c}*{g!r}" for g, c in list(self.coeffs.items())[:4]]
        more = "..." if len(self.coeffs) > 4 else ""
        return f"GroupAlgebraElement({' + '.join(parts)}{more})"


def natural_representation(group: RealizedGroup) -> Representation:
    """Permutation/signed-permutation matrices of the generators (types A, B, D)."""
    try:
        mats = [g.natural_matrix() for g in group.generators]
    except AttributeError:
        raise ValidationError(f"no natural matrix model for {group.label}") from None
    return Representation(group, mats, name="natural")


def regular_representation(group: RealizedGroup) -> Representation:
    """Left-multiplication permutation matrices on the group itself."""
    from .linalg import Matrix

    n = group.order
    mats = []
    for table in group.generator_tables():
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(table):
            rows[j][i] = 1
        mats.append(Matrix(rows))
    return Representation(group, mats, name="regular")
