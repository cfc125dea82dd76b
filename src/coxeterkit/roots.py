"""Root systems, bases, reflections, and the geometric representation.

Types A, B and D are realized with integer coordinates in the standard
inner product.  I2(m) is realized in the basis of its two simple roots,
carrying the canonical bilinear form of its graph, which keeps every
coordinate inside the real subfield of Q(zeta_2m).

Vectors are plain tuples of int/Fraction/Cyclotomic entries.  The
helpers ask "is it rational?" first (``linalg.RATIONAL_TYPES``), so A, B
and D never load ``cyclotomic``.  Roots take the order budget and, for
I2(m), the bond bound of ``classify``; ``geometric_rep`` takes a realized
group, and the bond bound only, and returns its checked ``Representation``.
The rank has no bound.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .catalog import catalog_graph
from .classify import MAX_ORDER, TypeLabel, check_bond, check_order
from .errors import InternalInconsistencyError, UnsupportedTypeError, ValidationError
from .graphs import gram_matrix
from .groups import coxeter_graph
from .linalg import RATIONAL_TYPES, Matrix, invert_scalar, is_zero_scalar, sign
from .reps import Representation


def _reflector(alpha, gram: Matrix | None):
    """The reflection in alpha, as alpha and the covector 2 G alpha / (alpha, alpha).

    The reflection sends lam to lam - <covector, lam> alpha; G is the
    identity unless a Gram matrix is supplied.  Both vectors are kept as
    their nonzero (coordinate, entry) pairs; an integral covector of an int
    vector stays int, so reflections of int vectors stay int.  A term at an
    exact rational zero coordinate is skipped, here and in ``_reflect``, so
    that no ``0 * cyclotomic`` turns a rational sum into a ``Cyclotomic``.
    """
    if gram is None:
        image = alpha
    else:
        image = [0] * len(alpha)
        for i, a in enumerate(alpha):
            if not is_zero_scalar(a):
                for j, g in enumerate(gram.entries[i]):
                    image[j] = image[j] + a * g
    norm = 0
    for a, x in zip(alpha, image):
        if not (type(a) in RATIONAL_TYPES and a == 0):
            norm = norm + a * x
    if is_zero_scalar(norm):
        raise ValidationError("cannot reflect in a vector of zero norm")
    if isinstance(norm, int) and all(isinstance(x, int) and 2 * x % norm == 0 for x in image):
        covector = tuple((j, 2 * x // norm) for j, x in enumerate(image) if x)
    else:
        scale = 2 * invert_scalar(norm)
        covector = tuple((j, scale * x) for j, x in enumerate(image) if not is_zero_scalar(x))
    support = tuple((j, a) for j, a in enumerate(alpha) if not is_zero_scalar(a))
    return support, covector


def _reflect(reflector, lam):
    support, covector = reflector
    coeff = 0
    for j, c in covector:
        x = lam[j]
        if not (type(x) in RATIONAL_TYPES and x == 0):
            coeff = coeff + c * x
    if is_zero_scalar(coeff):
        return lam
    out = list(lam)
    for j, a in support:
        out[j] = out[j] - coeff * a
    return tuple(out)


def reflect(alpha, lam, gram: Matrix | None = None):
    """Reflection of lam in the hyperplane orthogonal to alpha.

    Fixes the orthogonal complement of alpha pointwise and negates alpha;
    uses the standard inner product unless a Gram matrix is supplied.
    """
    alpha = tuple(alpha)
    lam = tuple(lam)
    if len(alpha) != len(lam):
        raise ValidationError("vectors of different lengths")
    return _reflect(_reflector(alpha, gram), lam)


def _scalar_key(x, conductor: int):
    if type(x) in RATIONAL_TYPES:
        return ("q", x)  # an int and a Fraction of equal value compare and hash alike
    return x.canonical_key(conductor)


def _vector_key(v, conductor: int):
    return tuple(_scalar_key(x, conductor) for x in v)


def _common_conductor(vectors) -> int:
    c = 1
    for v in vectors:
        for x in v:
            if type(x) not in RATIONAL_TYPES:
                c = lcm(c, x.conductor)
    return c


def _direction_key(v, conductor: int):
    """Key of the line through v: v scaled so its first nonzero coordinate is 1."""
    first = next(x for x in v if not is_zero_scalar(x))
    inv = invert_scalar(first)
    return _vector_key(tuple(x * inv for x in v), conductor)


def _lex_positive(v) -> bool:
    for x in v:
        s = sign(x)
        if s:
            return s > 0
    return False


class RootSystem:
    """Finite set of roots, closed under its own reflections.

    Construction mechanically checks the three axioms: finiteness of the
    nonzero root list, intersection of each root line with the system being
    exactly {root, -root}, and stability under every root reflection.
    Stability is swept over one root of each pair {v, -v}, both as the root
    that reflects and as the root reflected: s_-a = s_a, s_a(-v) = -s_a(v)
    and the system is already closed under negation, so s_a maps the system
    into itself once it maps those roots into it, and onto it because s_a is
    injective.  That is (|roots| / 2)^2 reflections in place of |roots|^2.
    The sweep keeps the index of each image it looks up, so
    ``reflection_index`` answers s_a(b) for any two roots with no further
    reflection.  Immutable; equality compares (roots, label, gram), and the
    hash (label, root count), since a Cyclotomic or a Matrix is unhashable.
    """

    __slots__ = ("roots", "label", "gram", "_conductor", "_index", "_negative", "_half", "_table")

    def __init__(self, roots, label: TypeLabel, gram: Matrix | None = None):
        roots = tuple(tuple(v) for v in roots)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "gram", gram)
        # reflections in the Gram form can leave the roots' own field
        rows = roots if gram is None else roots + gram.entries
        object.__setattr__(self, "_conductor", _common_conductor(rows))
        self._check_axioms()

    def __setattr__(self, name, value):
        raise AttributeError(f"RootSystem is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RootSystem is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.roots, self.label, self.gram) == (other.roots, other.label, other.gram)

    def __hash__(self):
        return hash((self.label, len(self.roots)))

    def __repr__(self):
        return f"RootSystem(roots={self.roots!r}, label={self.label!r}, gram={self.gram!r})"

    def _check_axioms(self) -> None:
        """Raise on the first failed axiom; keep what the sweep looked up.

        ``_index`` maps each root's key to its index, ``_negative[i]`` is the
        index of -roots[i], ``_half[i]`` is (h, negated) with roots[i] =
        +-halves[h] for the first root of each pair, and ``_table[h][k]`` is
        the index of s_{halves[h]}(halves[k]).
        """
        cond = self._conductor
        index = {}
        for i, v in enumerate(self.roots):
            if all(is_zero_scalar(x) for x in v):
                raise ValidationError("zero vector in root system")
            k = _vector_key(v, cond)
            if k in index:
                raise ValidationError("repeated root")
            index[k] = i
        negative, half, halves = [], [], []
        for i, v in enumerate(self.roots):
            j = index.get(_vector_key(tuple(-x for x in v), cond))
            if j is None:
                raise ValidationError("root system is not symmetric under negation")
            negative.append(j)
            if j > i:  # v comes first in its pair {v, -v}
                half.append((len(halves), False))
                halves.append(v)
            else:
                half.append((half[j][0], True))
        # each line holds v and -v, two distinct roots, so it meets the
        # system in exactly {v, -v} when its key occurs exactly twice
        lines = Counter(_direction_key(v, cond) for v in self.roots)
        if any(count != 2 for count in lines.values()):
            raise ValidationError("a root line contains more than two roots")
        table = []
        for alpha in halves:
            r = _reflector(alpha, self.gram)
            row = []
            for v in halves:
                image = index.get(_vector_key(_reflect(r, v), cond))
                if image is None:
                    raise ValidationError("root system is not stable under its reflections")
                row.append(image)
            table.append(tuple(row))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_negative", tuple(negative))
        object.__setattr__(self, "_half", tuple(half))
        object.__setattr__(self, "_table", tuple(table))

    def reflection_index(self, i: int, j: int) -> int:
        """Index of s_a(b) for a = roots[i] and b = roots[j], read from the
        axiom sweep by s_-a = s_a and s_a(-b) = -s_a(b)."""
        k, negated = self._half[j]
        image = self._table[self._half[i][0]][k]
        return self._negative[image] if negated else image

    @property
    def count(self) -> int:
        return len(self.roots)

    def contains(self, v) -> bool:
        """Is v a root?  Keys are compared at the lcm of v's conductor and the
        system's, so an entry from a field the roots do not reach is answered."""
        v = tuple(v)
        cond = lcm(self._conductor, _common_conductor((v,)))
        if cond == self._conductor:
            return _vector_key(v, cond) in self._index
        return _vector_key(v, cond) in {_vector_key(r, cond) for r in self.roots}


def root_system(t: TypeLabel, max_order: int = MAX_ORDER) -> RootSystem:
    """Standard root system of an A/B/D/I2 type with |W| <= ``max_order`` and
    bond <= ``classify.BOND_BOUND`` (GuardError otherwise, in that order,
    before any root is built)."""
    if t.family not in ("A", "B", "D", "I2"):
        raise UnsupportedTypeError(f"no root system realization for {t}")
    check_order(t, max_order)
    if t.family == "I2":
        check_bond(t.bond)
    n = t.rank
    roots = []
    if t.family == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    roots.append(tuple(v))
        return RootSystem(tuple(roots), t)
    if t.family in ("B", "D"):
        if t.family == "B":
            for i in range(n):
                for si in (1, -1):
                    v = [0] * n
                    v[i] = si
                    roots.append(tuple(v))
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * n
                        v[i], v[j] = si, sj
                        roots.append(tuple(v))
        return RootSystem(tuple(roots), t)
    # I2(m): orbit of the simple-root basis vectors under the two simple
    # reflections, in simple-root coordinates with the graph's bilinear form.
    gram = gram_matrix(catalog_graph(t))
    simples = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    reflectors = [_reflector(s, gram) for s in simples]
    cond = 2 * t.bond
    seen = {}
    queue = list(simples)
    for v in queue:
        k = _vector_key(v, cond)
        if k in seen:
            continue
        seen[k] = v
        for r in reflectors:
            w = _reflect(r, v)
            if _vector_key(w, cond) not in seen:
                queue.append(w)
        nv = tuple(-x for x in v)
        if _vector_key(nv, cond) not in seen:
            queue.append(nv)
    return RootSystem(tuple(seen.values()), t, gram)


def compute_base(rs: RootSystem) -> list[tuple]:
    """A base: positive-system simple roots for the lexicographic functional.

    Positivity of a root is the sign of its first nonzero coordinate,
    computed once per root.  A positive root is simple exactly when its
    reflection sends no other positive root negative (this characterization
    is valid for the non-crystallographic dihedral systems too, where "not a
    sum of two positive roots" would fail); the images are read from the
    axiom sweep's table.  The defining property -- every root is a
    one-signed combination of the base -- is re-verified by one exact
    elimination of the base with every root as a right-hand side.
    """
    positive = [_lex_positive(v) for v in rs.roots]
    indices = [i for i, p in enumerate(positive) if p]
    base = []
    for i in indices:
        # s_a(a) = -a, so a itself is left out
        if all(positive[rs.reflection_index(i, j)] for j in indices if j != i):
            base.append(rs.roots[i])
    _verify_base(rs, base)
    return base


def _verify_base(rs: RootSystem, base: list) -> None:
    mat = Matrix(list(zip(*base)))  # columns are the base vectors
    for x in mat.solve_each(rs.roots):
        if x is None:
            raise InternalInconsistencyError("root outside the span of the base")
        signs = {sign(c) for c in x}
        if 1 in signs and -1 in signs:
            raise InternalInconsistencyError("root with mixed-sign base coefficients")


def reflection_matrix(alpha, dim: int, gram: Matrix | None = None) -> Matrix:
    """Matrix of the reflection in alpha on coordinate space of size dim."""
    r = _reflector(tuple(alpha), gram)
    cols = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        cols.append(_reflect(r, tuple(e)))
    return Matrix(list(zip(*cols)))


def geometric_rep(group: RealizedGroup) -> Representation:
    """The faithful reflection representation of a group from ``realize``.

    Its generator images are the reflections sigma_s in the simple roots,
    under the bilinear form of the group's graph.  The defining relations
    are checked on them, and faithfulness on the character: the kernel is
    {g : chi(g) = chi(1)}, so no class but the identity's may take the
    value dim.  ValidationError for a ``Subgroup``, and GuardError past the
    bond bound, before any matrix is built.
    """
    graph = coxeter_graph(group)
    if group.label.family == "I2":
        check_bond(group.label.bond)
    gram = gram_matrix(graph)
    n = graph.n
    gens = [reflection_matrix([Fraction(int(i == s)) for i in range(n)], n, gram) for s in range(n)]
    rep = Representation(group, gens)  # checks the defining relations
    if any(value == rep.dim for value in rep.character().values[1:]):
        raise InternalInconsistencyError("geometric representation is not faithful")
    return rep


def fixed_space_dimension(matrices: list[Matrix]) -> int:
    """Dimension of the common fixed space of a list of square matrices."""
    if not matrices:
        raise ValidationError("need at least one matrix")
    n = matrices[0].rows
    rows = []
    for m in matrices:
        for i in range(n):
            rows.append([m.entries[i][j] - (1 if i == j else 0) for j in range(n)])
    stacked = Matrix(rows)
    return n - stacked.field_rank()
