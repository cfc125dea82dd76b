"""Dense exact linear algebra over Q and over cyclotomic fields.

One forward Gaussian elimination with exact field division, ``_echelon``,
serves every question: the determinant is the sign of its row swaps times
its pivots, both ranks (over Q on the entries as Fractions, and over the
field of the entries) are its pivot counts, and ``solve_each`` back-
substitutes on its rows, which carry every right-hand side along.
Positive definiteness of a Gram matrix is not decided here: ``certify``
does it on sparse pivots.  Intended sizes are small (ranks <= 10 or so for
cyclotomic work, a few hundred for rational work).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInconsistencyError, ValidationError

# Scalars are int, Fraction or cyclotomic values.  Every helper here asks
# "is it rational?" first and treats anything else as a ``Cyclotomic``
# through its methods, so this module never loads ``cyclotomic``.
RATIONAL_TYPES = frozenset({int, bool, Fraction})


def is_zero_scalar(x) -> bool:
    if type(x) in RATIONAL_TYPES:
        return x == 0
    return x.is_zero()


def invert_scalar(x):
    if type(x) in RATIONAL_TYPES:
        return Fraction(1) / Fraction(x)
    return x.inverse()


def conjugate_scalar(x):
    if type(x) in RATIONAL_TYPES:
        return x
    return x.conjugate()


def sign(x) -> int:
    """Sign (-1, 0 or 1) of a real scalar: rationals compare exactly, and a
    cyclotomic value takes its certified ``Cyclotomic.sign``."""
    if type(x) in RATIONAL_TYPES:
        return (x > 0) - (x < 0)
    return x.sign()


def as_rational(x) -> Fraction | None:
    """Fraction value of x, or None when x is irrational."""
    if type(x) in RATIONAL_TYPES:
        return Fraction(x)
    return x.rational_value() if x.is_rational() else None


def as_integer(x) -> int:
    """int value of x, which must be a rational integer (a dimension, say)."""
    q = as_rational(x)
    if q is None or q.denominator != 1:
        raise InternalInconsistencyError(f"expected an integer, got {x}")
    return q.numerator


class Matrix:
    """Immutable dense matrix with int/Fraction/Cyclotomic entries."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValidationError("matrix needs at least one row and one column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("ragged rows in matrix")
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls([[0] * c for _ in range(r)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValidationError("matrix shape mismatch in addition")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValidationError("matrix shape mismatch in product")
            bt = other.entries
            out = []
            for ra in self.entries:
                row = []
                for j in range(other.cols):
                    acc = 0  # a rational zero in either factor adds no term
                    for a, brow in zip(ra, bt):
                        b = brow[j]
                        if type(a) in RATIONAL_TYPES and a == 0 or type(b) in RATIONAL_TYPES and b == 0:
                            continue
                        acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        return Matrix([[c * a for a in r] for r in self.entries])

    def trace(self):
        if not self.is_square:
            raise ValidationError("trace needs a square matrix")
        acc = 0
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_identity(self) -> bool:
        return self.is_square and self == Matrix.identity(self.rows)

    def rational_entries(self):
        """All entries as Fractions, or None if any entry is irrational."""
        out = []
        for r in self.entries:
            row = []
            for x in r:
                q = as_rational(x)
                if q is None:
                    return None
                row.append(q)
            out.append(row)
        return out

    def determinant(self):
        """Exact determinant: the sign of ``_echelon``'s row swaps times its
        pivots.  A Fraction when every entry is rational; int 0 for a singular
        cyclotomic matrix."""
        if not self.is_square:
            raise ValidationError("determinant needs a square matrix")
        fr = self.rational_entries()
        a = fr if fr is not None else [list(r) for r in self.entries]
        pivots, swaps = _echelon(a, self.cols)
        if len(pivots) < self.rows:
            return Fraction(0) if fr is not None else 0
        det = Fraction((-1) ** swaps)
        for k, row in enumerate(a):
            det = _normal(det * row[k])
        return det

    def rank(self) -> int:
        """Rank over Q: ``field_rank`` of the entries as Fractions."""
        fr = self.rational_entries()
        if fr is None:
            raise ValidationError("rank is defined here for rational matrices only")
        return Matrix(fr).field_rank()

    def solve(self, b):
        """Solution x of self @ x = b (b a sequence), or None if inconsistent.

        Free variables, if any, are set to zero.
        """
        return self.solve_each([b])[0]

    def solve_each(self, bs) -> list:
        """``solve(b)`` for every b in bs, from one forward elimination that
        carries every b as a right-hand side, then back-substitution."""
        if any(len(b) != self.rows for b in bs):
            raise ValidationError("right-hand side length mismatch")
        n = self.cols
        aug = [list(r) + [b[i] for b in bs] for i, r in enumerate(self.entries)]
        pivots, _ = _echelon(aug, n)
        steps = [(aug[r], j, invert_scalar(aug[r][j])) for r, j in enumerate(pivots)][::-1]
        xs, consistent = [], []
        for t in range(n, n + len(bs)):
            # a zero row with a nonzero right-hand side makes b inconsistent
            consistent.append(all(is_zero_scalar(r[t]) for r in aug[len(pivots):]))
            x = [0] * n
            for r, j, pinv in steps:
                acc = r[t]
                for k in range(j + 1, n):
                    if not is_zero_scalar(x[k]):
                        acc = acc - r[k] * x[k]
                x[j] = acc * pinv
            xs.append(x)
        # confirm consistency on every row (cheap at these sizes)
        for t, (x, b) in enumerate(zip(xs, bs)):
            for i, row in enumerate(self.entries):
                acc = 0
                for k, a in enumerate(row):
                    if not is_zero_scalar(x[k]):
                        acc = acc + a * x[k]
                if not is_zero_scalar(acc - b[i]):
                    consistent[t] = False
                    break
        return [x if ok else None for x, ok in zip(xs, consistent)]

    def field_rank(self) -> int:
        """Rank: the pivot count of ``_echelon``, over the field of the entries."""
        return len(_echelon([list(r) for r in self.entries], self.cols)[0])

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"


def block_diag(blocks: list[Matrix]) -> Matrix:
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    out = [[0] * m for _ in range(n)]
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[i0 + i][j0 + j] = b.entries[i][j]
        i0 += b.rows
        j0 += b.cols
    return Matrix(out)


def _echelon(a: list[list], ncols: int) -> tuple[list[int], int]:
    """Forward Gaussian elimination of the rows ``a`` over their first ncols
    columns, with exact field division, in place: the pivot columns (pivot k
    at ``a[k][pivots[k]]``) and the number of row swaps.

    A row is swapped up only when the due pivot is exactly zero.  Only the
    rows below a pivot are reduced, on every later column of ``a`` (so the
    right-hand sides go along); the entries left under a pivot are never
    read again.  Every cyclotomic value built is put in normal form, so
    coefficients do not grow with n.
    """
    pivots, swaps, nrows = [], 0, len(a)
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if is_zero_scalar(a[r][col]):
            piv = next((i for i in range(r + 1, nrows) if not is_zero_scalar(a[i][col])), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        pivots.append(col)
        below = [i for i in range(r + 1, nrows) if not is_zero_scalar(a[i][col])]
        if below:
            pinv = invert_scalar(a[r][col])
            top = a[r][col + 1:]
            for i in below:
                f = a[i][col] * pinv
                a[i][col + 1:] = [_normal(x - f * y) for x, y in zip(a[i][col + 1:], top)]
    return pivots, swaps


def _normal(x):
    """x, rebuilt from its normal form if it is a cyclotomic value."""
    return x if type(x) in RATIONAL_TYPES else type(x)(x.conductor, x.reduced())


def determinant(m: Matrix):
    return m.determinant()


def rank(m: Matrix) -> int:
    return m.rank()
