"""Elements of W(A_n), W(B_n) and W(D_n), and their classes in closed form.

Elements are immutable values: permutations of 0..n-1 (type A) and signed
permutations (types B and D).  Throughout the package elements act on the
left and (gh)(x) = g(h(x)); the signed product rule is pinned against
signed permutation matrices, which are the authoritative model.  The class
data here (lex-first representatives, sizes by centralizer orders, and the
class invariants) is what ``classes.class_data`` serves for these types;
nothing here enumerates a group.
"""

from __future__ import annotations

import math
from collections import Counter

from .classify import partitions_of
from .errors import UnsupportedTypeError, ValidationError


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


def _splits(pos, neg) -> bool:
    """Does D_n split the B_n class of signed cycle type (pos, neg)?"""
    return not neg and all(k % 2 == 0 for k in pos)


def dn_class_key(w: SignedPermutation):
    """Signed cycle type, with ``diagonal_parity`` on the split classes."""
    pos, neg = w.signed_cycle_type()
    if _splits(pos, neg):
        return pos, neg, diagonal_parity(w)
    return pos, neg


# complete conjugacy invariant of an element, per family
CLASS_KEYS = {
    "A": Permutation.cycle_type,
    "B": SignedPermutation.signed_cycle_type,
    "D": dn_class_key,
}


def _enumeration_key(el):
    """Sort key of ``groups._build_group``'s element order."""
    if isinstance(el, Permutation):
        return el.images
    return el.perm.images, tuple([s < 0 for s in el.signs])


def permutation_classes(label) -> tuple[list, list]:
    """(reps, sizes) of the classes of an A/B/D label, as ``classes.ClassData``
    documents them: the lex-first element of each class, sorted by it."""
    f, n = label.family, label.rank
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
                    if f == "D" and _splits(pos, neg):
                        # split: the lex-first element of the half of parity 1
                        size //= 2
                        odd = (1,) * (n - 2) + (-1, -1)
                        found.append((SignedPermutation._trusted(odd, perm), size))
                    signs = _lex_first_signs(pos, neg)
                    found.append((SignedPermutation._trusted(signs, perm), size))
    else:
        raise UnsupportedTypeError(f"closed-form class data covers A, B, D and I2, not {label}")
    found.sort(key=lambda pair: _enumeration_key(pair[0]))
    return [rep for rep, _ in found], [size for _, size in found]


def permutation_generators(label) -> list:
    """The Coxeter generators of an A/B/D label, in catalog vertex order."""
    f, n = label.family, label.rank
    if f == "A":
        # vertices i <-> adjacent transposition (i, i+1) on n+1 points
        return [Permutation.transposition(n + 1, i, i + 1) for i in range(n)]
    if f == "B":
        gens = [SignedPermutation.sign_flip(n, 0)]
        return gens + [SignedPermutation.swap(n, i - 1, i) for i in range(1, n)]
    if f == "D":
        # vertex 0: e_0 + e_1 reflection (swap with both signs flipped); the
        # rest are plain adjacent transpositions, matching the catalog order.
        swapflip = SignedPermutation([-1, -1] + [1] * (n - 2), Permutation.transposition(n, 0, 1))
        gens = [swapflip, SignedPermutation.swap(n, 0, 1)]
        return gens + [SignedPermutation.swap(n, i - 1, i) for i in range(2, n)]
    raise UnsupportedTypeError(f"no concrete generators for {label}")


def cycle_type(p: Permutation) -> tuple[int, ...]:
    return p.cycle_type()
