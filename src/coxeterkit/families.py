"""Irreducible characters of the B, D and I2 families.

B_n is handled by the little-group method over its normal sign subgroup:
orbits of sign characters, block stabilizers S_a x S_b, extension, and
induction by the class-size formula.  D_n (n = 4 here) restricts the B_n
characters down its index-2 inclusion.  A self-paired character (lam, lam)
restricts to the sum of two irreducibles; each is induced by the same
method from the little group of the sign character inside D_n, whose
permutations are S_m wr S_2 (n = 2m), extended by one of the two extensions
of chi_lam x chi_lam.  I2(m) induces from its rotation subgroup.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .classify import TypeLabel
from .cyclotomic import Cyclotomic
from .errors import (
    GuardError,
    InternalInconsistencyError,
    UnsupportedTypeError,
    ValidationError,
)
from .groups import Permutation, RealizedGroup, SignedPermutation, realize
from .linalg import as_integer
from .reps import (
    ClassFunction,
    Subgroup,
    induce_character,
    restrict_character,
)
from .specht import (
    _block_permutations,
    symmetric_character_table,
    symmetric_character_value,
)
from .tableaux import (
    BipartitionLabel,
    bipartitions,
    bn_dimension,
    partition_text,
    partitions_of,
)

SIGN_ORBIT_GUARD = 8
BN_CHARACTER_GUARD = 4
DIHEDRAL_GUARD = 24


class SignCharacter(namedtuple("SignCharacter", "bits")):
    """Character of the sign subgroup {+-1}^n given by exponents in {0,1}^n."""

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...]):
        if any(b not in (0, 1) for b in bits):
            raise ValidationError("sign character exponents must be 0 or 1")
        return super().__new__(cls, bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    def value(self, signs) -> int:
        out = 1
        for s, b in zip(signs, self.bits):
            if b:
                out *= s
        return out

    def __str__(self):
        return "psi(" + ",".join(str(b) for b in self.bits) + ")"


class DnLabel(namedtuple("DnLabel", "lam mu half", defaults=(None,))):
    """Unordered pair {lam, mu} for an irreducible restriction, or a split half.

    ``half`` is "+" or "-" for a half of a self-paired (lam == mu) label.
    """

    __slots__ = ()

    def __new__(cls, lam: tuple[int, ...], mu: tuple[int, ...], half: str | None = None):
        if half is not None and (half not in "+-" or lam != mu):
            raise ValidationError("split labels need lam == mu and half in {+, -}")
        return super().__new__(cls, lam, mu, half)

    def __str__(self):
        if self.half is None:
            return f"D:{{{partition_text(self.lam)}|{partition_text(self.mu)}}}"
        return f"D:({partition_text(self.lam)},{partition_text(self.mu)},{self.half})"


def sign_character_orbits(n: int) -> list[tuple[SignCharacter, Subgroup]]:
    """Orbit representatives of S_n on sign characters, with their stabilizers.

    The representative with i ones carries them in the trailing coordinates,
    and its stabilizer is the block subgroup S_a x S_b (a = n - i zeros).
    For n = 1 the acting group is trivial and the stabilizer slot is None.
    """
    if n > SIGN_ORBIT_GUARD:
        raise GuardError(f"sign-character orbits capped at n = {SIGN_ORBIT_GUARD}")
    if n < 1:
        raise ValidationError("need n >= 1")
    sn = realize(TypeLabel("A", n - 1)) if n >= 2 else None
    out = []
    for ones in range(n + 1):
        a = n - ones
        rep = SignCharacter((0,) * a + (1,) * ones)
        if sn is None:
            out.append((rep, None))
            continue
        blocks = [list(range(a)), list(range(a, n))]
        elements = _block_permutations(n, blocks)
        out.append((rep, Subgroup(sn, elements, verify=False)))
    return out


def _block_cycle_types(p: Permutation, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cycle types of a block permutation on {0..a-1} and {a..n-1}."""
    n = p.size
    first = Permutation([p(i) for i in range(a)]) if a else Permutation(())
    second = Permutation([p(i) - a for i in range(a, n)]) if n > a else Permutation(())
    return first.cycle_type(), second.cycle_type()


def _signed_subgroup(group: RealizedGroup, perms) -> Subgroup:
    """Sign vectors times the given permutations, inside B_n or D_n.

    ``perms`` must be a group.  D_n keeps only the even sign vectors.
    """
    n = group.label.rank
    even = group.label.family == "D"
    elements = [
        SignedPermutation(signs, p)
        for p in perms
        for signs in itertools.product((1, -1), repeat=n)
        if not even or math.prod(signs) == 1
    ]
    return Subgroup(group, elements, verify=False)


def _checked_class_function(sub: Subgroup, value, name: str) -> ClassFunction:
    """``value`` at the class representatives, asserted constant on each class."""
    classes = sub.classes
    vals = [value(rep) for rep in classes.reps]
    for k, el in enumerate(sub.elements):
        if value(el) != vals[classes.class_of[k]]:
            raise InternalInconsistencyError(
                f"extended character of {name} is not a class function"
            )
    return ClassFunction(sub, vals, name)


@lru_cache(maxsize=None)
def _little_subgroup(n: int, a: int) -> Subgroup:
    """(sign subgroup) x (block permutations S_a x S_b) inside B_n."""
    perms = _block_permutations(n, [list(range(a)), list(range(a, n))])
    return _signed_subgroup(realize(TypeLabel("B", n)), perms)


def _extended_character(n: int, label: BipartitionLabel) -> ClassFunction:
    """Character phi~ (x) (chi_lam x chi_mu) on the little subgroup.

    phi~(s, p) = phi(s): the sign character extends by ignoring the block
    permutation, which is well-defined precisely because the blocks
    stabilize it.  Constancy on subgroup classes is asserted outright.
    """
    a = label.a
    phi = SignCharacter((0,) * a + (1,) * label.b)

    def value(el: SignedPermutation):
        t0, t1 = _block_cycle_types(el.perm, a)
        return (
            Fraction(phi.value(el.signs))
            * symmetric_character_value(label.lam, t0)
            * symmetric_character_value(label.mu, t1)
        )

    return _checked_class_function(_little_subgroup(n, a), value, str(label))


@lru_cache(maxsize=None)
def hyperoctahedral_irreducibles(n: int) -> tuple[tuple[BipartitionLabel, ClassFunction, int], ...]:
    """(label, character, dimension) for every irreducible of B_n; exact.

    Characters are computed by inducing the extended little-group
    characters; n is capped where full class data is feasible.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    if n > BN_CHARACTER_GUARD:
        raise GuardError(f"full B_n characters capped at n = {BN_CHARACTER_GUARD}")
    bn = realize(TypeLabel("B", n))
    out = []
    for label in bipartitions(n):
        chi = induce_character(_extended_character(n, label), bn)
        dim = bn_dimension(n, label)
        if chi.identity_value != dim:
            raise InternalInconsistencyError(
                f"induced dimension of {label} disagrees with the index formula"
            )
        out.append((label, ClassFunction(bn, chi.values, str(label)), dim))
    return tuple(out)


class ConjugacyReport(namedtuple("ConjugacyReport", "n class_count pair_count matching")):
    """Outcome of matching B_n conjugacy classes to pairs of partitions.

    ``matching`` holds (class index, (positive, negative) cycle type) pairs.
    """

    __slots__ = ()


def bn_conjugacy_parametrization(n: int) -> ConjugacyReport:
    """Match each B_n class to its signed cycle type (positive, negative).

    Raises if the match fails to be a bijection onto all partition pairs.
    """
    if n > BN_CHARACTER_GUARD:
        raise GuardError(f"class parametrization capped at n = {BN_CHARACTER_GUARD}")
    bn = realize(TypeLabel("B", n))
    matching = []
    for k, rep in enumerate(bn.classes.reps):
        matching.append((k, rep.signed_cycle_type()))
    pairs = {(lbl.lam, lbl.mu) for lbl in bipartitions(n)}
    report = ConjugacyReport(n, bn.classes.count, len(pairs), tuple(matching))
    seen = {m for _, m in matching}
    if len(seen) != len(matching) or seen != pairs:
        raise InternalInconsistencyError(
            f"signed cycle types of B_{n} do not biject with partition pairs"
        )
    return report


# -- D_n via index-2 restriction ------------------------------------------


def _pair_key(shape: tuple[int, ...]):
    return (sum(shape), shape)


@lru_cache(maxsize=None)
def _swap_little_subgroup(n: int) -> Subgroup:
    """(even signs) x| (S_m wr S_2) inside D_n, n = 2m: S_m x S_m and the block swap."""
    m = n // 2
    block = _block_permutations(n, [list(range(m)), list(range(m, n))])
    swap = Permutation([(i + m) % n for i in range(n)])
    return _signed_subgroup(realize(TypeLabel("D", n)), block + [swap * p for p in block])


def _split_self_paired(n: int, lam: tuple[int, ...], dn: RealizedGroup):
    """The two halves of Res chi_(lam,lam) on D_n, by little-group induction.

    With n = 2m, the sign character phi = psi(0^m, 1^m) is fixed on the
    even sign vectors by the block swap i <-> i+m as well, so its little
    group in D_n is (even signs) x| (S_m wr S_2).  chi_lam x chi_lam extends
    to S_m wr S_2 in two ways xi_eps, eps = +-1: chi_lam(t0) chi_lam(t1) at a
    block-preserving p, and eps chi_lam(beta) at a block-swapping p of cycle
    type 2 beta.  Each half is induced from phi(s) xi_eps(p).  Convention:
    the "+" half is eps = -1 and the "-" half is eps = +1.
    """
    m = n // 2
    sub = _swap_little_subgroup(n)
    phi = SignCharacter((0,) * m + (1,) * m)
    halves = []
    for half, eps in (("+", -1), ("-", 1)):

        def value(el: SignedPermutation, eps=eps):
            if el.perm(0) < m:  # block-preserving
                t0, t1 = _block_cycle_types(el.perm, m)
                xi = symmetric_character_value(lam, t0) * symmetric_character_value(lam, t1)
            else:  # block-swapping, of cycle type 2 beta
                beta = tuple(c // 2 for c in el.perm.cycle_type())
                xi = eps * symmetric_character_value(lam, beta)
            return Fraction(phi.value(el.signs)) * xi

        name = str(DnLabel(lam, lam, half))
        chi = induce_character(_checked_class_function(sub, value, name), dn)
        halves.append(ClassFunction(dn, chi.values, name))
    return tuple(halves)


@lru_cache(maxsize=None)
def dn_irreducibles(n: int) -> tuple[tuple[DnLabel, ClassFunction, int], ...]:
    """(label, character, dimension) for every irreducible of D_n (n = 4).

    Restrictions of the B_n characters with lam != mu, deduplicated over
    swaps, plus the two induced halves of each self-paired character, which
    must sum to its restriction and differ.
    """
    label = TypeLabel("D", n)  # validates n >= 4
    if n > BN_CHARACTER_GUARD:
        raise GuardError(f"D_n irreducibles capped at n = {BN_CHARACTER_GUARD}")
    dn = realize(label)
    out = []
    seen = set()
    self_paired = {}
    for blabel, chi, dim in hyperoctahedral_irreducibles(n):
        lam, mu = blabel.lam, blabel.mu
        if lam == mu:
            self_paired[lam] = chi
            continue
        key = frozenset({lam, mu})
        res = restrict_character(chi, dn)
        if key in seen:
            # the swapped partner must restrict identically
            prev = next(c for l, c, _ in out if l.half is None and {l.lam, l.mu} == set(key))
            if prev != res:
                raise InternalInconsistencyError("swapped labels restrict differently")
            continue
        seen.add(key)
        first, second = sorted((lam, mu), key=_pair_key, reverse=True)
        out.append((DnLabel(first, second), ClassFunction(dn, res.values, str(DnLabel(first, second))), dim))
    for lam in partitions_of(n // 2) if n % 2 == 0 else ():
        plus, minus = _split_self_paired(n, lam, dn)
        if plus + minus != restrict_character(self_paired[lam], dn) or plus == minus:
            raise InternalInconsistencyError(
                f"the halves of {DnLabel(lam, lam)} do not split its restriction"
            )
        half_dim = bn_dimension(n, BipartitionLabel(lam, lam)) // 2
        out.append((DnLabel(lam, lam, "+"), plus, half_dim))
        out.append((DnLabel(lam, lam, "-"), minus, half_dim))
    return tuple(out)


# -- dihedral groups -------------------------------------------------------


def _rotation_subgroup(group: RealizedGroup) -> Subgroup:
    rotations = [g for g in group.elements if not g.reflected]
    return Subgroup(group, rotations, verify=False)


@lru_cache(maxsize=None)
def dihedral_irreducibles(m: int) -> tuple[ClassFunction, ...]:
    """Complete irreducible characters of the dihedral group of order 2m.

    One-dimensional characters first (two, plus two more for even m), then
    the two-dimensional inductions from the rotation subgroup for
    1 <= k < m/2.  Each induction is checked against the closed form:
    zeta^jk + zeta^-jk on the rotation r^j, zero on reflections.
    """
    if not (3 <= m <= DIHEDRAL_GUARD):
        raise GuardError(f"dihedral characters need 3 <= m <= {DIHEDRAL_GUARD}")
    group = realize(TypeLabel("I2", 2, m))
    cm = _rotation_subgroup(group)
    reps = group.classes.reps
    out = []

    def one_dim(rsign: int, ssign: int, name: str) -> ClassFunction:
        vals = [
            Fraction(rsign ** el.rotation * (ssign if el.reflected else 1)) for el in reps
        ]
        return ClassFunction(group, vals, name)

    out.append(one_dim(1, 1, "1:(1,1)"))
    out.append(one_dim(1, -1, "1:(1,-1)"))
    if m % 2 == 0:
        out.append(one_dim(-1, 1, "1:(-1,1)"))
        out.append(one_dim(-1, -1, "1:(-1,-1)"))
    for k in range(1, (m + 1) // 2):
        if 2 * k == m:
            break
        phi = ClassFunction(
            cm,
            [Cyclotomic.zeta(m, k * el.rotation) for el in cm.classes.reps],
        )
        ind = induce_character(phi, group)
        for el, v in zip(reps, ind.values):
            want = (
                Cyclotomic.zeta(m, k * el.rotation) + Cyclotomic.zeta(m, -k * el.rotation)
                if not el.reflected
                else Cyclotomic.zero()
            )
            if not (v == want):
                raise InternalInconsistencyError(
                    f"induced dihedral character disagrees with the closed form at {el}"
                )
        out.append(ClassFunction(group, ind.values, f"2:{k}"))
    total = sum(as_integer(ch.identity_value) ** 2 for ch in out)
    if total != 2 * m or len(out) != group.classes.count:
        raise InternalInconsistencyError("dihedral character set is not complete")
    return tuple(out)


def irreducible_characters(label: TypeLabel):
    """Uniform entry point: the complete named character list for a type."""
    if label.family == "A":
        return list(symmetric_character_table(label.rank + 1))
    if label.family == "B":
        return [chi for _, chi, _ in hyperoctahedral_irreducibles(label.rank)]
    if label.family == "D":
        return [chi for _, chi, _ in dn_irreducibles(label.rank)]
    if label.family == "I2":
        return list(dihedral_irreducibles(label.bond))
    raise UnsupportedTypeError(f"no character construction for {label}")
