"""Irreducible characters of the A, B and D families.

Every S_m value here, in all three families, is the Murnaghan-Nakayama
rule's unchecked ``tableaux.rim_hook_sum``: the shapes come from the
partition lists and the cycle types from class representatives, so both
are partitions of one m by construction.  B_n's irreducibles
chi_(lam,mu) are the little-group inductions from the block stabilizer
B_a x B_b (a = |lam|) of chi_lam and (sign of the second block) chi_mu.
The induction has a closed form (Geck-Pfeiffer, *Characters of Finite
Coxeter Groups and Iwahori-Hecke Algebras*, ch. 5): if w has cycles of
lengths l_i and signs e_i (the product of w's signs over cycle i),

    chi_(lam,mu)(w) = sum over sets S of cycles with sum_(i in S) l_i = |lam|
                      of chi_lam(l_S) chi_mu(l_(not S)) prod_(i not in S) e_i.

It depends on the signed cycle type only, a complete class invariant, so it
is evaluated once per class.  The same formula at the classes of D_n (even
sign vectors) gives Res chi_(lam,mu), irreducible for lam != mu and equal
to Res chi_(mu,lam).  For n = 2m, Res chi_(lam,lam) splits into the halves
(Res chi_(lam,lam) -+ delta) / 2, the "+" half taking -delta.  delta is 0
except on the classes whose cycles are all positive of even length, 2 beta:
there it is 2^l(beta) chi_lam(beta) (l = number of parts) on the class of
the sign-free permutation and minus that on its partner class (the class
of ``diagonal_parity`` 1).  The tables live on the closed-form
``class_data``, so no group is built, and their values are ints; only
``bn_conjugacy_parametrization``, which ``verify`` runs, builds a group and
imports ``groups`` to do so.  Each B_n and D_n entry checks the one bound
``tableaux.BN_GUARD`` once, before any class data is built.  The I2(m)
characters are in ``dihedral``, and ``classes.irreducible_characters``
dispatches to both.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .classes import ClassData, ClassFunction, class_data
from .classify import TypeLabel
from .errors import GuardError, InternalInconsistencyError, ValidationError
from .permutations import diagonal_parity
from .tableaux import BN_GUARD, BipartitionLabel, DnLabel, bipartitions, bn_dimension, dn_dimensions
from .tableaux import hyperoctahedral_dimensions, partition_text, partitions_of, rim_hook_sum

TABLE_GUARD = 16


@lru_cache(maxsize=None)
def symmetric_character_table(n: int) -> tuple[ClassFunction, ...]:
    """Characters of all irreducible modules of S_n, indexed by partitions_of(n),
    in the closed-form class order: each value is the rim-hook rule's int."""
    if n < 2:
        raise ValidationError("character table needs n >= 2")
    if n > TABLE_GUARD:
        raise GuardError(f"character tables capped at n = {TABLE_GUARD}")
    group = class_data(TypeLabel("A", n - 1))
    cycles = [rep.cycle_type() for rep in group.classes.reps]
    return tuple(
        ClassFunction(group, [rim_hook_sum(shape, c) for c in cycles], partition_text(shape))
        for shape in partitions_of(n)
    )


def _cycle_splits(group: ClassData) -> list[dict]:
    """Per class of B_n or D_n, {(t0, t1): c} over the ways to deal the
    cycles to two blocks: t0, t1 the cycle types dealt, c the sum over those
    ways of the product of the signs of the cycles in t1."""
    out = []
    for rep in group.classes.reps:
        pos, neg = rep.signed_cycle_type()
        cycles = sorted([(length, 1) for length in pos] + [(length, -1) for length in neg], reverse=True)
        splits = {}
        for picks in itertools.product((0, 1), repeat=len(cycles)):
            blocks, sign = ([], []), 1
            for (length, eps), b in zip(cycles, picks):
                blocks[b].append(length)
                sign *= eps if b else 1
            key = (tuple(blocks[0]), tuple(blocks[1]))
            splits[key] = splits.get(key, 0) + sign
        out.append(splits)
    return out


def _bipartition_values(splits: list[dict], lam, mu) -> list[int]:
    """chi_(lam,mu) at each class, by the closed form over the cycle splits."""
    a = sum(lam)
    return [
        sum(
            c * rim_hook_sum(lam, t0) * rim_hook_sum(mu, t1)
            for (t0, t1), c in by_split.items()
            if c and sum(t0) == a
        )
        for by_split in splits
    ]


def bn_characters_on(domain: ClassData) -> list[tuple[BipartitionLabel, ClassFunction]]:
    """chi_(lam,mu) for every label of B_n, by the closed form at the classes
    of ``domain``: B_n's class data, or D_n's, where it gives Res chi_(lam,mu).
    n is capped as for the full table: each class costs 2^(its cycle count)."""
    if domain.label.rank > BN_GUARD:
        raise GuardError(f"full B_n characters capped at n = {BN_GUARD}")
    splits = _cycle_splits(domain)
    return [
        (label, ClassFunction(domain, _bipartition_values(splits, label.lam, label.mu), str(label)))
        for label in bipartitions(domain.label.rank)
    ]


@lru_cache(maxsize=None)
def hyperoctahedral_irreducibles(n: int) -> tuple[tuple[BipartitionLabel, ClassFunction, int], ...]:
    """(label, character, dimension) for every irreducible of B_n; exact.

    Each character is the closed form on signed cycle types, checked against
    the dimension formula; n is capped where a fresh table stays fast.
    """
    rows = hyperoctahedral_dimensions(n)  # validates n >= 1, then the B/D guard
    group = class_data(TypeLabel("B", n))
    splits = _cycle_splits(group)
    out = []
    for label, dim in rows:
        chi = ClassFunction(group, _bipartition_values(splits, label.lam, label.mu), str(label))
        if chi.identity_value != dim:
            raise InternalInconsistencyError(
                f"the dimension of {label} disagrees with the index formula"
            )
        out.append((label, chi, dim))
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
    if n > BN_GUARD:
        raise GuardError(f"class parametrization capped at n = {BN_GUARD}")
    from .groups import realize

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


def _split_halves(dn: ClassData, splits: list[dict], lam: tuple[int, ...]):
    """(label, character, dimension) of the halves (Res chi_(lam,lam) -+ delta) / 2.

    The halving is exact integer division; an odd value raises.
    """
    n = dn.label.rank
    delta = []
    for rep in dn.classes.reps:
        pos, neg = rep.signed_cycle_type()
        if neg or any(length % 2 for length in pos):
            delta.append(0)
            continue
        beta = tuple(length // 2 for length in pos)
        sign = -1 if diagonal_parity(rep) else 1
        delta.append(sign * 2 ** len(beta) * rim_hook_sum(lam, beta))
    whole = _bipartition_values(splits, lam, lam)
    dim = bn_dimension(n, BipartitionLabel(lam, lam)) // 2
    out = []
    for half, eps in (("+", -1), ("-", 1)):
        doubled = [w + eps * d for w, d in zip(whole, delta)]
        label = DnLabel(lam, lam, half)
        if doubled[0] != 2 * dim or any(v % 2 for v in doubled):
            raise InternalInconsistencyError(f"{label} is not a character of dimension {dim}")
        out.append((label, ClassFunction(dn, [v // 2 for v in doubled], str(label)), dim))
    if out[0][1] == out[1][1]:
        raise InternalInconsistencyError(f"the halves of {DnLabel(lam, lam)} coincide")
    return out


@lru_cache(maxsize=None)
def dn_irreducibles(n: int) -> tuple[tuple[DnLabel, ClassFunction, int], ...]:
    """(label, character, dimension) for every irreducible of D_n.

    In the order of ``tableaux.dn_dimensions``: the closed form for each
    unordered pair lam != mu (Res chi_(lam,mu) = Res chi_(mu,lam)), then the
    two halves of each self-paired label; no group is built.
    """
    rows = dn_dimensions(n)  # validates n >= 4, then the B/D guard
    dn = class_data(TypeLabel("D", n))
    splits = _cycle_splits(dn)
    out = []
    for dlabel, dim in rows:
        if dlabel.half is None:
            chi = ClassFunction(dn, _bipartition_values(splits, dlabel.lam, dlabel.mu), str(dlabel))
            out.append((dlabel, chi, dim))
        elif dlabel.half == "+":
            out.extend(_split_halves(dn, splits, dlabel.lam))
    return tuple(out)
