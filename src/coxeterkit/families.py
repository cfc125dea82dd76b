"""Irreducible characters of the A, B and D families.

Every value here, in all three families, is the one Murnaghan-Nakayama
recursion ``tableaux.rim_hook_sum`` (Geck-Pfeiffer, *Characters of Finite
Coxeter Groups and Iwahori-Hecke Algebras*, 2000; Macdonald, *Symmetric
Functions and Hall Polynomials*, ch. I, app. B), unchecked: the labels come
from the partition lists and the cycles from class representatives, so
both sides have one n by construction.  A class of S_n gives its cycle
type, with mu = (); a class of B_n or D_n gives its signed cycles, a
negative cycle of length k written -k, and each cycle's k-rim hook comes
off lam, or off mu times the cycle's sign.  That is chi_(lam,mu), the
little-group induction from the block stabilizer B_a x B_b (a = |lam|) of
chi_lam and (sign of the second block) chi_mu.  It depends on the signed
cycle type only, a complete class invariant, so it is evaluated once per
class.  At the classes of D_n (even sign vectors) it gives
Res chi_(lam,mu), irreducible for lam != mu and equal to Res chi_(mu,lam).
For n = 2m, Res chi_(lam,lam) splits into the halves
(Res chi_(lam,lam) -+ delta) / 2, the "+" half taking -delta.  delta is 0
except on the classes whose cycles are all positive of even length, 2 beta:
there it is 2^l(beta) chi_lam(beta) (l = number of parts) on the class of
the sign-free permutation and minus that on its partner class (the class
of ``diagonal_parity`` 1).  The tables live on the closed-form
``class_data``, so no group is built, and their values are ints; only
``bn_conjugacy_parametrization``, which ``verify`` runs, reads a realized
group.  Each B_n and D_n character entry checks the one bound
``tableaux.BN_GUARD`` once, before any class data is built.  The I2(m)
characters are in ``dihedral``, and ``classes.irreducible_characters``
dispatches to both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .classes import ClassData, ClassFunction, class_data
from .classify import TypeLabel
from .errors import GuardError, InternalInconsistencyError, ValidationError
from .permutations import dn_class_key
from .tableaux import BipartitionLabel, DnLabel, bipartitions, bn_dimension, check_bn, dn_dimensions
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
        ClassFunction(group, [rim_hook_sum(shape, (), c) for c in cycles], partition_text(shape))
        for shape in partitions_of(n)
    )


def _signed_cycles(rep) -> tuple[int, ...]:
    """The cycle lengths of a signed permutation, longest first, a negative
    cycle of length k written -k: ``rim_hook_sum``'s cycles argument."""
    pos, neg = rep.signed_cycle_type()
    return tuple(sorted(pos + tuple(-k for k in neg), key=abs, reverse=True))


def bn_characters_on(domain: ClassData) -> list[tuple[BipartitionLabel, ClassFunction]]:
    """chi_(lam,mu) for every label of B_n, by the rim-hook rule at the classes
    of ``domain``: B_n's class data, or D_n's, where it gives Res chi_(lam,mu).
    n is capped as for the full table."""
    check_bn(domain.label.rank)
    return _bn_characters(domain, bipartitions(domain.label.rank))


def _bn_characters(domain: ClassData, labels) -> list[tuple]:
    """(label, chi_(lam,mu) at the classes of ``domain``, named by the label)
    for each label with partitions ``lam`` and ``mu``, unguarded."""
    cycles = [_signed_cycles(rep) for rep in domain.classes.reps]
    return [
        (label, ClassFunction(domain, [rim_hook_sum(label.lam, label.mu, c) for c in cycles], str(label)))
        for label in labels
    ]


@lru_cache(maxsize=None)
def hyperoctahedral_irreducibles(n: int) -> tuple[tuple[BipartitionLabel, ClassFunction, int], ...]:
    """(label, character, dimension) for every irreducible of B_n; exact.

    Each character is the rim-hook rule on signed cycle types, checked
    against the dimension formula; n is capped where a fresh table stays fast.
    """
    rows = hyperoctahedral_dimensions(n)  # validates n >= 1, then the B/D guard
    chars = _bn_characters(class_data(TypeLabel("B", n)), [label for label, _ in rows])
    out = []
    for (label, chi), (_, dim) in zip(chars, rows):
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


def bn_conjugacy_parametrization(bn: RealizedGroup) -> ConjugacyReport:
    """Match each orbit class of a realized B_n to its signed cycle type
    (positive, negative).

    The budget of ``realize`` bounds n.  ValidationError for any other group;
    raises if the match fails to be a bijection onto all partition pairs.
    """
    if bn.graph is None or bn.label.family != "B":
        raise ValidationError(f"class parametrization needs a B_n from realize, not {bn!r}")
    n = bn.label.rank
    matching = [(k, rep.signed_cycle_type()) for k, rep in enumerate(bn.classes.reps)]
    pairs = {(lbl.lam, lbl.mu) for lbl in bipartitions(n)}
    report = ConjugacyReport(n, bn.classes.count, len(pairs), tuple(matching))
    seen = {m for _, m in matching}
    if len(seen) != len(matching) or seen != pairs:
        raise InternalInconsistencyError(
            f"signed cycle types of B_{n} do not biject with partition pairs"
        )
    return report


# -- D_n via index-2 restriction ------------------------------------------


def _split_halves(dn: ClassData, whole, lam: tuple[int, ...]):
    """(label, character, dimension) of the halves (Res chi_(lam,lam) -+ delta) / 2,
    from the values ``whole`` of Res chi_(lam,lam) at the classes of ``dn``.

    The halving is exact integer division; an odd value raises.
    """
    n = dn.label.rank
    delta = []
    for rep in dn.classes.reps:
        pos, _, *parity = dn_class_key(rep)  # a parity on a split class only
        if not parity:
            delta.append(0)
            continue
        beta = tuple(length // 2 for length in pos)
        sign = -1 if parity[0] else 1
        delta.append(sign * 2 ** len(beta) * rim_hook_sum(lam, (), beta))
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
    res = dict(_bn_characters(dn, [label for label, _ in rows if label.half != "-"]))
    out = []
    for dlabel, dim in rows:
        if dlabel.half is None:
            out.append((dlabel, res[dlabel], dim))
        elif dlabel.half == "+":
            out.extend(_split_halves(dn, res[dlabel].values, dlabel.lam))
    return tuple(out)
