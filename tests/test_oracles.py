"""Brute-force oracles for the index-based group kernel.

The library computes conjugacy classes as orbits under conjugation by
generators and induces characters by the class-size formula.  The routines
below are the direct definitions they replaced: classes by conjugating with
every element, and induction by the sum over the whole group.  They share no
code with the kernel beyond element products and, for induction, the
subgroup's class lookup, which the class oracle checks on every subgroup used.
"""

from fractions import Fraction

import pytest

from coxeterkit.classify import TypeLabel
from coxeterkit.cyclotomic import Cyclotomic
from coxeterkit.families import (
    _extended_character,
    _little_subgroup,
    _rotation_subgroup,
    bipartitions,
)
from coxeterkit.groups import ConjugacyClasses, realize
from coxeterkit.reps import ClassFunction, Subgroup, induce_character, trivial_character
from coxeterkit.specht import partitions_of, row_column_groups

A_LABELS = [TypeLabel("A", n) for n in range(1, 6)]
B_LABELS = [TypeLabel("B", n) for n in range(2, 5)]
I2_LABELS = [TypeLabel("I2", 2, m) for m in range(5, 13)]
ALL_LABELS = A_LABELS + B_LABELS + [TypeLabel("D", 4)] + I2_LABELS


def brute_force_classes(domain) -> ConjugacyClasses:
    """Classes by conjugating each new element with all of the domain."""
    elements = domain.elements
    index = {x: i for i, x in enumerate(elements)}
    inverses = [g.inverse() for g in elements]
    class_of = [-1] * len(elements)
    reps, sizes = [], []
    for i, x in enumerate(elements):
        if class_of[i] >= 0:
            continue
        orbit = {index[g * x * ginv] for g, ginv in zip(elements, inverses)}
        for k in orbit:
            class_of[k] = len(reps)
        reps.append(x)
        sizes.append(len(orbit))
    return ConjugacyClasses(tuple(reps), tuple(sizes), tuple(class_of))


def brute_force_induce(chi: ClassFunction, group) -> list:
    """Ind chi(g) = (1/|H|) * sum over x in G with x^-1 g x in H of chi(x^-1 g x)."""
    sub = chi.domain
    values = []
    for rep in group.classes.reps:
        acc = 0
        for x in group.elements:
            y = x.inverse() * rep * x
            if sub.contains(y):
                acc = acc + chi.values[sub.classes.class_of[sub.index_of(y)]]
        values.append(Fraction(1, sub.order) * acc)
    return values


def assert_induces_like_oracle(chi: ClassFunction, group):
    got = induce_character(chi, group).values
    want = brute_force_induce(chi, group)
    assert list(got) == want
    # printed forms too: cyclotomic values print as they were built
    assert [str(v) for v in got] == [str(v) for v in want]


def sign_character(sub: Subgroup) -> ClassFunction:
    return ClassFunction(sub, [Fraction(rep.sign()) for rep in sub.classes.reps])


@pytest.mark.parametrize("label", ALL_LABELS, ids=str)
def test_group_classes_match_brute_force(label):
    group = realize(label)
    assert group.classes == brute_force_classes(group)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_little_subgroup_classes_match_brute_force(n):
    for a in range(n + 1):
        sub = _little_subgroup(n, a)
        assert sub.classes == brute_force_classes(sub)


@pytest.mark.parametrize("label", I2_LABELS, ids=str)
def test_rotation_subgroup_classes_match_brute_force(label):
    sub = _rotation_subgroup(realize(label))
    assert sub.classes == brute_force_classes(sub)


@pytest.mark.parametrize("label", A_LABELS, ids=str)
def test_young_subgroup_induction_matches_brute_force(label):
    n = label.rank + 1
    group = realize(label)
    for shape in partitions_of(n):
        rows, cols = row_column_groups(shape)
        assert rows.classes == brute_force_classes(rows)
        assert cols.classes == brute_force_classes(cols)
        assert_induces_like_oracle(trivial_character(rows), group)
        assert_induces_like_oracle(sign_character(cols), group)


@pytest.mark.parametrize("label", B_LABELS, ids=str)
def test_little_group_induction_matches_brute_force(label):
    n = label.rank
    group = realize(label)
    for blabel in bipartitions(n):
        assert_induces_like_oracle(_extended_character(n, blabel), group)


def test_d4_induction_matches_brute_force():
    group = realize(TypeLabel("D", 4))
    perms = Subgroup(group, [g for g in group.elements if all(s == 1 for s in g.signs)])
    assert perms.classes == brute_force_classes(perms)
    assert_induces_like_oracle(trivial_character(perms), group)
    signs = [Fraction(rep.perm.sign()) for rep in perms.classes.reps]
    assert_induces_like_oracle(ClassFunction(perms, signs), group)


@pytest.mark.parametrize("label", I2_LABELS, ids=str)
def test_rotation_induction_matches_brute_force(label):
    group = realize(label)
    sub = _rotation_subgroup(group)
    m = label.bond
    for k in range(m):
        chi = ClassFunction(
            sub, [Cyclotomic.zeta(m, k * el.rotation) for el in sub.classes.reps]
        )
        assert_induces_like_oracle(chi, group)
