import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxeterkit.classes import ClassFunction
from coxeterkit.classify import TypeLabel
from coxeterkit.errors import ValidationError
from coxeterkit.families import symmetric_character_table
from coxeterkit.groups import realize
from coxeterkit.linalg import Matrix
from coxeterkit.permutations import Permutation
from coxeterkit.reps import (
    GroupAlgebraElement,
    Representation,
    Subgroup,
    decompose,
    direct_sum,
    induce_character,
    inner_product,
    is_irreducible,
    multiplicity,
    natural_representation,
    regular_character,
    regular_representation,
    restrict_character,
    tensor_decompose,
    trivial_character,
)
from coxeterkit.specht import specht_module


def s3():
    return realize(TypeLabel("A", 2))


def s3_table():
    return symmetric_character_table(3)


def test_character_examples():
    group = s3()
    triv = trivial_character(group)
    assert list(triv.values) == [Fraction(1)] * 3
    std = specht_module((2, 1)).character()
    assert list(std.values) == [Fraction(2), Fraction(0), Fraction(-1)]
    reg = regular_representation(group).character()
    assert list(reg.values) == [Fraction(6), Fraction(0), Fraction(0)]


def test_inner_product_examples():
    group = s3()
    table = s3_table()
    std = table[1]
    assert inner_product(std, std) == 1
    triv, sgn = table[0], table[2]
    assert inner_product(triv, sgn) == 0
    assert inner_product(regular_character(group), triv) == 1


def test_is_irreducible():
    group = s3()
    assert is_irreducible(specht_module((2, 1)))
    assert is_irreducible(specht_module((3,)))
    reg = regular_representation(group)
    assert not is_irreducible(reg)
    assert inner_product(reg.character(), reg.character()) == 6
    perm = natural_representation(group)
    assert inner_product(perm.character(), perm.character()) == 2


def test_multiplicity_examples():
    group = s3()
    table = s3_table()
    perm = natural_representation(group)
    assert multiplicity(perm, table[0]) == 1  # trivial: the invariant diagonal line
    assert multiplicity(perm, table[1]) == 1  # the 2-dim quotient
    reg = regular_representation(group)
    assert multiplicity(reg, table[1]) == 2  # multiplicity = dimension in the regular rep


def test_multiplicity_rejects_non_integral():
    group = s3()
    perm = natural_representation(group)
    fake = ClassFunction(group, [Fraction(1), Fraction(0), Fraction(0)])
    with pytest.raises(ValidationError):
        multiplicity(perm, fake)


def test_direct_sum():
    group = s3()
    triv = specht_module((3,))
    sgn = specht_module((1, 1, 1))
    both = direct_sum(triv, sgn)
    assert both.dim == 2
    assert list(both.character().values) == [Fraction(2), Fraction(0), Fraction(2)]
    with pytest.raises(ValidationError):
        direct_sum(triv, specht_module((2,)))  # different groups


def test_decompose_examples():
    group = s3()
    table = list(s3_table())
    reg = regular_representation(group)
    assert decompose(reg, table) == [(0, 1), (1, 2), (2, 1)]
    perm = natural_representation(group)
    assert decompose(perm, table) == [(0, 1), (1, 1)]
    assert decompose(specht_module((3,)), table) == [(0, 1)]


def test_decompose_rejects_incomplete_basis():
    group = s3()
    table = list(s3_table())
    with pytest.raises(ValidationError):
        decompose(regular_representation(group), table[:2])


def test_equal_characters_decompose_identically():
    group = s3()
    table = list(s3_table())
    perm = natural_representation(group)
    rebuilt = direct_sum(specht_module((3,)), specht_module((2, 1)))
    assert perm.character() == rebuilt.character()
    assert decompose(perm, table) == decompose(rebuilt, table)


def test_induced_character_examples():
    group = s3()
    sub = Subgroup(group, group.generators[:1])  # the transposition (0 1) fixes 2
    ind = induce_character(trivial_character(sub), group)
    assert list(ind.values) == [Fraction(3), Fraction(1), Fraction(0)]
    only_e = Subgroup(group, [])
    ind_reg = induce_character(trivial_character(only_e), group)
    assert list(ind_reg.values) == [Fraction(6), Fraction(0), Fraction(0)]
    assert ind.identity_value == Fraction(group.order, sub.order) * 1


def test_subgroup_validation():
    group = s3()
    with pytest.raises(ValidationError, match=r"does not belong to A2"):
        Subgroup(group, [Permutation((1, 0, 2)), Permutation((1, 0, 2, 3))])
    sub = Subgroup(group, [Permutation((1, 0, 2))])
    assert sub.elements == (group.identity, Permutation((1, 0, 2)))
    assert sub.contains(Permutation((1, 0, 2))) and not sub.contains(Permutation((0, 2, 1)))
    with pytest.raises(ValidationError, match=r"element .* is not in the subgroup"):
        sub.index_of(Permutation((0, 2, 1)))
    with pytest.raises(ValidationError, match=r"element .* is not in the subgroup"):
        sub.class_index(Permutation((0, 2, 1)))


def test_subgroup_is_the_closure_of_its_generators():
    """No generators give the trivial subgroup; one 3-cycle gives A_3, listed
    in the parent's order whatever the order of the generators; repeated
    generators and the identity change nothing."""
    group = s3()
    trivial = Subgroup(group, [])
    assert trivial.elements == (group.identity,) and trivial.generator_tables() == ()
    assert trivial.classes.sizes == (1,)
    cycle = Permutation((1, 2, 0))
    a3 = Subgroup(group, [cycle])
    assert a3.elements == tuple(g for g in group.elements if g.sign() == 1)
    assert a3.classes.sizes == (1, 1, 1)
    assert Subgroup(group, [group.identity, cycle, cycle]).elements == a3.elements
    whole = Subgroup(group, reversed(group.generators))
    assert whole.elements == group.elements
    assert whole.classes == group.classes


def test_restriction_examples():
    group = s3()
    table = s3_table()
    sub = Subgroup(group, group.generators[:1])
    res = restrict_character(table[1], sub)
    assert list(res.values) == [Fraction(2), Fraction(0)]  # = triv + sgn of S_2
    assert list(restrict_character(trivial_character(group), sub).values) == [1, 1]
    # restriction to the whole group is the identity operation
    back = restrict_character(table[1], group)
    assert list(back.values) == list(table[1].values)


def test_frobenius_reciprocity_randomized():
    rng = random.Random(91)
    group = s3()
    table = list(s3_table())
    sub = Subgroup(group, group.generators[:1])
    sub_table = [trivial_character(sub), ClassFunction(sub, [Fraction(1), Fraction(-1)])]
    for _ in range(10):
        chi = rng.choice(sub_table)
        phi = rng.choice(table)
        assert inner_product(induce_character(chi, group), phi) == inner_product(
            chi, restrict_character(phi, sub)
        )


def test_tensor_decompose_examples():
    table = list(s3_table())
    triv, std, sgn = table
    assert tensor_decompose(std, std, table) == [1, 1, 1]
    for chi in table:
        assert tensor_decompose(triv, chi, table) == [
            1 if i == table.index(chi) else 0 for i in range(3)
        ]
    assert tensor_decompose(sgn, sgn, table) == [1, 0, 0]


def test_completeness_and_count():
    for label in (TypeLabel("A", 2), TypeLabel("A", 3)):
        group = realize(label)
        table = symmetric_character_table(label.rank + 1)
        assert len(table) == group.classes.count
        assert sum(int(c.identity_value) ** 2 for c in table) == group.order
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                assert inner_product(a, b) == (1 if i == j else 0)


def test_representation_validates_relations():
    group = s3()
    bad = Matrix([[0, 1], [1, 1]])  # not an involution
    with pytest.raises(ValidationError):
        Representation(group, [bad, Matrix.identity(2)])


def test_inner_product_conjugates_complex_values():
    """Rotation characters of the cyclic subgroup are genuinely complex."""
    from coxeterkit.cyclotomic import Cyclotomic

    group = realize(TypeLabel("I2", 2, 5))
    sub = Subgroup(group, [group.generators[0] * group.generators[1]])
    phis = [
        ClassFunction(sub, [Cyclotomic.zeta(5, k * el.rotation) for el in sub.classes.reps])
        for k in range(5)
    ]
    for i, a in enumerate(phis):
        for j, b in enumerate(phis):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_reflection_property_of_reflect():
    from coxeterkit.roots import reflect

    v = (Fraction(3), Fraction(-2), Fraction(5))
    alpha = (Fraction(1), Fraction(1), Fraction(0))
    image = reflect(alpha, v)
    assert reflect(alpha, image) == v  # involution
    assert sum(x * x for x in image) == sum(Fraction(x) * x for x in v)  # isometry


def test_group_algebra_arithmetic():
    e = Permutation.identity(3)
    t = Permutation.transposition(3, 0, 1)
    x = GroupAlgebraElement({e: 1, t: 1})
    y = GroupAlgebraElement({e: 1, t: -1})
    prod = x * y
    assert prod == GroupAlgebraElement({})  # (e+t)(e-t) = e - t^2 = 0
    assert (x + y) == GroupAlgebraElement({e: 2})
    assert 3 * y == GroupAlgebraElement({e: 3, t: -3})
    assert len(x * x) == 2  # 2e + 2t


def test_class_functions_meet_only_on_equal_class_data():
    """The S_n table lives on closed-form class data, not on the group, yet
    meets the group's characters; a domain with the same order and sizes
    but other representatives does not."""
    group = realize(TypeLabel("A", 2))
    table = symmetric_character_table(3)
    data = table[0].domain
    assert data is not group
    assert inner_product(natural_representation(group).character(), table[0]) == 1
    moved = SimpleNamespace(order=data.order, classes=data.classes._replace(reps=data.classes.reps[::-1]))
    chi = ClassFunction(moved, table[0].values)
    with pytest.raises(ValidationError, match="different class data"):
        inner_product(chi, table[0])
    assert chi != table[0]
