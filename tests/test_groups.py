import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.classify import TypeLabel, coxeter_group_order
from coxeterkit.errors import GuardError, UnsupportedTypeError, ValidationError
from coxeterkit.groups import (
    MAX_ORDER,
    DihedralElement,
    Permutation,
    SignedPermutation,
    conjugacy_classes,
    cycle_type,
    element_order,
    enumerate_group,
    realize,
    verify_presentation,
)

SMALL_LABELS = [
    TypeLabel("A", 2),
    TypeLabel("A", 3),
    TypeLabel("B", 2),
    TypeLabel("B", 3),
    TypeLabel("D", 4),
    TypeLabel("I2", 2, 5),
    TypeLabel("I2", 2, 6),
    TypeLabel("I2", 2, 12),
]


def test_multiply_examples():
    t = Permutation.transposition(3, 0, 1)
    assert (t * t).is_identity()
    f = SignedPermutation.sign_flip(3, 0)
    assert (f * f).is_identity()
    r = DihedralElement(4, 1, False)
    s = DihedralElement(4, 0, True)
    assert element_order(r * s) == 2
    assert element_order(s * (r * s)) == 4
    assert s * r * s == r.inverse()


def test_mixed_operands_rejected():
    with pytest.raises(ValidationError):
        Permutation.identity(3) * Permutation.identity(4)
    with pytest.raises(ValidationError):
        DihedralElement(4, 1, False) * DihedralElement(5, 1, False)
    with pytest.raises(TypeError):
        Permutation.identity(3) * SignedPermutation.identity(3)
    group = realize(TypeLabel("A", 2))
    with pytest.raises(ValidationError):
        group.index_of(Permutation.identity(4))


def test_signed_product_matches_matrix_model():
    b3 = realize(TypeLabel("B", 3))
    els = b3.elements
    for a in els[::17]:
        for b in els[::29]:
            assert (a * b).natural_matrix() == a.natural_matrix() * b.natural_matrix()


def test_enumeration_counts():
    assert len(enumerate_group(TypeLabel("A", 2))) == 6
    assert len(enumerate_group(TypeLabel("D", 4))) == 192
    assert len(enumerate_group(TypeLabel("I2", 2, 5))) == 10
    for label in SMALL_LABELS:
        assert len(enumerate_group(label)) == coxeter_group_order(label)


def test_enumeration_guard():
    with pytest.raises(GuardError):
        realize(TypeLabel("A", 9))
    with pytest.raises(UnsupportedTypeError):
        realize(TypeLabel("E", 6))


def test_one_group_per_type_under_any_budget():
    label = TypeLabel("B", 3)
    group = realize(label)
    assert realize(label, MAX_ORDER) is group
    assert realize(label, 48) is group
    with pytest.raises(GuardError):
        realize(label, 47)  # the guard still holds once the group exists


def test_public_constructors_validate_and_products_compose():
    with pytest.raises(ValidationError):
        Permutation((0, 0, 1))
    with pytest.raises(ValidationError):
        SignedPermutation((1, 2), Permutation((1, 0)))
    p, q = Permutation((1, 2, 0)), Permutation((0, 2, 1))
    assert (p * q).images == (1, 0, 2)
    assert (p * p.inverse()).is_identity()
    a = SignedPermutation((-1, 1, 1), p)
    b = SignedPermutation((1, -1, 1), q)
    assert (a * b).natural_matrix() == a.natural_matrix() * b.natural_matrix()
    assert (a * a.inverse()).is_identity()


def test_generator_tables_are_left_multiplication():
    for label in SMALL_LABELS:
        group = realize(label)
        tables = group.generator_tables()
        assert len(tables) == len(group.generators)
        for s, table in zip(group.generators, tables):
            assert [group.elements[j] for j in table] == [s * x for x in group.elements]


def test_conjugacy_class_examples():
    assert [size for _, size in conjugacy_classes(TypeLabel("A", 2))] == [1, 3, 2]
    assert len(conjugacy_classes(TypeLabel("B", 2))) == 5
    assert len(conjugacy_classes(TypeLabel("I2", 2, 4))) == 5
    assert len(conjugacy_classes(TypeLabel("I2", 2, 5))) == 4


def test_class_equation():
    for label in SMALL_LABELS:
        group = realize(label)
        sizes = group.classes.sizes
        assert sum(sizes) == group.order
        assert all(group.order % s == 0 for s in sizes)
        assert group.classes.reps[0].is_identity()


def test_brute_force_class_count_oracle():
    """Independent orbit computation (sets only, no index machinery)."""
    for label in (TypeLabel("B", 2), TypeLabel("I2", 2, 4)):
        group = realize(label)
        remaining = set(group.elements)
        count = 0
        while remaining:
            x = remaining.pop()
            orbit = {g * x * g.inverse() for g in group.elements}
            remaining -= orbit
            count += 1
        assert count == group.classes.count


def test_cycle_types():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(Permutation((1, 2, 0))) == (3,)
    assert cycle_type(Permutation((1, 0, 3, 2))) == (2, 2)


def test_cycle_type_classifies_symmetric_conjugacy():
    s4 = realize(TypeLabel("A", 3))
    types = [rep.cycle_type() for rep in s4.classes.reps]
    assert len(set(types)) == len(types) == 5


def test_signed_cycle_type_is_class_invariant():
    b2 = realize(TypeLabel("B", 2))
    for x in b2.elements:
        t = x.signed_cycle_type()
        for g in b2.elements:
            assert (g * x * g.inverse()).signed_cycle_type() == t


def test_presentations():
    for label in (TypeLabel("A", 3), TypeLabel("B", 3), TypeLabel("D", 4), TypeLabel("I2", 2, 12)):
        assert verify_presentation(label), str(label)


def test_b_generator_bond_orders():
    b3 = realize(TypeLabel("B", 3))
    x0, x1, x2 = b3.generators
    assert element_order(x0 * x1) == 4
    assert element_order(x1 * x2) == 3
    assert element_order(x0 * x2) == 2


def test_d_generator_shape():
    d4 = realize(TypeLabel("D", 4))
    tip = d4.generators[0]
    assert tip.signs == (-1, -1, 1, 1)
    assert tip.perm == Permutation.transposition(4, 0, 1)
    assert element_order(d4.generators[0] * d4.generators[1]) == 2
    assert element_order(d4.generators[0] * d4.generators[2]) == 3


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_LABELS), st.data())
def test_group_axioms_sampled(label, data):
    group = realize(label)
    pick = st.sampled_from(group.elements)
    a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
    assert (a * b) * c == a * (b * c)
    assert a * group.identity == a
    assert a * a.inverse() == group.identity


def test_element_text():
    assert Permutation.identity(3).text() == "e"
    assert Permutation.transposition(3, 0, 1).text() == "(1 2)"
    assert SignedPermutation.sign_flip(2, 0).text() == "[-1,+1] e"
    assert DihedralElement(5, 2, True).text() == "r^2 s"
    assert DihedralElement(5, 0, False).text() == "e"


def test_dihedral_class_structure_even_odd():
    # odd m: one reflection class; even m: two
    g5 = realize(TypeLabel("I2", 2, 5))
    refl_classes5 = [rep for rep in g5.classes.reps if rep.reflected]
    assert len(refl_classes5) == 1
    g6 = realize(TypeLabel("I2", 2, 6))
    refl_classes6 = [rep for rep in g6.classes.reps if rep.reflected]
    assert len(refl_classes6) == 2
