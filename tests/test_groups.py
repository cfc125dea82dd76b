import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.classes import class_data, coxeter_generators
from coxeterkit.classify import TypeLabel, coxeter_group_order
from coxeterkit.dihedral import DihedralElement
from coxeterkit.errors import GuardError, UnsupportedTypeError, ValidationError
from coxeterkit.groups import (
    MAX_ORDER,
    element_order,
    realize,
    verify_presentation,
)
from coxeterkit.permutations import Permutation, SignedPermutation, cycle_type, diagonal_parity

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
    assert len(realize(TypeLabel("A", 2)).elements) == 6
    assert len(realize(TypeLabel("D", 4)).elements) == 192
    assert len(realize(TypeLabel("I2", 2, 5)).elements) == 10
    for label in SMALL_LABELS:
        assert len(realize(label).elements) == coxeter_group_order(label)


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
    assert realize(TypeLabel("A", 2)).classes.sizes == (1, 3, 2)
    assert realize(TypeLabel("B", 2)).classes.count == 5
    assert realize(TypeLabel("I2", 2, 4)).classes.count == 5
    assert realize(TypeLabel("I2", 2, 5)).classes.count == 4


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
        assert verify_presentation(realize(label)), str(label)


def test_group_entries_reject_a_group_with_no_graph():
    from coxeterkit.families import bn_conjugacy_parametrization
    from coxeterkit.reps import Subgroup, natural_representation
    from coxeterkit.roots import geometric_rep

    b3 = realize(TypeLabel("B", 3))
    sub = Subgroup(b3, b3.generators[1:])
    for entry in (verify_presentation, geometric_rep, bn_conjugacy_parametrization, natural_representation):
        with pytest.raises(ValidationError, match="from realize"):
            entry(sub)
    with pytest.raises(ValidationError, match="from realize"):
        bn_conjugacy_parametrization(realize(TypeLabel("A", 3)))


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


# -- closed-form class data against the orbit classes -----------------------------

CLASS_DATA_LABELS = (
    [TypeLabel("A", n) for n in range(1, 8)]
    + [TypeLabel("B", n) for n in range(2, 7)]
    + [TypeLabel("D", n) for n in range(4, 7)]
    + [TypeLabel("I2", 2, m) for m in range(3, 49)]
)


@pytest.mark.parametrize("label", CLASS_DATA_LABELS, ids=str)
def test_class_data_equals_the_orbit_classes(label):
    """S_2-S_8, B_2-B_6, D_4-D_6 and I2(3)-I2(48): the same reps and sizes
    in the same order."""
    data, group = class_data(label), realize(label)
    assert data.order == group.order
    assert data.classes.reps == group.classes.reps
    assert data.classes.sizes == group.classes.sizes
    assert data.classes.class_of is None
    assert class_data(label) is data


INDEX_LABELS = (
    [TypeLabel("A", n) for n in range(1, 6)]
    + [TypeLabel("B", n) for n in range(2, 5)]
    + [TypeLabel("D", 4), TypeLabel("D", 5)]
    + [TypeLabel("I2", 2, m) for m in range(3, 25)]
)


@pytest.mark.parametrize("label", INDEX_LABELS, ids=str)
def test_class_index_is_the_orbit_class_of_every_element(label):
    data, group = class_data(label), realize(label)
    assert [data.class_index(x) for x in group.elements] == list(group.classes.class_of)


@pytest.mark.parametrize("n", [4, 6])
def test_diagonal_parity_tells_the_split_halves_apart(n):
    """On each B_n class that splits in D_n, the parity is constant on each
    half, 0 on the half of the sign-free permutation and 1 on the other."""
    group = realize(TypeLabel("D", n))
    classes = group.classes
    parities = {}
    for x, k in zip(group.elements, classes.class_of):
        pos, neg = x.signed_cycle_type()
        if not neg and all(length % 2 == 0 for length in pos):
            parities.setdefault(k, set()).add(diagonal_parity(x))
            sign_free = SignedPermutation((1,) * n, x.perm)
            assert diagonal_parity(sign_free) == 0
            same = classes.class_of[group.index_of(sign_free)] == k
            assert diagonal_parity(x) == (0 if same else 1)
    assert parities and all(len(p) == 1 for p in parities.values())
    assert sorted(p for s in parities.values() for p in s).count(1) == len(parities) // 2


def test_class_index_rejects_foreign_elements():
    d4 = class_data(TypeLabel("D", 4))
    with pytest.raises(ValidationError):
        d4.class_index(SignedPermutation.sign_flip(4, 0))  # odd: in B_4 only
    with pytest.raises(ValidationError):
        d4.class_index(Permutation.identity(4))
    with pytest.raises(ValidationError):
        class_data(TypeLabel("A", 3)).class_index(Permutation.identity(5))


@pytest.mark.parametrize("foreign", [
    DihedralElement(7, 1, False),  # without m in the key, it would read as r of I2(6)
    DihedralElement(8, 1, True),
    Permutation.identity(6),
    SignedPermutation.sign_flip(2, 0),
])
def test_dihedral_class_index_rejects_foreign_elements(foreign):
    with pytest.raises(ValidationError):
        class_data(TypeLabel("I2", 2, 6)).class_index(foreign)


def test_class_data_past_the_enumeration_bound():
    """No group is built, so |W| > MAX_ORDER is no obstacle."""
    b8 = class_data(TypeLabel("B", 8))
    assert b8.order == 2 ** 8 * 40320 > MAX_ORDER
    assert b8.classes.count == 185 and sum(b8.classes.sizes) == b8.order
    i2 = class_data(TypeLabel("I2", 2, MAX_ORDER))
    assert i2.order == 2 * MAX_ORDER and i2.classes.count == MAX_ORDER // 2 + 3
    with pytest.raises(UnsupportedTypeError):
        class_data(TypeLabel("E", 6))


@pytest.mark.parametrize("label", SMALL_LABELS, ids=str)
def test_coxeter_generators_are_the_groups(label):
    assert tuple(coxeter_generators(label)) == realize(label).generators


def test_verify_fails_when_the_class_data_leaves_the_orbits(monkeypatch):
    """The character checks run only after the enumerated group's orbit
    classes equal the characters' class data."""
    from types import SimpleNamespace

    from coxeterkit import verify
    from coxeterkit.classes import ClassFunction

    label = TypeLabel("A", 3)
    chars = verify.irreducible_characters(label)
    data = chars[0].domain
    moved = SimpleNamespace(order=data.order, classes=data.classes._replace(reps=data.classes.reps[::-1]))
    monkeypatch.setattr(
        verify, "irreducible_characters",
        lambda _: [ClassFunction(moved, chi.values, chi.name) for chi in chars],
    )
    checks = {name: (ok, detail) for name, ok, detail in verify.run_verification(label)}
    for name in ("character-completeness", "character-orthonormality", "frobenius-reciprocity"):
        assert checks[name] == (
            False, "error: closed-form classes of A3 differ from the orbit classes"
        ), name
