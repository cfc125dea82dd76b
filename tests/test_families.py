import math
from fractions import Fraction

import pytest

from coxeterkit import families
from coxeterkit.classes import ClassFunction, irreducible_characters
from coxeterkit.classify import TypeLabel
from coxeterkit.cyclotomic import Cyclotomic
from coxeterkit.dihedral import DihedralElement, dihedral_dimensions, dihedral_irreducibles
from coxeterkit.errors import GuardError, InternalInconsistencyError, ValidationError
from coxeterkit.families import (
    BipartitionLabel,
    DnLabel,
    bipartitions,
    bn_characters_on,
    bn_conjugacy_parametrization,
    bn_dimension,
    dn_irreducibles,
    hyperoctahedral_irreducibles,
)
from coxeterkit.groups import realize
from coxeterkit.permutations import Permutation
from coxeterkit.reps import inner_product, restrict_character
from coxeterkit.tableaux import hyperoctahedral_dimensions, partitions_of
from test_oracles import little_subgroup


def dim_int(value) -> int:
    if isinstance(value, Cyclotomic):
        return int(value.rational_value())
    return int(Fraction(value))


def test_bipartition_count():
    for n in range(1, 6):
        want = sum(
            len(partitions_of(a)) * len(partitions_of(n - a)) for a in range(n + 1)
        )
        assert len(bipartitions(n)) == want


def test_bipartition_labels():
    labels = bipartitions(2)
    assert str(labels[0]) == "B:(2|-)"  # the trivial character leads
    assert str(BipartitionLabel((2, 1), (1,))) == "B:(2+1|1)"


def test_bn_trivial_character_leads():
    for n in (2, 3):
        label, chi, dim = hyperoctahedral_irreducibles(n)[0]
        assert label.lam == (n,) and label.mu == ()
        assert dim == 1
        assert all(v == 1 for v in chi.values)


def test_b2_irreducibles():
    table = hyperoctahedral_irreducibles(2)
    dims = sorted(d for _, _, d in table)
    assert dims == [1, 1, 1, 1, 2]
    assert sum(d * d for d in dims) == 8
    for _, chi, d in table:
        assert dim_int(chi.identity_value) == d
        assert inner_product(chi, chi) == 1


def test_b3_dimension_spectrum():
    table = hyperoctahedral_irreducibles(3)
    dims = sorted(d for _, _, d in table)
    assert dims == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    assert sum(d * d for d in dims) == 48
    assert len(table) == realize(TypeLabel("B", 3)).classes.count


def test_b3_orthonormality():
    chars = [chi for _, chi, _ in hyperoctahedral_irreducibles(3)]
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_bn_dimension_law():
    from coxeterkit.tableaux import hook_dimension

    for n in (2, 3):
        for label, chi, d in hyperoctahedral_irreducibles(n):
            want = (
                math.comb(n, label.a)
                * hook_dimension(label.lam)
                * hook_dimension(label.mu)
            )
            assert d == want
            assert dim_int(chi.identity_value) == want


def test_dimension_only_listing():
    dims = hyperoctahedral_dimensions(8)
    assert sum(d * d for _, d in dims) == 2 ** 8 * math.factorial(8)
    with pytest.raises(GuardError):
        hyperoctahedral_irreducibles(9)
    for n in (0, -1):  # not past the bound: bad input, as for dn_dimensions
        with pytest.raises(ValidationError, match="B_n needs n >= 1"):
            hyperoctahedral_dimensions(n)
        with pytest.raises(ValidationError, match="B_n needs n >= 1"):
            hyperoctahedral_irreducibles(n)


def test_extended_block_characters_satisfy_reciprocity():
    """Each B_n character is induced from its block stabilizer B_a x B_b.

    The extension chi_lam x (sign of the second block) chi_mu, built here on
    the stabilizer, induces to a character of norm 1 that pairs with the
    closed form by Frobenius reciprocity.
    """
    from coxeterkit.reps import induce_character
    from coxeterkit.tableaux import symmetric_character_value

    for n in range(2, 6):
        bn = realize(TypeLabel("B", n))
        for label, chi, _ in hyperoctahedral_irreducibles(n):
            a = label.a
            sub = little_subgroup(n, a)
            values = []
            for rep in sub.classes.reps:
                first = Permutation([rep.perm(i) for i in range(a)])
                second = Permutation([rep.perm(i) - a for i in range(a, n)])
                values.append(
                    math.prod(rep.signs[a:])
                    * symmetric_character_value(label.lam, first.cycle_type())
                    * symmetric_character_value(label.mu, second.cycle_type())
                )
            ext = ClassFunction(sub, values, str(label))
            ind = induce_character(ext, bn)
            assert inner_product(ind, ind) == 1, str(label)
            assert inner_product(chi, ind) == inner_product(restrict_character(chi, sub), ext) == 1


def test_b2_and_square_dihedral_coincide_in_size():
    b2 = realize(TypeLabel("B", 2))
    i24 = realize(TypeLabel("I2", 2, 4))
    assert b2.order == i24.order == 8
    assert b2.classes.count == i24.classes.count == 5


def test_class_parametrization_keeps_the_verify_budget():
    """``class-parametrization`` enumerates B_n within ``verify``'s order bound,
    as the other group checks do."""
    from coxeterkit.verify import run_verification

    checks = {name: (ok, detail) for name, ok, detail in run_verification(TypeLabel("B", 3), 47)}
    assert checks["class-parametrization"] == (False, "error: |B3| = 48 exceeds the bound 47")
    assert checks["group-order"] == checks["class-parametrization"]
    with pytest.raises(GuardError, match="exceeds the bound 47"):
        bn_conjugacy_parametrization(realize(TypeLabel("B", 3), 47))
    assert bn_conjugacy_parametrization(realize(TypeLabel("B", 3), 48)).class_count == 10


def test_bn_conjugacy_parametrization():
    for n in (1, 2, 3):
        report = bn_conjugacy_parametrization(realize(TypeLabel("B", n)))
        cycle_types = {m for _, m in report.matching}
        assert report.class_count == report.pair_count == len(cycle_types)
    assert bn_conjugacy_parametrization(realize(TypeLabel("B", 2))).class_count == 5
    assert bn_conjugacy_parametrization(realize(TypeLabel("B", 3))).class_count == 10


def test_d4_irreducible_set():
    table = dn_irreducibles(4)
    assert len(table) == 13
    assert sum(d * d for _, _, d in table) == 192
    dn = realize(TypeLabel("D", 4))
    assert dn.classes.count == 13
    chars = [chi for _, chi, _ in table]
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert inner_product(a, b) == (1 if i == j else 0)
    split = [lbl for lbl, _, _ in table if lbl.half is not None]
    assert len(split) == 4
    for lbl, chi, d in table:
        assert dim_int(chi.identity_value) == d


def test_d4_clifford_dichotomy():
    dn = realize(TypeLabel("D", 4))
    for blabel, chi, _ in hyperoctahedral_irreducibles(4):
        res = restrict_character(chi, dn)
        norm = inner_product(res, res)
        assert norm == (2 if blabel.lam == blabel.mu else 1), str(blabel)


def test_d4_split_halves():
    table = dn_irreducibles(4)
    dn = realize(TypeLabel("D", 4))
    b4 = {str(lbl): chi for lbl, chi, _ in hyperoctahedral_irreducibles(4)}
    for lam in partitions_of(2):
        plus = next(chi for lbl, chi, _ in table if lbl.half == "+" and lbl.lam == lam)
        minus = next(chi for lbl, chi, _ in table if lbl.half == "-" and lbl.lam == lam)
        parent = b4[str(BipartitionLabel(lam, lam))]
        res = restrict_character(parent, dn)
        assert list((plus + minus).values) == list(res.values)
        assert plus != minus
        assert dim_int(plus.identity_value) == dim_int(minus.identity_value) == 3


@pytest.mark.parametrize("lam", partitions_of(3), ids=str)
def test_d6_split_halves_past_the_guard(lam):
    """The halves of (lam, lam) on D_6 are orthonormal and split its restriction."""
    table = dn_irreducibles(6)
    plus = next(chi for lbl, chi, _ in table if lbl.half == "+" and lbl.lam == lam)
    minus = next(chi for lbl, chi, _ in table if lbl.half == "-" and lbl.lam == lam)
    dn = plus.domain
    assert inner_product(plus, plus) == inner_product(minus, minus) == 1
    assert inner_product(plus, minus) == 0
    half = bn_dimension(6, BipartitionLabel(lam, lam)) // 2
    assert dim_int(plus.identity_value) == dim_int(minus.identity_value) == half
    parent = next(
        chi for lbl, chi, _ in hyperoctahedral_irreducibles(6) if lbl == BipartitionLabel(lam, lam)
    )
    assert plus + minus == restrict_character(parent, dn)


@pytest.mark.parametrize("n", [4, 6])
def test_dn_values_are_ints(n):
    for label, chi, _ in dn_irreducibles(n):
        assert all(type(v) is int for v in chi.values), str(label)


@pytest.mark.parametrize("label", [TypeLabel("A", 5), TypeLabel("B", 4)], ids=str)
def test_a_and_b_values_are_ints(label):
    for chi in irreducible_characters(label):
        assert all(type(v) is int for v in chi.values), chi.name


def test_split_halves_reject_an_odd_value():
    dn = realize(TypeLabel("D", 4))
    res = dict(bn_characters_on(dn))[BipartitionLabel((2,), (2,))]
    whole = [v + (k == 1) for k, v in enumerate(res.values)]
    with pytest.raises(InternalInconsistencyError, match="is not a character"):
        families._split_halves(dn, whole, (2,))


@pytest.mark.parametrize("half", ["", "+-"])
def test_dn_label_half_is_one_sign(half):
    with pytest.raises(ValidationError, match="half in"):
        DnLabel((1,), (1,), half)


def test_dn_label_text():
    assert str(DnLabel((2,), (1, 1))) == "D:{2|1+1}"
    assert str(DnLabel((2,), (2,), "+")) == "D:(2,2,+)"


def test_dihedral_spectra():
    dims5 = sorted(dim_int(c.identity_value) for c in dihedral_irreducibles(5))
    assert dims5 == [1, 1, 2, 2]
    dims4 = sorted(dim_int(c.identity_value) for c in dihedral_irreducibles(4))
    assert dims4 == [1, 1, 1, 1, 2]
    for m in range(3, 25):
        chars = dihedral_irreducibles(m)
        group = realize(TypeLabel("I2", 2, m))
        assert len(chars) == group.classes.count
        assert sum(dim_int(c.identity_value) ** 2 for c in chars) == 2 * m


def test_dihedral_rotation_value():
    chars = dihedral_irreducibles(7)
    two_dim = [c for c in chars if c.name.startswith("2:")]
    r = DihedralElement(7, 1, False)
    assert two_dim[0].value_at(r) == Cyclotomic.zeta(7) + Cyclotomic.zeta(7, -1)
    s = DihedralElement(7, 0, True)
    for c in two_dim:
        assert c.value_at(s) == 0


def test_dihedral_orthonormality():
    for m in (5, 6, 12):
        chars = dihedral_irreducibles(m)
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert inner_product(a, b) == (1 if i == j else 0), (m, i, j)


def test_regular_character_decomposes_by_dimension():
    """Multiplicity of each irreducible in the regular character is its dimension."""
    from coxeterkit.classes import irreducible_characters
    from coxeterkit.reps import decompose, regular_character

    for label in (
        TypeLabel("A", 3),
        TypeLabel("B", 2),
        TypeLabel("B", 3),
        TypeLabel("D", 4),
        TypeLabel("I2", 2, 5),
        TypeLabel("I2", 2, 8),
    ):
        chars = irreducible_characters(label)
        group = chars[0].domain
        got = dict(decompose(regular_character(group), chars))
        want = {i: dim_int(c.identity_value) for i, c in enumerate(chars)}
        assert got == want, str(label)


def test_dihedral_guard():
    with pytest.raises(GuardError, match="bond 83 exceeds the bound 82"):
        dihedral_irreducibles(83)
    for m in (2, 1, 0, -5):  # not past the bound: bad input, as for DihedralElement
        with pytest.raises(ValidationError, match=f"need m >= 3, got {m}"):
            dihedral_irreducibles(m)
        with pytest.raises(ValidationError, match=f"need m >= 3, got {m}"):
            dihedral_dimensions(m)


def test_dihedral_names_and_dimensions_need_no_group():
    assert dihedral_dimensions(5) == [("1:(1,1)", 1), ("1:(1,-1)", 1), ("2:1", 2), ("2:2", 2)]
    assert [name for name, _ in dihedral_dimensions(6)] == [
        "1:(1,1)", "1:(1,-1)", "1:(-1,1)", "1:(-1,-1)", "2:1", "2:2",
    ]
    for m in (8, 24, 82):
        chars = dihedral_irreducibles(m)
        assert [(c.name, dim_int(c.identity_value)) for c in chars] == dihedral_dimensions(m)
    with pytest.raises(GuardError, match="bond 83 exceeds the bound 82"):
        dihedral_dimensions(83)


def test_verify_induces_each_two_dimensional_character(monkeypatch):
    """``induction-closed-form`` fails when a closed-form character is not the
    induction of its zeta^k; here 2:1 and 2:2 trade places."""
    from coxeterkit import dihedral, verify

    table = dihedral_irreducibles(7)
    swapped = table[:2] + (table[3], table[2]) + table[4:]
    # verify imports dihedral_irreducibles inside its I2 check, so the
    # swap goes where that import reads it
    monkeypatch.setattr(dihedral, "dihedral_irreducibles", lambda m: swapped)
    checks = {name: (ok, detail) for name, ok, detail in verify.run_verification(TypeLabel("I2", 2, 7))}
    assert checks["induction-closed-form"] == (
        False, "the induction of zeta^1 from the rotations is not 2:2"
    )
    assert checks["character-completeness"][0]


def test_dn_guard():
    with pytest.raises(GuardError):
        dn_irreducibles(9)


def test_bn_characters_on_class_data_past_the_guard_raises():
    from coxeterkit.classes import class_data

    with pytest.raises(GuardError, match="capped at n = 8"):
        bn_characters_on(class_data(TypeLabel("D", 9)))


def test_enumeration_guard_via_order():
    from coxeterkit.groups import realize

    with pytest.raises(GuardError):
        realize(TypeLabel("I2", 2, 60000))
