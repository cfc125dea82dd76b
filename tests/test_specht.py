import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.classify import TypeLabel
from coxeterkit.errors import GuardError, ValidationError
from coxeterkit.families import symmetric_character_table
from coxeterkit.groups import realize
from coxeterkit.permutations import Permutation
from coxeterkit.reps import inner_product, is_irreducible
from coxeterkit.specht import (
    row_column_blocks,
    row_column_groups,
    seminormal_action,
    specht_module,
    standard_tableaux,
    young_symmetrizer,
)
from coxeterkit.tableaux import (
    hook_dimension,
    hook_lengths,
    hook_product,
    parse_partition,
    partition_text,
    partitions_of,
    symmetric_character_value,
    validate_partition,
)


def independent_partition_count(n: int) -> int:
    """Classic coin-change recurrence, independent of the enumerator."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            p[i] += p[i - k]
    return p[n]


def test_partitions_examples():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(0) == ((),)
    assert len(partitions_of(4)) == 5


def test_partitions_reverse_lexicographic():
    for n in range(1, 9):
        parts = partitions_of(n)
        assert all(sum(p) == n for p in parts)
        assert list(parts) == sorted(parts, reverse=True)


@given(st.integers(min_value=0, max_value=25))
def test_partition_count_matches_oracle(n):
    assert len(partitions_of(n)) == independent_partition_count(n)


def test_partitions_guard():
    with pytest.raises(GuardError):
        partitions_of(41)


def test_partition_parts_are_ints_not_bools():
    for parts in [(True,), (2, True), (3, 1, True)]:
        with pytest.raises(ValidationError, match="positive integers"):
            validate_partition(parts)
    with pytest.raises(ValidationError):
        hook_dimension((True,))
    assert validate_partition((2, 1)) == (2, 1)


def test_partition_text_forms():
    assert partition_text((5, 3, 1)) == "5+3+1"
    assert partition_text(()) == "-"
    assert parse_partition("5+3+1") == (5, 3, 1)
    assert parse_partition("-") == ()
    with pytest.raises(ValidationError):
        parse_partition("1+3")


def test_row_column_blocks_531():
    rows, cols = row_column_blocks((5, 3, 1))
    assert rows == [[0, 1, 2, 3, 4], [5, 6, 7], [8]]
    assert cols == [[0, 5, 8], [1, 6], [2, 7], [3], [4]]


def test_row_column_groups():
    r, c = row_column_groups((3,))
    assert r.order == 6 and c.order == 1
    r, c = row_column_groups((1, 1, 1))
    assert r.order == 1 and c.order == 6
    r, c = row_column_groups((5, 2))
    assert r.order == math.factorial(5) * 2
    assert c.order == 2 * 2
    with pytest.raises(GuardError, match="row/column groups capped at n = 7"):
        row_column_groups((5, 3))  # n = 8 exceeds the S_n guard
    with pytest.raises(GuardError, match="row/column groups capped at n = 7"):
        row_column_groups((5, 3, 1))


def test_young_symmetrizer_s3():
    full = young_symmetrizer((3,))
    assert len(full) == 6 and all(v == 1 for v in full.coeffs.values())
    alt = young_symmetrizer((1, 1, 1))
    assert sorted(alt.coeffs.values()) == [-1, -1, -1, 1, 1, 1]
    for g, v in alt.coeffs.items():
        assert v == g.sign()
    hook = young_symmetrizer((2, 1))
    assert len(hook) == 4
    assert sorted(hook.coeffs.values()) == [-1, -1, 1, 1]
    e = Permutation.identity(3)
    t01 = Permutation.transposition(3, 0, 1)
    assert hook.coeffs[e] == 1 and hook.coeffs[t01] == 1


def test_hook_lengths_and_dimensions():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert hook_dimension((2, 1)) == 2
    assert hook_dimension((4,)) == 1
    assert hook_dimension((1, 1, 1, 1)) == 1
    # the shape whose tableau carries hooks {7,6,4,2,1; 4,3,1; 2,1}
    assert hook_lengths((5, 3, 2)) == [[7, 6, 4, 2, 1], [4, 3, 1], [2, 1]]
    assert hook_product((5, 3, 2)) == 8064
    # the true values for (5,3,1)
    assert hook_lengths((5, 3, 1)) == [[7, 5, 4, 2, 1], [4, 2, 1], [1]]
    assert hook_product((5, 3, 1)) == 2240
    assert hook_dimension((5, 3, 1)) == 162


def test_hook_completeness_identity():
    for n in range(2, 13):
        assert sum(hook_dimension(s) ** 2 for s in partitions_of(n)) == math.factorial(n)


def test_standard_tableaux_are_a_basis_of_hook_size():
    assert standard_tableaux((2, 1)) == ((0, 0, 1), (0, 1, 0))
    assert standard_tableaux((3,)) == ((0, 0, 0),)
    for n in range(1, 9):
        for shape in partitions_of(n):
            tableaux = standard_tableaux(shape)
            assert len(tableaux) == len(set(tableaux)) == hook_dimension(shape)
            assert list(tableaux) == sorted(tableaux)


def test_seminormal_action_of_the_hook_shape():
    # s_1 on (2,1): rho = -2 at the row-reading tableau, +2 at the other one
    action, scale = seminormal_action((2, 1))
    assert scale == 4
    assert action[0] == (((0, 4),), ((1, -4),))
    assert action[1] == (((0, -2), (1, 3)), ((1, 2), (0, 4)))


def test_specht_dimensions_small():
    assert specht_module((2, 1)).dim == 2
    assert specht_module((4,)).dim == 1
    assert specht_module((1, 1, 1, 1)).dim == 1


def test_specht_one_dimensionals():
    triv = specht_module((3,))
    assert list(triv.character().values) == [Fraction(1)] * 3
    sgn = specht_module((1, 1, 1))
    assert list(sgn.character().values) == [Fraction(1), Fraction(-1), Fraction(1)]


def test_specht_two_dim_character():
    chi = specht_module((2, 1)).character()
    assert list(chi.values) == [Fraction(2), Fraction(0), Fraction(-1)]
    assert inner_product(chi, chi) == 1


def test_specht_matches_hooks_up_to_five():
    for n in range(2, 6):
        for shape in partitions_of(n):
            assert specht_module(shape).dim == hook_dimension(shape), shape


def test_specht_guard():
    with pytest.raises(GuardError, match="S_n modules and row/column groups capped at n = 7"):
        specht_module((8,))
    symmetric_character_table(16)
    with pytest.raises(GuardError):
        symmetric_character_table(17)


def test_character_table_small_n():
    t3 = symmetric_character_table(3)
    dims = [int(c.identity_value) for c in t3]
    assert dims == [1, 2, 1]
    assert sum(d * d for d in dims) == 6
    t2 = symmetric_character_table(2)
    assert [list(c.values) for c in t2] == [[1, 1], [1, -1]]
    t4 = symmetric_character_table(4)
    assert [int(c.identity_value) for c in t4] == [1, 3, 2, 3, 1]


def test_characters_pairwise_distinct():
    for n in (3, 4, 5):
        table = symmetric_character_table(n)
        seen = [list(c.values) for c in table]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert seen[i] != seen[j]


def test_table_orthonormal_n5():
    table = symmetric_character_table(5)
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_symmetrizer_is_quasi_idempotent():
    """Right multiplication by the symmetrizer acts on the module by n!/dim."""
    for n in range(2, 6):
        group = realize(TypeLabel("A", n - 1))
        for shape in partitions_of(n):
            rep = specht_module(shape)
            c = young_symmetrizer(shape)
            cc = c * c
            scale = Fraction(math.factorial(n), rep.dim)
            assert cc == scale * c, shape


def test_symmetric_character_value_lookup():
    assert symmetric_character_value((2, 1), (1, 1, 1)) == 2
    assert symmetric_character_value((2, 1), (2, 1)) == 0
    assert symmetric_character_value((2, 1), (3,)) == -1
    assert symmetric_character_value((), ()) == 1
    assert symmetric_character_value((1,), (1,)) == 1
    assert symmetric_character_value([2, 1], [3]) == -1
    bad = (((1, 2), (3,)), ((2, 1), (2, 2)), ((2, 1), (4,)), ((), (5,)), ((1,), (3,)), ((2, 1), (1, 2)))
    for shape, cycle in bad:
        with pytest.raises(ValidationError):
            symmetric_character_value(shape, cycle)
    with pytest.raises(GuardError):
        symmetric_character_value((41,), (41,))
