"""One message per bound: every entry that checks a bound raises the same
GuardError text, the text that the CLI prints after ``unsupported: ``."""

import io

import pytest

from coxeterkit.classes import class_data, irreducible_characters
from coxeterkit.classify import TypeLabel, check_order
from coxeterkit.cli import main
from coxeterkit.errors import GuardError
from coxeterkit.families import (
    bn_characters_on,
    dn_irreducibles,
    hyperoctahedral_irreducibles,
    symmetric_character_table,
)
from coxeterkit.groups import realize
from coxeterkit.roots import root_system
from coxeterkit.specht import row_column_groups, specht_module, young_symmetrizer
from coxeterkit.tableaux import (
    bipartitions,
    dn_dimensions,
    hyperoctahedral_dimensions,
    partitions_of,
    symmetric_character_value,
)


def guard_message(entry, *args) -> str:
    with pytest.raises(GuardError) as info:
        entry(*args)
    return str(info.value)


def cli_text(*argv) -> str:
    out = io.StringIO()
    assert main(list(argv), out=out) == 3
    return out.getvalue()


def test_the_order_bound_has_one_message():
    label = TypeLabel("A", 3)
    message = "|A3| = 24 exceeds the bound 23"
    for entry in (check_order, realize, root_system):
        assert guard_message(entry, label, 23) == message, entry.__name__
    for command in ("chartable", "irreps", "realize", "verify"):
        assert cli_text("--max-order", "23", command, "A3") == f"unsupported: {message}\n"


def test_bn_guard_has_one_message():
    message = "B_n and D_n irreducibles capped at n = 8"
    entries = [
        (hyperoctahedral_dimensions, 9),
        (dn_dimensions, 9),
        (hyperoctahedral_irreducibles, 9),
        (dn_irreducibles, 9),
        (bn_characters_on, class_data(TypeLabel("B", 9))),
        (bn_characters_on, class_data(TypeLabel("D", 9))),
        (irreducible_characters, TypeLabel("D", 10)),
    ]
    for entry, arg in entries:
        assert guard_message(entry, arg) == message, entry.__name__
    for command in ("chartable", "irreps"):
        for target in ("B9", "D9"):
            assert cli_text(command, target) == f"unsupported: {message}\n"


def test_sn_guard_has_one_message():
    message = "S_n modules and row/column groups capped at n = 7"
    for entry in (row_column_groups, specht_module, young_symmetrizer):
        assert guard_message(entry, (5, 3)) == message, entry.__name__


def test_partition_guard_has_one_message():
    message = "partition enumeration capped at n = 40"
    assert guard_message(partitions_of, 41) == message
    assert guard_message(bipartitions, 41) == message
    assert guard_message(symmetric_character_value, (41,), (40, 1)) == message
    assert cli_text("irreps", "A40") == f"unsupported: {message}\n"


def test_table_guard_has_one_message():
    message = "character tables capped at n = 16"
    assert guard_message(symmetric_character_table, 17) == message
    assert guard_message(irreducible_characters, TypeLabel("A", 16)) == message
    assert cli_text("chartable", "A16") == f"unsupported: {message}\n"
