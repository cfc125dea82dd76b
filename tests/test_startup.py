"""Start-up cost: each CLI command loads only the modules it runs.

Every check on loaded modules runs in a fresh interpreter, because the test
process itself has long since imported the whole package.  The value
classes (named tuples and one plain class) are pinned here too: they keep
the repr, validation, immutability, hashing and ordering they had as frozen
dataclasses.
"""

import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxeterkit.catalog import Witness
from coxeterkit.classify import TypeLabel
from coxeterkit.cli import main
from coxeterkit.errors import ValidationError
from coxeterkit.families import BipartitionLabel, DnLabel
from coxeterkit.groups import realize
from coxeterkit.roots import RootSystem

SRC = Path(__file__).parents[1] / "src"
ALL_MODULES = {p.stem for p in (SRC / "coxeterkit").glob("*.py")} - {"__init__", "__main__"}
CHAIN = {"classify", "errors"}
BASE = CHAIN | {"cli"}
# what classify() loads on its first call; ``cyclotomic`` joins it only for
# a graph with an irrational Gram entry on a cycle or a bond outside {3, 4, 6, inf}
CLASSIFIER = {"catalog", "certify", "graphs"}
# the enumeration engine, which only verify loads
ENGINE = {"groups", "reps"}
# what a table command of A_n, B_n, D_n and of I2(m) must not compile
NOT_FOR_PERMUTATION_TABLES = {"dihedral", "specht", "linalg"} | ENGINE | CLASSIFIER
NOT_FOR_DIHEDRAL_TABLES = {"permutations", "tableaux", "specht", "linalg"} | ENGINE | CLASSIFIER
# the stdlib modules of Fraction arithmetic, which an int-only classify never needs
FRACTION_MODULES = ("fractions", "decimal")

PROBE = """
import io, json, sys
from coxeterkit import cli
code = cli.main(sys.argv[1:], out=io.StringIO())
loaded = sorted(m[len("coxeterkit."):] for m in sys.modules if m.startswith("coxeterkit."))
print(json.dumps([code, loaded, sorted(m for m in %r if m in sys.modules)]))
""" % (FRACTION_MODULES,)


def fresh_python(source: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return proc.stdout


def loads_after(*argv: str, exit_code: int = 0) -> tuple[set, set]:
    """The coxeterkit modules and the ``FRACTION_MODULES`` that a fresh CLI run loads."""
    code, loaded, fraction_modules = json.loads(fresh_python(PROBE, *argv))
    assert code == exit_code
    return set(loaded), set(fraction_modules)


def modules_after(*argv: str, exit_code: int = 0) -> set:
    return loads_after(*argv, exit_code=exit_code)[0]


def test_package_import_loads_only_the_classification_chain():
    source = "import sys, coxeterkit; print(sorted(m for m in sys.modules if m.startswith('coxeterkit.')))"
    assert fresh_python(source).strip() == repr(sorted(f"coxeterkit.{m}" for m in CHAIN))


def test_classify_never_loads_groups(tmp_path):
    path = tmp_path / "b3.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 4], [1, 2, 3]]}')
    assert loads_after("classify", str(path)) == (BASE | CLASSIFIER, set())


@pytest.mark.parametrize("edges, exit_code", [
    ([[0, 1, 3], [1, 2, 4], [2, 3, 3]], 0),  # F4
    ([[0, 1, 6]], 0),  # I2(6)
    ([[0, 1, 6], [1, 2, 3]], 2),  # affine G~2
    ([[0, 1, 4], [1, 2, 3], [2, 3, 3], [3, 4, 4]], 2),  # affine C~4, by the forest pivots
    ([[0, 1, 0], [1, 2, 3]], 2),  # the unbounded bond
    ([[0, 1, 3], [1, 2, 3], [0, 2, 3]], 2),  # affine A~2, a cycle of rational entries
])
def test_classify_of_bonds_3_4_6_inf_loads_no_cyclotomic(tmp_path, edges, exit_code):
    """Nor ``linalg``, ``fractions`` or ``decimal``: every pivot is an int."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 1 + max(max(i, j) for i, j, _ in edges), "edges": edges}))
    assert loads_after("classify", str(path), exit_code=exit_code) == (BASE | CLASSIFIER, set())


def test_classify_of_a_5_bond_loads_cyclotomic(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 5], [1, 2, 3]]}')
    assert modules_after("classify", str(path)) == BASE | CLASSIFIER | {"cyclotomic"}


FIRST_CLASSIFY = """
import sys
import coxeterkit
if sys.argv[1] == "traced":  # as the benchmark's traced passes run it
    sys.path.insert(0, sys.argv[2])
    from tracer import Recorder
    recorder = Recorder().install()
before = "coxeterkit.catalog" in sys.modules
g = coxeterkit.parse_graph_json('{"n": 4, "edges": [[0, 1, 4], [1, 2, 3], [2, 3, 0]]}')
first, second = coxeterkit.classify(g), coxeterkit.classify(g)
print(before, "coxeterkit.catalog" in sys.modules, str(first) == str(second))
print(first)
if sys.argv[1] == "traced":
    layers = recorder.snapshot()
    print(layers["self_s"]["classify"] > 0, layers["counts"]["classify.components"])
"""


def test_the_first_classify_call_loads_the_classifier():
    assert fresh_python(FIRST_CLASSIFY, "plain", "").splitlines() == [
        "False True True", "NotFinite (affine subgraph on vertices 2,3)",
    ]


def test_a_traced_first_classify_call_runs_the_classifier_under_the_tracer():
    # the tracer imports every layer, and groups brings catalog with it
    out = fresh_python(FIRST_CLASSIFY, "traced", str(SRC.parent / "perfbench")).splitlines()
    assert out == ["True True True", "NotFinite (affine subgraph on vertices 2,3)", "True 2"]


def test_realize_of_type_a_loads_only_its_class_data():
    # the partitions that index the closed-form class data come from classify
    assert modules_after("realize", "A3") == BASE | {"classes", "permutations"}


@pytest.mark.parametrize("target", ["B3", "D4"])
def test_realize_of_types_b_and_d_load_only_their_class_data(target):
    assert modules_after("realize", target) == BASE | {"classes", "permutations"}


@pytest.mark.parametrize("target", ["A4", "B3", "D4"])
def test_realize_of_a_permutation_type_loads_no_classifier(target):
    assert not modules_after("realize", target) & NOT_FOR_PERMUTATION_TABLES


def test_irreps_of_type_a_skips_families():
    assert modules_after("irreps", "A3") == BASE | {"tableaux"}


def test_irreps_of_type_b_builds_no_group():
    assert modules_after("irreps", "B3") == BASE | {"tableaux"}


def test_irreps_of_type_d_uses_the_dimension_formula_only():
    assert modules_after("irreps", "D4") == BASE | {"tableaux"}


def test_irreps_of_a_dihedral_type_skips_roots_and_verify():
    assert modules_after("irreps", "I2(5)") == BASE | {"dihedral"}


@pytest.mark.parametrize("argv", [
    ("realize", "I2(5)"), ("chartable", "I2(12)"), ("realize", "I2(12)"), ("chartable", "I2(5)"),
])
def test_dihedral_tables_load_no_classifier_graph_or_elimination(argv):
    assert not modules_after(*argv) & NOT_FOR_DIHEDRAL_TABLES


def test_dihedral_table_loads_its_class_data_and_the_cyclotomics():
    want = BASE | {"classes", "cyclotomic", "dihedral"}
    assert modules_after("chartable", "I2(12)") == want


def test_chartable_skips_roots_and_verify():
    tables = {"classes", "permutations", "families", "tableaux"}
    assert modules_after("chartable", "A2") == BASE | tables


@pytest.mark.parametrize("target", ["A4", "B3", "D4"])
def test_chartable_of_a_permutation_type_loads_no_classifier(target):
    assert not modules_after("chartable", target) & NOT_FOR_PERMUTATION_TABLES


# standard-library modules that a plain command line does not need: argparse
# (with gettext and locale) reads only help and usage errors, and signal
# serves only a closed stdout
ARGPARSE_AND_SIGNAL = {"argparse", "gettext", "locale", "signal"}


def imports_of(*argv: str) -> set:
    """Every module a fresh ``python -X importtime -m coxeterkit ARGV`` imports.

    ``-S`` leaves out ``site``, so that what the environment's ``site``
    imports does not count against the command.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "coxeterkit", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}  # the first is the header


@pytest.mark.parametrize("command, rational_free", [
    ("irreps A5", True),
    ("realize A6", True),
    ("irreps I2(13)", True),
    ("realize I2(13)", True),
    ("chartable A4", True),
    ("chartable I2(13)", False),
    ("verify A3", False),
])
def test_plain_commands_import_no_argparse_or_signal(command, rational_free):
    loaded = imports_of(*command.split())
    assert "coxeterkit.cli" in loaded
    assert not loaded & ARGPARSE_AND_SIGNAL
    if rational_free:
        assert not loaded & {"fractions", "decimal"}


def test_help_still_comes_from_argparse():
    assert "argparse" in imports_of("--help")


BUILT = """
import io, sys
from coxeterkit import cli, groups
built, build = set(), groups._build_group
groups._build_group = lambda label, order: built.add(str(label)) or build(label, order)
code = cli.main(sys.argv[1:], out=io.StringIO())
print(code, sorted(built))
"""


def test_chartable_of_type_d_builds_no_b_group():
    # the closed form runs at D_4's own class data, with the S_m tables of m <= 4
    assert fresh_python(BUILT, "chartable", "D4").strip() == "0 []"


@pytest.mark.parametrize("command", ["chartable", "realize"])
@pytest.mark.parametrize("target", ["A4", "B3", "D4"])
def test_permutation_type_tables_build_no_group(command, target):
    assert fresh_python(BUILT, command, target).strip() == "0 []"


@pytest.mark.parametrize("command", ["chartable", "irreps", "realize"])
@pytest.mark.parametrize("target", ["I2(5)", "I2(12)"])
def test_dihedral_tables_build_no_group(command, target):
    assert fresh_python(BUILT, command, target).strip() == "0 []"


RUN = """
import atexit, sys
from coxeterkit import cli
atexit.register(lambda: sys.stderr.write("atexit handler ran\\n"))
cli.run()
"""


@pytest.mark.parametrize("argv, exit_code", [(("chartable", "A4"), 0), (("chartable", "A16"), 3)],
                         ids=["chartable A4", "chartable A16"])
def test_the_process_entry_keeps_the_interpreter_shutdown(argv, exit_code):
    """``run`` skips only the exit-time collection: an atexit handler still
    runs, and stdout and the exit code are those of ``main``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    out = io.StringIO()
    assert main(list(argv), out=out) == exit_code
    assert proc.returncode == exit_code
    assert proc.stdout == out.getvalue()
    assert proc.stderr == "atexit handler ran\n"


# what verify of every family loads: the classifier for the graph checks,
# the engine, the roots and the class data
VERIFY = BASE | CLASSIFIER | ENGINE | {"verify", "roots", "classes", "linalg"}


@pytest.mark.parametrize("target", ["A3", "B3", "D4"])
def test_verify_of_a_permutation_type_loads_no_cyclotomic(target):
    assert modules_after("verify", target) == VERIFY | {"permutations", "tableaux", "families"}


def test_verify_of_a_dihedral_type_loads_no_permutation_code():
    assert modules_after("verify", "I2(5)") == VERIFY | {"cyclotomic", "dihedral"}


IMPORT_ORDER = """
import importlib, sys
importlib.import_module("coxeterkit." + sys.argv[1])
import coxeterkit
namespace = {}
exec("from coxeterkit import *", namespace)
print(coxeterkit.classify.__module__, type(coxeterkit.classify).__name__,
      all(namespace[name] is getattr(coxeterkit, name) for name in coxeterkit.__all__))
"""


@pytest.mark.parametrize("module", sorted(ALL_MODULES))
def test_classify_stays_the_function_whichever_module_loads_first(module):
    assert fresh_python(IMPORT_ORDER, module).split() == ["coxeterkit.classify", "function", "True"]


# -- value classes ---------------------------------------------------------------


def test_type_label_repr_and_str():
    assert repr(TypeLabel("A", 3)) == "TypeLabel(family='A', rank=3, bond=None)"
    assert repr(TypeLabel("I2", 2, 7)) == "TypeLabel(family='I2', rank=2, bond=7)"
    assert str(TypeLabel("I2", 2, 7)) == "I2(7)"


@pytest.mark.parametrize("args, message", [
    (("X", 3), "unknown family 'X'"),
    (("D", 3), "invalid rank 3 for family D"),
    (("I2", 2), "I2 needs a bond label m >= 3, got None"),
    (("A", 2, 5), "bond label is only meaningful for I2"),
])
def test_type_label_validation(args, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        TypeLabel(*args)


def test_label_validation_in_families():
    with pytest.raises(ValidationError):
        BipartitionLabel((1, 2), ())
    with pytest.raises(ValidationError):
        DnLabel((2,), (1, 1), "+")
    assert DnLabel((1,), (1,), "-").half == "-"


def test_values_are_immutable():
    label = TypeLabel("B", 3)
    with pytest.raises(AttributeError):
        label.rank = 4
    with pytest.raises(AttributeError):
        label.extra = 1
    classes = realize(TypeLabel("A", 2)).classes
    with pytest.raises(AttributeError):
        classes.sizes = ()
    rs = RootSystem(((Fraction(1),), (Fraction(-1),)), TypeLabel("A", 1))
    with pytest.raises(AttributeError):
        rs.roots = ()
    with pytest.raises(AttributeError):
        del rs.label


def test_equal_values_hash_equal():
    assert TypeLabel("I2", 2, 5) == TypeLabel("I2", 2, 5)
    assert hash(TypeLabel("I2", 2, 5)) == hash(TypeLabel("I2", 2, 5))
    assert len({TypeLabel("A", 2), TypeLabel("A", 2), TypeLabel("B", 2)}) == 2
    assert hash(BipartitionLabel((1,), (1,))) == hash(BipartitionLabel((1,), (1,)))
    assert Witness("affine", 3, (0, 1, 2)) == Witness("affine", 3, (0, 1, 2))
    # labels are lru_cache keys: an equal label finds the cached group
    assert realize(TypeLabel("A", 3)) is realize(TypeLabel("A", 3))


def test_labels_sort_as_family_rank_bond():
    labels = [TypeLabel("I2", 2, 7), TypeLabel("B", 3), TypeLabel("A", 4), TypeLabel("I2", 2, 5),
              TypeLabel("A", 2)]
    assert [str(t) for t in sorted(labels)] == ["A2", "A4", "B3", "I2(5)", "I2(7)"]


def test_root_system_repr_equality_and_hash():
    rs = RootSystem(((Fraction(1),), (Fraction(-1),)), TypeLabel("A", 1))
    same = RootSystem([[Fraction(1)], [Fraction(-1)]], TypeLabel("A", 1))
    assert repr(rs) == (
        "RootSystem(roots=((Fraction(1, 1),), (Fraction(-1, 1),)), "
        "label=TypeLabel(family='A', rank=1, bond=None), gram=None)"
    )
    assert rs == same and hash(rs) == hash(same)
