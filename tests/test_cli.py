import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit import cli
from coxeterkit.cli import main
from coxeterkit.errors import InternalInconsistencyError


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_classify_finite(tmp_path):
    path = tmp_path / "a4.json"
    path.write_text('{"n": 4, "edges": [[0,1,3],[1,2,3],[2,3,3]]}')
    code, text = run_cli("classify", str(path))
    assert code == 0
    assert text.strip() == "A4"


def test_classify_affine_triangle(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text('{"n": 3, "edges": [[0,1,3],[1,2,3],[0,2,3]]}')
    code, text = run_cli("classify", str(path))
    assert code == 2
    assert text.strip() == "NotFinite (affine subgraph on vertices 0,1,2)"


def test_classify_bad_label(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[0,1,1]]}')
    code, text = run_cli("classify", str(path))
    assert code == 1
    assert text.startswith("error:")


def test_classify_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "edges": [[0,')
    code, text = run_cli("classify", str(path))
    assert code == 1
    assert "line" in text and "column" in text


@pytest.mark.parametrize("text", [
    '{"n": 2, "edges": [[0, 1, ' + "9" * 5000 + "]]}",
    "[" * 100_000,
], ids=["5000-digit-label", "100000-open-brackets"])
def test_classify_json_past_the_decoder_limits_exits_1(tmp_path, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    code, out = run_cli("classify", str(path))
    assert code == 1
    assert out.startswith("error: invalid JSON: ")


def test_classify_missing_file():
    code, text = run_cli("classify", "/nonexistent/graph.json")
    assert code == 1


def test_classify_json_format(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text('{"n": 4, "edges": [[0,1,3],[2,3,4]]}')
    code, text = run_cli("--format", "json", "classify", str(path))
    assert code == 0
    data = json.loads(text)
    assert data["finite"] is True
    assert [c["type"] for c in data["components"]] == ["A2", "B2"]


def test_classify_vertex_guard_exits_at_once(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000000}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coxeterkit", "classify", str(path)],
        capture_output=True,
        env=env,
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout.decode() == (
        "unsupported: classify is capped at 48 vertices, got 100000000\n"
    )
    assert b"Traceback" not in proc.stderr


def test_chartable_a2_matches_worked_example():
    code, text = run_cli("chartable", "A2")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[0] == "irrep"
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
    assert rows["2+1"] == ["2", "0", "-1"]
    assert rows["3"] == ["1", "1", "1"]
    assert rows["1+1+1"] == ["1", "-1", "1"]


def test_chartable_dihedral_rows():
    code, text = run_cli("chartable", "I2(5)")
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 5  # header + 4 irreducibles
    assert "z5+z5^4" in text


def test_chartable_unsupported_exceptional():
    code, text = run_cli("chartable", "E6")
    assert code == 3
    assert text.startswith("unsupported:")


def test_chartable_guard_exceeded():
    for target in ("A16", "B9", "D9"):
        code, text = run_cli("chartable", target)
        assert code == 3, target


def test_bad_type_string():
    code, text = run_cli("chartable", "Z9")
    assert code == 1


@pytest.mark.parametrize(
    "text", ["I2(1_0)", "A\u0663", "I2(+7)", "B\u00b2", "A" + "7" * 5000],
    ids=lambda text: text if len(text) < 20 else f"{len(text)}-chars",
)
def test_type_strings_outside_ascii_digits_exit_1_without_a_traceback(text):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "coxeterkit", "irreps", text],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == f"error: bad type string {text!r}\n"
    assert proc.stderr == ""


def test_chartable_float_mode():
    code, text = run_cli("--float", "chartable", "I2(5)")
    assert code == 0
    assert "z5" not in text
    assert "0.618" in text or "-1.618" in text or "1.618" in text


def test_deterministic_output():
    runs = [run_cli("chartable", "B2") for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli("--format", "json", "irreps", "D4") for _ in range(2)]
    assert runs[0] == runs[1]


def test_irreps_d4():
    code, text = run_cli("irreps", "D4")
    assert code == 0
    lines = [l for l in text.strip().split("\n")]
    assert len(lines) == 13
    dims = sorted(int(l.split("\t")[1]) for l in lines)
    assert sum(d * d for d in dims) == 192


def test_irreps_b8_dimensions_only():
    code, text = run_cli("irreps", "B8")
    assert code == 0
    dims = [int(l.split("\t")[1]) for l in text.strip().split("\n")]
    assert sum(d * d for d in dims) == 2 ** 8 * 40320


@pytest.mark.parametrize("n", [7, 8])
def test_irreps_of_d_past_the_table_guard_are_dimensions_only(n):
    code, text = run_cli("irreps", f"D{n}")
    assert code == 0
    dims = [int(l.split("\t")[1]) for l in text.strip().split("\n")]
    assert sum(d * d for d in dims) == 2 ** (n - 1) * math.factorial(n)
    code, text = run_cli("irreps", "D9")
    assert code == 3


def test_realize_keeps_the_order_bound():
    code, text = run_cli("realize", "A8")
    assert (code, text) == (3, "unsupported: |A8| = 362880 exceeds the bound 100000\n")
    code, text = run_cli("realize", "B6")
    assert code == 0 and "order\t46080" in text and "classes\t65" in text
    code, text = run_cli("realize", "I2(50001)")
    assert (code, text) == (3, "unsupported: |I2(50001)| = 100002 exceeds the bound 100000\n")
    code, text = run_cli("realize", "I2(50000)")
    assert code == 0 and "order\t100000" in text and "classes\t25003" in text


def test_verify_past_the_order_bound_fails_each_enumerating_check():
    """The B_7 characters exist, but the group does not: each character check
    compares the closed-form classes with the orbit classes first, so all
    three fail on the order bound."""
    code, text = run_cli("verify", "B7")
    assert code == 2
    lines = dict(line.split("\t")[1:] for line in text.strip().split("\n"))
    for name in ("character-completeness", "character-orthonormality", "frobenius-reciprocity"):
        assert lines[name] == "error: |B7| = 645120 exceeds the bound 100000", name


GROUP_FREE_CHECKS = ("classification-roundtrip", "positive-definite", "hook-dimensions")


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "I2(5)"])
def test_one_max_order_bounds_every_enumerating_check(text):
    """Just under |W| every check that enumerates fails with the order
    message and nothing else does; at |W| every check passes."""
    from coxeterkit.classify import coxeter_group_order, parse_type_label
    from coxeterkit.verify import run_verification

    label = parse_type_label(text)
    order = coxeter_group_order(label)
    below = run_verification(label, order - 1)
    message = f"error: |{text}| = {order} exceeds the bound {order - 1}"
    assert len(below) > 10
    for name, ok, detail in below:
        if name in GROUP_FREE_CHECKS:
            assert ok, name
        else:
            assert (ok, detail) == (False, message), name
    assert [name for name, ok, _ in run_verification(label, order) if not ok] == []


def test_verify_b9_fails_the_class_parametrization_on_the_order_bound():
    """B_9's orbit classes are past the order bound, not past a B/D guard:
    ``class-parametrization`` fails with the message of every group check."""
    from coxeterkit.classify import TypeLabel
    from coxeterkit.verify import run_verification

    checks = {name: (ok, detail) for name, ok, detail in run_verification(TypeLabel("B", 9))}
    message = (False, "error: |B9| = 185794560 exceeds the bound 100000")
    for name in ("group-order", "presentation", "fixed-space", "class-parametrization"):
        assert checks[name] == message, name


def test_verify_checks_the_root_system_against_the_order_bound():
    """A8 has 72 roots but 9! elements: the root check keeps the bound too."""
    code, text = run_cli("verify", "A8")
    lines = dict(line.split("\t")[1:] for line in text.strip().split("\n"))
    assert code == 2
    assert lines["root-system-axioms"] == "error: |A8| = 362880 exceeds the bound 100000"


@pytest.mark.parametrize("label", ["D7", "D20"])
def test_verify_past_the_order_bound_fails_the_dichotomy_at_once(label):
    """index-two-dichotomy checks |W| before it builds any signed cycle type:
    a large D_n fails there with the order error, as the other checks do."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coxeterkit", "verify", label],
        capture_output=True,
        env=env,
        timeout=20,
    )
    assert proc.returncode == 2
    lines = dict(line.split("\t")[1:] for line in proc.stdout.decode().strip().split("\n"))
    assert lines["index-two-dichotomy"].startswith(f"error: |{label}| = ")
    assert lines["index-two-dichotomy"].endswith(" exceeds the bound 100000")


def test_tables_past_the_order_bound_keep_max_order():
    code, text = run_cli("chartable", "B8")
    assert code == 0 and len(text.strip().split("\n")) == 186
    code, text = run_cli("--max-order", "100000", "chartable", "B8")
    assert (code, text) == (3, "unsupported: |B8| = 10321920 exceeds the bound 100000\n")


def test_realize_b2():
    code, text = run_cli("realize", "B2")
    assert code == 0
    assert "order\t8" in text
    assert "classes\t5" in text


def test_realize_respects_max_order():
    code, text = run_cli("--max-order", "5", "realize", "B2")
    assert code == 3


@pytest.mark.parametrize("command", ["chartable", "irreps", "realize", "verify"])
def test_every_command_honours_max_order(command):
    code, text = run_cli("--max-order", "10", command, "A3")
    assert (code, text) == (3, "unsupported: |A3| = 24 exceeds the bound 10\n")
    code, text = run_cli("--max-order", "24", command, "A3")
    assert code == 0 and not text.startswith("unsupported")


def test_max_order_leaves_exceptional_types_to_the_command():
    code, text = run_cli("--max-order", "10", "verify", "H4")
    assert code == 0 and len(text.strip().split("\n")) == 2
    code, text = run_cli("--max-order", "10", "chartable", "E6")
    assert (code, text) == (3, "unsupported: no character construction for E6\n")


def test_closed_stdout_ends_quietly():
    """The CLI and the table-dump script, each writing into a pipe whose read
    end is closed before the child starts, so that its first write fails; and
    the CLI once more, into a reader that takes one line of a table larger
    than a pipe buffer and then closes, so that a later write fails."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    for argv in (["-m", "coxeterkit", "chartable", "A3"], [str(root / "scripts" / "print_character_tables.py")]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr, argv
        assert proc.returncode != 1, argv
        if hasattr(signal, "SIGPIPE"):
            assert proc.returncode == -signal.SIGPIPE, argv
    proc = subprocess.Popen([sys.executable, "-m", "coxeterkit", "chartable", "A15"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(b"irrep\t")
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == b""
    if hasattr(signal, "SIGPIPE"):
        assert code == -signal.SIGPIPE


def test_verify_a2():
    code, text = run_cli("verify", "A2")
    assert code == 0
    lines = text.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines)
    names = {line.split("\t")[1] for line in lines}
    assert "classification-roundtrip" in names
    assert "character-completeness" in names


def test_verify_i2():
    code, text = run_cli("verify", "I2(5)")
    assert code == 0
    assert "induction-closed-form" in text


def test_verify_exceptional_runs_graph_checks_only():
    code, text = run_cli("verify", "H4")
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_internal_error_has_its_own_exit_code(monkeypatch):
    def broken(args, out):
        raise InternalInconsistencyError("two computations disagreed")

    monkeypatch.setattr(cli, "cmd_realize", broken)
    code, text = run_cli("realize", "A2")
    assert code == 4
    assert text == "internal error: two computations disagreed\n"


def fresh_cli(*argv, timeout=60):
    """``python -m coxeterkit ARGV`` in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "coxeterkit", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("label, message", [
    ("A2000", "|A2000| exceeds the bound 100000"),
    ("A3000000", "|A3000000| exceeds the bound 100000"),
])
def test_realize_of_a_huge_rank_exits_3_at_once(label, message):
    """|W| is a running product that stops past the bound: no (n+1)! is
    computed, and no order of more than 4300 digits is formatted."""
    proc = fresh_cli("realize", label, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, f"unsupported: {message}\n", "")


def test_order_messages_keep_the_exact_order_while_it_prints():
    # |A1557| = 1558! has 4300 digits, the most str() prints; 1559! has more
    code, text = run_cli("--max-order", "5", "irreps", "A1557")
    assert code == 3 and len(text) == len("unsupported: |A1557| =  exceeds the bound 5\n") + 4300
    code, text = run_cli("--max-order", "5", "irreps", "A1558")
    assert (code, text) == (3, "unsupported: |A1558| exceeds the bound 5\n")


def test_verify_of_a_huge_rank_fails_every_check_at_once():
    proc = fresh_cli("verify", "A3000000", timeout=5)
    assert (proc.returncode, proc.stderr) == (2, "")
    lines = [line.split("\t") for line in proc.stdout.strip().split("\n")]
    assert {status for status, _, _ in lines} == {"FAIL"}
    details = dict((name, detail) for _, name, detail in lines)
    assert details["classification-roundtrip"] == "error: classify is capped at 48 vertices, got 3000000"
    assert details["group-order"] == "error: |A3000000| exceeds the bound 100000"


def test_verify_of_a_bond_past_the_order_bound_fails_the_group_checks_at_once():
    """I2(60000) is positive definite by the rank-2 closed form, with no Gram
    entry at conductor 120000; |W| = 120000 fails every group check."""
    import time

    from coxeterkit.classify import TypeLabel
    from coxeterkit.verify import run_verification

    start = time.perf_counter()
    checks = {name: (ok, detail) for name, ok, detail in run_verification(TypeLabel("I2", 2, 60000))}
    assert time.perf_counter() - start < 2.0
    assert checks["positive-definite"] == (True, "all leading minors positive")
    for name in ("group-order", "presentation", "class-equation", "root-system-axioms", "fixed-space"):
        assert checks[name] == (False, "error: |I2(60000)| = 120000 exceeds the bound 100000"), name


@pytest.mark.parametrize("inside, past", [("A8", "A9"), ("B6", "B9"), ("D6", "D9"), ("I2(24)", "I2(83)")])
def test_verify_lists_the_same_checks_on_both_sides_of_the_old_bounds(inside, past):
    """Neither the rank nor the bond drops a check from the report: past the
    old root rank bound 8, the B/D bound 8 and the old dihedral bound 24,
    ``verify`` lists the checks it lists inside them, and fails at once."""
    import time

    from coxeterkit.classify import parse_type_label
    from coxeterkit.verify import run_verification

    names = [name for name, _, _ in run_verification(parse_type_label(inside))]
    start = time.perf_counter()
    checks = run_verification(parse_type_label(past))
    assert time.perf_counter() - start < 2.0
    assert [name for name, _, _ in checks] == names
    assert "root-system-axioms" in names and not all(ok for _, ok, _ in checks)


def test_verify_passes_every_check_past_the_old_dihedral_bound():
    from coxeterkit.classify import TypeLabel
    from coxeterkit.verify import run_verification

    checks = run_verification(TypeLabel("I2", 2, 25))
    assert len(checks) == 11 and [c for c in checks if not c[1]] == []


@pytest.mark.parametrize("argv", [
    ["chartable"],
    ["--max-order", "x", "irreps", "A3"],
    ["no-such-command", "A3"],
    [],
])
def test_usage_errors_exit_1(argv):
    proc = fresh_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and "error: " in proc.stderr


def test_help_exits_0():
    proc = fresh_cli("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ")


# -- the two argv readers ----------------------------------------------------------

ARGV_TOKENS = ["--format", "tsv", "json", "xml", "--float", "--max-order", "24", "-1", "x", "--form",
               "--max-order=6", "-h", "--", *cli.COMMANDS, "A3", "I2(5)", "-A3", ""]
# any sequence of those tokens; or, so that plain argvs and near misses are
# drawn often, options (whole ones, or also an option name with any token, or
# any token), a command and any token
WHOLE_OPTIONS = st.sampled_from([["--format", "tsv"], ["--format", "json"], ["--float"], ["--max-order", "24"]])
ANY_OPTIONS = st.one_of(
    WHOLE_OPTIONS,
    st.tuples(st.sampled_from(["--format", "--max-order", "--form"]), st.sampled_from(ARGV_TOKENS)).map(list),
    st.sampled_from(ARGV_TOKENS).map(lambda token: [token]),
)
ARGVS = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
    *(
        st.builds(
            lambda units, command, arg: [token for unit in units for token in unit] + [command, arg],
            st.lists(options, max_size=4),
            st.sampled_from(list(cli.COMMANDS)),
            st.sampled_from(ARGV_TOKENS),
        )
        for options in (WHOLE_OPTIONS, ANY_OPTIONS)
    ),
)


@settings(max_examples=400, deadline=None)
@given(ARGVS)
def test_the_plain_reader_agrees_with_argparse(argv):
    """Where the direct reader takes an argv, it fills the fields and the
    handler that argparse fills; where argparse exits, it has declined."""
    plain = cli.read_plain(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert plain is None
        return
    if plain is not None:
        assert vars(plain) == vars(parsed)


@pytest.mark.parametrize("argv", [
    ["irreps", "A3"],
    ["--format", "json", "--float", "--max-order", "24", "chartable", "I2(5)"],
    ["--max-order", "6", "--format", "tsv", "--format", "json", "verify", "A3"],
    ["classify", "graph.json"],
    ["irreps", ""],
])
def test_plain_argv_is_read_without_argparse(argv):
    plain = cli.read_plain(argv)
    assert plain is not None and vars(plain) == vars(cli.build_parser().parse_args(argv))
    assert plain.fn is getattr(cli, f"cmd_{argv[-2]}")


@pytest.mark.parametrize("argv", [
    [], ["irreps"], ["-h"], ["irreps", "-h"], ["--form", "json", "irreps", "A3"],
    ["--max-order=6", "irreps", "A3"], ["--", "irreps", "A3"], ["--max-order", "-1", "irreps", "A3"],
    ["--max-order", "x", "irreps", "A3"], ["--format", "xml", "irreps", "A3"], ["irreps", "A3", "A4"],
    ["irreps", "-A3"], ["--format", "irreps", "A3"],
])
def test_other_argv_is_left_to_argparse(argv):
    assert cli.read_plain(argv) is None
