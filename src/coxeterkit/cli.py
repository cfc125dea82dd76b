"""Command-line front-end.

Commands:
    coxeterkit classify <file>     name the components of a graph JSON file
    coxeterkit chartable <type>    exact character table (TSV or JSON)
    coxeterkit irreps <type>       irreducible labels and dimensions
    coxeterkit realize <type>      order, generators and conjugacy classes
    coxeterkit verify <type>       run the invariant suite for one type

Exit codes: 0 success/finite, 1 input error (a usage error too), 2 not
finite (or failed verification), 3 unsupported type or guard exceeded
(classify takes at most ``catalog.VERTEX_GUARD`` vertices), 4 internal
error (two independent computations disagreed: a bug, not bad input).
When stdout closes before the output is written (e.g. piped into
``head``), the process ends quietly on SIGPIPE, as ``cat`` does: no
traceback, shell status 141.
Output is byte-deterministic for a fixed command and input.

``--max-order N`` bounds the group order |W| for chartable, irreps, realize
and verify alike: a type with |W| > N exits 3 before any work.  Without it,
``realize`` and ``verify`` stop at ``classify.MAX_ORDER`` elements; the
tables and irreps of A_n, B_n, D_n and I2(m) come from closed forms on the
class data, build no group and are bounded by their own guards only.

Start-up: each process is one command, and with no bytecode cache it
compiles every module it loads, so a command loads only its own family's
code.  This module imports only what the package loads anyway
(``classify`` and ``errors``); each command imports the rest inside its own
function.  ``classify`` loads the classifier (``catalog``, with
``certify`` and ``graphs``; not ``linalg``) and never a group module; it adds
``cyclotomic`` only for a bond outside {3, 4, 6, inf} or an irrational
Gram entry on a cycle.  ``irreps`` loads only the dimension module of
the family: ``tableaux`` for A/B/D, ``dihedral`` for I2(m).  ``realize``
adds the group-free ``classes``, with ``permutations`` for A/B/D (the
partitions that index their classes are in ``classify``);
``chartable`` adds ``families`` for A/B/D and ``cyclotomic`` for I2(m).
None of them loads the enumeration engine (``groups``, ``reps``) or the
classifier: only ``verify`` does.

Nor does a plain command line load the standard-library modules it does not
use.  ``main`` reads ``[--format tsv|json] [--float] [--max-order N] COMMAND
ARG`` itself (``read_plain``) and hands any other argv to ``build_parser``,
which imports ``argparse`` and stays the one source of help and usage
errors.  ``fractions`` loads only with a module that computes with
Fractions (the table printer does not), and ``signal`` only after a
write to a closed stdout.  Fresh ``python -X importtime`` runs
(CPython 3.11.7, ``PYTHONDONTWRITEBYTECODE=1``, medians of 15) put what a
plain command skips at about 4 ms: ``argparse`` with ``gettext`` 1.1 ms,
building the parser 1.2 ms more (``locale`` 0.5 ms of it), ``fractions``
with ``decimal`` 1.3 ms (skipped by ``irreps``, ``realize`` and A/B/D tables),
``signal`` 0.4 ms.

Shutdown: ``run`` calls ``gc.freeze()`` just before ``sys.exit``, so the
garbage collection that CPython runs at exit finds nothing to traverse.
It would only free the reference cycles of every loaded module, and of
what the environment's ``site`` loaded, just before the OS frees the whole
heap.  The rest of a normal shutdown still runs: atexit handlers, the
flushes of the standard streams, profilers and coverage.  CPython never
promised to call ``__del__`` for an object still alive at exit, and a
frozen cycle is not collected.  ``main``, which tests and the benchmark's
tracer call in-process, freezes nothing.  Fresh runs (CPython 3.11.7,
``PYTHONDONTWRITEBYTECODE=1``, 2-vCPU x86, best of 21, alternating with
the code before the freeze): ``irreps A4`` 47.3 -> 42.3 ms, ``chartable
I2(12)`` 55.5 -> 50.2 ms, ``verify I2(12)`` 90.0 -> 82.9 ms, ``verify A7``
660 -> 648 ms.  ``realize A6`` 52.3 -> 45.1 ms also compiles no
``tableaux`` any more, about 3 ms of that.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .classify import MAX_ORDER, check_order, classify, parse_type_label
from .errors import (
    GuardError,
    InternalInconsistencyError,
    UnsupportedTypeError,
    ValidationError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_FINITE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _print_table(chars: list, fmt: str, float_mode: bool, out) -> None:
    """Write ClassFunctions on one domain as a character table.

    A value is an int, a Fraction or a Cyclotomic, printed in its exact
    form or as a float of 12 significant digits.
    """
    def text(v) -> str:
        if not float_mode:
            return str(v)
        return f"{v.to_float() if hasattr(v, 'to_float') else float(v):.12g}"

    classes = chars[0].domain.classes
    reps = [rep.text() for rep in classes.reps]
    if fmt == "json":
        import json

        data = {
            "classes": [
                {"representative": rep, "size": size} for rep, size in zip(reps, classes.sizes)
            ],
            "rows": [
                {"label": c.name or "", "values": [text(v) for v in c.values]} for c in chars
            ],
        }
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
        return
    headers = [f"{rep} [{size}]" for rep, size in zip(reps, classes.sizes)]
    out.write("\t".join(["irrep"] + headers) + "\n")
    for c in chars:
        out.write("\t".join([c.name or ""] + [text(v) for v in c.values]) + "\n")


def cmd_classify(args, out) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        out.write(f"error: {e}\n")
        return EXIT_INPUT
    from .graphs import parse_graph_json

    graph = parse_graph_json(text)
    result = classify(graph)
    if args.format == "json":
        import json

        data = {
            "finite": result.is_finite,
            "components": [
                {
                    "vertices": list(c.vertices),
                    "type": str(c.label) if c.label else None,
                    "witness": str(c.witness) if c.witness else None,
                }
                for c in result.components
            ],
        }
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        out.write(str(result) + "\n")
    return EXIT_OK if result.is_finite else EXIT_NOT_FINITE


def _type_and_budget(args) -> tuple:
    """The command's type label and group-order budget, checked up front.

    The exceptional types have no order formula here; they keep each
    command's own answer.
    """
    label = parse_type_label(args.type)
    if args.max_order is None:
        return label, MAX_ORDER
    if label.family in ("A", "B", "D", "I2"):
        check_order(label, args.max_order)
    return label, args.max_order


def cmd_chartable(args, out) -> int:
    label, _ = _type_and_budget(args)
    from .classes import irreducible_characters

    chars = irreducible_characters(label)
    _print_table(chars, args.format, args.float, out)
    return EXIT_OK


def cmd_irreps(args, out) -> int:
    label, _ = _type_and_budget(args)
    rows: list[tuple[str, int]] = []
    if label.family == "A":
        from .tableaux import hook_dimension, partition_text, partitions_of

        n = label.rank + 1
        rows = [(partition_text(s), hook_dimension(s)) for s in partitions_of(n)]
    elif label.family == "B":
        from .tableaux import hyperoctahedral_dimensions

        rows = [(str(lbl), d) for lbl, d in hyperoctahedral_dimensions(label.rank)]
    elif label.family == "D":
        from .tableaux import dn_dimensions

        rows = [(str(lbl), d) for lbl, d in dn_dimensions(label.rank)]
    elif label.family == "I2":
        from .dihedral import dihedral_dimensions

        rows = dihedral_dimensions(label.bond)
    else:
        raise UnsupportedTypeError(f"irreducibles of {label} are out of scope")
    if args.format == "json":
        import json

        out.write(
            json.dumps(
                {"irreps": [{"label": l, "dim": d} for l, d in rows]},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    else:
        for l, d in rows:
            out.write(f"{l}\t{d}\n")
    return EXIT_OK


def cmd_realize(args, out) -> int:
    label, max_order = _type_and_budget(args)
    from .classes import class_data, coxeter_generators

    check_order(label, max_order)  # raises UnsupportedTypeError for E/F/H
    group, generators = class_data(label), coxeter_generators(label)
    classes = group.classes
    if args.format == "json":
        import json

        data = {
            "type": str(label),
            "order": group.order,
            "generators": [g.text() for g in generators],
            "classes": [
                {"representative": rep.text(), "size": size}
                for rep, size in zip(classes.reps, classes.sizes)
            ],
        }
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
        return EXIT_OK
    out.write(f"type\t{label}\n")
    out.write(f"order\t{group.order}\n")
    for i, g in enumerate(generators):
        out.write(f"generator {i}\t{g.text()}\n")
    out.write(f"classes\t{classes.count}\n")
    for rep, size in zip(classes.reps, classes.sizes):
        out.write(f"class\t{rep.text()}\t{size}\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    label, max_order = _type_and_budget(args)
    from .verify import run_verification

    checks = run_verification(label, max_order)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        out.write(f"{status}\t{name}\t{detail}\n")
    return EXIT_OK if failed == 0 else EXIT_NOT_FINITE


FORMATS = ("tsv", "json")
# command -> (the name of its one argument, its help text).  The handler is
# ``cmd_<command>``, looked up when ``main`` runs, so that a handler put in
# its place (by a test, or by a tracer that wraps the module) is the one run.
COMMANDS = {
    "classify": ("path", "classify a graph JSON file"),
    "chartable": ("type", "exact character table of a type"),
    "irreps": ("type", "irreducible labels and dimensions"),
    "realize": ("type", "order, generators and conjugacy classes"),
    "verify": ("type", "run the invariant suite for a type"),
}


def _handler(command: str):
    return globals()[f"cmd_{command}"]


def build_parser():
    """The ``argparse.ArgumentParser`` of the CLI: its help, its usage errors,
    and every command line that ``read_plain`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="coxeterkit",
        description="Classify Coxeter graphs and compute exact character tables "
        "for the infinite families A, B, D and I2.",
    )
    parser.add_argument("--format", choices=FORMATS, default="tsv", help="output format")
    parser.add_argument(
        "--float",
        action="store_true",
        help="print numeric values as floats (12 significant digits) instead of exact forms",
    )
    parser.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="bound on the group order |W| for chartable, irreps, realize and verify "
        f"(default: groups are built up to {MAX_ORDER} elements)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (arg, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument(arg)
        p.set_defaults(fn=_handler(command))
    return parser


def read_plain(argv):
    """The fields ``build_parser().parse_args(argv)`` fills, for a plain argv.

    A plain argv is ``[--format tsv|json] [--float] [--max-order N] COMMAND
    ARG``, each option its own token, in any order and repeated at will (the
    last one counts), with no value and no ARG that starts with ``-``.
    Returns None for any other argv, which argparse reads instead: help,
    ``--opt=value``, an abbreviated option, ``--``, a bad value, a missing or
    extra argument.
    """
    if len(argv) < 2 or argv[-2] not in COMMANDS or argv[-1].startswith("-"):
        return None
    fields = {"format": "tsv", "float": False, "max_order": None}
    options = iter(argv[:-2])
    for option in options:
        if option == "--float":
            fields["float"] = True
            continue
        value = next(options, "-")
        if value.startswith("-"):
            return None
        if option == "--format" and value in FORMATS:
            fields["format"] = value
        elif option == "--max-order":
            try:
                fields["max_order"] = int(value)
            except ValueError:
                return None
        else:
            return None
    command = argv[-2]
    fields[COMMANDS[command][0]] = argv[-1]
    return SimpleNamespace(command=command, fn=_handler(command), **fields)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            if e.code != 2:  # --help exits 0
                raise
            return EXIT_INPUT  # a usage error; argparse has written it to stderr
    try:
        return args.fn(args, out)
    except (UnsupportedTypeError, GuardError) as e:
        out.write(f"unsupported: {e}\n")
        return EXIT_UNSUPPORTED
    except ValidationError as e:
        out.write(f"error: {e}\n")
        return EXIT_INPUT
    except InternalInconsistencyError as e:
        out.write(f"internal error: {e}\n")
        return EXIT_INTERNAL


def run() -> None:
    """Process entry point: ``python -m coxeterkit`` and the console script.

    A stdout closed early (piped into ``head``, say) ends the process on
    SIGPIPE, as ``cat`` ends: no traceback, shell status 141.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        import os
        import signal

        if hasattr(signal, "SIGPIPE"):
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGPIPE)  # ends the process here
        raise
    gc.freeze()  # the exit-time collection would only free what the OS frees anyway
    sys.exit(code)


if __name__ == "__main__":
    run()
