"""One traced CLI job: ``python3 cli_job.py TRACE_OUT ARG...``.

Runs ``coxeterkit.cli.main(ARG...)`` with the span recorder installed, so
stdout and the exit code are those of ``python -m coxeterkit ARG...``.  It
then reruns ``main`` into a StringIO with every layer cache warm, and writes
the per-layer totals, the warm rerun and the spans as JSON to TRACE_OUT.
"""

from __future__ import annotations

import io
import json
import sys
import time

from tracer import Recorder, difference


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    import coxeterkit.cli as cli

    rec = Recorder().install()
    try:
        code = cli.main(cli_args)
        sys.stdout.flush()
        cold = rec.snapshot()
        start = time.perf_counter()
        cli.main(cli_args, out=io.StringIO())
        warm_s = time.perf_counter() - start
        warm = difference(rec.snapshot(), cold)
    finally:
        rec.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"cold": cold, "warm": warm, "warm_s": warm_s, **rec.trace()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
