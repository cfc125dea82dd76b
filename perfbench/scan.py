"""classify-scan worker: ``python3 scan.py CORPUS SECONDS TRACE [TRACE_OUT]``.

One long-lived process parses and classifies every graph of CORPUS (a JSON
list from ``workloads.scan_corpus``) through the public API, pass after
pass, for about SECONDS.  Each pass prints one JSON line: its wall time,
each graph's wall and CPU time, samples of the host-speed kernel, the
verdicts and, with TRACE=1, the per-layer totals.  With TRACE=1 untraced
and traced passes alternate, so their difference is the tracing overhead.
TRACE_OUT receives the spans of the last traced pass.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import hostspeed
from run import keep_going
from tracer import Recorder

KERNEL_EVERY = 5  # graphs per sample of the host-speed kernel


def run_pass(corpus_texts, parse, classify) -> dict:
    job_s, job_cpu_s, kernel_s, verdicts = [], [], [], []
    wall0 = time.perf_counter()
    for i, text in enumerate(corpus_texts):
        if i % KERNEL_EVERY == 0:
            kernel_s.append(hostspeed.kernel_s())
        t, cpu = time.perf_counter(), time.process_time()
        try:
            result = classify(parse(text))
            verdict = [[list(c.vertices), str(c.label) if c.label is not None else None]
                       for c in result.components]
        except Exception as e:  # a wrong answer of the program, reported as a failed job
            verdict = f"error: {type(e).__name__}: {e}"
        job_s.append(time.perf_counter() - t)
        job_cpu_s.append(time.process_time() - cpu)
        verdicts.append(verdict)
    return {"wall_s": time.perf_counter() - wall0, "job_s": job_s, "job_cpu_s": job_cpu_s,
            "kernel_s": kernel_s, "verdicts": verdicts}


def main(argv: list[str]) -> int:
    corpus_path, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(corpus_path, encoding="utf-8") as fh:
        texts = [json.dumps(item["graph"]) for item in json.load(fh)]
    import coxeterkit

    start, passes, rec = time.perf_counter(), [], None
    for i in itertools.count():
        traced = trace and i % 2 == 1
        if traced:
            rec = Recorder().install()
        try:
            # Look the functions up per pass, so the traced passes see the wrappers.
            out = run_pass(texts, coxeterkit.parse_graph_json, coxeterkit.classify)
        finally:
            if traced:
                rec.uninstall()
        out["traced"] = traced
        if traced:
            out["layers"] = rec.snapshot()
        print(json.dumps(out), flush=True)
        passes.append({"traced": traced, "wall_s": out["wall_s"]})
        if traced == trace and not keep_going(start, seconds, passes):
            break
    if rec is not None and len(argv) > 3:
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump(rec.trace(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
