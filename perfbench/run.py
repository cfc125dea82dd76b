"""coxeterkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/coxeterkit`` and
``BENCHMARK.json``).  Jobs run one at a time in a closed loop with one
client.  The run sets up (times a fresh import of the CLI several times),
then runs whole passes over the workload's job list for about S seconds,
checks every output, and prints every metric with its unit, an environment
stamp and, as the last line, one JSON result.  With ``--trace 0`` the result
holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced
and traced passes alternate, and the result holds the per-layer metrics.
The exit code is 1 if a job failed the correctness gate and 2 if the
checkout has no ``src/coxeterkit``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import oracle
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 7
JOB_DEADLINE_S = 60.0
PROBE_DEADLINE_S = 2.5
PROBE_MEMORY_BYTES = 1 << 30
SELF_TIME_LAYERS = ("groups", "specht", "reps", "families", "cyclotomic", "roots",
                    "linalg", "classify", "graphs", "verify")


class Run:
    """Paths and environment of one benchmark run in a checkout."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.trace_path = root / ".perfbench" / f"trace-{workload}-{seed}.json"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, argv, timeout, memory_bytes=None):
        """Run a child to completion: (exit code or None on timeout, stdout, wall seconds)."""
        limit = None
        if memory_bytes:
            def limit():
                resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
        start = time.perf_counter()
        try:
            p = subprocess.run(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=limit)
        except subprocess.TimeoutExpired:
            return None, b"", time.perf_counter() - start
        return p.returncode, p.stdout, time.perf_counter() - start

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure_setup(run: Run) -> float:
    """Median time for a fresh interpreter to import coxeterkit and build the
    CLI parser, in reference seconds."""
    argv = [sys.executable, "-c", "import coxeterkit.cli as c; c.build_parser()"]
    run.child(argv, JOB_DEADLINE_S)  # writes the bytecode cache, as an installed package has it
    times, kernel = [], []
    for _ in range(SETUP_RUNS):
        kernel.append(run.child(hostspeed.SPAWN_ARGV, JOB_DEADLINE_S)[2])
        code, _, dt = run.child(argv, JOB_DEADLINE_S)
        if code != 0:
            raise SystemExit("setup failed: coxeterkit.cli does not import")
        times.append(dt)
    return statistics.median(times) * hostspeed.REFERENCE_SPAWN_S / statistics.median(kernel)


def keep_going(start: float, seconds: float, passes: list[dict]) -> bool:
    """Start another pass (with tracing, another untraced and traced pair) only
    if it should end within the run's time."""
    need = sum(statistics.median(p["wall_s"] for p in passes if p["traced"] == traced)
               for traced in {p["traced"] for p in passes})
    return time.perf_counter() - start + need <= seconds


# -- layer metrics ------------------------------------------------------------------


def layer_metrics(self_s: dict, counts: dict, maxima: dict, cli_self_s: float) -> dict:
    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    m["cli.self_s"] = cli_self_s
    hits, misses = counts.get("groups.realize_hits", 0), counts.get("groups.realize_misses", 0)
    comps = counts.get("classify.components", 0)
    m.update({
        "groups.products": counts.get("groups.products", 0),
        "groups.elements": counts.get("groups.elements", 0),
        "groups.realize_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "specht.modules": counts.get("specht.modules_misses", 0),
        "reps.induce_calls": counts.get("reps.induce_calls", 0),
        "reps.inner_products": counts.get("reps.inner_products", 0),
        "cyclotomic.mul_calls": counts.get("cyclotomic.mul_calls", 0),
        "cyclotomic.inverse_calls": counts.get("cyclotomic.inverse_calls", 0),
        "cyclotomic.zero_tests": counts.get("cyclotomic.zero_tests", 0),
        "cyclotomic.max_conductor": maxima.get("cyclotomic.max_conductor", 0),
        "roots.roots": counts.get("roots.roots", 0),
        "linalg.determinants": counts.get("linalg.determinants", 0),
        "linalg.max_dim": maxima.get("linalg.max_dim", 0),
        "classify.minor_passes_per_component":
            counts.get("classify.minor_passes", 0) / comps if comps else 0.0,
    })
    return m


def add_into(total: dict, part: dict) -> None:
    for kind in ("self_s", "counts"):
        for k, v in part[kind].items():
            total[kind][k] = total[kind].get(k, 0) + v
    for k, v in part["maxima"].items():
        total["maxima"][k] = max(total["maxima"].get(k, 0), v)


# -- table workloads ------------------------------------------------------------


def table_pass(run: Run, jobs, goldens: dict, traced: bool) -> dict:
    """One pass over the job list; each job is a fresh CLI process."""
    job_s, job_cpu_s, kernel_s, failures, traces = [], [], [], [], []
    totals = {"self_s": {}, "counts": {}, "maxima": {}}
    cli_self_s = warm_s = 0.0
    wall0 = time.perf_counter()
    for i, (cmd, type_text, fmt) in enumerate(jobs):
        args = ["--format", fmt, cmd, type_text]
        trace_file = run.work / f"job-{i}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "cli_job.py"), str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "coxeterkit", *args]
        kernel_s.append(hostspeed.kernel_s())
        cpu = children_cpu_s()
        code, out, dt = run.child(argv, JOB_DEADLINE_S)
        job_cpu_s.append(children_cpu_s() - cpu)
        key = workloads.job_key(cmd, type_text, fmt)
        want = goldens.get(key)
        if want is None or code != want["exit"] or hashlib.sha256(out).hexdigest() != want["sha256"]:
            failures.append(f"{key}: exit {code}, stdout differs from the golden"
                            if want else f"{key}: no golden recorded")
        if traced and trace_file.exists():
            data = json.loads(trace_file.read_text())
            trace_file.unlink()
            add_into(totals, data["cold"])
            cli_self_s += data["warm"]["self_s"].get("cli", 0.0)
            # The warm rerun measures cli.self_s; it is not tracing overhead.
            dt -= data["warm_s"]
            warm_s += data["warm_s"]
            traces.append({"job": key, "spans": data["spans"], "aggregated": data["aggregated"]})
        job_s.append(dt)
    out = {"wall_s": time.perf_counter() - wall0 - warm_s, "job_s": job_s, "job_cpu_s": job_cpu_s, "kernel_s": kernel_s,
           "failures": failures, "attempted": len(jobs)}
    if traced:
        out["layers"] = layer_metrics(totals["self_s"], totals["counts"], totals["maxima"], cli_self_s)
        out["trace"] = traces
    return out


def run_tables(run: Run, workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
    jobs = workloads.table_jobs(workload, seed)
    passes, start = [], time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(table_pass(run, jobs, goldens, traced))
        passes[-1]["traced"] = traced
        if traced == trace and not keep_going(start, seconds, passes):
            return passes


# -- classify-scan ------------------------------------------------------------------


def run_scan(run: Run, seed: int, seconds: float, trace: bool) -> list[dict]:
    corpus = workloads.scan_corpus(seed)
    expected = [oracle.expected_verdict(item) for item in corpus]
    corpus_path = run.work / "corpus.json"
    corpus_path.write_text(json.dumps(corpus))
    spans_path = run.work / "spans.json"
    argv = [sys.executable, str(BENCH_DIR / "scan.py"), str(corpus_path), str(seconds),
            "1" if trace else "0", str(spans_path)]
    code, out, _ = run.child(argv, timeout=seconds + 120)
    passes = [json.loads(line) for line in out.decode().splitlines() if line.strip()]
    if code != 0 or not passes:
        raise SystemExit(f"classify-scan worker failed with exit code {code}")
    for p in passes:
        p["attempted"] = len(corpus)
        p["failures"] = [
            f"graph {i} ({corpus[i]['kind']}): {json.dumps(corpus[i]['graph'])} gave {got}"
            for i, got in enumerate(p.pop("verdicts"))
            if isinstance(got, str) or not oracle.verdict_matches(expected[i], got)
        ]
        if p["traced"]:
            layers = p["layers"]
            p["layers"] = layer_metrics(layers["self_s"], layers["counts"], layers["maxima"], 0.0)
    if spans_path.exists():
        passes[-1]["trace"] = [{"job": "classify-scan", **json.loads(spans_path.read_text())}]
    return passes


def run_probes(run: Run) -> list[tuple[str, bool, str]]:
    """The known-defect probes, each a CLI process under a deadline and a memory cap."""
    results = []
    for name, graph, want_code, want_prefix in workloads.PROBES:
        path = run.work / f"probe-{name}.json"
        path.write_text(json.dumps(graph))
        argv = [sys.executable, "-m", "coxeterkit", "classify", str(path)]
        code, out, dt = run.child(argv, PROBE_DEADLINE_S, PROBE_MEMORY_BYTES)
        ok = code == 3 or (code == want_code and out.decode(errors="replace").startswith(want_prefix))
        status = "timeout" if code is None else f"exit {code}"
        results.append((name, ok, f"{status} after {dt:.2f} s"))
    return results


# -- report ---------------------------------------------------------------------------


def environment(root: Path, args, load_start) -> dict:
    commit = None  # a checkout without git history reports only src_sha256
    if (root / ".git").exists() and shutil.which("git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((root / "src" / "coxeterkit").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def end_to_end(untraced: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    """Timings from each job's fastest pass, in reference seconds; a pass is
    the sum of its jobs.

    Other tenants of the shared host slow a job by up to 40% for a second or
    so at a time.  The fastest of several passes spread over the run tracks
    the work a job needs; a median over passes still follows the load.
    Slower drifts of the host's speed are taken out by ``hostspeed``.
    """
    scale = hostspeed.scale([p["kernel_s"] for p in untraced])
    job_s = [scale * min(t) for t in zip(*(p["job_s"] for p in untraced))]
    job_cpu_s = [scale * min(t) for t in zip(*(p["job_cpu_s"] for p in untraced))]
    return {
        "setup_s": setup_s,
        "wall_s": sum(job_s),
        "cpu_s": sum(job_cpu_s),
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": p90(job_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes: list[dict], fail_ratio: float) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = end_to_end(traced, 0, 0)["wall_s"] - end_to_end(untraced, 0, 0)["wall_s"]
    out["fail_ratio"] = fail_ratio
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coxeterkit" / "__init__.py").is_file():
        print("error: run from a checkout of coxeterkit; src/coxeterkit is missing", file=sys.stderr)
        return 2
    # One CPU for the benchmark, the jobs (children inherit it) and the
    # calibration kernel, so that all of them see the same host load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = json.loads((root / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()
    run = Run(root, args.workload, args.seed)
    try:
        setup_s = measure_setup(run)
        if args.workload == "classify-scan":
            passes = run_scan(run, args.seed, args.seconds, bool(args.trace))
        else:
            passes = run_tables(run, args.workload, args.seed, args.seconds, bool(args.trace))
        peak_rss_mb = children_peak_rss_mb()  # before the probes, which may hit their memory cap
        probes = run_probes(run) if args.workload == "classify-scan" else []
    finally:
        run.close()

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    probe_failed = sum(not ok for _, ok, _ in probes)
    fail_ratio = (len(failures) + probe_failed) / (attempted + len(probes))
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values = per_layer(passes, fail_ratio)
        specs = bench["per_layer"]
        trace_out = [t for p in passes for t in p.get("trace", [])]
        run.trace_path.write_text(json.dumps(trace_out))
    else:
        values = end_to_end(untraced, setup_s, peak_rss_mb)
        specs = bench["end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    for f in failures:
        print(f"FAILED {f}")
    for name, ok, detail in probes:
        print(f"probe {name}: {'pass' if ok else 'fail (known defect)'}, {detail}")
    print("pass wall_s " + " ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}" for p in passes)
          + f" (measured); reference seconds = measured x {hostspeed.scale([p['kernel_s'] for p in untraced]):.4f}")
    print(f"passes {len(untraced)} untraced, {len(passes) - len(untraced)} traced; "
          f"{attempted} jobs, {len(failures)} failed; fail_ratio {fail_ratio:.4f} "
          f"(known-defect probes included)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(environment(root, args, load_start), sort_keys=True))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
