"""Seeded inputs of the three benchmark workloads.

Every function here is a pure function of its seed: the same seed gives the
same job list, corpus and probe set.  A seed changes which inputs are drawn
(output format, job order, dihedral bonds, graphs), never how many.

The draws are stratified so that one pass costs about the same for every
seed; otherwise the spread across seeds would hide the changes the benchmark
is meant to show.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables-perm", "tables-dihedral", "classify-scan")
FORMATS = ("tsv", "json")

# tables-perm: one fresh CLI process per job.  Small A/B types run every
# command; A5, B4 and D4 run the cheap ones, because their tables take 3-12 s
# each (the D4 ones 4-5 s, for the D-split commutant nullspace) and would
# leave too few passes in a run; realize A6 is the larger enumeration (720
# elements) with its conjugacy classes.
PERM_JOBS = (
    [(cmd, t) for t in ("A3", "A4", "B3") for cmd in ("chartable", "irreps", "realize", "verify")]
    + [(cmd, t) for t in ("A5", "B4") for cmd in ("irreps", "realize")]
    + [("realize", "D4"), ("realize", "A6")]
)

# tables-dihedral: m for the cheap commands is drawn from 5..24, half prime
# and half composite.  verify costs grow steeply with m (0.2 s at m=5, 9 s at
# m=15), so its m comes from {11, 12}: a prime and a composite that cost the
# same to within 8%, which keeps a pass steady across seeds.  A larger
# verify would leave too few passes in a run for a steady time of its own.
DIHEDRAL_PRIMES = (5, 7, 11, 13, 17, 19, 23)
DIHEDRAL_COMPOSITES = (6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24)
DIHEDRAL_VERIFY = (11, 12)
DIHEDRAL_DRAWS = 2  # primes and composites each, for chartable/irreps/realize


def perm_jobs(seed: int) -> list[tuple[str, str, str]]:
    """(command, type, format) triples of one tables-perm pass."""
    rng = random.Random(f"tables-perm:{seed}")
    jobs = [(cmd, t, rng.choice(FORMATS)) for cmd, t in PERM_JOBS]
    rng.shuffle(jobs)
    return jobs


def dihedral_jobs(seed: int) -> list[tuple[str, str, str]]:
    """(command, type, format) triples of one tables-dihedral pass."""
    rng = random.Random(f"tables-dihedral:{seed}")
    ms = rng.sample(DIHEDRAL_PRIMES, DIHEDRAL_DRAWS) + rng.sample(DIHEDRAL_COMPOSITES, DIHEDRAL_DRAWS)
    jobs = [(cmd, f"I2({m})", rng.choice(FORMATS)) for m in ms for cmd in ("chartable", "irreps", "realize")]
    jobs.append(("verify", f"I2({rng.choice(DIHEDRAL_VERIFY)})", rng.choice(FORMATS)))
    rng.shuffle(jobs)
    return jobs


def table_jobs(workload: str, seed: int) -> list[tuple[str, str, str]]:
    if workload == "tables-perm":
        return perm_jobs(seed)
    if workload == "tables-dihedral":
        return dihedral_jobs(seed)
    raise ValueError(f"{workload} is not a table workload")


def table_sample_space() -> list[tuple[str, str, str]]:
    """Every (command, type, format) a table workload can draw."""
    pairs = list(PERM_JOBS)
    for m in sorted(DIHEDRAL_PRIMES + DIHEDRAL_COMPOSITES):
        pairs += [(cmd, f"I2({m})") for cmd in ("chartable", "irreps", "realize")]
    pairs += [("verify", f"I2({m})") for m in DIHEDRAL_VERIFY]
    return [(cmd, t, fmt) for cmd, t in pairs for fmt in FORMATS]


def job_key(cmd: str, type_text: str, fmt: str) -> str:
    return f"{cmd} {type_text} {fmt}"


# -- classify-scan corpus -------------------------------------------------------
#
# A graph is stored in the CLI's JSON form ({"n", "edges"}, label 0 meaning
# infinity) together with what the oracle needs to check its verdict.

INF = 0


def _path(n, labels):
    return [(i, i + 1, m) for i, m in enumerate(labels)]


def catalog_piece(name: str) -> tuple[int, list]:
    """Graph of a finite type, built here independently of coxeterkit."""
    fam, rest = name[0], name[1:]
    if name.startswith("I2("):
        return 2, [(0, 1, int(name[3:-1]))]
    n = int(rest)
    if fam == "A":
        return n, _path(n, [3] * (n - 1))
    if fam == "B":
        return n, _path(n, [4] + [3] * (n - 2))
    if fam == "D":
        return n, [(0, 2, 3), (1, 2, 3)] + [(i, i + 1, 3) for i in range(2, n - 1)]
    if fam == "E":
        return n, _path(n - 1, [3] * (n - 2)) + [(2, n - 1, 3)]
    if fam == "F":
        return 4, _path(4, [3, 4, 3])
    if fam == "H":
        return n, _path(n, [5] + [3] * (n - 2))
    raise ValueError(name)


UNION_PIECES = (
    "A1", "A2", "A4", "A6", "B2", "B3", "B5", "D4", "D5", "D6", "E6", "E7", "E8",
    "F4", "H3", "H4", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(10)", "I2(12)",
)


def affine_piece(name: str) -> tuple[int, list]:
    """Connected determinant-zero graph, built here independently of coxeterkit."""
    fam, n = name[0], int(name[2:])
    if fam == "A":
        if n == 1:
            return 2, [(0, 1, INF)]
        return n + 1, [(i, (i + 1) % (n + 1), 3) for i in range(n + 1)]
    if fam == "B":
        return n + 1, [(0, 2, 3), (1, 2, 3)] + [(i, i + 1, 3) for i in range(2, n - 1)] + [(n - 1, n, 4)]
    if fam == "C":
        return n + 1, _path(n + 1, [4] + [3] * (n - 2) + [4])
    if fam == "D":
        return n + 1, [(0, 2, 3), (1, 2, 3)] + [(i, i + 1, 3) for i in range(2, n - 2)] + [
            (n - 2, n - 1, 3), (n - 2, n, 3)]
    if fam == "E":
        arms = {6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}[n]
        edges, nxt = [], 1
        for length in arms:
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt, 3))
                prev, nxt = nxt, nxt + 1
        return n + 1, edges
    if fam == "F":
        return 5, _path(5, [3, 3, 4, 3])
    if fam == "G":
        return 3, _path(3, [3, 6])
    raise ValueError(name)


AFFINE_PIECES = (
    "A~1", "A~2", "A~3", "A~5", "B~3", "B~4", "C~2", "C~3", "D~4", "D~5",
    "E~6", "E~7", "E~8", "F~4", "G~2",
)

# Random graphs are stratified by rank and by the multiset of bond labels
# (2, the absent bond, is implicit); only the placement and the vertex order
# are random.  The heavy labels 4, 5 and 6 fix the cyclotomic conductor (8,
# 10, 12 and their lcm, up to 120), which sets the cost of the Gram minors.
# The cost of one graph still varies a lot with its vertex order (a
# coefficient of variation of 0.5-1 for rank 5-6 with mixed heavy labels),
# so those strata are few: enough for the heavy tail, too few to make a
# pass's cost depend on the seed.
RANDOM_STRATA = (
    # (rank, labels, graphs per pass)
    (3, (3, 4), 14), (3, (3, 3, INF), 14), (3, (5, 6), 28), (3, (4, 5, 6), 11),
    (4, (3, 4, 3), 14), (4, (5, 3, INF), 14), (4, (4, 6, 3, INF), 21), (4, (4, 5, 6), 21),
    (5, (3, 4, 3, 5), 7), (5, (4, 5, 6, 3), 2), (5, (5, 6, 3, 3, INF), 2),
    (6, (3, 3, 4, 3, 6), 28), (6, (4, 5, 3, 3, INF, 3), 2), (6, (5, 6, 3, 3, 3, INF), 2),
)
UNION_GRAPHS = 100
AFFINE_GRAPHS = 70


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [[perm[i], perm[j], m] for i, j, m in edges]


def _random_connected(rng, n, labels):
    """Random connected graph on n vertices carrying exactly these labels."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
    chosen = {tuple(sorted(p)) for p in pairs}
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen]
    rng.shuffle(free)
    chosen = sorted(chosen) + free[: len(labels) - len(chosen)]
    rng.shuffle(chosen)
    shuffled = list(labels)
    rng.shuffle(shuffled)
    return [[i, j, m] for (i, j), m in zip(chosen, shuffled)]


def _union(rng, names, kinds):
    """Disjoint union of named pieces under a random vertex permutation.

    Returns the graph and its expected components as (vertices, label or
    None for an affine-containing piece).
    """
    n, edges, parts = 0, [], []
    for name, kind in zip(names, kinds):
        k, piece = (affine_piece if kind == "affine" else catalog_piece)(name)
        if kind == "affine":
            # Attach a pendant vertex by a 3-bond: the affine graph stays an
            # induced subgraph, so the component is not of finite type.
            piece = piece + [(rng.randrange(k), k, 3)]
            k += 1
        edges += [(i + n, j + n, m) for i, j, m in piece]
        parts.append((list(range(n, n + k)), None if kind == "affine" else name))
        n += k
    perm, edges = _relabel(rng, n, edges)
    expected = sorted((sorted(perm[v] for v in vs), label) for vs, label in parts)
    return {"n": n, "edges": edges}, expected


def scan_corpus(seed: int) -> list[dict]:
    """The graphs of one classify-scan pass, in scan order.

    Each item has "graph" (CLI JSON form), "kind" and, for graphs built from
    known pieces, "expected": [[vertices, label or null], ...].
    """
    rng = random.Random(f"classify-scan:{seed}")
    items = []
    for rank, labels, count in RANDOM_STRATA:
        for _ in range(count):
            items.append({"kind": "random", "graph": {"n": rank, "edges": _random_connected(rng, rank, labels)}})
    for _ in range(UNION_GRAPHS):
        names = rng.sample(UNION_PIECES, rng.choice((2, 3)))
        graph, expected = _union(rng, names, ["finite"] * len(names))
        items.append({"kind": "union", "graph": graph, "expected": expected})
    for _ in range(AFFINE_GRAPHS):
        names = [rng.choice(AFFINE_PIECES), rng.choice(UNION_PIECES)]
        graph, expected = _union(rng, names, ["affine", "finite"])
        items.append({"kind": "affine", "graph": graph, "expected": expected})
    rng.shuffle(items)
    return items


# Known defects: inputs that hang or blow up at the time the benchmark was
# written.  Each runs as its own CLI process under a deadline and a memory
# cap.  A probe passes when it exits 3 (a clean guard exit) in time, or with
# the expected exit code and the expected start of stdout.
PROBES = (
    # (name, graph, exit code, stdout prefix)
    ("path-5-7-11-5", {"n": 5, "edges": [[0, 1, 5], [1, 2, 7], [2, 3, 11], [3, 4, 5]]}, 2, "NotFinite"),
    ("edge-10007", {"n": 2, "edges": [[0, 1, 10007]]}, 0, "I2(10007)"),
    ("n-100000000", {"n": 100000000}, 0, "A1 + A1"),
)
