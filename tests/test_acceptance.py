"""Acceptance criteria, one test per criterion, each printing a PASS line.

All assertions are exact (no tolerances) except the wall-clock bound in
criterion 1 and the float cross-checks that are explicitly part of the
arithmetic layer's contract.  Run with -s to see the report lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from coxeterkit.catalog import affine_catalog, catalog_graph, is_positive_definite
from coxeterkit.classes import ClassFunction
from coxeterkit.classify import TypeLabel, classify, coxeter_group_order
from coxeterkit.cyclotomic import Cyclotomic
from coxeterkit.dihedral import dihedral_irreducibles
from coxeterkit.families import (
    BipartitionLabel,
    dn_irreducibles,
    hyperoctahedral_irreducibles,
    symmetric_character_table,
)
from coxeterkit.graphs import gram_matrix, subgraph
from coxeterkit.groups import element_order, realize
from coxeterkit.linalg import is_zero_scalar, sign
from coxeterkit.reps import (
    Subgroup,
    decompose,
    induce_character,
    inner_product,
    natural_representation,
    restrict_character,
    tensor_decompose,
    trivial_character,
)
from coxeterkit.specht import specht_module
from coxeterkit.tableaux import (
    hook_dimension,
    hook_lengths,
    hook_product,
    partitions_of,
    symmetric_character_value,
)
from test_oracles import dense_leading_minors


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def criterion_one_labels():
    labels = [TypeLabel("A", n) for n in range(1, 10)]
    labels += [TypeLabel("B", n) for n in range(2, 9)]
    labels += [TypeLabel("D", n) for n in range(4, 9)]
    labels += [TypeLabel("E", n) for n in (6, 7, 8)]
    labels += [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
    labels += [TypeLabel("I2", 2, 5)]
    labels += [TypeLabel("I2", 2, m) for m in range(7, 13)]
    return labels


def test_criterion_01_classification_roundtrip():
    labels = criterion_one_labels()
    start = time.perf_counter()
    for t in labels:
        res = classify(catalog_graph(t))
        assert res.is_finite and res.labels() == [t], str(t)
    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"round-trip on {len(labels)} catalog graphs in {elapsed:.3f}s")


def test_criterion_02_affine_rejection():
    catalog = affine_catalog(8)
    for name, graph in catalog:
        *proper, det = dense_leading_minors(gram_matrix(graph))
        assert is_zero_scalar(det), name
        assert all(sign(x) > 0 for x in proper), name
        assert not is_positive_definite(graph)[0], name
    report(2, True, f"all {len(catalog)} affine graphs have det exactly 0 and fail positivity")


def test_criterion_03_subgraph_closure():
    labels = [t for t in criterion_one_labels() if t.rank <= 8]
    checked = 0
    for t in labels:
        g = catalog_graph(t)
        for v in range(g.n):
            if g.n > 1:
                assert classify(subgraph(g, remove_vertices=[v])).is_finite, (t, v)
                checked += 1
        for (i, j), m in g.labels.items():
            for new in range(2, m):
                lowered = subgraph(g, lower_labels={(i, j): new})
                assert classify(lowered).is_finite, (t, (i, j), new)
                checked += 1
    report(3, True, f"{checked} single-step subgraphs all classify as finite")


def test_criterion_04_group_orders():
    cases = []
    cases += [(TypeLabel("A", n), math.factorial(n + 1)) for n in range(1, 6)]
    cases += [(TypeLabel("B", n), 2 ** n * math.factorial(n)) for n in range(2, 5)]
    cases += [(TypeLabel("D", 4), 192)]
    cases += [(TypeLabel("I2", 2, m), 2 * m) for m in range(3, 13)]
    for label, want in cases:
        got = len(realize(label).elements)
        assert got == want == coxeter_group_order(label), (str(label), got, want)
    report(4, True, f"enumerated orders match the formulas for {len(cases)} groups")


def test_criterion_05_presentations():
    labels = [TypeLabel("A", 5), TypeLabel("B", 4), TypeLabel("D", 4), TypeLabel("I2", 2, 12)]
    pairs = 0
    for label in labels:
        group = realize(label)
        gens = group.generators
        for i in range(len(gens)):
            for j in range(i, len(gens)):
                m = group.graph.label(i, j)
                assert element_order(gens[i] * gens[j]) == m, (str(label), i, j)
                pairs += 1
        group.word_dag()  # generators generate the whole group
    report(5, True, f"orders of s_i s_j match the graph for {pairs} generator pairs")


def test_criterion_06_s3_worked_example():
    table = symmetric_character_table(3)
    std = table[list(partitions_of(3)).index((2, 1))]
    group = std.domain
    # class order: identity, transpositions, 3-cycles
    assert [rep.cycle_type() for rep in group.classes.reps] == [(1, 1, 1), (2, 1), (3,)]
    assert list(std.values) == [Fraction(2), Fraction(0), Fraction(-1)]
    assert inner_product(std, std) == 1
    report(6, True, "two-dimensional character of S3 is (2, 0, -1) with norm 1")


def test_criterion_07_hook_agreement_small_n():
    for n in range(2, 7):
        for shape in partitions_of(n):
            assert specht_module(shape).dim == hook_dimension(shape), shape
    report(7, True, "module dimensions equal hook dimensions for all shapes up to n = 6")


@pytest.mark.xfail(
    strict=True,
    reason="Stated expectation is internally inconsistent: the quoted hook tableau "
    "{7,6,4,2,1; 4,3,1; 2,1} has ten boxes, i.e. belongs to the shape (5,3,2), whose "
    "hook product is 8064; the true hooks of (5,3,1) are {7,5,4,2,1; 4,2,1; 1} with "
    "product 2240 and dimension 9!/2240 = 162.  No shape satisfies dim = 45 with "
    "h = 8064, and the completeness identity sum(dim^2) = 9! (criterion 8) forces "
    "the correct values.",
)
def test_criterion_07b_quoted_hook_values_for_531():
    print("ACCEPTANCE  7b XFAIL stated values h((5,3,1)) = 8064, dim = 45 are not attainable")
    assert hook_product((5, 3, 1)) == 8064
    assert hook_dimension((5, 3, 1)) == 45


def test_criterion_07c_hook_tableau_true_values():
    # the displayed ten-box tableau, attributed correctly
    assert hook_lengths((5, 3, 2)) == [[7, 6, 4, 2, 1], [4, 3, 1], [2, 1]]
    assert hook_product((5, 3, 2)) == 8064
    assert hook_dimension((5, 3, 2)) == math.factorial(10) // 8064 == 450
    # and the true values for (5,3,1)
    assert hook_product((5, 3, 1)) == 2240
    assert hook_dimension((5, 3, 1)) == 162
    report("7c", True, "quoted tableau belongs to (5,3,2) (h = 8064); (5,3,1) has h = 2240, dim 162")


def test_criterion_08_completeness_identities():
    for n in range(2, 7):
        table = symmetric_character_table(n)
        assert sum(int(c.identity_value) ** 2 for c in table) == math.factorial(n), n
    for n in range(2, 13):
        assert sum(hook_dimension(s) ** 2 for s in partitions_of(n)) == math.factorial(n), n
    for n in range(1, 5):
        total = sum(d * d for _, _, d in hyperoctahedral_irreducibles(n))
        assert total == 2 ** n * math.factorial(n), n
    assert sum(d * d for _, _, d in dn_irreducibles(4)) == 192
    for m in range(3, 25):
        total = 0
        for chi in dihedral_irreducibles(m):
            v = chi.identity_value
            d = int(v.rational_value()) if isinstance(v, Cyclotomic) else int(Fraction(v))
            total += d * d
        assert total == 2 * m, m
    report(8, True, "sum of squared dimensions equals |G| for S_n, B_n, D4 and I2(m)")


def test_criterion_09_b3_spectrum():
    dims = sorted(d for _, _, d in hyperoctahedral_irreducibles(3))
    assert dims == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    report(9, True, "B3 dimension multiset is {1,1,1,1,2,2,3,3,3,3}")


def test_criterion_10_class_counts():
    for n in range(2, 7):
        group = realize(TypeLabel("A", n - 1))
        assert group.classes.count == len(partitions_of(n)), n
    for n in range(1, 5):
        group = realize(TypeLabel("B", n))
        combinatorial = sum(
            len(partitions_of(a)) * len(partitions_of(n - a)) for a in range(n + 1)
        )
        assert group.classes.count == combinatorial, n
    report(10, True, "class counts match p(n) for S_n and sum p(a)p(b) for B_n")


def test_criterion_11_orthonormality():
    tables = []
    for n in range(2, 6):
        tables.append((f"S{n}", symmetric_character_table(n)))
    for n in range(1, 4):
        tables.append((f"B{n}", [c for _, c, _ in hyperoctahedral_irreducibles(n)]))
    tables.append(("D4", [c for _, c, _ in dn_irreducibles(4)]))
    for m in range(3, 13):
        tables.append((f"I2({m})", list(dihedral_irreducibles(m))))
    for name, chars in tables:
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert inner_product(a, b) == (1 if i == j else 0), (name, i, j)
    report(11, True, f"character Gram matrix is the identity for {len(tables)} groups")


def _block_subgroup(group, a):
    """S_a x S_(n-a): every adjacent transposition but the one of a-1 and a."""
    return Subgroup(group, [s for i, s in enumerate(group.generators) if i != a - 1])


def _block_character(sub, n, a, lam, mu, name):
    vals = []
    for rep in sub.classes.reps:
        t0 = tuple(
            sorted(
                (len(c) for c in _restricted_cycles(rep, range(a))),
                reverse=True,
            )
        )
        t1 = tuple(
            sorted(
                (len(c) for c in _restricted_cycles(rep, range(a, n))),
                reverse=True,
            )
        )
        vals.append(symmetric_character_value(lam, t0) * symmetric_character_value(mu, t1))
    return ClassFunction(sub, vals, name)


def _restricted_cycles(perm, points):
    points = list(points)
    seen = set()
    for start in points:
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        j = perm(start)
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = perm(j)
        yield cyc


def test_criterion_12_frobenius_reciprocity():
    rng = random.Random(4217)
    checked = 0
    for _ in range(25):
        n = rng.randint(3, 5)
        a = rng.randint(1, n - 1)
        group = realize(TypeLabel("A", n - 1))
        sub = _block_subgroup(group, a)
        lam = rng.choice(partitions_of(a))
        mu = rng.choice(partitions_of(n - a))
        chi = _block_character(sub, n, a, lam, mu, f"{lam}x{mu}")
        table = symmetric_character_table(n)
        phi = rng.choice(table)
        lhs = inner_product(induce_character(chi, group), phi)
        rhs = inner_product(chi, restrict_character(phi, sub))
        assert lhs == rhs, (n, a, lam, mu)
        checked += 1
    for _ in range(25):
        m = rng.randint(3, 12)
        group = realize(TypeLabel("I2", 2, m))
        sub = Subgroup(group, [group.generators[0] * group.generators[1]])
        k = rng.randrange(m)
        chi = ClassFunction(
            sub, [Cyclotomic.zeta(m, k * el.rotation) for el in sub.classes.reps]
        )
        phi = rng.choice(dihedral_irreducibles(m))
        lhs = inner_product(induce_character(chi, group), phi)
        rhs = inner_product(chi, restrict_character(phi, sub))
        assert lhs == rhs, (m, k)
        checked += 1
    report(12, checked == 50, f"induction/restriction adjunction exact on {checked} random pairs")


def test_criterion_13_clifford_dichotomy_d4():
    dn = realize(TypeLabel("D", 4))
    splits = 0
    for blabel, chi, _ in hyperoctahedral_irreducibles(4):
        res = restrict_character(chi, dn)
        norm = inner_product(res, res)
        if blabel.lam == blabel.mu:
            assert norm == 2, str(blabel)
            splits += 1
        else:
            assert norm == 1, str(blabel)
    assert splits == 2
    table = dn_irreducibles(4)
    assert len(table) == 13
    assert dn.classes.count == 13
    b4 = {(l.lam, l.mu): chi for l, chi, _ in hyperoctahedral_irreducibles(4)}
    for lam in partitions_of(2):
        plus = next(c for l, c, _ in table if l.half == "+" and l.lam == lam)
        minus = next(c for l, c, _ in table if l.half == "-" and l.lam == lam)
        res = restrict_character(b4[(lam, lam)], dn)
        assert list((plus + minus).values) == list(res.values)
        assert plus != minus
    report(13, True, "restriction norms in {1,2}, equal-pair cases split into distinct halves; 13 irreducibles")


def test_criterion_14_permutation_decomposition():
    for n in range(2, 7):
        group = realize(TypeLabel("A", n - 1))
        table = list(symmetric_character_table(n))
        shapes = list(partitions_of(n))
        perm = natural_representation(group)
        got = decompose(perm, table)
        want = sorted(
            [(shapes.index((n,)), 1), (shapes.index((n - 1, 1)), 1)]
        )
        assert sorted(got) == want, n
    report(14, True, "permutation module = trivial + standard, multiplicities (1,1), for n up to 6")


def test_criterion_15_tensor_decomposition():
    table3 = list(symmetric_character_table(3))
    shapes3 = list(partitions_of(3))
    std = table3[shapes3.index((2, 1))]
    mults = tensor_decompose(std, std, table3)
    assert mults == [1, 1, 1]
    # tensor-square coverage at desk scale
    for n, shape in ((3, (2, 1)), (6, (3, 2, 1))):
        table = list(symmetric_character_table(n))
        chi = table[list(partitions_of(n)).index(shape)]
        mults = tensor_decompose(chi, chi, table)
        assert all(m >= 1 for m in mults), (n, shape, mults)
    report(15, True, "std x std = triv + sgn + std in S3; staircase tensor squares cover all irreducibles")
