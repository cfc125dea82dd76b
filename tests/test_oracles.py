"""Brute-force oracles for the index-based group kernel and the S_n characters.

The library computes conjugacy classes as orbits under conjugation by
generators and induces characters by the class-size formula.  The routines
below are the direct definitions they replaced: classes by conjugating with
every element, and induction by the sum over the whole group.  They share no
code with the kernel beyond element products and, for induction, the
subgroup's class lookup, which the class oracle checks on every subgroup used.
A subgroup is the closure of its generators on the realized groups' index
engine, so each subgroup also has its elements checked against a filter
of the parent's elements, its generator tables against fresh products and
its word DAG against its elements.

The S_n characters come from the Murnaghan-Nakayama rule on beta-sets
(``tableaux.symmetric_character_value``).  Four oracles check them: the
traces of class words in Young's seminormal form (``word_trace``, n <= 9),
the characters of the seminormal ``specht_module`` and of the left ideal
that the Young symmetrizer spans in the group algebra (n <= 5), and a
rim-hook rule of its own (n <= 16).  None shares code with the library's
rule.  Past n = 9 the tables also rest on both orthogonality relations,
with the centralizer orders computed here, and on the hook-length column.

The B_n and D_n characters are a closed form on signed cycle types.  Two
oracles check them: the paper's construction, induction from the block
stabilizer B_a x B_(n-a) summed over the whole group, and the bipartition
Murnaghan-Nakayama rule, which shares no code with the closed form.

``classify`` decides finiteness by sparse pivots in leaf-first order and
certifies a non-finite component by a minimal non-finite subgraph; the
library has no other positive-definiteness test.  The oracles are the dense
leading Gram minors by their definition, one ``Matrix.determinant()`` per
leading block (``dense_leading_minors``), and a Leibniz expansion of each
leading minor for the certificates, whose sign is read off the as-built
value so that no normal form is taken at the large conductors of triangles
such as (37, 39, 40).

``RootSystem`` sweeps stability over one root of each pair {v, -v}.  Its
oracle is the full sweep that reflects every root in every root and compares
the image set with the system, with its own reflection formula and keys.
``character_orthonormality`` sums the upper triangle of the unnormalised
Gram matrix; its oracle is one ``inner_product`` per ordered pair.
"""

import collections
import itertools
import math
import operator
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxeterkit.catalog import affine_catalog, catalog_graph, classification_catalog
from coxeterkit.certify import positive_definite
from coxeterkit.classes import ClassFunction, ConjugacyClasses, irreducible_characters
from coxeterkit.classify import TypeLabel, classify
from coxeterkit.cyclotomic import Cyclotomic
from coxeterkit.dihedral import dihedral_irreducibles
from coxeterkit.errors import InternalInconsistencyError, ValidationError
from coxeterkit.families import (
    bipartitions,
    dn_irreducibles,
    hyperoctahedral_irreducibles,
    symmetric_character_table,
)
from coxeterkit.graphs import CoxeterGraph, INFINITY, gram_matrix, subgraph
from coxeterkit.groups import realize
from coxeterkit.linalg import Matrix, sign
from coxeterkit.permutations import SignedPermutation
from coxeterkit.reps import (
    Representation,
    Subgroup,
    induce_character,
    inner_product,
    trivial_character,
)
from coxeterkit.roots import RootSystem, root_system
from coxeterkit.specht import (
    row_column_blocks,
    row_column_groups,
    seminormal_action,
    specht_module,
    young_symmetrizer,
)
from coxeterkit.tableaux import hook_dimension, partition_text, partitions_of
from coxeterkit.verify import _sample_subgroup, character_orthonormality

A_LABELS = [TypeLabel("A", n) for n in range(1, 6)]
B_LABELS = [TypeLabel("B", n) for n in range(2, 5)]
I2_LABELS = [TypeLabel("I2", 2, m) for m in range(5, 13)]
ALL_LABELS = A_LABELS + B_LABELS + [TypeLabel("D", 4)] + I2_LABELS


def brute_force_classes(domain) -> ConjugacyClasses:
    """Classes by conjugating each new element with all of the domain."""
    elements = domain.elements
    index = {x: i for i, x in enumerate(elements)}
    inverses = [g.inverse() for g in elements]
    class_of = [-1] * len(elements)
    reps, sizes = [], []
    for i, x in enumerate(elements):
        if class_of[i] >= 0:
            continue
        orbit = {index[g * x * ginv] for g, ginv in zip(elements, inverses)}
        for k in orbit:
            class_of[k] = len(reps)
        reps.append(x)
        sizes.append(len(orbit))
    return ConjugacyClasses(tuple(reps), tuple(sizes), tuple(class_of))


def brute_force_induce(chi: ClassFunction, group) -> list:
    """Ind chi(g) = (1/|H|) * sum over x in G with x^-1 g x in H of chi(x^-1 g x)."""
    sub = chi.domain
    values = []
    for rep in group.classes.reps:
        acc = 0
        for x in group.elements:
            y = x.inverse() * rep * x
            if sub.contains(y):
                acc = acc + chi.values[sub.classes.class_of[sub.index_of(y)]]
        values.append(Fraction(1, sub.order) * acc)
    return values


def assert_induces_like_oracle(chi: ClassFunction, group):
    got = induce_character(chi, group).values
    want = brute_force_induce(chi, group)
    assert list(got) == want
    # printed forms too: cyclotomic values print as they were built
    assert [str(v) for v in got] == [str(v) for v in want]


def sign_character(sub: Subgroup) -> ClassFunction:
    return ClassFunction(sub, [Fraction(rep.sign()) for rep in sub.classes.reps])


def assert_runs_on_the_group_engine(sub: Subgroup):
    """Classes against the brute-force oracle, each generator table entry
    against a fresh product, and a word DAG that spells every element."""
    assert sub.classes == brute_force_classes(sub)
    elements, index = sub.elements, sub.index
    tables = sub.generator_tables()
    assert len(tables) == len(sub.generators)
    for g, table in zip(sub.generators, tables):
        assert list(table) == [index[g * x] for x in elements]
    parent, genidx = sub.word_dag()
    for i in range(1, sub.order):
        assert elements[i] == sub.generators[genidx[i]] * elements[parent[i]]


@pytest.mark.parametrize("label", ALL_LABELS, ids=str)
def test_group_classes_match_brute_force(label):
    group = realize(label)
    assert group.classes == brute_force_classes(group)


def little_subgroup(n: int, a: int) -> Subgroup:
    """The block stabilizer B_a x B_(n-a) inside B_n: every sign vector times
    the permutations that keep {0..a-1} and {a..n-1}, generated by the sign
    flips at 0 and a and the swaps inside each block."""
    group = realize(TypeLabel("B", n))
    gens = [s for i, s in enumerate(group.generators) if i != a]  # s_a swaps a-1 and a
    if a < n:
        gens.append(SignedPermutation.sign_flip(n, a))
    return Subgroup(group, gens)


def block_cycle_type(p, points) -> tuple[int, ...]:
    """Cycle type of a permutation on a set of points it keeps."""
    seen, lengths = set(), []
    for start in points:
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = p(j), length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def extended_character(n: int, label) -> ClassFunction:
    """The little-group character of label (lam, mu) on B_a x B_(n-a): chi_lam
    on the first block times (product of the second block's signs) chi_mu on
    the second, with the S_m values from the Murnaghan-Nakayama oracle."""
    a = label.a
    sub = little_subgroup(n, a)
    values = [
        math.prod(rep.signs[a:])
        * murnaghan_nakayama(label.lam, block_cycle_type(rep.perm, range(a)))
        * murnaghan_nakayama(label.mu, block_cycle_type(rep.perm, range(a, n)))
        for rep in sub.classes.reps
    ]
    return ClassFunction(sub, values, str(label))


def element_filter(group, keep) -> tuple:
    """The elements of a group that a predicate keeps, in the group's order."""
    return tuple(g for g in group.elements if keep(g))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_little_subgroup_classes_match_brute_force(n):
    group = realize(TypeLabel("B", n))
    for a in range(n + 1):
        sub = little_subgroup(n, a)
        keep = element_filter(group, lambda g: all((g.perm(i) < a) == (i < a) for i in range(n)))
        assert sub.elements == keep
        assert_runs_on_the_group_engine(sub)


@pytest.mark.parametrize("label", [TypeLabel("I2", 2, m) for m in range(3, 25)], ids=str)
def test_rotation_subgroup_classes_match_brute_force(label):
    group = realize(label)
    sub = _sample_subgroup(group)
    assert sub.elements == element_filter(group, lambda g: not g.reflected)
    assert_runs_on_the_group_engine(sub)


@pytest.mark.parametrize(
    "label",
    [TypeLabel("A", n) for n in range(1, 7)]
    + [TypeLabel("B", n) for n in range(1, 6)]
    + [TypeLabel("D", n) for n in (4, 5)],
    ids=str,
)
def test_symmetric_sample_subgroup_runs_on_the_group_engine(label):
    """The S_n that ``verify`` samples inside A_n, B_n and D_n: the elements
    that fix the last point of A_n, and those with no sign in B_n and D_n."""
    group = realize(label)
    sub = _sample_subgroup(group)
    if label.family == "A":
        keep = element_filter(group, lambda g: g(label.rank) == label.rank)
    else:
        keep = element_filter(group, lambda g: all(s == 1 for s in g.signs))
    assert sub.elements == keep
    assert_runs_on_the_group_engine(sub)


@pytest.mark.parametrize("n", range(2, 8))
def test_row_and_column_groups_are_their_element_filters(n):
    """Each group is every permutation that keeps each of its blocks."""
    group = realize(TypeLabel("A", n - 1))
    for shape in partitions_of(n):
        for sub, blocks in zip(row_column_groups(shape), row_column_blocks(shape)):
            blocks = [set(block) for block in blocks]
            keep = element_filter(group, lambda g: all(g(i) in block for block in blocks for i in block))
            assert sub.elements == keep, (shape, blocks)


@pytest.mark.parametrize("label", A_LABELS, ids=str)
def test_young_subgroup_induction_matches_brute_force(label):
    n = label.rank + 1
    group = realize(label)
    for shape in partitions_of(n):
        rows, cols = row_column_groups(shape)
        assert_runs_on_the_group_engine(rows)
        assert_runs_on_the_group_engine(cols)
        assert_induces_like_oracle(trivial_character(rows), group)
        assert_induces_like_oracle(sign_character(cols), group)


@pytest.mark.parametrize("label", B_LABELS, ids=str)
def test_little_group_induction_matches_brute_force(label):
    """The paper's construction, induction from the little group summed over
    all of B_n, gives the closed-form characters value by value."""
    n = label.rank
    group = realize(label)
    for blabel, chi, _ in hyperoctahedral_irreducibles(n):
        ext = extended_character(n, blabel)
        assert_induces_like_oracle(ext, group)
        assert brute_force_induce(ext, group) == list(chi.values), str(blabel)


def test_d4_induction_matches_brute_force():
    group = realize(TypeLabel("D", 4))
    perms = Subgroup(group, group.generators[1:])
    assert_runs_on_the_group_engine(perms)
    assert_induces_like_oracle(trivial_character(perms), group)
    signs = [Fraction(rep.perm.sign()) for rep in perms.classes.reps]
    assert_induces_like_oracle(ClassFunction(perms, signs), group)


@pytest.mark.parametrize("label", I2_LABELS, ids=str)
def test_rotation_induction_matches_brute_force(label):
    group = realize(label)
    sub = _sample_subgroup(group)
    m = label.bond
    for k in range(m):
        chi = ClassFunction(
            sub, [Cyclotomic.zeta(m, k * el.rotation) for el in sub.classes.reps]
        )
        assert_induces_like_oracle(chi, group)


@pytest.mark.parametrize("m", [*range(3, 25), 25, 49, 75, 82])
def test_dihedral_closed_form_is_the_rotation_induction(m):
    """Each 2-dimensional closed-form character is the induction of zeta^k
    from the rotations, value by value and in printed form: every m up to
    24, and a sample up to the bond bound 82 (all of 25-82 take half a
    minute)."""
    group = realize(TypeLabel("I2", 2, m))
    sub = _sample_subgroup(group)
    two_dim = [chi for chi in dihedral_irreducibles(m) if chi.name.startswith("2:")]
    assert len(two_dim) == (m - 1) // 2
    for k, chi in enumerate(two_dim, 1):
        phi = ClassFunction(sub, [Cyclotomic.zeta(m, k * el.rotation) for el in sub.classes.reps])
        assert_induces_like_oracle(phi, group)
        want = brute_force_induce(phi, group)
        assert list(chi.values) == want, chi.name
        assert [str(v) for v in chi.values] == [str(v) for v in want], chi.name


# -- S_n characters ---------------------------------------------------------------


def _echelon_insert(rows: list, vec: dict) -> dict | None:
    """Reduce an integer sparse vector against pivot rows; return the new row.

    ``rows`` holds (pivot_column, row_dict) sorted by pivot column; rows and
    the result are gcd-normalized with a positive pivot entry.
    """
    for pivcol, row in rows:
        c = vec.get(pivcol)
        if c:
            p = row[pivcol]
            new = {k: v * p for k, v in vec.items()}
            for k, v in row.items():
                t = new.get(k, 0) - c * v
                if t:
                    new[k] = t
                else:
                    new.pop(k, None)
            vec = new
        if not vec:
            return None
    if not vec:
        return None
    g = 0
    for v in vec.values():
        g = math.gcd(g, v)
    pivcol = min(vec)
    sign = 1 if vec[pivcol] > 0 else -1
    return {k: sign * v // g for k, v in vec.items()}


def symmetrizer_span_module(shape) -> Representation:
    """The left ideal QS_n * c of the Young symmetrizer c, as a representation.

    The basis is the first maximal independent family among the vectors
    g * c (g in canonical element order), found by integer echelon
    reduction over the n!-dimensional coordinate space; the generator
    matrices are solved exactly in that basis, and every solve is checked.
    """
    n = sum(shape)
    group = realize(TypeLabel("A", n - 1))
    c = young_symmetrizer(shape)

    def vector_of(g) -> dict:
        # coordinates of g * c in the group-element basis
        return {group.index_of(g * h): int(v) for h, v in c.coeffs.items()}

    rows: list[tuple[int, dict]] = []
    basis = []
    for g in group.elements:
        new = _echelon_insert(rows, vector_of(g))
        if new is not None:
            rows.append((min(new), new))
            rows.sort(key=lambda t: t[0])
            basis.append(g)
    dim = len(basis)
    basis_vectors = [vector_of(g) for g in basis]
    pivot_cols = sorted(pc for pc, _ in rows)
    square = Matrix(
        [[Fraction(basis_vectors[j].get(pc, 0)) for j in range(dim)] for pc in pivot_cols]
    )

    def expand(vec: dict) -> list[Fraction]:
        coords = square.solve([vec.get(pc, 0) for pc in pivot_cols])
        assert coords is not None, "the pivot columns of the basis are singular"
        check: dict = {}
        for x, basis_vec in zip(coords, basis_vectors):
            for k, v in basis_vec.items():
                check[k] = check.get(k, 0) + x * v
        if {k: t for k, t in check.items() if t} != vec:
            raise InternalInconsistencyError("vector escaped the extracted basis")
        return coords

    mats = []
    for s in group.generators:
        cols = [expand(vector_of(s * g)) for g in basis]
        mats.append(Matrix(list(zip(*cols))))
    return Representation(group, mats, name=partition_text(shape))


def own_partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, by their own recursion."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1) for rest in own_partitions(n - k, k)]


def rim_hooks(shape: tuple[int, ...], k: int):
    """(sign, smaller shape) for each rim hook of length k, on beta-sets.

    With beta-set B = {shape_i + (l - 1 - i)}, removing a rim hook of length
    k is replacing some b in B by b - k >= 0 not in B, with sign (-1)^(number
    of beta-numbers strictly between b - k and b).
    """
    length = len(shape)
    beta = {part + (length - 1 - i) for i, part in enumerate(shape)}
    for b in beta:
        if b - k < 0 or b - k in beta:
            continue
        height = sum(1 for x in beta if b - k < x < b)
        new = sorted((beta - {b}) | {b - k}, reverse=True)
        smaller = tuple(x - (length - 1 - i) for i, x in enumerate(new))
        yield (-1) ** height, tuple(p for p in smaller if p > 0)


@lru_cache(maxsize=None)
def murnaghan_nakayama(shape: tuple[int, ...], cycle: tuple[int, ...]) -> int:
    """chi_shape at cycle type ``cycle``, by removing rim hooks."""
    if not cycle:
        return 1 if not shape else 0
    k, rest = cycle[0], cycle[1:]
    return sum(sign * murnaghan_nakayama(smaller, rest) for sign, smaller in rim_hooks(shape, k))


@lru_cache(maxsize=None)
def bipartition_rim_hooks(lam, mu, cycles) -> int:
    """chi_(lam,mu) of B_n at signed cycles ((length, sign), ...), by the
    bipartition Murnaghan-Nakayama rule (Geck-Pfeiffer, ch. 5): a cycle of
    length k and sign s is removed as a k-rim hook of lam, or as one of mu
    with the extra factor s."""
    if not cycles:
        return 1 if not lam and not mu else 0
    (k, s), rest = cycles[0], cycles[1:]
    return sum(
        sign * bipartition_rim_hooks(smaller, mu, rest) for sign, smaller in rim_hooks(lam, k)
    ) + s * sum(
        sign * bipartition_rim_hooks(lam, smaller, rest) for sign, smaller in rim_hooks(mu, k)
    )


def signed_cycles(w) -> tuple[tuple[int, int], ...]:
    """(length, product of the signs over the cycle) for each cycle of a signed
    permutation, longest first."""
    seen, out = set(), []
    for start in range(w.size):
        j, length, sign = start, 0, 1
        while j not in seen:
            seen.add(j)
            j, length, sign = w.perm(j), length + 1, sign * w.signs[j]
        if length:
            out.append((length, sign))
    return tuple(sorted(out, reverse=True))


def table_by_labels(n: int) -> dict:
    """{(shape, cycle type): value} of ``symmetric_character_table(n)``."""
    reps = realize(TypeLabel("A", n - 1)).classes.reps
    out = {}
    for shape, chi in zip(partitions_of(n), symmetric_character_table(n)):
        for rep, value in zip(reps, chi.values):
            out[(shape, rep.cycle_type())] = value
    return out


def test_murnaghan_nakayama_oracle_small_cases():
    assert murnaghan_nakayama((2, 1), (1, 1, 1)) == 2
    assert murnaghan_nakayama((2, 1), (2, 1)) == 0
    assert murnaghan_nakayama((2, 1), (3,)) == -1
    assert murnaghan_nakayama((3, 1, 1), (5,)) == 1
    assert murnaghan_nakayama((2, 2, 1), (5,)) == 0
    for n in range(1, 8):
        assert sum(murnaghan_nakayama(s, (1,) * n) ** 2 for s in own_partitions(n)) == math.factorial(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_character_table_matches_murnaghan_nakayama(n):
    want = {
        (shape, cycle): murnaghan_nakayama(shape, cycle)
        for shape in own_partitions(n)
        for cycle in own_partitions(n)
    }
    assert table_by_labels(n) == want


@pytest.mark.parametrize("n", range(9, 17))
def test_sn_table_past_the_enumeration_bound_matches_murnaghan_nakayama(n):
    """|S_n| exceeds MAX_ORDER, so the classes are the table's own class data."""
    table = symmetric_character_table(n)
    reps = table[0].domain.classes.reps
    for shape, chi in zip(own_partitions(n), table):
        assert list(chi.values) == [murnaghan_nakayama(shape, w.cycle_type()) for w in reps], shape


def centralizer_order(cycle: tuple[int, ...]) -> int:
    """z = prod over part sizes k of k^(m_k) m_k!, m_k the number of parts k."""
    return math.prod(k ** m * math.factorial(m) for k, m in collections.Counter(cycle).items())


@pytest.mark.parametrize("n", range(2, 17))
def test_sn_table_is_orthogonal_with_the_hook_column(n):
    """sum_g chi(g) psi(g) = n! delta over the rows, sum_chi chi(g) chi(h) =
    z(g) delta over the columns, and the identity column is the hook formula."""
    table = symmetric_character_table(n)
    classes = table[0].domain.classes
    rows = [list(chi.values) for chi in table]
    assert [row[0] for row in rows] == [hook_dimension(shape) for shape in own_partitions(n)]
    for i, a in enumerate(rows):
        weighted = [size * v for size, v in zip(classes.sizes, a)]
        for j in range(i, len(rows)):
            assert sum(map(operator.mul, weighted, rows[j])) == (math.factorial(n) if i == j else 0)
    columns = list(zip(*rows))
    for g, (x, rep) in enumerate(zip(columns, classes.reps)):
        z = centralizer_order(rep.cycle_type())
        for h in range(g, len(columns)):
            assert sum(map(operator.mul, x, columns[h])) == (z if g == h else 0)


def cycle_word(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """s_o s_{o+1} ... s_{o+p-2} over the blocks p of a cycle type, o their offsets.

    The word's permutation has the given cycle type; its length is
    n - (number of blocks).
    """
    word: list[int] = []
    offset = 0
    for p in cycle:
        word.extend(range(offset, offset + p - 1))
        offset += p
    return tuple(word)


def word_trace(action, scale: int, word) -> int:
    """Trace of a word in the seminormal form's adjacent transpositions, one
    basis vector at a time.  A character value of S_n is an integer, so a
    remainder raises InternalInconsistencyError."""
    total = 0
    for t in range(len(action[0])):
        vec = {t: 1}
        for i in reversed(word):
            image: dict = {}
            for u, x in vec.items():
                for v, a in action[i][u]:
                    image[v] = image.get(v, 0) + a * x
            vec = image
        total += vec.get(t, 0)
    value, remainder = divmod(total, scale ** len(word))
    if remainder:
        raise InternalInconsistencyError(f"the trace of {word} is not an integer")
    return value


def test_cycle_words_and_their_traces():
    assert cycle_word((3, 2, 1)) == (0, 1, 3)
    assert cycle_word((1, 1, 1)) == ()
    for n in range(2, 7):
        for cycle in partitions_of(n):
            assert len(cycle_word(cycle)) == n - len(cycle)
    action, scale = seminormal_action((2, 1))
    traces = [word_trace(action, scale, cycle_word(c)) for c in partitions_of(3)]
    assert traces == [-1, 0, 2] and all(type(t) is int for t in traces)


def test_a_trace_with_a_remainder_raises():
    action, scale = seminormal_action((3,))  # s_0 acts as scale * 1
    with pytest.raises(InternalInconsistencyError, match="not an integer"):
        word_trace(action, 2 * scale, (0,))


@pytest.mark.parametrize("n", range(2, 10))
def test_character_table_matches_the_seminormal_traces(n):
    table = symmetric_character_table(n)
    words = [cycle_word(rep.cycle_type()) for rep in table[0].domain.classes.reps]
    for shape, chi in zip(partitions_of(n), table):
        action, scale = seminormal_action(shape)
        assert list(chi.values) == [word_trace(action, scale, word) for word in words], shape


@pytest.mark.parametrize("n", range(2, 6))
def test_character_table_matches_the_symmetrizer_span(n):
    for shape, chi in zip(partitions_of(n), symmetric_character_table(n)):
        rep = symmetrizer_span_module(shape)
        assert rep.character().values == chi.values, shape


@pytest.mark.parametrize("n", range(2, 6))
def test_seminormal_module_character_is_the_table_row(n):
    for shape, chi in zip(partitions_of(n), symmetric_character_table(n)):
        assert specht_module(shape).character().values == chi.values, shape


def test_bipartition_rim_hook_oracle_small_cases():
    # B_1 = {+-1}: (1|-) is trivial and (-|1) is the sign
    assert bipartition_rim_hooks((1,), (), ((1, -1),)) == 1
    assert bipartition_rim_hooks((), (1,), ((1, -1),)) == -1
    for n in range(1, 6):
        total = sum(
            bipartition_rim_hooks(lam, mu, ((1, 1),) * n) ** 2
            for a in range(n + 1)
            for lam in own_partitions(a)
            for mu in own_partitions(n - a)
        )
        assert total == 2 ** n * math.factorial(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_bn_characters_match_the_rim_hook_rule(n):
    reps = realize(TypeLabel("B", n)).classes.reps
    for label, chi, _ in hyperoctahedral_irreducibles(n):
        want = [bipartition_rim_hooks(label.lam, label.mu, signed_cycles(w)) for w in reps]
        assert list(chi.values) == want, str(label)


@pytest.mark.parametrize("n", [7, 8])
def test_bn_characters_past_the_enumeration_bound_match_the_rim_hook_rule(n):
    """|B_7| and |B_8| exceed MAX_ORDER, so the classes are the table's own class data."""
    table = hyperoctahedral_irreducibles(n)
    reps = table[0][1].domain.classes.reps
    for label, chi, _ in table:
        want = [bipartition_rim_hooks(label.lam, label.mu, signed_cycles(w)) for w in reps]
        assert list(chi.values) == want, str(label)


@pytest.mark.parametrize("n", range(4, 9))
def test_dn_characters_match_the_rim_hook_rule(n):
    """Each {lam, mu} row with lam != mu is the rim-hook value of (lam, mu) and
    of (mu, lam); the two halves of (lam, lam) sum to its rim-hook value."""
    table = dn_irreducibles(n)
    reps = table[0][1].domain.classes.reps
    halves = collections.defaultdict(list)
    for label, chi, _ in table:
        if label.half is not None:
            halves[label.lam].append(chi.values)
            continue
        for lam, mu in ((label.lam, label.mu), (label.mu, label.lam)):
            want = [bipartition_rim_hooks(lam, mu, signed_cycles(w)) for w in reps]
            assert list(chi.values) == want, str(label)
    assert sorted(halves) == (sorted(own_partitions(n // 2)) if n % 2 == 0 else [])
    for lam, (plus, minus) in halves.items():
        want = [bipartition_rim_hooks(lam, lam, signed_cycles(w)) for w in reps]
        assert [p + m for p, m in zip(plus, minus)] == want, lam


def as_built_sign(x) -> int:
    """sign(x), read where possible from the float value of x's as-built terms.

    A cyclotomic value sum_k c_k zeta_N^k is within 23u * sum_k |c_k| of its
    float evaluation (the bound ``sign`` derives for its normal form holds
    for any form), so a float beyond 2^-40 * sum_k |c_k| has the sign of x.
    Only a value closer to zero than that is reduced exactly.
    """
    if isinstance(x, Cyclotomic):
        terms = x.terms
        f = math.fsum(float(c) * math.cos(2 * math.pi * k / x.conductor) for k, c in terms.items())
        if abs(f) > math.ldexp(float(sum(abs(c) for c in terms.values())), -40):
            return 1 if f > 0 else -1
    return sign(x)


def dense_leading_minors(m: Matrix) -> list:
    """The leading principal minors of m by their definition: each leading
    k x k block's ``Matrix.determinant()``, k = 1..n."""
    return [Matrix([r[:k] for r in m.entries[:k]]).determinant() for k in range(1, m.rows + 1)]


def dense_positive_definite(g: CoxeterGraph) -> bool:
    return all(sign(x) > 0 for x in dense_leading_minors(gram_matrix(g)))


def leibniz_minor_signs(g: CoxeterGraph) -> list[int]:
    """Signs of the leading principal minors of g's Gram matrix, each by the
    sum over permutations: no elimination and no division."""
    gram = gram_matrix(g)
    out = []
    for k in range(1, g.n + 1):
        det = 0
        for perm in itertools.permutations(range(k)):
            term = -1 if sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2)) % 2 else 1
            entries = [gram[i, j] for i, j in enumerate(perm)]
            if all(x != 0 for x in entries):  # each entry at its own small conductor
                for x in entries:
                    term = term * x
                det = det + term
        out.append(as_built_sign(det))
    return out


def induced(g: CoxeterGraph, vertices) -> CoxeterGraph:
    return subgraph(g, remove_vertices=[v for v in range(g.n) if v not in vertices])


def connected_parts(g: CoxeterGraph, keep) -> list[list[int]]:
    """The connected parts of g on the vertices ``keep``, each sorted, in the
    order of their least vertex: the endpoints of every bond inside ``keep``
    are merged, with no search over an adjacency list."""
    part_of = {v: {v} for v in keep}
    for i, j, _ in g.edges():
        if i in part_of and j in part_of and part_of[i] is not part_of[j]:
            merged = part_of[i] | part_of[j]
            for v in merged:
                part_of[v] = merged
    return sorted({id(p): sorted(p) for p in part_of.values()}.values())


CLASSIFY_DEADLINE_S = 1.0


def check_classification(g: CoxeterGraph):
    """classify(g) within the deadline, every verdict against the dense minors.

    A finite component is positive definite.  A certificate is not: every
    proper leading minor is positive and the determinant is 0 (affine) or
    negative (hyperbolic), and each of its proper connected induced
    subgraphs is positive definite.
    """
    start = time.perf_counter()
    result = classify(g)
    assert time.perf_counter() - start < CLASSIFY_DEADLINE_S
    for comp in result.components:
        if comp.label is not None:
            assert dense_positive_definite(induced(g, comp.vertices)), comp
            continue
        w = comp.witness
        assert set(w.vertices) <= set(comp.vertices) and w.index == len(w.vertices)
        cert = induced(g, w.vertices)
        last = 0 if w.kind == "affine" else -1
        if cert.n > 6:
            signs = [sign(x) for x in dense_leading_minors(gram_matrix(cert))]
            assert signs == [1] * (cert.n - 1) + [last], w
            continue
        assert leibniz_minor_signs(cert) == [1] * (cert.n - 1) + [last], w
        for size in range(1, cert.n):
            for keep in itertools.combinations(range(cert.n), size):
                part = induced(cert, keep)
                if len(connected_parts(part, range(part.n))) == 1:
                    assert dense_positive_definite(part), (w, keep)
    return result


def random_graph(rng) -> CoxeterGraph:
    """A graph on 1-6 vertices with an edge density drawn per graph.  Labels
    are mostly 3, 4 and 5, which give finite trees and the affine and Lannér
    certificates of rank 4 to 6; one in ten is from 6..40 and one in twenty
    is unbounded."""
    n, density = rng.randint(1, 6), rng.random()
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            r = rng.random()
            m = INFINITY if r < 0.05 else rng.randint(6, 40) if r < 0.15 else rng.choice([3, 3, 3, 3, 4, 5])
            edges.append((i, j, m))
    return CoxeterGraph(n, edges)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_classify_matches_dense_minors(rng):
    check_classification(random_graph(rng))


def one_vertex_extensions():
    """Each finite catalog graph of rank 2-5 with one new vertex joined to one
    of its vertices by a bond 3, 4 or 5, and each affine graph of rank <= 6:
    these hold the affine and Lannér certificates of rank 4-6 that random
    graphs seldom reach."""
    for t in classification_catalog(5, [5, 6, 7]):
        g = catalog_graph(t)
        for v in range(g.n):
            for m in (3, 4, 5):
                yield CoxeterGraph(g.n + 1, g.edges() + [(v, g.n, m)])
    yield from (g for _, g in affine_catalog(5))


def test_one_vertex_extensions_match_dense_minors():
    kinds = collections.Counter()
    for g in one_vertex_extensions():
        assert positive_definite(g) == dense_positive_definite(g), g
        for c in check_classification(g).components:
            if c.witness is not None:
                kinds[c.witness.kind, c.witness.index] += 1
    assert kinds["affine", 6] > 0 and kinds["hyperbolic", 4] > 0 and kinds["hyperbolic", 5] > 0


def complete(n, m):
    return CoxeterGraph(n, [(i, j, m) for i in range(n) for j in range(i + 1, n)])


def path(*labels):
    return CoxeterGraph(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)])


@pytest.mark.parametrize(
    "g, text",
    [
        (complete(18, 4), "NotFinite (hyperbolic subgraph on vertices 15,16,17)"),
        (complete(48, 3), "NotFinite (affine subgraph on vertices 45,46,47)"),
        (
            CoxeterGraph(48, [(i, (i + 1) % 48, 3) for i in range(48)]),
            "NotFinite (affine subgraph on vertices " + ",".join(map(str, range(48))) + ")",
        ),
        (path(7, 11, 13, 17), "NotFinite (hyperbolic subgraph on vertices 2,3,4)"),
        (path(5, 7, 11, 13, 17), "NotFinite (hyperbolic subgraph on vertices 3,4,5)"),
        (path(37, 39), "NotFinite (hyperbolic subgraph on vertices 0,1,2)"),
        (CoxeterGraph(3, [(0, 1, 37), (1, 2, 39), (0, 2, 40)]),
         "NotFinite (hyperbolic subgraph on vertices 0,1,2)"),
    ],
    ids=["K18(4)", "K48(3)", "cycle48", "path(7,11,13,17)", "path(5,7,11,13,17)",
         "path(37,39)", "triangle(37,39,40)"],
)
def test_classify_hard_cases_match_dense_minors(g, text):
    assert str(check_classification(g)) == text


# -- root-system axioms: the full sweep ------------------------------------------


def full_sweep_axioms(roots, gram=None) -> str | None:
    """The message of the first root-system axiom the vectors fail, or None.

    Checks in ``RootSystem``'s order: no zero vector, no repeat, closure
    under negation, {v, -v} the only roots on each line, then reflects every
    root in every root and compares the image set with the system.
    """
    roots = [tuple(x if isinstance(x, Cyclotomic) else Fraction(x) for x in v) for v in roots]
    rows = roots + list(gram.entries if gram is not None else ())
    conductor = math.lcm(1, *(x.conductor for v in rows for x in v if isinstance(x, Cyclotomic)))

    def is_zero(x):
        return x.is_zero() if isinstance(x, Cyclotomic) else x == 0

    def key(v):
        return tuple(x.canonical_key(conductor) if isinstance(x, Cyclotomic) else ("q", x) for x in v)

    def form(u, v):
        if gram is None:
            return sum((a * b for a, b in zip(u, v)), Fraction(0))
        pairs = itertools.product(range(len(u)), repeat=2)
        return sum((u[i] * gram.entries[i][j] * v[j] for i, j in pairs), Fraction(0))

    keys = set()
    for v in roots:
        if all(is_zero(x) for x in v):
            return "zero vector in root system"
        if key(v) in keys:
            return "repeated root"
        keys.add(key(v))
    if any(key(tuple(-x for x in v)) not in keys for v in roots):
        return "root system is not symmetric under negation"
    lines = collections.Counter()
    for v in roots:
        first = next(x for x in v if not is_zero(x))
        lines[key(tuple(x / first for x in v))] += 1
    if any(count != 2 for count in lines.values()):
        return "a root line contains more than two roots"
    for alpha in roots:
        norm = form(alpha, alpha)
        if is_zero(norm):
            return "cannot reflect in a vector of zero norm"
        image = set()
        for v in roots:
            c = 2 * form(alpha, v) / norm
            image.add(key(tuple(x - c * a for x, a in zip(v, alpha))))
        if image != keys:
            return "root system is not stable under its reflections"
    return None


def axiom_verdict(roots, gram=None) -> str | None:
    try:
        RootSystem(roots, TypeLabel("B", 2), gram)
    except ValidationError as e:
        return str(e)
    return None


SQUARE = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))
AXIOM_SEEDS = [
    (tuple(root_system(TypeLabel(*t)).roots), root_system(TypeLabel(*t)).gram)
    for t in (("A", 2), ("B", 2), ("I2", 2, 5), ("I2", 2, 6))
] + [(SQUARE, None)]


@st.composite
def perturbed_root_sets(draw):
    """A seed system cut to a subset (of roots, or of whole pairs {v, -v}),
    then changed by a few scalings, shifts, repeats, sums, zero vectors or
    pairs {2v, -2v}."""
    roots, gram = draw(st.sampled_from(AXIOM_SEEDS))
    keep = draw(st.lists(st.booleans(), min_size=len(roots), max_size=len(roots)))
    if draw(st.booleans()):
        negative = [
            next(j for j, w in enumerate(roots) if all(a == -b for a, b in zip(v, w)))
            for v in roots
        ]
        roots = [v for i, v in enumerate(roots) if keep[min(i, negative[i])]]
    else:
        roots = [v for v, k in zip(roots, keep) if k]
    ops = st.sampled_from(["scale", "shift", "repeat", "sum", "zero", "line"])
    for op in draw(st.lists(ops, max_size=3)) if roots else ():
        pick = st.integers(0, len(roots) - 1)
        i = draw(pick)
        v = roots[i]
        if op == "scale":
            c = draw(st.sampled_from([-1, 2, -2]))
            roots[i] = tuple(c * x for x in v)
        elif op == "shift":
            j = draw(st.integers(0, len(v) - 1))
            roots[i] = tuple(x + (k == j) for k, x in enumerate(v))
        elif op == "repeat":
            roots.append(v)
        elif op == "sum":
            roots.append(tuple(x + y for x, y in zip(v, roots[draw(pick)])))
        elif op == "zero":
            roots.append(tuple(0 * x for x in v))
        else:
            roots += [tuple(2 * x for x in v), tuple(-2 * x for x in v)]
    return draw(st.permutations(roots)), gram


I2_5_ROOTS, I2_5_GRAM = AXIOM_SEEDS[2]
PHI = Cyclotomic(10, {1: 1, 9: 1})  # 2 cos(pi/5), the golden ratio
INDEFINITE = Matrix([[1, 0], [0, -1]])  # (1, 1) has norm 0


@settings(max_examples=300, deadline=None)
@given(perturbed_root_sets())
@example(([(1, 0), (-1, 0)], I2_5_GRAM))  # rational roots, cyclotomic form: accepted
@example(([(1, 0), (-1, 0), (0, 1), (0, -1)], I2_5_GRAM))  # not stable
# the root (phi, phi) of I2(5) times +-phi: a line fault with no rational coordinate
@example(([*I2_5_ROOTS, (PHI * PHI, PHI * PHI), (-PHI * PHI, -PHI * PHI)], I2_5_GRAM))
# a root of zero norm after a line fault, and after a root that is not stable
@example(([(1, 1), (-1, -1), (1, 0), (-1, 0), (2, 0), (-2, 0)], INDEFINITE))
@example(([(1, 0), (-1, 0), (1, 1), (-1, -1)], INDEFINITE))
def test_root_axioms_match_the_full_sweep(case):
    roots, gram = case
    assert axiom_verdict(roots, gram) == full_sweep_axioms(roots, gram)


def test_a_line_of_zero_norm_roots_is_reported_as_zero_norm():
    """The one verdict out of the full sweep's order: the sweep reflects in
    no root of zero norm, so it cannot see such a root's line."""
    roots = [(1, 1), (-1, -1), (2, 2), (-2, -2)]
    assert full_sweep_axioms(roots, INDEFINITE) == "a root line contains more than two roots"
    assert axiom_verdict(roots, INDEFINITE) == "cannot reflect in a vector of zero norm"


@pytest.mark.parametrize(
    "label",
    [TypeLabel(*t) for t in (("A", 2), ("A", 5), ("B", 3), ("B", 6), ("D", 4), ("D", 6),
                             ("I2", 2, 5), ("I2", 2, 12), ("I2", 2, 24))],
    ids=str,
)
def test_standard_root_systems_pass_the_full_sweep(label):
    rs = root_system(label)
    assert full_sweep_axioms(rs.roots, rs.gram) is None


@pytest.mark.parametrize("label", [TypeLabel("A", 3), TypeLabel("B", 4), TypeLabel("D", 5)], ids=str)
def test_int_and_fraction_root_systems_are_equal(label):
    built = root_system(label)
    assert all(type(x) is int for v in built.roots for x in v)
    as_fractions = RootSystem([tuple(Fraction(x) for x in v) for v in built.roots], label)
    assert as_fractions == built
    assert hash(as_fractions) == hash(built)


# -- character orthonormality: one inner product per ordered pair ------------------


def pairwise_orthonormality(chars) -> tuple[bool, str]:
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            if inner_product(a, b) != (1 if i == j else 0):
                return False, f"<chi_{i}, chi_{j}> != delta"
    return True, "character Gram matrix is the identity"


GRAM_LABELS = (
    [TypeLabel("A", n) for n in range(2, 7)]
    + [TypeLabel("B", n) for n in range(2, 6)]
    + [TypeLabel("D", n) for n in (4, 5)]
    + I2_LABELS
)


@pytest.mark.parametrize("label", GRAM_LABELS, ids=str)
def test_gram_pass_matches_pairwise_inner_products(label):
    chars = irreducible_characters(label)
    want = pairwise_orthonormality(chars)
    assert want == (True, "character Gram matrix is the identity")
    assert character_orthonormality(chars) == want


def add_at(column, change):
    return lambda values: [v + change if k == column else v for k, v in enumerate(values)]


@pytest.mark.parametrize(
    "label, row, breaking",
    [
        (TypeLabel("A", 4), 3, add_at(2, 1)),
        (TypeLabel("B", 3), 0, add_at(4, -2)),
        (TypeLabel("B", 3), 2, lambda values: [2 * v for v in values]),  # fails at (2, 2) only
        (TypeLabel("D", 4), 5, add_at(1, 1)),
        (TypeLabel("I2", 2, 7), 4, add_at(1, Cyclotomic.zeta(7))),
    ],
    ids=["A4", "B3", "B3-diagonal", "D4", "I2(7)"],
)
def test_broken_table_fails_on_the_same_pair(label, row, breaking):
    chars = list(irreducible_characters(label))
    chi = chars[row]
    chars[row] = ClassFunction(chi.domain, breaking(chi.values), chi.name)
    want = pairwise_orthonormality(chars)
    assert not want[0]
    assert character_orthonormality(chars) == want
