from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.classify import BOND_BOUND, TypeLabel, coxeter_group_order
from coxeterkit.cyclotomic import Cyclotomic
from coxeterkit.errors import GuardError, InternalInconsistencyError, UnsupportedTypeError, ValidationError
from coxeterkit.graphs import gram_matrix
from coxeterkit.groups import realize
from coxeterkit.linalg import RATIONAL_TYPES, Matrix, sign
import coxeterkit.roots as roots
from coxeterkit.roots import (
    RootSystem,
    _reflect,
    _reflector,
    _vector_key,
    compute_base,
    fixed_space_dimension,
    geometric_rep,
    reflect,
    reflection_matrix,
    root_system,
)

ROOT_LABELS = [
    TypeLabel("A", 2),
    TypeLabel("A", 4),
    TypeLabel("B", 2),
    TypeLabel("B", 4),
    TypeLabel("D", 4),
    TypeLabel("I2", 2, 5),
    TypeLabel("I2", 2, 6),
]


def test_reflect_square_example():
    assert reflect((1, 1), (-1, 1)) == (-1, 1)
    assert reflect((1, 1), (1, 1)) == (-1, -1)
    assert reflect((1, 0), (1, 1)) == (-1, 1)


def test_reflect_rejects_zero():
    with pytest.raises(ValidationError):
        reflect((0, 0), (1, 1))


def test_reflect_fixes_orthogonal_complement():
    alpha = (2, 1, 0)
    fixed = (1, -2, 0)
    assert reflect(alpha, fixed) == tuple(Fraction(x) for x in fixed)
    assert reflect(alpha, alpha) == tuple(-Fraction(x) for x in alpha)


def test_root_counts():
    assert root_system(TypeLabel("A", 2)).count == 6
    assert root_system(TypeLabel("B", 2)).count == 8
    assert root_system(TypeLabel("D", 4)).count == 24
    assert root_system(TypeLabel("I2", 2, 5)).count == 10


def test_square_root_system_validates():
    # the vertex/edge-midpoint system of the square: non-unit roots allowed
    roots = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    rs = RootSystem(tuple(roots), TypeLabel("B", 2))
    assert rs.count == 8
    base = compute_base(rs)
    assert len(base) == 2


def test_root_axioms_rejected_when_broken():
    with pytest.raises(ValidationError, match="more than two roots"):
        RootSystem(((1, 0), (-1, 0), (2, 0), (-2, 0)), TypeLabel("A", 1))  # line has 4 roots
    with pytest.raises(ValidationError, match="symmetric under negation"):
        RootSystem(((1, 0), (0, 1)), TypeLabel("A", 1))
    with pytest.raises(ValidationError, match="stable under its reflections"):
        RootSystem(((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)), TypeLabel("B", 2))


@pytest.mark.parametrize("label", ROOT_LABELS, ids=str)
def test_contains(label):
    rs = root_system(label)
    for v in rs.roots:
        assert rs.contains(v)
        assert rs.contains(tuple(-x for x in v))
        assert not rs.contains(tuple(2 * x for x in v))
    assert not rs.contains(rs.roots[0][:-1])
    if label.family != "I2":
        assert rs.contains(tuple(Fraction(x) for x in rs.roots[0]))
        assert not rs.contains((Fraction(1, 2),) * len(rs.roots[0]))


def test_contains_answers_outside_the_key_conductor():
    """An entry whose conductor does not divide the system's is keyed at the lcm."""
    z5 = Cyclotomic.zeta(5)
    assert root_system(TypeLabel("A", 2)).contains((z5, 0, 0)) is False
    i7 = root_system(TypeLabel("I2", 2, 7))
    assert i7.contains((z5, 0)) is False
    # a root written with a zero of conductor 5 is still a root
    zero = z5 - z5 + Cyclotomic.zeta(5, 2) - Cyclotomic.zeta(5, 2)
    assert i7.contains(tuple(x + zero for x in i7.roots[0])) is True
    assert root_system(TypeLabel("B", 3)).contains((1 + zero, -1, 0)) is True


@pytest.mark.parametrize("label", [TypeLabel("I2", 2, 5), TypeLabel("B", 3)], ids=str)
def test_equal_root_systems_hash_alike(label):
    """Cyclotomic entries and the Gram matrix are unhashable; the hash reads
    the label and the root count, which equal systems share."""
    a, b = root_system(label), root_system(label)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, RootSystem(a.roots, a.label, a.gram)}) == 1


def test_root_system_keeps_the_order_bound():
    """The bound is checked before any root is built, so a huge dihedral
    type fails at once."""
    with pytest.raises(GuardError, match=r"\|I2\(60000\)\| = 120000 exceeds the bound 100000"):
        root_system(TypeLabel("I2", 2, 60000))
    with pytest.raises(GuardError, match="exceeds the bound 23"):
        root_system(TypeLabel("A", 3), max_order=23)
    assert root_system(TypeLabel("A", 3), max_order=24).count == 12


def test_bond_bound_of_the_dihedral_realizations():
    """Past ``BOND_BOUND`` the root system and the reflection representation
    refuse I2(m) before any root or matrix is built; the root system checks
    the order bound first."""
    past = TypeLabel("I2", 2, BOND_BOUND + 1)
    message = f"bond {BOND_BOUND + 1} exceeds the bound {BOND_BOUND}"
    with pytest.raises(GuardError, match=message):
        root_system(past)
    with pytest.raises(GuardError, match=message):
        geometric_rep(realize(past))
    with pytest.raises(GuardError, match="exceeds the bound 100"):
        root_system(past, max_order=100)
    assert root_system(TypeLabel("I2", 2, 24)).count == 48


def test_root_system_has_no_rank_bound():
    """Past rank 8 only the order bound refuses a root system: with room
    for 10! elements, A9 has its 90 roots and a base of 9."""
    rs = root_system(TypeLabel("A", 9), 10 ** 7)
    assert rs.count == 90 and len(compute_base(rs)) == 9
    with pytest.raises(GuardError, match=r"\|A9\| = 3628800 exceeds the bound 100000"):
        root_system(TypeLabel("A", 9))


TABLE_LABELS = (
    [TypeLabel("A", n) for n in range(1, 7)]
    + [TypeLabel("B", n) for n in range(2, 6)]
    + [TypeLabel("D", n) for n in (4, 5)]
    + [TypeLabel("I2", 2, m) for m in range(5, 25)]
)


def lex_positive(v) -> bool:
    return next(sign(x) for x in v if sign(x)) > 0


def brute_force_base(rs: RootSystem) -> list:
    """The positive roots whose reflection keeps every other positive root
    positive, each image reflected afresh."""
    positives = [v for v in rs.roots if lex_positive(v)]
    return [
        alpha for alpha in positives
        if all(lex_positive(reflect(alpha, beta, rs.gram)) for beta in positives if beta != alpha)
    ]


@pytest.mark.parametrize("label", TABLE_LABELS, ids=str)
def test_reflection_table_is_the_key_of_each_direct_reflection(label):
    rs = root_system(label)
    index = {_vector_key(v, rs._conductor): i for i, v in enumerate(rs.roots)}
    for i, alpha in enumerate(rs.roots):
        r = _reflector(alpha, rs.gram)
        for j, beta in enumerate(rs.roots):
            assert rs.reflection_index(i, j) == index[_vector_key(_reflect(r, beta), rs._conductor)]
    assert compute_base(rs) == brute_force_base(rs)


def test_unsupported_types():
    with pytest.raises(UnsupportedTypeError):
        root_system(TypeLabel("E", 6))


def test_bases():
    a2 = root_system(TypeLabel("A", 2))
    base = compute_base(a2)
    assert base == [
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ]
    for label in ROOT_LABELS:
        rs = root_system(label)
        assert len(compute_base(rs)) == label.rank


def test_base_of_tiny_system():
    rs = RootSystem(((Fraction(1),), (Fraction(-1),)), TypeLabel("A", 1))
    assert compute_base(rs) == [(Fraction(1),)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ROOT_LABELS), st.data())
def test_conjugation_identity(label, data):
    rs = root_system(label)
    dim = len(rs.roots[0])
    pick = st.sampled_from(rs.roots)
    beta1, beta2, alpha = data.draw(pick), data.draw(pick), data.draw(pick)
    r1 = reflection_matrix(beta1, dim, rs.gram)
    r2 = reflection_matrix(beta2, dim, rs.gram)
    t = r1 * r2
    tinv = r2 * r1
    talpha = tuple(
        sum((t.entries[i][j] * alpha[j] for j in range(dim)), Fraction(0))
        for i in range(dim)
    )
    assert t * reflection_matrix(alpha, dim, rs.gram) * tinv == reflection_matrix(
        talpha, dim, rs.gram
    )


def test_geometric_rep_rank_one():
    group = realize(TypeLabel("A", 1))
    rep = geometric_rep(group)
    assert rep.matrix_of(group.generators[0]) == Matrix([[-1]])


def test_geometric_rep_dihedral_rotation_order():
    for m in (5, 7):
        group = realize(TypeLabel("I2", 2, m))
        rep = geometric_rep(group)
        prod = rep.matrix_of(group.generators[0]) * rep.matrix_of(group.generators[1])
        power = prod
        k = 1
        while not power.is_identity():
            power = power * prod
            k += 1
        assert k == m


def test_geometric_rep_a2_column():
    group = realize(TypeLabel("A", 2))
    rep = geometric_rep(group)
    sigma = rep.matrix_of(group.generators[0])
    assert sigma.column(1) == (Fraction(1), Fraction(1))  # alpha' -> alpha' + alpha


def test_geometric_rep_is_homomorphism_and_injective():
    label = TypeLabel("B", 2)
    group = realize(label)
    rep = geometric_rep(group)
    images = [rep.matrix_of(g) for g in group.elements]
    assert all(a != b for i, a in enumerate(images) for b in images[:i])
    for a in group.elements:
        for b in group.elements:
            assert rep.matrix_of(a * b) == rep.matrix_of(a) * rep.matrix_of(b)


@pytest.mark.parametrize("label", [TypeLabel("A", 2), TypeLabel("B", 2), TypeLabel("I2", 2, 5)], ids=str)
def test_geometric_rep_rejects_a_representation_with_a_kernel(label, monkeypatch):
    """Every generator sent to [[-1]] is the sign representation: it satisfies
    every Coxeter relation, but the even elements lie in its kernel."""
    monkeypatch.setattr(roots, "reflection_matrix", lambda *args: Matrix([[-1]]))
    with pytest.raises(InternalInconsistencyError, match="not faithful"):
        geometric_rep(realize(label))


def hand_built_generators(gram: Matrix) -> list[Matrix]:
    """sigma_s(v) = v - 2 B(alpha_s, v) alpha_s on the simple-root basis, entry
    by entry: the identity with row s replaced by e_s - 2 G[s]."""
    n = gram.rows
    gens = []
    for s in range(n):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                base = Fraction(1) if i == j else Fraction(0)
                if i == s:
                    base = base - 2 * gram.entries[s][j]
                row.append(base)
            rows.append(row)
        gens.append(Matrix(rows))
    return gens


@pytest.mark.parametrize(
    "label",
    [TypeLabel("A", n) for n in range(1, 6)]
    + [TypeLabel("B", n) for n in range(2, 5)]
    + [TypeLabel("D", 4), TypeLabel("D", 5)]
    + [TypeLabel("I2", 2, m) for m in range(5, 25)],
    ids=str,
)
def test_geometric_rep_generators_match_the_hand_built_reflections(label):
    group = realize(label)
    rep = geometric_rep(group)
    expected = hand_built_generators(gram_matrix(group.graph))
    assert [rep.matrix_of(g) for g in group.generators] == expected


@pytest.mark.parametrize(
    "label", [TypeLabel("B", 3), TypeLabel("D", 4), TypeLabel("I2", 2, 5), TypeLabel("I2", 2, 12)], ids=str
)
def test_rational_generator_entries_stay_rational_types(label):
    """The generators sigma_s of ``geometric_rep``: a zero coordinate adds no
    ``0 * cyclotomic`` term, so the diagonal -1, and every other rational
    entry, is an int or a Fraction."""
    gram = gram_matrix(realize(label).graph)
    n = gram.rows
    entries = [
        x
        for s in range(n)
        for row in reflection_matrix([Fraction(int(i == s)) for i in range(n)], n, gram).entries
        for x in row
    ]
    rational = [x for x in entries if type(x) in RATIONAL_TYPES or x.is_rational()]
    assert len(rational) > len(entries) // 2
    assert all(type(x) in RATIONAL_TYPES for x in rational)


@pytest.mark.parametrize("label", [TypeLabel("B", 3), TypeLabel("I2", 2, 5), TypeLabel("I2", 2, 12)], ids=str)
def test_generator_images_keep_the_entry_types_of_the_reflections(label):
    """``geometric_rep`` forms sigma_s times the identity: a rational zero in
    either factor adds no term, so each image is sigma_s with its rational
    entries rational and its cyclotomic entries cyclotomic."""
    group = realize(label)
    gram = gram_matrix(group.graph)
    n = gram.rows
    rep = geometric_rep(group)
    for s, g in enumerate(group.generators):
        sigma = reflection_matrix([Fraction(int(i == s)) for i in range(n)], n, gram)
        assert rep.matrix_of(g) == sigma
        for got, want in zip(rep.matrix_of(g).entries, sigma.entries):
            assert [type(x) in RATIONAL_TYPES for x in got] == [type(x) in RATIONAL_TYPES for x in want]


def test_fixed_space_dimensions():
    a3 = realize(TypeLabel("A", 3))
    assert fixed_space_dimension([g.natural_matrix() for g in a3.generators]) == 1
    b3 = realize(TypeLabel("B", 3))
    assert fixed_space_dimension([g.natural_matrix() for g in b3.generators]) == 0
    d4 = realize(TypeLabel("D", 4))
    assert fixed_space_dimension([g.natural_matrix() for g in d4.generators]) == 0
    i26 = realize(TypeLabel("I2", 2, 6))
    rep = geometric_rep(i26)
    assert fixed_space_dimension([rep.matrix_of(g) for g in i26.generators]) == 0


A1 = TypeLabel("A", 1)
IDENTITY_3 = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: RootSystem(((1, 0), (-1, 0), (1,), (-1,)), A1),  # two vector lengths
        lambda: RootSystem(((1, 0), (-1, 0)), A1, IDENTITY_3),  # a Gram matrix too large
        lambda: RootSystem(((1, 0), (-1, 0)), A1, Matrix([[1]])),  # and too small
        lambda: RootSystem(((1, 0), (-1, 0)), A1, Matrix([[1, 0, 0], [0, 1, 0]])),  # not square
        lambda: reflect((1, 0), (0, 1), Matrix([[1]])),
        lambda: reflect((1, 0), (0, 1, 0)),
        lambda: reflection_matrix((1, 0), 3),
        lambda: reflection_matrix((1, 0, 0), 3, Matrix([[1, 0], [0, 1]])),
    ],
    ids=["mixed-roots", "gram-3", "gram-1", "gram-2x3", "reflect-gram-1", "reflect-lengths",
         "matrix-dim", "matrix-gram-2"],
)
def test_vectors_have_one_length_the_size_of_the_gram_matrix(build):
    """A vector length that differs from another, or from the Gram matrix's
    size, is bad input: never an IndexError, nor an answer read from part of
    a vector or part of the form."""
    with pytest.raises(ValidationError, match="^sizes of the vectors and the Gram matrix differ"):
        build()


@pytest.mark.parametrize(
    "matrices",
    [[Matrix([[1]]), Matrix([[1, 0], [0, -1]])], [Matrix([[1, 0]])], [Matrix([[1, 0], [0, 1]]), Matrix([[1]])]],
    ids=["smaller-first", "not-square", "larger-first"],
)
def test_fixed_space_needs_square_matrices_of_one_size(matrices):
    """Never the fixed space of a corner of a larger matrix, nor an IndexError."""
    with pytest.raises(ValidationError, match="^need square matrices of one size$"):
        fixed_space_dimension(matrices)


def dihedral_orbit(m: int) -> list[tuple]:
    """The I2(m) roots as the orbit of the simple roots under the two simple
    reflections and negation, each image reflected afresh."""
    gram = gram_matrix(realize(TypeLabel("I2", 2, m)).graph)
    simples = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    seen, queue = {}, list(simples)
    for v in queue:
        key = _vector_key(v, 2 * m)
        if key not in seen:
            seen[key] = v
            queue += [reflect(s, v, gram) for s in simples] + [tuple(-x for x in v)]
    return list(seen.values())


@pytest.mark.parametrize("m", [*range(3, 31), BOND_BOUND], ids=lambda m: f"I2({m})")
def test_dihedral_closed_form_is_the_reflection_orbit(m):
    rs = root_system(TypeLabel("I2", 2, m))
    orbit = dihedral_orbit(m)
    assert rs.count == len(orbit) == 2 * m
    assert {_vector_key(v, 2 * m) for v in rs.roots} == {_vector_key(v, 2 * m) for v in orbit}
    # the simple roots, each coordinate a Fraction, [0] and [1] as built
    assert rs.roots[0] == (Fraction(1), Fraction(0)) and rs.roots[m - 1] == (Fraction(0), Fraction(1))
    assert all(type(x) is Fraction for x in rs.roots[0] + rs.roots[m - 1])


def no_inversion(*args):
    raise AssertionError("a cyclotomic inverse was computed")


def test_dihedral_roots_and_bases_invert_nothing(monkeypatch):
    """The closed-form roots have norm 1 and the sweep decides the line axiom
    with no division, so no cyclotomic value is ever inverted."""
    import coxeterkit.cyclotomic as cyclotomic

    monkeypatch.setattr(cyclotomic, "_inverse_numerators", no_inversion)
    for m in range(3, 25):
        rs = root_system(TypeLabel("I2", 2, m))
        assert compute_base(rs) == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_dihedral_verification_inverts_nothing(monkeypatch):
    import coxeterkit.cyclotomic as cyclotomic
    from coxeterkit.verify import run_verification

    monkeypatch.setattr(cyclotomic, "_inverse_numerators", no_inversion)
    assert [name for name, ok, _ in run_verification(TypeLabel("I2", 2, 12)) if not ok] == []
