import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.cyclotomic import Cyclotomic, real_cos_pi_over
from coxeterkit.errors import ValidationError
from coxeterkit.graphs import CoxeterGraph, gram_matrix
from coxeterkit.linalg import Matrix, block_diag


def brute_force_det(m: Matrix):
    """Leibniz expansion over all permutations, for any exact scalars; the
    independent oracle."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term = term * m.entries[i][perm[i]]
        total = total + term
    return total


def test_determinant_examples():
    gram_a2 = Matrix([[1, Fraction(-1, 2)], [Fraction(-1, 2), 1]])
    assert gram_a2.determinant() == Fraction(3, 4)
    assert Matrix([[1, -1], [-1, 1]]).determinant() == 0
    assert Matrix.identity(3).determinant() == 1


def test_determinant_requires_square():
    with pytest.raises(ValidationError):
        Matrix.zeros(2, 3).determinant()


def test_rank_examples():
    assert Matrix.zeros(2, 3).rank() == 0
    assert Matrix.identity(4).rank() == 4
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_rank_rejects_irrational_entries():
    with pytest.raises(ValidationError):
        Matrix([[Cyclotomic.zeta(8), 0], [0, 1]]).rank()


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_determinant_against_brute_force(n, data):
    rows = [[data.draw(fractions_st) for _ in range(n)] for _ in range(n)]
    m = Matrix(rows)
    assert m.determinant() == brute_force_det(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8), st.data())
def test_rank_of_transpose(r, c, data):
    rows = [
        [data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(c)]
        for _ in range(r)
    ]
    assert Matrix(rows).rank() == Matrix([list(col) for col in zip(*rows)]).rank()


def test_cyclotomic_determinant_matches_rational_path():
    # the Gram matrix of a single bond of order 4 has an irrational entry
    c = -real_cos_pi_over(4)
    m = Matrix([[1, c], [c, 1]])
    assert m.determinant() == Fraction(1, 2)
    # same matrix with the value written rationally squared out by hand:
    # det = 1 - cos^2(pi/4) = 1/2 exactly


@pytest.mark.parametrize("n", [5, 12, 20, 30])
def test_cyclotomic_determinant_of_a_complete_graph_in_closed_form(n):
    """The Gram matrix of the complete graph with every label 4 is
    (1 + h) I - h J, h = cos(pi/4), so det = (1 + h)^(n-1) (1 + h - n h).
    The elimination keeps its entries in normal form; unreduced, they grew
    about 3x in cost per vertex (5.9 s at n = 20)."""
    h = Cyclotomic(8, {1: Fraction(1, 2), 7: Fraction(1, 2)})
    m = gram_matrix(CoxeterGraph(n, [(i, j, 4) for i in range(n) for j in range(i + 1, n)]))
    start = time.perf_counter()
    det = m.determinant()
    assert time.perf_counter() - start < 3.0
    assert det == (1 + h) ** (n - 1) * (1 + h - n * h)


def test_gauss_and_bareiss_agree():
    rows = [[Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(-1), Fraction(1, 3), Fraction(5)],
            [Fraction(2), Fraction(0), Fraction(1)]]
    m = Matrix(rows)
    lifted = Matrix([[Cyclotomic.from_rational(x) for x in row] for row in rows])
    # lifted entries are rational-valued, so both go through exact paths
    assert m.determinant() == lifted.determinant()


def test_solve():
    a = Matrix([[1, 2], [3, 4]])
    assert a.solve([5, 11]) == [Fraction(1), Fraction(2)]
    singular = Matrix([[1, 2], [2, 4]])
    assert singular.solve([1, 3]) is None
    # one elimination for many right-hand sides: a free variable is set to 0
    assert singular.solve_each([[1, 3], [1, 2], [0, 0]]) == [None, [Fraction(1), 0], [0, 0]]
    z = Cyclotomic.zeta(5)
    b = Matrix([[1, z], [0, 2]])
    assert b.solve_each([[1 + z, 2], [1, 0]]) == [b.solve([1 + z, 2]), [1, 0]] == [[1, 1], [1, 0]]


def cyclotomic_st(conductor: int):
    """An int, or a short sum of powers of zeta_conductor with small coefficients."""
    term = st.tuples(st.integers(0, conductor - 1), st.integers(-2, 2))
    return st.one_of(
        st.integers(-2, 2),
        st.lists(term, min_size=1, max_size=3).map(lambda ts: Cyclotomic(conductor, dict(ts))),
    )


@pytest.mark.parametrize("shape", ["plain", "zero leading entry", "repeated row"])
@pytest.mark.parametrize("conductor", [5, 8, 12])
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_cyclotomic_elimination_against_leibniz(conductor, shape, n, data):
    entry = cyclotomic_st(conductor)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "zero leading entry":
        rows[0][0] = 0  # the first pivot needs a row swap, or there is none
    elif shape == "repeated row" and n > 1:
        rows[-1] = list(rows[0])  # singular
    m = Matrix(rows)
    det = m.determinant()
    assert det == brute_force_det(m)
    if m.rational_entries() is not None:
        assert type(det) is Fraction
    elif det == 0:
        assert type(det) is int
    rank = m.field_rank()
    assert rank == Matrix([list(c) for c in zip(*rows)]).field_rank()
    assert (rank == n) == (det != 0)

    x0 = [data.draw(entry) for _ in range(n)]
    bs = [
        [sum((a * x for a, x in zip(r, x0)), 0) for r in rows],  # consistent
        [data.draw(entry) for _ in range(n)],
    ]
    for b, x in zip(bs, m.solve_each(bs)):
        augmented = Matrix([list(r) + [c] for r, c in zip(rows, b)])
        assert (x is None) == (rank < augmented.field_rank())
        if x is not None:
            assert all(sum((a * c for a, c in zip(r, x)), 0) == c0 for r, c0 in zip(rows, b))


def test_field_rank_with_cyclotomic_entries():
    z = Cyclotomic.zeta(8)
    # rows are proportional over Q(zeta_8): z * (1, z^6)  = (z, z^7)
    m = Matrix([[1, z ** 6], [z, z ** 7]])
    assert m.field_rank() == 1


def test_product_adds_no_term_at_a_rational_zero_in_either_factor():
    c = Cyclotomic.zeta(5, 1)
    a = Matrix([[c, Fraction(0)], [Fraction(-1), c + 1]])
    for prod in (a * Matrix.identity(2), Matrix.identity(2) * a):
        assert prod == a
        assert [[isinstance(x, Cyclotomic) for x in row] for row in prod.entries] == [
            [True, False],
            [False, True],
        ]


def test_block_diag_and_trace():
    a = Matrix([[1, 2], [3, 4]])
    d = block_diag([a, Matrix([[7]])])
    assert d.rows == 3 and d.entries[2][2] == 7 and d.entries[0][2] == 0
    assert d.trace() == 1 + 4 + 7

