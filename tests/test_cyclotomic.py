import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeterkit.cyclotomic import Cyclotomic, cyclotomic_polynomial, real_cos_pi_over
from coxeterkit.errors import InternalInconsistencyError, ValidationError
from coxeterkit.linalg import sign


def test_real_cos_examples():
    assert real_cos_pi_over(2) == 0
    assert real_cos_pi_over(3) == Fraction(1, 2)
    assert real_cos_pi_over(math.inf) == 1


def test_real_cos_rejects_small_m():
    with pytest.raises(ValidationError):
        real_cos_pi_over(1)
    with pytest.raises(ValidationError):
        real_cos_pi_over(0)


@given(st.integers(min_value=2, max_value=50))
def test_real_cos_float_agreement(m):
    assert abs(real_cos_pi_over(m).to_float() - math.cos(math.pi / m)) < 1e-12


@given(st.integers(min_value=2, max_value=50))
def test_real_cos_fixed_by_conjugation(m):
    v = real_cos_pi_over(m)
    assert v.conjugate() == v
    # raw power-basis symmetry k <-> N-k
    n = v.conductor
    assert v.terms == {(n - k) % n: c for k, c in v.terms.items()}


def test_to_float_examples():
    assert (Cyclotomic.zeta(4) + Cyclotomic.zeta(4, 3)).to_float() == 0.0
    assert abs(real_cos_pi_over(5).to_float() - 0.8090170) < 1e-6
    assert Cyclotomic.from_rational(Fraction(3, 4)).to_float() == 0.75


def test_equality_across_conductors():
    assert Cyclotomic.zeta(3) == Cyclotomic.zeta(6, 2)
    assert Cyclotomic.zeta(6) - 1 == Cyclotomic.zeta(3)
    assert Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4) == -1 - Cyclotomic.zeta(5, 2) - Cyclotomic.zeta(5, 3)


@pytest.mark.parametrize("n", [0, -1, -6])
def test_zeta_needs_a_positive_conductor(n):
    with pytest.raises(ValidationError, match=f"^conductor must be >= 1, got {n}$"):
        Cyclotomic.zeta(n)
    with pytest.raises(ValidationError, match=f"^conductor must be >= 1, got {n}$"):
        Cyclotomic.zeta(n, 3)


@pytest.mark.parametrize("n", [1.5, 2.0, True, Fraction(3), "5"], ids=repr)
def test_conductor_is_an_exact_int(n):
    """A float, bool or Fraction conductor is refused on construction, not
    built to fail later in arithmetic or printing."""
    with pytest.raises(ValidationError, match=f"^conductor must be an exact int, got {re.escape(repr(n))}$"):
        Cyclotomic(n, {0: 1})
    with pytest.raises(ValidationError):
        Cyclotomic(n, {})


@pytest.mark.parametrize("k", [1.5, 4.5, 2.0, True, Fraction(1), "1"], ids=repr)
def test_exponent_is_an_exact_int(k):
    """A float, bool or Fraction exponent is refused on construction: 1.5 no
    longer prints as z5^1.5, 4.5 no longer fails later in the normal form,
    and True is no longer taken for 1, even with a zero coefficient."""
    for c in (1, 0):
        with pytest.raises(ValidationError, match=f"^exponent must be an exact int, got {re.escape(repr(k))}$"):
            Cyclotomic(5, {k: c})


def test_rationality_detection():
    v = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 2) + Cyclotomic.zeta(5, 3) + Cyclotomic.zeta(5, 4)
    assert v.is_rational() and v.rational_value() == -1
    assert not Cyclotomic.zeta(8).is_rational()


def test_printing_grammar():
    assert str(Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)) == "z5+z5^4"
    assert str(-real_cos_pi_over(4)) == "-1/2*z8-1/2*z8^7"
    assert str(Cyclotomic.from_rational(Fraction(3, 4))) == "3/4"
    assert str(Cyclotomic.zero()) == "0"
    assert str(Cyclotomic.zeta(6) + Cyclotomic.zeta(6, 5)) == "1"  # reduces to rational


small_cyc = st.builds(
    lambda n, coeffs: Cyclotomic(n, dict(coeffs)),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.fractions(min_value=-6, max_value=6, max_denominator=4)),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_cyc, small_cyc, small_cyc)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == 0


@settings(max_examples=40, deadline=None)
@given(small_cyc)
def test_inverse_roundtrip(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(small_cyc)
def test_conjugation_is_involutive_and_multiplicative(x):
    assert x.conjugate().conjugate() == x
    y = Cyclotomic.zeta(12) + Fraction(1, 2)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    # product over divisors reconstructs x^n - 1
    for n in (6, 12, 30):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def test_power_and_division():
    z = Cyclotomic.zeta(7)
    assert z ** 7 == 1
    assert z ** -1 == Cyclotomic.zeta(7, 6)
    assert (Fraction(2) / z) * z == 2


def as_built(x):
    return x.conductor, x.terms, str(x), repr(x)


@pytest.mark.parametrize("q", [3, -2, Fraction(-5, 4), Fraction(2, 3), 0, Fraction(0)], ids=repr)
@settings(max_examples=30, deadline=None)
@given(small_cyc)
def test_rational_fast_paths_match_the_general_path(q, x):
    """x * q and q * x scale the numerators, x + 0 and 0 + x copy x; each
    gives what the product or sum with q as a conductor-1 value gives."""
    general = Cyclotomic.from_rational(q)
    assert as_built(x * q) == as_built(q * x) == as_built(x * general)
    if not q:
        assert as_built(x + q) == as_built(q + x) == as_built(x + general)
        assert (x + q) is not x and (x + q).reduced() == x.reduced()


def test_sign_of_rationals_and_exact_zeros():
    assert [sign(x) for x in (3, -2, 0, Fraction(-1, 7), Fraction(1, 10**30))] == [1, -1, 0, -1, 1]
    assert sign(Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4) - Cyclotomic.zeta(10, 2) - Cyclotomic.zeta(10, 8)) == 0
    assert sign(real_cos_pi_over(5) * 2 - Cyclotomic.zeta(10) - Cyclotomic.zeta(10, 9)) == 0
    assert sign(-real_cos_pi_over(7)) == -1


def test_sign_certifies_a_value_below_the_old_tolerance():
    # cos(pi/5) = 0.8090169943749..., so this is about +4.9e-12, about a
    # thousand times the derived error bound
    x = real_cos_pi_over(5) - Fraction(80901699437, 10**11)
    assert 4e-12 < x.to_float() < 6e-12
    assert sign(x) == 1
    assert sign(-x) == -1


def test_sign_refuses_to_guess_inside_the_bound():
    # about 4e-18 away from zero: nonzero, but below 2^-48 * sum |c_k|
    x = real_cos_pi_over(5) - Fraction(80901699437494742, 10**17)
    assert not x.is_zero()
    with pytest.raises(InternalInconsistencyError):
        sign(x)


def test_values_are_stored_over_one_denominator():
    x = Cyclotomic(12, {1: Fraction(1, 2), 5: Fraction(-2, 3), 13: Fraction(1, 6)})
    assert x.terms == {1: Fraction(1, 2) + Fraction(1, 6), 5: Fraction(-2, 3)}
    assert x._den == 3 and x._num == {1: 2, 5: -2}
    # the normal form is computed once and kept
    assert x._nf is None
    x.is_zero()
    nf = x._nf
    assert nf == (((1, 4), (3, -2)), 3)
    assert x.reduced() == {1: Fraction(2, 3) + Fraction(2, 3), 3: Fraction(-2, 3)}
    assert x._nf is nf
