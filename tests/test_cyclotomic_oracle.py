"""The integer cyclotomic kernel against an independent Fraction-dict oracle.

``OracleCyclotomic`` is the kernel as it stood before values moved to int
numerators over one denominator: a sparse map ``exponent -> Fraction``,
re-reduced modulo the cyclotomic polynomial on every test, with inverses by
the extended Euclidean algorithm over Fractions.  It shares no code with
``coxeterkit.cyclotomic``.  Seeded random expressions (sums, differences,
products, powers, inverses, conjugates and negations, with rational and
mixed-conductor operands on either side) are built in both, and every
observable of the public API must agree.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from coxeterkit.cyclotomic import Cyclotomic, real_cos_pi_over

CONDUCTORS = (1, 2, 5, 8, 10, 12, 24, 40, 60, 70, 120)


def _poly_div_exact(p, q):
    p = list(p)
    dq = len(q) - 1
    out = [0] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c:
            out[i - dq] = c
            for j in range(dq + 1):
                p[i - dq + j] -= c * q[j]
    assert not any(p)
    return out


@lru_cache(maxsize=None)
def _phi(n):
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _poly_div_exact(p, _phi(d))
    return tuple(p)


def _reduce_terms(terms, n):
    phi = _phi(n)
    deg = len(phi) - 1
    dense = [Fraction(0)] * n
    for k, c in terms.items():
        dense[k] += c
    for i in range(n - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = Fraction(0)
            for j in range(deg):
                dense[i - deg + j] -= c * phi[j]
    return {k: c for k, c in enumerate(dense[:deg]) if c}


def _poly_divmod(a, b):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = a[-1] / b[-1]
        k = len(a) - 1 - db
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
        while a and not a[-1]:
            a.pop()
    return q, a


class OracleCyclotomic:
    __hash__ = None

    def __init__(self, conductor, terms):
        acc = {}
        for k, c in terms.items():
            c = Fraction(c)
            if c:
                k %= conductor
                acc[k] = acc.get(k, Fraction(0)) + c
        self.conductor = conductor
        self.terms = {k: c for k, c in acc.items() if c}

    def _lifted(self, m):
        step = m // self.conductor
        return {k * step: c for k, c in self.terms.items()}

    @staticmethod
    def _coerce(x):
        if isinstance(x, OracleCyclotomic):
            return x
        return OracleCyclotomic(1, {0: Fraction(x)})

    def __add__(self, other):
        other = self._coerce(other)
        m = math.lcm(self.conductor, other.conductor)
        a, b = self._lifted(m), other._lifted(m)
        for k, c in b.items():
            a[k] = a.get(k, Fraction(0)) + c
        return OracleCyclotomic(m, a)

    __radd__ = __add__

    def __neg__(self):
        return OracleCyclotomic(self.conductor, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        m = math.lcm(self.conductor, other.conductor)
        a, b = self._lifted(m), other._lifted(m)
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = (k1 + k2) % m
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return OracleCyclotomic(m, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = OracleCyclotomic(1, {0: 1})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def inverse(self):
        red = self.reduced()
        if not red:
            raise ZeroDivisionError
        if set(red) <= {0}:
            return OracleCyclotomic(1, {0: 1 / red[0]})
        n = self.conductor
        phi = [Fraction(c) for c in _phi(n)]
        deg = len(phi) - 1
        p = [red.get(k, Fraction(0)) for k in range(deg)]
        r0, r1 = phi, p
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, r2 = _poly_divmod(r0, r1)
            u2 = list(u0) + [Fraction(0)] * max(0, len(q) + len(u1) - 1 - len(u0))
            for i, qc in enumerate(q):
                if qc:
                    for j, uc in enumerate(u1):
                        u2[i + j] -= qc * uc
            r0, r1 = r1, r2
            u0, u1 = u1, u2
        c = r1[0]
        return OracleCyclotomic(n, {k: uc / c for k, uc in enumerate(u1) if uc})

    def reduced(self):
        return _reduce_terms(self.terms, self.conductor)

    def is_zero(self):
        return not self.reduced()

    def is_rational(self):
        return set(self.reduced()) <= {0}

    def rational_value(self):
        return self.reduced().get(0, Fraction(0))

    def __eq__(self, other):
        other = self._coerce(other)
        if self.conductor == other.conductor:
            return self.reduced() == other.reduced()
        return (self - other).is_zero()

    def conjugate(self):
        n = self.conductor
        return OracleCyclotomic(n, {(n - k) % n: c for k, c in self.terms.items()})

    def canonical_key(self, conductor=None):
        m = conductor or self.conductor
        red = _reduce_terms(self._lifted(m), m)
        if set(red) <= {0}:
            return ("q", red.get(0, Fraction(0)))
        return ("c", m) + tuple(sorted(red.items()))

    def to_float(self):
        n = self.conductor
        return math.fsum(
            float(c) * math.cos(2.0 * math.pi * k / n) for k, c in self.reduced().items()
        )

    def __str__(self):
        if self.is_rational():
            return str(self.rational_value())
        parts = []
        for k, c in sorted(self.terms.items()):
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                body = f"z{self.conductor}" + (f"^{k}" if k != 1 else "")
                if mag != 1:
                    body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self.terms})"


# -- seeded random expressions, built in both kernels -------------------------


def _partners(n):
    """Conductors that mix with n without passing conductor 120."""
    return [d for d in CONDUCTORS if math.lcm(n, d) <= 120]


def _leaf(rng, n):
    """A (kernel, oracle) pair: a random sparse value, a root of unity or cos(pi/m)."""
    pick = rng.random()
    if pick < 0.15 and n % 2 == 0 and n >= 4:
        m = n // 2
        return real_cos_pi_over(m), OracleCyclotomic(n, {1: Fraction(1, 2), n - 1: Fraction(1, 2)})
    if pick < 0.3:
        k = rng.randrange(-n, 2 * n)
        return Cyclotomic.zeta(n, k), OracleCyclotomic(n, {k % n: 1})
    terms = {}
    for _ in range(rng.randint(0, 4)):
        k = rng.randrange(-n, 2 * n)
        terms[k] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))
    return Cyclotomic(n, terms), OracleCyclotomic(n, terms)


def _scalar(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def _expression(rng, n, depth):
    if depth == 0:
        return _leaf(rng, n)
    op = rng.choice(("add", "sub", "mul", "mul", "pow", "inv", "conj", "neg", "scalar", "rscalar"))
    a, oa = _expression(rng, n, depth - 1)
    if op in ("add", "sub", "mul"):
        m = rng.choice(_partners(n)) if rng.random() < 0.3 else n
        b, ob = _expression(rng, m, depth - 1)
        if op == "add":
            return a + b, oa + ob
        if op == "sub":
            return a - b, oa - ob
        return a * b, oa * ob
    if op == "pow":
        e = rng.randint(-2 if not oa.is_zero() else 0, 3)
        return a ** e, oa ** e
    if op == "inv":
        if oa.is_zero():
            return a, oa
        return (a.inverse(), oa.inverse()) if rng.random() < 0.5 else (1 / a, 1 / oa)
    if op == "conj":
        return a.conjugate(), oa.conjugate()
    if op == "neg":
        return -a, -oa
    s = _scalar(rng)
    if op == "scalar":
        which = rng.randrange(3)
        if which == 0:
            return a + s, oa + s
        if which == 1:
            return a * s, oa * s
        return (a / s, oa / s) if s else (a - s, oa - s)
    which = rng.randrange(3)
    if which == 0:
        return s + a, s + oa
    if which == 1:
        return s - a, s - oa
    return s * a, s * oa


def _assert_agrees(x, ox):
    assert x.conductor == ox.conductor
    assert repr(x) == repr(ox)  # as-built terms, in insertion order
    assert str(x) == str(ox)
    assert x.terms == ox.terms
    assert list(x.reduced().items()) == list(ox.reduced().items())
    assert x.is_zero() == ox.is_zero()
    assert bool(x) == (not ox.is_zero())
    assert x.is_rational() == ox.is_rational()
    if ox.is_rational():
        assert x.rational_value() == ox.rational_value()
        assert type(x.rational_value()) is Fraction
    assert x.to_float() == ox.to_float()
    if not ox.is_zero():
        inv, oinv = x.inverse(), ox.inverse()
        assert repr(inv) == repr(oinv)
        assert x * inv == 1


def _cases(n, count, depth, seed):
    rng = random.Random(1000 * n + seed)
    return [_expression(rng, n, rng.randint(0, depth)) for _ in range(count)]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_expressions_agree_with_oracle(n):
    for x, ox in _cases(n, 24 if n <= 60 else 12, 3, 1):
        _assert_agrees(x, ox)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_equality_and_keys_agree_with_oracle(n):
    cases = _cases(n, 10, 2, 2)
    rng = random.Random(n)
    for x, ox in list(cases[:5]):
        # the same value at another conductor, lifted by adding a zero
        m = rng.choice(_partners(n))
        cases.append((x + (Cyclotomic.zeta(m, 0) - 1), ox + (OracleCyclotomic(m, {0: 1}) - 1)))
        # and built another way at the same conductor
        cases.append((x * 2 - x, ox * 2 - ox))
    # half the sum of all N-th roots of unity is 0 for N > 1, so v reduces to
    # 3 z_N over the as-built denominator 2: the normal form must cancel it
    halves = {k: Fraction(1, 2) for k in range(n)}
    v = Cyclotomic(n, halves) + 3 * Cyclotomic.zeta(n)
    ov = OracleCyclotomic(n, halves) + 3 * OracleCyclotomic(n, {1: 1})
    cases += [(v, ov), (3 * Cyclotomic.zeta(n), 3 * OracleCyclotomic(n, {1: 1}))]
    for x, ox in cases:
        for y, oy in cases:
            m = math.lcm(x.conductor, y.conductor)
            if m > 120:
                continue
            assert (x == y) == (ox == oy)
            assert (x.canonical_key(m) == y.canonical_key(m)) == (
                ox.canonical_key(m) == oy.canonical_key(m)
            )
        for q in (0, 1, Fraction(-1, 2)):
            assert (x == q) == (ox == q)
            assert (q == x) == (q == ox)
        key = x.canonical_key()
        if ox.is_rational():
            assert key == ("q", ox.rational_value())
        assert key == x.canonical_key(x.conductor)


def test_dihedral_values_agree_with_oracle():
    """The values a dihedral chartable prints, built the same way in both."""
    for m in (5, 7, 11, 12, 24):
        for k in range(m):
            x = Cyclotomic.zeta(m, k) + Cyclotomic.zeta(m, -k)
            ox = OracleCyclotomic(m, {k: 1}) + OracleCyclotomic(m, {(-k) % m: 1})
            _assert_agrees(x, ox)
