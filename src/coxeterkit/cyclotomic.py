"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a sparse map ``exponent -> int`` over the raw power basis
{zeta_N^k : 0 <= k < N}, with one positive common denominator; the gcd of
the numerators and the denominator is divided out.  Arithmetic works on
these ints and only reduces exponents mod N, so a value keeps the form it
was built in and prints that way (e.g. "z5+z5^4" rather than its rewritten
power-basis remainder).

Equality, zero, rationality, keys, floats and inverses read the normal
form: the remainder modulo the N-th cyclotomic polynomial, computed in
integers once per value and cached on it.

Printed grammar (used throughout the CLI):

    value    := rational | term (("+"|"-") term)*
    term     := [magnitude "*"] "z" N ["^" k]      -- k omitted when k = 1
    rational := Fraction syntax, e.g. "3", "-1/2"

A value that reduces to an element of Q prints as a plain rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistencyError, ValidationError

Rational = Fraction
_RATIONALS = frozenset({int, bool, Fraction})  # the types that arithmetic takes as rationals


def _poly_div_exact(p: list[int], q: tuple[int, ...]) -> list[int]:
    # long division by a monic integer polynomial; remainder must vanish
    p = list(p)
    dq = len(q) - 1
    out = [0] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c:
            out[i - dq] = c
            for j in range(dq + 1):
                p[i - dq + j] -= c * q[j]
    if any(p):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValidationError(f"cyclotomic polynomial needs n >= 1, got {n}")
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _poly_div_exact(p, cyclotomic_polynomial(d))
    return tuple(p)


def _normal_form(num: dict[int, int], den: int, n: int):
    """(pairs, den): the remainder of sum num[k] x^k / den modulo Phi_n.

    ``pairs`` lists the nonzero (k, c) in increasing k, and the gcd of the
    c and ``den`` is 1; zero is ((), 1).  Phi_n is monic, so the long
    division stays in integers.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    if not num or max(num) < deg:
        pairs = sorted(num.items())
    else:
        tail = [(j, p) for j, p in enumerate(phi[:deg]) if p]
        dense = [0] * n
        for k, c in num.items():
            dense[k] = c
        for i in range(n - 1, deg - 1, -1):
            c = dense[i]
            if c:
                base = i - deg
                for j, p in tail:
                    dense[base + j] -= c * p
        pairs = [(k, c) for k, c in enumerate(dense[:deg]) if c]
    if not pairs:
        return (), 1
    g = math.gcd(den, *(c for _, c in pairs))
    if g > 1:
        return tuple((k, c // g) for k, c in pairs), den // g
    return tuple(pairs), den


def _make(conductor: int, num: dict[int, int], den: int) -> "Cyclotomic":
    """Trusted constructor: exponents in range, nonzero int numerators, den > 0."""
    if den > 1 and num:
        g = math.gcd(den, *num.values())
        if g > 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    x = object.__new__(Cyclotomic)
    x.conductor = conductor
    x._num = num
    x._den = den if num else 1
    x._nf = None
    return x


def _inverse_numerators(p: list[int], phi: tuple[int, ...]) -> tuple[list[int], int]:
    """u and c != 0 with u * p = c modulo phi, all in integers.

    The extended Euclidean algorithm with pseudo-division: each step keeps
    r_i = u_i * p (mod phi) and divides r_i and u_i by their common content,
    which keeps the integers small.  phi is irreducible and p is a nonzero
    polynomial of lower degree, so the last remainder is a constant.
    """
    r0, r1 = list(phi), p
    u0, u1 = [0], [1]
    while len(r1) > 1:
        lead, d1 = r1[-1], len(r1) - 1
        r, scale = r0, 1
        q = [0] * (len(r0) - d1)
        while len(r) > d1:
            c, k = r[-1], len(r) - 1 - d1
            r = [lead * x for x in r]
            for j, y in enumerate(r1):
                r[k + j] -= c * y
            q = [lead * x for x in q]
            q[k] += c
            scale *= lead
            while r and not r[-1]:
                r.pop()
        # scale * r0 = q * r1 + r, so r = (scale * u0 - q * u1) * p (mod phi)
        u2 = [scale * x for x in u0] + [0] * max(0, len(q) + len(u1) - 1 - len(u0))
        for i, qc in enumerate(q):
            if qc:
                for j, uc in enumerate(u1):
                    u2[i + j] -= qc * uc
        while u2 and not u2[-1]:
            u2.pop()
        g = math.gcd(*r, *u2)
        r0, r1 = r1, [x // g for x in r]
        u0, u1 = u1, [x // g for x in u2]
    return u1, r1[0]


class Cyclotomic:
    """An exact element of Q(zeta_N), N = ``conductor``."""

    __slots__ = ("conductor", "_num", "_den", "_nf")
    __hash__ = None  # use canonical_key() for set/dict membership

    def __init__(self, conductor: int, terms: dict):
        if type(conductor) is not int:
            raise ValidationError(f"conductor must be an exact int, got {conductor!r}")
        if conductor < 1:
            raise ValidationError(f"conductor must be >= 1, got {conductor}")
        acc: dict[int, Fraction] = {}
        for k, c in terms.items():
            c = Fraction(c)
            if c:
                k %= conductor
                acc[k] = acc.get(k, Fraction(0)) + c
        den = math.lcm(*(c.denominator for c in acc.values() if c))
        self.conductor = conductor
        self._num = {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}
        self._den = den
        self._nf = None

    @property
    def terms(self) -> dict[int, Fraction]:
        """The as-built coefficients, ``exponent -> Fraction``."""
        den = self._den
        return {k: Fraction(c, den) for k, c in self._num.items()}

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls(1, {0: Fraction(q)})

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclotomic":
        if n < 1:  # the constructor's conductor error, before k % n
            return cls(n, {})
        return cls(n, {k % n: Fraction(1)})

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, {})

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, {0: Fraction(1)})

    # -- conductor handling ------------------------------------------------

    def _lifted(self, m: int) -> dict[int, int]:
        if m % self.conductor:
            raise ValidationError("can only lift to a multiple of the conductor")
        step = m // self.conductor
        if step == 1:
            return self._num
        return {k * step: c for k, c in self._num.items()}

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, int):
            return _make(1, {0: int(x)} if x else {}, 1)
        if isinstance(x, Fraction):
            return _make(1, {0: x.numerator} if x else {}, x.denominator)
        return None

    def _normal(self):
        nf = self._nf
        if nf is None:
            nf = self._nf = _normal_form(self._num, self._den, self.conductor)
        return nf

    def _combine(self, other: "Cyclotomic", unit: int) -> "Cyclotomic":
        # self + unit * other (unit = 1 or -1), keeping self's terms first as built
        m = math.lcm(self.conductor, other.conductor)
        da, db = self._den, other._den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g * unit
        out = {k: c * fa for k, c in self._lifted(m).items()}
        for k, c in other._lifted(m).items():
            out[k] = out.get(k, 0) + c * fb
        return _make(m, {k: c for k, c in out.items() if c}, da * fa)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) in _RATIONALS and not other:
            # x + 0 is x as built, normal form included
            out = _make(self.conductor, self._num, self._den)
            out._nf = self._nf
            return out
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other):
        if type(other) in _RATIONALS:
            # a rational scales the numerators, as the general product would
            p, q = other.numerator, other.denominator
            return _make(self.conductor, {k: c * p for k, c in self._num.items()} if p else {},
                         self._den * q)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        b = other._lifted(m).items()
        out: dict[int, int] = {}
        for k1, c1 in self._lifted(m).items():
            for k2, c2 in b:
                k = (k1 + k2) % m
                out[k] = out.get(k, 0) + c1 * c2
        return _make(m, {k: c for k, c in out.items() if c}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = Cyclotomic.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, by the extended Euclidean algorithm
        against the conductor's cyclotomic polynomial.

        A rational value gives a conductor-1 result; any other value gives
        its inverse's normal form at its own conductor.
        """
        pairs, den = self._normal()
        if not pairs:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if pairs[0][0] == 0 and len(pairs) == 1:
            c = pairs[0][1]
            return _make(1, {0: den if c > 0 else -den}, abs(c))
        n = self.conductor
        p = [0] * (pairs[-1][0] + 1)
        for k, c in pairs:
            p[k] = c
        u, c = _inverse_numerators(p, cyclotomic_polynomial(n))
        if c < 0:
            c, den = -c, -den
        out = _make(n, {k: x * den for k, x in enumerate(u) if x}, c)
        out._nf = (tuple(out._num.items()), out._den)  # deg u < deg Phi_N: already reduced
        return out

    # -- predicates and conversions -----------------------------------------

    def reduced(self) -> dict[int, Fraction]:
        pairs, den = self._normal()
        return {k: Fraction(c, den) for k, c in pairs}

    def is_zero(self) -> bool:
        return not self._normal()[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        pairs = self._normal()[0]
        return not pairs or (len(pairs) == 1 and pairs[0][0] == 0)

    def rational_value(self) -> Fraction:
        pairs, den = self._normal()
        if not pairs:
            return Fraction(0)
        if len(pairs) == 1 and pairs[0][0] == 0:
            return Fraction(pairs[0][1], den)
        raise ValidationError("value is not rational")

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.conductor == other.conductor:
            return self._normal() == other._normal()
        return (self - other).is_zero()

    def conjugate(self) -> "Cyclotomic":
        """Image under zeta -> zeta^-1 (complex conjugation on Q(zeta_N))."""
        n = self.conductor
        return _make(n, {(n - k) % n: c for k, c in self._num.items()}, self._den)

    def canonical_key(self, conductor: int | None = None):
        """Hashable exact form at a fixed conductor (own conductor by default).

        Rational values give ("q", Fraction), the key of the plain rational.
        """
        m = conductor or self.conductor
        if m == self.conductor:
            pairs, den = self._normal()
        else:
            pairs, den = _normal_form(self._lifted(m), self._den, m)
        if not pairs:
            return ("q", Fraction(0))
        if len(pairs) == 1 and pairs[0][0] == 0:
            return ("q", Fraction(pairs[0][1], den))
        return ("c", m, den) + pairs

    def to_float(self) -> float:
        """Real part of the value at zeta_N = exp(2*pi*i/N).

        Evaluates the normal form, so exact zeros return exactly 0.0; see
        ``sign`` for the error bound.
        """
        pairs, den = self._normal()
        n = self.conductor
        return math.fsum(c / den * math.cos(2.0 * math.pi * k / n) for k, c in pairs)

    def sign(self) -> int:
        """Sign (-1, 0 or 1) of a real value; ``linalg.sign`` takes any scalar.

        The value is zero exactly when its normal form sum_k c_k zeta^k / d
        is empty.  Otherwise the float f of that form decides, once it
        clears the bound

            B = 2^-48 * sum_k |c_k| / d.

        Derivation, with u = 2^-53 the unit roundoff: the argument
        2.0*pi*k/N is off by at most 3u relative (pi, the product and the
        quotient each round once), so by at most 6*pi*u < 19u absolutely
        since it lies in [0, 2*pi); cos is 1-Lipschitz and rounds within u,
        so each cosine is within 20u.  c_k/d rounds within u relative, the
        product within one more, and fsum rounds the exact sum once:
        |f - x| is at most 23u * sum_k |c_k|/d, and B leaves room for
        rounding in B itself (values here stay far from float underflow and
        overflow).  So |f| > B gives the sign of x, and a value that does not
        clear it raises InternalInconsistencyError instead of guessing.
        """
        pairs, den = self._normal()
        if not pairs:
            return 0
        f = self.to_float()
        bound = math.ldexp(sum(abs(c) for _, c in pairs) / den, -48)
        if f > bound:
            return 1
        if f < -bound:
            return -1
        raise InternalInconsistencyError(f"value too close to zero for a certified sign: {self!r}")

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
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

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {self.terms})"


def real_cos_pi_over(m) -> Cyclotomic:
    """Exact cos(pi/m) as (zeta_2m + zeta_2m^-1)/2; m = inf gives the limit 1."""
    if isinstance(m, float) and math.isinf(m):
        return Cyclotomic.one()
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValidationError(f"need an integer m >= 2 or infinity, got {m!r}")
    return _make(2 * m, {1: 1, 2 * m - 1: 1}, 2)
