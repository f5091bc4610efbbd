"""Exact arithmetic in cyclotomic-rational fields Q(zeta_N).

Elements are stored reduced modulo the N-th cyclotomic polynomial Phi_N, so
the coefficient vector has length phi(N).  Binary operations between elements
of different orders lift both to the lcm; the lift zeta_N -> zeta_M^(M/N) is
injective and compatible with arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd

from .errors import WildcycleError

Q0 = Fraction(0)
Q1 = Fraction(1)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


# ---------------------------------------------------------------------------
# dense polynomials over a field: lists of coefficients, low degree first
# ---------------------------------------------------------------------------
#
# One kernel serves Fraction, Cyc and ParamScalar coefficients: it needs only
# + - * / and truthiness.  ``zero`` is the caller's zero.  A Cyc keeps its
# order and its rendering depends on it, so the zero a sum starts from, and
# skipping zero products, decide the order a coefficient is stored at.


def poly_trim(a) -> list:
    """``a`` without trailing zeros, keeping at least one coefficient."""
    a = list(a)
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def poly_add(a, b, zero) -> list:
    return poly_trim(x + y for x, y in zip_longest(a, b, fillvalue=zero))


def poly_sub(a, b, zero) -> list:
    return poly_trim(x - y for x, y in zip_longest(a, b, fillvalue=zero))


def poly_mul(a, b, zero) -> list:
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_divmod(num, den, zero):
    """(quotient, remainder) with num = quotient*den + remainder and
    deg remainder < deg den; ``den`` is trimmed and nonzero."""
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quo = [zero] * max(1, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] / lead
        if c:
            quo[i - dd] = c
            for j in range(dd + 1):
                rem[i - dd + j] = rem[i - dd + j] - c * den[j]
    return quo, poly_trim(rem[:dd]) or [zero]


def poly_gcd(a, b, zero) -> list:
    """Monic greatest common divisor; ``[zero]`` when both are zero."""
    a, b = poly_trim(a), poly_trim(b)
    while any(b):
        a, b = b, poly_divmod(a, b, zero)[1]
    if not any(a):
        return [zero]
    return [c / a[-1] for c in a]


def interpolate(points, values, zero) -> list:
    """Lagrange interpolation: the polynomial of degree < len(points) that
    takes ``values`` at the distinct rational ``points``."""
    coeffs = [zero] * len(points)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis, denom = [Q1], Q1
        for j, xj in enumerate(points):
            if j != i:
                basis = poly_mul(basis, [-xj, Q1], Q0)
                denom *= xi - xj
        scale = yi / denom
        for k, b in enumerate(basis):
            if b:
                coeffs[k] = coeffs[k] + scale * b
    return poly_trim(coeffs)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low degree first, as Fractions."""
    if n == 1:
        return (Q0 - 1, Q1)
    num = [Q0] * (n + 1)
    num[0], num[n] = Q0 - 1, Q1
    den = [Q1]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, cyclotomic_polynomial(d), Q0)
    quo, rem = poly_divmod(num, den, Q0)
    if any(rem):
        raise WildcycleError(f"cyclotomic division failed for n={n}")
    return tuple(quo)


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple:
    """Tr(zeta_n^k)/phi(n) = mu(m)/phi(m), m = n/gcd(k, n), for k < phi(n)."""
    ms = [n // gcd(k, n) for k in range(totient(n))]
    return tuple(Fraction(_mobius(m), totient(m)) for m in ms)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """x^k mod Phi_n for k = 0 .. 2*phi(n), as coefficient tuples."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [Q1]
    for _ in range(2 * deg + 1):
        rows.append(tuple(cur) + (Q0,) * (deg - len(cur)))
        cur = [Q0] + cur
        if len(cur) > deg:
            c = cur[deg]
            if c:
                cur = [cur[j] - c * phi[j] for j in range(deg)]
            else:
                cur = cur[:deg]
        while len(cur) > 1 and cur[-1] == 0:
            cur.pop()
    return tuple(rows)


def _reduce(n: int, coeffs) -> tuple:
    """Reduce an arbitrary coefficient list modulo Phi_n."""
    deg = totient(n)
    table = _power_table(n)
    out = [Q0] * deg
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k < deg:
            out[k] += c
        elif k < len(table):
            row = table[k]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
        else:
            # rare: fall back to explicit remainder
            tail = [Q0] * (k + 1)
            tail[k] = c
            _, rem = poly_divmod(tail, cyclotomic_polynomial(n), Q0)
            for j, r in enumerate(rem):
                out[j] += r
    return tuple(out)


class Cyc:
    """An element of Q(zeta_N), reduced modulo Phi_N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        deg = totient(order)
        cs = tuple(coeffs)
        if len(cs) != deg:
            cs = _reduce(order, cs)
        self.coeffs = cs

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(a, order: int = 1) -> "Cyc":
        deg = totient(order)
        return Cyc(order, (Fraction(a),) + (Q0,) * (deg - 1))

    @staticmethod
    def zero(order: int = 1) -> "Cyc":
        return Cyc.rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "Cyc":
        return Cyc.rational(1, order)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        power %= order
        coeffs = [Q0] * (power + 1)
        coeffs[power] = Q1
        return Cyc(order, coeffs)

    @staticmethod
    def imaginary_unit(order: int = 4) -> "Cyc":
        n = lcm(order, 4)
        return Cyc.zeta(n, n // 4)

    @staticmethod
    def gaussian(re, im) -> "Cyc":
        return Cyc.rational(re, 4) + Cyc.rational(im, 4) * Cyc.zeta(4)

    # -- order management ---------------------------------------------
    def lift(self, order: int) -> "Cyc":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise WildcycleError(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})")
        step = order // self.order
        out = [Q0] * (totient(self.order) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] += c
        return Cyc(order, _reduce(order, out))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.order)
        if self.order == other.order:
            return self, other
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        a, b = self._pair(other)
        return Cyc(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyc(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyc(self.order, tuple(c * f for c in self.coeffs))
        a, b = self._pair(other)
        # rational fast paths dominate in practice
        if a.is_rational():
            f = a.coeffs[0]
            if not f:
                return Cyc.zero(b.order)
            return Cyc(b.order, tuple(c * f for c in b.coeffs))
        if b.is_rational():
            f = b.coeffs[0]
            if not f:
                return Cyc.zero(a.order)
            return Cyc(a.order, tuple(c * f for c in a.coeffs))
        deg = len(a.coeffs)
        conv = [Q0] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return Cyc(a.order, _reduce(a.order, conv))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Inverse via extended Euclid against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyc.rational(1 / self.coeffs[0], self.order)
        # extended euclid: s*a + t*phi = g
        r0, r1 = poly_trim(self.coeffs), cyclotomic_polynomial(self.order)
        s0, s1 = [Q1], [Q0]
        while any(r1):
            q, r = poly_divmod(r0, r1, Q0)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, Q0), Q0)
        g = r0
        if len(g) != 1:
            raise WildcycleError("gcd with cyclotomic polynomial not constant")
        inv = [c / g[0] for c in s0]
        return Cyc(self.order, _reduce(self.order, inv))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyc(self.order, tuple(c / f for c in self.coeffs))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.rational(other, self.order) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -----------------------------------------------------
    def conjugate(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^(N-1)."""
        n = self.order
        if n <= 2:
            return self
        out = [Q0] * n
        for k, c in enumerate(self.coeffs):
            if c:
                out[(n - k) % n] += c
        return Cyc(n, _reduce(n, out))

    def real_part(self) -> "Cyc":
        return (self + self.conjugate()) / 2

    def imag_part(self) -> "Cyc":
        """The real number Im(self), represented inside Q(zeta_lcm(N,4))."""
        n = lcm(self.order, 4)
        a = self.lift(n)
        return (a - a.conjugate()) / (2 * Cyc.imaginary_unit(n))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise WildcycleError(f"{self} is not rational")
        return self.coeffs[0]

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_purely_imaginary(self) -> bool:
        return (self + self.conjugate()).is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, 1)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Tr(x)/phi(N) does not change when x is lifted to a larger order,
        # and for a rational x it is x itself
        weights = _trace_weights(self.order)
        return hash(sum(c * w for c, w in zip(self.coeffs, weights) if c))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """Exact human-readable string, e.g. '1/2 + 3/4*i' or 'zeta^2'."""
        if self.is_rational():
            return str(self.coeffs[0])
        if self.order == 4:
            re, im = self.coeffs[0], self.coeffs[1]
            parts = []
            if re:
                parts.append(str(re))
            if im:
                if im == 1:
                    parts.append("i")
                elif im == -1:
                    parts.append("-i")
                else:
                    parts.append(f"{im}*i")
            text = " + ".join(parts).replace("+ -", "- ")
            return text if text else "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "zeta" if k == 1 else f"zeta^{k}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        text = " + ".join(parts).replace("+ -", "- ")
        return text if text else "0"

    def __repr__(self):
        return f"Cyc({self.order}, {self.render()!r})"


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)

