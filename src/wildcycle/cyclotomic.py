"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as integers: phi(N) numerators on the power basis
1, zeta_N, ..., zeta_N^(phi(N)-1) over one positive denominator, always in
lowest terms, so equal elements of one order have equal fields and the ring
operations build no Fraction.  Sums add integers slot by slot; products
scale by a rational or convolve the numerators.

There is one reduction modulo the N-th cyclotomic polynomial Phi_N,
``_fold``.  Phi_N is monic with integer coefficients and zeta_N^N = 1, so
x^k reduces like x^(k mod N), and an integer table of the remainders of
x^phi(N), ..., x^(N-1) covers every power.  Binary operations between
elements of different orders lift both to the lcm; the lift
zeta_N -> zeta_M^(M/N) is injective and compatible with arithmetic.

The order an element is stored at is a choice of the computation, not a
property of the value.  Everything that shows or orders values reads
``Cyc.canonical()``, the value stored at its conductor, so no output
depends on the stored order.

The module also holds the dense polynomial kernel that Fraction, Cyc and
ParamScalar coefficients share.
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
# + - * / and truthiness.  ``zero`` is the caller's zero.  Zero addends and
# zero products are skipped; the order a Cyc coefficient ends up stored at
# is never observable, since rendering and ordering read its conductor.


def render_terms(var: str, terms) -> str:
    """The sum of c*var^k over the (k, c) in ``terms``, c a rendered
    coefficient: a unit c is left out, a compound one parenthesised."""
    parts = []
    for k, cs in terms:
        power = var if k == 1 else f"{var}^{k}"
        if k == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append(power)
        elif cs == "-1":
            parts.append(f"-{power}")
        elif "+" in cs or " " in cs or "-" in cs[1:] or cs.startswith("("):
            parts.append(f"({cs})*{power}")
        else:
            parts.append(f"{cs}*{power}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def poly_trim(a) -> list:
    """``a`` without trailing zeros, keeping at least one coefficient."""
    a = list(a)
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def poly_add(a, b) -> list:
    if len(a) == 1 == len(b):
        return [a[0] + b[0]]
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        if y:
            x = out[k]
            out[k] = x + y if x else y
    return poly_trim(out)


def poly_sub(a, b, zero) -> list:
    return poly_trim(x - y for x, y in zip_longest(a, b, fillvalue=zero))


def poly_mul(a, b, zero) -> list:
    """Each slot starts from its first nonzero product, and ``zero`` fills
    only the slots no product reaches."""
    if len(a) == 1 == len(b):
        return [a[0] * b[0]] if a[0] and b[0] else [zero]
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    k = i + j
                    out[k] = x * y if out[k] is None else out[k] + x * y
    return poly_trim(zero if c is None else c for c in out)


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


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple:
    """x^k mod Phi_n for phi(n) <= k < n, as sparse integer rows ((j, c), ...).

    Phi_n is monic with integer coefficients, so every remainder is integral.
    """
    phi = [int(c) for c in cyclotomic_polynomial(n)]
    deg = len(phi) - 1
    rows = []
    cur = [0] * (deg - 1) + [1]
    for _ in range(deg, n):
        # multiply by x and replace x^deg by -(Phi_n - x^deg)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, phi)]
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
    return tuple(rows)


def _fold(n: int, deg: int, vec) -> tuple:
    """The integer vector ``vec`` (coefficients of 1, x, x^2, ...) modulo
    Phi_n, as ``deg`` = phi(n) integers: the one reduction of this module.

    x^n = 1 in Q(zeta_n), so index k first folds onto k mod n; the indices
    phi(n) <= k < n are then rewritten with the rows of ``_fold_rows``.
    """
    if len(vec) > n:
        acc = [0] * n
        for k, c in enumerate(vec):
            acc[k % n] += c
        vec = acc
    out = list(vec[:deg])
    if len(out) < deg:
        out += [0] * (deg - len(out))
    for row, c in zip(_fold_rows(n), vec[deg:]):
        if c:
            for j, r in row:
                out[j] += c * r
    return tuple(out)


_new = object.__new__


def _raw(order: int, nums: tuple, den: int) -> "Cyc":
    """A Cyc from numerators and a denominator already in lowest terms."""
    out = _new(Cyc)
    out.order = order
    out.nums = nums
    out.den = den
    return out


def _make(order: int, nums: tuple, den: int) -> "Cyc":
    """A Cyc from integer numerators over a positive ``den``, in lowest
    terms.  The zero element is stored as all zeros over 1."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple([x // g for x in nums])
        den //= g
    return _raw(order, nums, den)


def _rational(order: int, num: int, den: int) -> "Cyc":
    """num/den stored at ``order``, in lowest terms (``den`` positive)."""
    g = gcd(num, den)
    return _raw(order, (num // g,) + _zero_tail(order), den // g)


@lru_cache(maxsize=None)
def _zero_tail(order: int) -> tuple:
    return (0,) * (totient(order) - 1)


@lru_cache(maxsize=None)
def _trace_maps(n: int) -> tuple:
    """For each prime p | n, (d, degree, index, weight) with d = n/p: the
    trace from Q(zeta_n) to Q(zeta_d) sends zeta_n^k, k < phi(n), to
    weight[k] * zeta_d^index[k].

    If p | d, the conjugates zeta_n^k * zeta_p^(jk) sum to p * zeta_d^(k/p)
    when p | k, else to 0.  Else zeta_n^k = zeta_d^(ak) * zeta_p^(bk) with
    ap + bd = 1 mod n, and only zeta_p moves: its trace is p - 1 or -1.
    """
    out = []
    ks = range(totient(n))
    for p in range(2, n + 1):
        if n % p or any(p % r == 0 for r in range(2, p)):
            continue
        d = n // p
        if d % p == 0:
            index = tuple(k // p for k in ks)
            weight = tuple(p if k % p == 0 else 0 for k in ks)
        else:
            a = pow(p, -1, d) if d > 1 else 0
            index = tuple(a * k % d for k in ks)
            weight = tuple(p - 1 if k % p == 0 else -1 for k in ks)
        out.append((d, totient(n) // totient(d), index, weight))
    return tuple(out)


class Cyc:
    """An element of Q(zeta_N): ``nums``/``den`` on the power basis.

    ``nums`` is a tuple of phi(N) integers and ``den`` a positive integer
    with gcd(den, *nums) == 1, so the element is
    sum_k nums[k]/den * zeta_N^k.  The constructor takes rational
    coefficients of any length and reduces them modulo Phi_N; the ring
    operations build their results from integers directly.  ``coeffs`` is
    the same vector as Fractions, for callers that are not on a hot path.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        vec = [f.numerator * (den // f.denominator) for f in fracs]
        made = _make(order, _fold(order, totient(order), vec), den)
        self.order, self.nums, self.den = order, made.nums, made.den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(a, order: int = 1) -> "Cyc":
        if type(a) is int:
            return _raw(order, (a,) + _zero_tail(order), 1)
        f = a if isinstance(a, Fraction) else Fraction(a)
        return _raw(order, (f.numerator,) + _zero_tail(order), f.denominator)

    @staticmethod
    def zero(order: int = 1) -> "Cyc":
        return Cyc.rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "Cyc":
        return Cyc.rational(1, order)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        power %= order
        vec = [0] * (power + 1)
        vec[power] = 1
        return _raw(order, _fold(order, totient(order), vec), 1)

    @staticmethod
    def imaginary_unit(order: int = 4) -> "Cyc":
        n = lcm(order, 4)
        return Cyc.zeta(n, n // 4)

    @staticmethod
    def gaussian(re, im) -> "Cyc":
        return Cyc.rational(re, 4) + Cyc.rational(im, 4) * Cyc.zeta(4)

    # -- order management ---------------------------------------------
    def canonical(self) -> "Cyc":
        """The same value stored at its conductor: the least d, with
        d != 2 mod 4, such that the value lies in Q(zeta_d).

        The orders whose fields hold the value are closed under gcd, so
        steps down by one prime reach the least: a step to d is taken when
        the value is the lift of its trace to Q(zeta_d) over the degree.
        An order 2 mod 4 steps to its odd half, whose field is the same."""
        if not any(self.nums[1:]):
            return self if self.order == 1 else _raw(1, self.nums[:1], self.den)
        for d, degree, index, weight in _trace_maps(self.order):
            vec = [0] * d
            for j, w, c in zip(index, weight, self.nums):
                vec[j] += w * c
            y = _make(d, _fold(d, totient(d), vec), self.den * degree)
            if y.lift(self.order) == self:
                return y.canonical()
        return self

    def lift(self, order: int) -> "Cyc":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise WildcycleError(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})")
        nums = self.nums
        if not any(nums[1:]):
            return _raw(order, nums[:1] + _zero_tail(order), self.den)
        step = order // self.order
        vec = [0] * ((len(nums) - 1) * step + 1)
        vec[::step] = nums
        # Z[zeta_M] meets Q(zeta_N) in Z[zeta_N], so a common factor of the
        # lifted numerators and den would already divide nums: lowest terms
        # are kept
        return _raw(order, _fold(order, totient(order), vec), self.den)

    def _pair(self, other):
        if type(other) is not Cyc and isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.order)
        if self.order == other.order:
            return self, other
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def _scaled(self, p: int, q: int) -> "Cyc":
        """self * p/q for integers p and q."""
        if q <= 0:
            if not q:
                raise ZeroDivisionError("cyclotomic division by zero")
            p, q = -p, -q
        return _make(self.order, tuple([x * p for x in self.nums]),
                     self.den * q)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if (type(other) is Cyc and not any(self.nums[1:])
                and not any(other.nums[1:])):
            # two rationals: the sum at the lcm, with no lift
            da, db = self.den, other.den
            return _rational(lcm(self.order, other.order),
                             self.nums[0] * db + other.nums[0] * da, da * db)
        a, b = self._pair(other)
        if not any(b.nums):
            return a
        if not any(a.nums):
            return b
        da, db = a.den, b.den
        if da == db:
            return _make(a.order, tuple([x + y for x, y in zip(a.nums, b.nums)]),
                         da)
        return _make(a.order,
                     tuple([x * db + y * da for x, y in zip(a.nums, b.nums)]),
                     da * db)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Cyc:
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
        elif not any(self.nums[1:]) and not any(other.nums[1:]):
            # two rationals, most products in practice: no lift
            return _rational(lcm(self.order, other.order),
                             self.nums[0] * other.nums[0],
                             self.den * other.den)
        a, b = self._pair(other)
        # one rational factor
        if a.is_rational():
            return b._scaled(a.nums[0], a.den)
        if b.is_rational():
            return a._scaled(b.nums[0], b.den)
        an, bn = a.nums, b.nums
        deg = len(an)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn, i):
                    if y:
                        conv[j] += x * y
        return _make(a.order, _fold(a.order, deg, conv), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Inverse via extended Euclid against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyc.one(self.order)._scaled(self.den, self.nums[0])
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
        return Cyc(self.order, [c / g[0] for c in s0])

    def __truediv__(self, other):
        if isinstance(other, int):
            return self._scaled(1, other)
        if isinstance(other, Fraction):
            return self._scaled(other.denominator, other.numerator)
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
        vec = [0] * n
        for k, x in enumerate(self.nums):
            vec[-k] = x
        # an automorphism of Z[zeta_N]: lowest terms are kept
        return _raw(n, _fold(n, len(self.nums), vec), self.den)

    def real_part(self) -> "Cyc":
        return (self + self.conjugate()) / 2

    def imag_part(self) -> "Cyc":
        """The real number Im(self), represented inside Q(zeta_lcm(N,4))."""
        n = lcm(self.order, 4)
        a = self.lift(n)
        return (a - a.conjugate()) / (2 * Cyc.imaginary_unit(n))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise WildcycleError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_purely_imaginary(self) -> bool:
        return (self + self.conjugate()).is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            return (self.den == 1 and self.nums[0] == other
                    and self.is_rational())
        if isinstance(other, Fraction):
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator and self.is_rational())
        if not isinstance(other, Cyc):
            return NotImplemented
        # lifting keeps lowest terms, so equal elements share a denominator
        if self.den != other.den:
            return False
        a, b = self._pair(other)
        return a.nums == b.nums

    def __hash__(self):
        # equal values share their canonical form, and a rational hashes as
        # the Fraction (or int) it equals
        c = self.canonical()
        if c.order == 1:
            return hash(Fraction(c.nums[0], c.den))
        return hash((c.order, c.nums, c.den))

    def __bool__(self):
        return any(self.nums)

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """Exact string of the value on the power basis of its conductor
        d, so equal values render alike: '-2/3' at d = 1, '1/2 + 3/4*i' at
        d = 4, and 'zeta_3' or 'zeta_8 - zeta_8^3' (sqrt 2) otherwise."""
        c = self.canonical()
        root = "i" if c.order == 4 else f"zeta_{c.order}"
        return render_terms(root, ((k, str(x)) for k, x in enumerate(c.coeffs)
                                   if x))

    def __repr__(self):
        return f"Cyc({self.order}, {self.render()!r})"


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)

