"""Rational functions in the twistor parameter with cyclotomic coefficients.

``LPoly`` is a dense polynomial in the parameter (written ``z`` in reports);
``ParamScalar`` is a reduced fraction of two such polynomials with monic
denominator.  These scalars are the coefficients of every Laurent series in
the package; denominators appear only through explicit reduction steps and
are tracked, never silently evaluated.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import (Cyc, poly_add, poly_divmod, poly_gcd, poly_mul,
                         render_terms)
from .errors import DenominatorVanishes, WildcycleError

# The zero LPoly arithmetic starts from; Cyc values are never mutated, so one
# instance serves every call.
C0 = Cyc.zero()
_new = object.__new__


def _as_cyc(value) -> Cyc:
    if isinstance(value, Cyc):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyc.rational(value)
    raise TypeError(f"cannot coerce {value!r} to a cyclotomic scalar")


def _lpoly_is_one(p: "LPoly") -> bool:
    if len(p.coeffs) != 1:
        return False
    c = p.coeffs[0]
    return c.den == 1 and c.nums[0] == 1 and not any(c.nums[1:])


class LPoly:
    """Dense polynomial in the parameter, coefficients in Q(zeta_N)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_as_cyc(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        if not cs:
            cs = [Cyc.zero()]
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c) -> "LPoly":
        return LPoly([_as_cyc(c)])

    @staticmethod
    def variable() -> "LPoly":
        return LPoly([Cyc.zero(), Cyc.one()])

    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def leading(self) -> Cyc:
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, LPoly):
            other = LPoly.constant(other)
        return LPoly(poly_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return LPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, LPoly):
            other = LPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LPoly):
            other = LPoly.constant(other)
        return LPoly(poly_mul(self.coeffs, other.coeffs, C0))

    __rmul__ = __mul__

    def divmod(self, other: "LPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = poly_divmod(self.coeffs, other.coeffs, C0)
        return LPoly(quo), LPoly(rem)

    def monic(self) -> "LPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return LPoly([c / lead for c in self.coeffs])

    def gcd(self, other: "LPoly") -> "LPoly":
        return LPoly(poly_gcd(self.coeffs, other.coeffs, C0))

    def derivative(self) -> "LPoly":
        if len(self.coeffs) == 1:
            return LPoly.constant(0)
        return LPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def eval(self, point: Cyc) -> Cyc:
        out = Cyc.zero()
        for c in reversed(self.coeffs):
            out = out * point + c
        return out

    def __eq__(self, other):
        if isinstance(other, (Cyc, int, Fraction)):
            other = LPoly.constant(other)
        elif not isinstance(other, LPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        # a constant equals its coefficient, so it hashes alike
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def render(self, var: str = "z") -> str:
        return render_terms(var, ((k, c.render())
                                  for k, c in enumerate(self.coeffs) if c))

    def __repr__(self):
        return f"LPoly({self.render()!r})"


# The denominator of a ParamScalar built without one (LPolys are immutable).
ONE = LPoly.constant(1)


class ParamScalar:
    """Reduced fraction of parameter polynomials, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce: bool = True):
        if not isinstance(num, LPoly):
            num = LPoly.constant(num)
        if den is None:
            den = ONE
        elif not isinstance(den, LPoly):
            den = LPoly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("parameter scalar with zero denominator")
        if not _lpoly_is_one(den):
            if reduce and not den.is_constant():
                g = num.gcd(den)
                if g.degree() > 0:
                    num, _ = num.divmod(g)
                    den, _ = den.divmod(g)
            if not _lpoly_is_one(den):
                lead = den.leading()
                num = num * LPoly.constant(lead.inverse())
                den = den * LPoly.constant(lead.inverse())
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------
    @staticmethod
    def rational(a) -> "ParamScalar":
        return ParamScalar(LPoly.constant(Fraction(a)))

    @staticmethod
    def of(c) -> "ParamScalar":
        if isinstance(c, ParamScalar):
            return c
        return ParamScalar(LPoly.constant(_as_cyc(c)))

    @staticmethod
    def lam() -> "ParamScalar":
        return ParamScalar(LPoly.variable())

    @staticmethod
    def dot(xs, ys) -> "ParamScalar":
        """sum x*y: on coefficient lists up to the first rational-function
        factor, in ParamScalar arithmetic from there."""
        acc = None
        for x, y in zip(xs, ys):
            acc = add_product(acc, x, y)
        return as_scalar(acc)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_cyc(self) -> Cyc:
        if not self.is_constant():
            raise WildcycleError(f"{self.render()} is not parameter-free")
        return self.num.coeffs[0]

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other) -> "ParamScalar":
        if isinstance(other, ParamScalar):
            return other
        if isinstance(other, LPoly):
            return ParamScalar(other)
        return ParamScalar.of(other)

    def __add__(self, other):
        o = self._coerce(other)
        if _lpoly_is_one(self.den) and _lpoly_is_one(o.den):
            return ParamScalar(self.num + o.num, self.den, reduce=False)
        return ParamScalar(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if _lpoly_is_one(self.den) and _lpoly_is_one(o.den):
            return ParamScalar(self.num * o.num, self.den, reduce=False)
        return ParamScalar(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero parameter scalar")
        return ParamScalar(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        out = ParamScalar.rational(1)
        base = self if k >= 0 else ParamScalar.rational(1) / self
        for _ in range(abs(k)):
            out = out * base
        return out

    def inverse(self) -> "ParamScalar":
        return ParamScalar.rational(1) / self

    def __eq__(self, other):
        if not isinstance(other, (ParamScalar, LPoly, Cyc, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        return (self.num * o.den) == (o.num * self.den)

    def __hash__(self):
        # with denominator one the value equals its numerator
        if _lpoly_is_one(self.den):
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation -----------------------------------------------------------
    def eval(self, point) -> Cyc:
        point = _as_cyc(point)
        d = self.den.eval(point)
        if d.is_zero():
            raise DenominatorVanishes(
                f"denominator {self.den.render()} vanishes at the requested point")
        return self.num.eval(point) / d

    def render(self, var: str = "z") -> str:
        if self.den.is_constant():
            return self.num.render(var)
        n, d = self.num.render(var), self.den.render(var)
        return f"({n})/({d})"

    def __repr__(self):
        return f"ParamScalar({self.render()!r})"


def add_product(acc, x, y):
    """acc + x*y for ParamScalars x and y, with ``acc`` None (empty), a
    coefficient list, or a ParamScalar once a rational function appears:
    polynomials (denominator one) multiply as coefficient lists."""
    xd, yd = x.den, y.den
    if type(acc) is ParamScalar or not ((xd is ONE or _lpoly_is_one(xd))
                                        and (yd is ONE or _lpoly_is_one(yd))):
        return x * y if acc is None else as_scalar(acc) + x * y
    p = poly_mul(x.num.coeffs, y.num.coeffs, C0)
    return p if acc is None else poly_add(acc, p)


def as_scalar(c) -> ParamScalar:
    """``c`` itself, or the trimmed Cyc list ``c`` as a polynomial, built
    without the constructor's checks."""
    if type(c) is ParamScalar:
        return c
    num = _new(LPoly)
    num.coeffs = tuple(c)
    out = _new(ParamScalar)
    out.num, out.den = num, ONE
    return out


PS0 = ParamScalar.rational(0)
PS1 = ParamScalar.rational(1)
