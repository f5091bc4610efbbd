"""Truncated Laurent series in a ramified coordinate.

A series lives in the coordinate t_q with t = t_q^q; exponents are integers
in t_q-units.  ``trunc`` is the guaranteed order: coefficients of t_q^n for
n >= trunc are unknown.  ``trunc is None`` means the series is an exact
Laurent polynomial (every unlisted coefficient is truly zero).  All
operations propagate the guaranteed order pessimistically; an operation
refuses (raises :class:`InsufficientTruncation`) rather than emit digits it
cannot certify.

Products run on coefficient lists: a product, or a sum of products
(:meth:`LaurentSeries.dot`), adds each term pair into its t-slot with the
accumulator of :meth:`ParamScalar.dot`, which sums z-polynomial numerators
with ``poly_mul``/``poly_add``, and wraps each slot into a ParamScalar once.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc, lcm, render_terms
from .errors import InsufficientTruncation, WildcycleError
from .params import PS0, PS1, ParamScalar, add_product, as_scalar

_INF = float("inf")


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _product_trunc(x, y):
    """Guaranteed order of x * y."""
    if x.trunc is None and y.trunc is None:
        return None
    t = min(x.trunc + y.valuation_bound() if x.trunc is not None else _INF,
            y.trunc + x.valuation_bound() if y.trunc is not None else _INF)
    return None if t == _INF else int(t)  # a zero factor kills the tail


class LaurentSeries:
    __slots__ = ("q", "coeffs", "trunc")

    def __init__(self, q: int, coeffs: dict, trunc=None):
        self.q = q
        self.trunc = trunc
        cs = {}
        for n, c in coeffs.items():
            c = ParamScalar.of(c)
            if trunc is not None and n >= trunc:
                continue
            if not c.is_zero():
                cs[n] = c
        self.coeffs = cs

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(q: int = 1, trunc=None) -> "LaurentSeries":
        return LaurentSeries(q, {}, trunc)

    @staticmethod
    def one(q: int = 1, trunc=None) -> "LaurentSeries":
        return LaurentSeries(q, {0: ParamScalar.rational(1)}, trunc)

    @staticmethod
    def monomial(coeff, exponent: int, q: int = 1, trunc=None) -> "LaurentSeries":
        return LaurentSeries(q, {exponent: ParamScalar.of(coeff)}, trunc)

    @staticmethod
    def constant(coeff, q: int = 1) -> "LaurentSeries":
        return LaurentSeries.monomial(coeff, 0, q)

    # -- inspection ------------------------------------------------------
    def support(self):
        return sorted(self.coeffs)

    def valuation(self):
        """Smallest certified exponent, or None if zero to guaranteed order."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def valuation_bound(self):
        """Lower bound for the valuation including the unknown tail."""
        v = self.valuation()
        if v is None:
            return _INF if self.trunc is None else self.trunc
        return v

    def is_zero_to_order(self) -> bool:
        return not self.coeffs

    def leading(self) -> ParamScalar:
        v = self.valuation()
        if v is None:
            raise WildcycleError("zero series has no leading coefficient")
        return self.coeffs[v]

    def coeff(self, n: int) -> ParamScalar:
        if self.trunc is not None and n >= self.trunc:
            raise InsufficientTruncation(
                f"coefficient of degree {n} is beyond guaranteed order {self.trunc}")
        return self.coeffs.get(n, PS0)

    def cyclotomic_order(self) -> int:
        n = 1
        for c in self.coeffs.values():
            for poly in (c.num, c.den):
                for cc in poly.coeffs:
                    n = lcm(n, cc.order)
        return n

    # -- ring operations ---------------------------------------------------
    def _check_q(self, other: "LaurentSeries"):
        if self.q != other.q:
            raise WildcycleError(
                f"ramification mismatch: {self.q} vs {other.q} (ramify first)")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyc, ParamScalar)):
            other = LaurentSeries.constant(other, self.q)
        self._check_q(other)
        t = _min_trunc(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out[n] + c if n in out else c
        return LaurentSeries(self.q, out, t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.q, {n: -c for n, c in self.coeffs.items()},
                             self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyc, ParamScalar)):
            other = LaurentSeries.constant(other, self.q)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyc, ParamScalar)):
            c = ParamScalar.of(other)
            return LaurentSeries(
                self.q, {n: v * c for n, v in self.coeffs.items()}, self.trunc)
        return LaurentSeries.dot((self,), (other,))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys) -> "LaurentSeries":
        """sum_k xs[k] * ys[k]: each term pair is added into its t-slot by
        ``params.add_product``, the accumulator of :meth:`ParamScalar.dot`.
        Terms at or past the sum's guaranteed order are skipped."""
        q, t = xs[0].q, None
        for x, y in zip(xs, ys):
            x._check_q(y)
            xs[0]._check_q(x)
            t = _min_trunc(t, _product_trunc(x, y))
        limit = _INF if t is None else t
        slots = {}
        for x, y in zip(xs, ys):
            yterms = y.coeffs.items()
            for a, xp in x.coeffs.items():
                for b, yp in yterms:
                    if a + b < limit:
                        slots[a + b] = add_product(slots.get(a + b), xp, yp)
        return LaurentSeries(q, {n: as_scalar(acc)
                                 for n, acc in slots.items()}, t)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t_q^k."""
        t = None if self.trunc is None else self.trunc + k
        return LaurentSeries(self.q, {n + k: c for n, c in self.coeffs.items()}, t)

    def invert(self, order: int) -> "LaurentSeries":
        """Inverse of a series of valuation v, certified to exponent
        < min(order, trunc - v) - v (in t_q-units)."""
        v = self.valuation()
        if v is None:
            raise WildcycleError("cannot invert a series that is zero to order")
        if self.trunc is not None:
            avail = self.trunc - 2 * v
            if avail < order:
                raise InsufficientTruncation(
                    f"inversion certified only to order {avail}, need {order}",
                    required=order + 2 * v)
        c0i = self.coeffs[v].inverse()
        # h = c0^-1 t^-v f - 1 has valuation >= 1, and u = 1/(1 + h) is
        # known below h.trunc: u_0 = 1, u_k = -sum_{i=1..k} h_i u_{k-i}
        h = ((self * c0i).shift(-v) - 1).truncate(order)
        terms = sorted(h.coeffs.items())
        u = [PS1]
        for k in range(1, h.trunc):
            pairs = [(hi, u[k - i]) for i, hi in terms if i <= k and u[k - i]]
            u.append(-ParamScalar.dot(*zip(*pairs)) if pairs else PS0)
        out = LaurentSeries(self.q, dict(enumerate(u)), h.trunc)
        return (out * c0i).shift(-v)

    def truncate(self, order) -> "LaurentSeries":
        if order is None:
            return self
        t = _min_trunc(self.trunc, order)
        return LaurentSeries(self.q, self.coeffs, t)

    def log_derivative(self) -> "LaurentSeries":
        """t_q * d/dt_q, exact on exponents."""
        return LaurentSeries(
            self.q, {n: c * Fraction(n) for n, c in self.coeffs.items()},
            self.trunc)

    # -- coordinate changes ---------------------------------------------------
    def ramify(self, r: int) -> "LaurentSeries":
        """Substitute t_q -> t_{rq}^r; exponents and guaranteed order scale."""
        t = None if self.trunc is None else self.trunc * r
        return LaurentSeries(self.q * r,
                             {n * r: c for n, c in self.coeffs.items()}, t)

    def substitute_root(self, zeta: Cyc) -> "LaurentSeries":
        """Substitute t_q -> zeta * t_q for a root of unity zeta."""
        return LaurentSeries(
            self.q, {n: c * (zeta ** n) for n, c in self.coeffs.items()},
            self.trunc)

    def eval_lambda(self, point) -> "LaurentSeries":
        return LaurentSeries(
            self.q, {n: ParamScalar.of(c.eval(point))
                     for n, c in self.coeffs.items()},
            self.trunc)

    # -- comparison ----------------------------------------------------------
    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equality on the common certified window."""
        self._check_q(other)
        t = _min_trunc(self.trunc, other.trunc)
        for n in set(self.coeffs) | set(other.coeffs):
            if t is not None and n >= t:
                continue
            if not (self.coeff(n) == other.coeff(n)):
                return False
        return True

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyc, ParamScalar)):
            other = LaurentSeries.constant(other, self.q)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.q == other.q and self.trunc == other.trunc
                and self.agrees_with(other))

    def render(self, tvar: str = "t", lvar: str = "z") -> str:
        return render_terms(tvar, ((n, self.coeffs[n].render(lvar))
                                   for n in self.support()))

    def __repr__(self):
        tail = "" if self.trunc is None else f" + O(t^{self.trunc})"
        return f"LaurentSeries(q={self.q}, {self.render()}{tail})"


def ramify_series(s: LaurentSeries, r: int) -> LaurentSeries:
    """Module-level alias for the ramification substitution t_q -> t_{rq}^r."""
    if r < 1:
        raise WildcycleError("ramification index must be positive")
    return s.ramify(r)
