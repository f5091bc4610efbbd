"""Free modules with a lambda-connection over truncated Laurent series.

A :class:`LambdaConnection` stores the matrix of the logarithmic action
u*eth_u in the module's own coordinate u = t_q (t = t_q^q), where
eth_u = z * d/du and z is the twistor parameter.  Everything the package
computes is phrased through this single matrix: exponential twists add
u*phi'(u) to the diagonal, ramification pull-back multiplies by the
ramification index after substitution, push-forward to a coarser coordinate
reorganizes blocks, and gauge transforms act by G^-1 A G + z G^-1 u dG/du.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclotomic import Cyc, lcm, render_terms
from .errors import InsufficientTruncation, WildcycleError
from .matrices import LaurentMatrix
from .params import ParamScalar
from .series import LaurentSeries


class ExpFactor:
    """phi in t_q^-1 * F[t_q^-1]: an exponential factor, no constant term."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: dict):
        self.q = q
        cs = {}
        for a, c in coeffs.items():
            if a < 1:
                raise WildcycleError("exponential factors have only polar terms")
            if not isinstance(c, Cyc):
                if not isinstance(c, (int, Fraction)):
                    raise WildcycleError(
                        "exponential factor coefficients are cyclotomic constants")
                c = Cyc.rational(c)
            if not c.is_zero():
                cs[int(a)] = c
        self.coeffs = cs

    @staticmethod
    def zero(q: int = 1) -> "ExpFactor":
        return ExpFactor(q, {})

    @staticmethod
    def monomial(coeff, pole: int, q: int = 1) -> "ExpFactor":
        return ExpFactor(q, {pole: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def pole_order(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def __add__(self, other: "ExpFactor") -> "ExpFactor":
        a, b = align_factors(self, other)
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            out[k] = out.get(k, Cyc.zero()) + c
        return ExpFactor(a.q, out)

    def __neg__(self) -> "ExpFactor":
        return ExpFactor(self.q, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "ExpFactor") -> "ExpFactor":
        return self + (-other)

    def ramify(self, r: int) -> "ExpFactor":
        return ExpFactor(self.q * r, {a * r: c for a, c in self.coeffs.items()})

    def reduce_ramification(self) -> "ExpFactor":
        """Present at the minimal level: divide q and exponents by their gcd."""
        if not self.coeffs:
            return ExpFactor(1, {})
        g = self.q
        for a in self.coeffs:
            g = gcd(g, a)
        if g <= 1:
            return self
        return ExpFactor(self.q // g, {a // g: c for a, c in self.coeffs.items()})

    def substitute_root(self, zeta: Cyc) -> "ExpFactor":
        """phi(zeta * t_q)."""
        return ExpFactor(self.q,
                         {a: c * (zeta ** (-a)) for a, c in self.coeffs.items()})

    def t_log_derivative(self) -> LaurentSeries:
        """The series u * phi'(u) = sum (-a) c_a u^-a."""
        return LaurentSeries(
            self.q, {-a: c * Fraction(-a) for a, c in self.coeffs.items()})

    def cyclotomic_order(self) -> int:
        """The lcm of the coefficients' conductors."""
        n = 1
        for c in self.coeffs.values():
            n = lcm(n, c.canonical().order)
        return n

    def sort_key(self, common_order: int = None):
        """Deterministic total order among factors of the same q: the
        coefficients at ``common_order``, a multiple of every conductor."""
        if common_order is None:
            common_order = self.cyclotomic_order()
        items = []
        for a in sorted(self.coeffs, reverse=True):
            c = self.coeffs[a].canonical().lift(common_order)
            items.append((a, c.coeffs))
        return (self.pole_order(), tuple(items))

    def __eq__(self, other):
        if not isinstance(other, ExpFactor):
            return NotImplemented
        a, b = align_factors(self, other)
        if set(a.coeffs) != set(b.coeffs):
            return False
        return all(a.coeffs[k] == b.coeffs[k] for k in a.coeffs)

    def __hash__(self):
        red = self.reduce_ramification()
        return hash((red.q, tuple(sorted(red.coeffs))))

    def render(self, tvar: str = "t") -> str:
        var = tvar if self.q == 1 else f"{tvar}_{self.q}"
        return render_terms(var, ((-a, self.coeffs[a].render())
                                  for a in sorted(self.coeffs, reverse=True)))

    def __repr__(self):
        return f"ExpFactor(q={self.q}, {self.render()!r})"


def align_factors(a: ExpFactor, b: ExpFactor):
    """Bring two factors to a common ramification level."""
    if a.q == b.q:
        return a, b
    n = lcm(a.q, b.q)
    return a.ramify(n // a.q), b.ramify(n // b.q)


@dataclass
class LambdaConnection:
    """Free module over truncated Laurent series with the log-action matrix."""

    action: LaurentMatrix
    q: int = 1
    lambda0: object = None  # None for the full family, else the fixed Cyc value

    def __post_init__(self):
        if self.action.q != self.q:
            raise WildcycleError("matrix ramification disagrees with q")

    # -- basic data -----------------------------------------------------
    @property
    def rank(self) -> int:
        return self.action.nrows

    @property
    def guaranteed_order(self):
        return self.action.trunc()

    @property
    def is_family(self) -> bool:
        return self.lambda0 is None

    @property
    def is_higgs(self) -> bool:
        return self.lambda0 is not None and self.lambda0.is_zero()

    def lambda_factor(self) -> ParamScalar:
        """The scalar acting as the parameter: z for the family, else lambda0."""
        if self.lambda0 is None:
            return ParamScalar.lam()
        return ParamScalar.of(self.lambda0)

    def pole_order(self) -> int:
        """Matrix pole order: max(0, -valuation) of the certified entries."""
        v = None
        for row in self.action.rows:
            for x in row:
                xv = x.valuation()
                if xv is not None:
                    v = xv if v is None else min(v, xv)
        if v is None or v >= 0:
            return 0
        return -v

    def leading_matrix(self):
        k = self.pole_order()
        return self.action.leading_matrix(-k)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def trivial(rank: int = 1, q: int = 1, trunc=None) -> "LambdaConnection":
        return LambdaConnection(
            LaurentMatrix.zero_matrix(rank, rank, q, trunc), q)

    # -- the functors ---------------------------------------------------------
    def twist_exponential(self, phi: ExpFactor, sign: int = 1) -> "LambdaConnection":
        """Tensor with E^{sign*phi/z}: add sign * u*phi'(u) * Id."""
        if sign not in (1, -1):
            raise WildcycleError("twist sign must be +1 or -1")
        if phi.q != self.q:
            raise WildcycleError(
                f"factor at ramification {phi.q}, module at {self.q}; ramify first")
        t = self.guaranteed_order
        if t is not None and phi.pole_order() > 0 and t <= -phi.pole_order():
            raise InsufficientTruncation(
                "twist pole consumes more digits than guaranteed",
                required=phi.pole_order() + 1)
        tphi = phi.t_log_derivative()
        if sign < 0:
            tphi = -tphi
        rows = [[self.action.rows[i][j] + tphi if i == j
                 else self.action.rows[i][j]
                 for j in range(self.rank)] for i in range(self.rank)]
        return LambdaConnection(LaurentMatrix(rows, self.q), self.q, self.lambda0)

    def ramify_pullback(self, r: int) -> "LambdaConnection":
        """Pull back along t_{rq} -> t_q = t_{rq}^r; matrix r * A(t_{rq}^r)."""
        if r < 1:
            raise WildcycleError("ramification index must be positive")
        if r == 1:
            return self
        new = self.action.ramify(r) * Fraction(r)
        return LambdaConnection(new, self.q * r, self.lambda0)

    def pushforward(self) -> "LambdaConnection":
        """Direct image along rho_q onto the base coordinate t = u^q.

        The rank is multiplied by q.  Basis ordered u^k (x) e_i with k
        major, as in the rank-one model basis (e, u e, ..., u^{q-1} e).
        """
        d = self.q
        if d == 1:
            return self
        n = self.rank
        t_in = self.guaranteed_order
        t_out = None if t_in is None else (t_in - (d - 1)) // d
        lamd = self.lambda_factor() / d
        zero = LaurentSeries.zero(1, t_out)
        rows = [[zero for _ in range(n * d)] for _ in range(n * d)]

        def add_monomial(bi, bj, exp, coeff):
            cur = rows[bi][bj]
            rows[bi][bj] = cur + LaurentSeries.monomial(coeff, exp, 1, t_out)

        for k in range(d):
            for i in range(n):
                col = k * n + i
                # diagonal part k*z/d
                add_monomial(col, col, 0, lamd * k)
                for j in range(n):
                    entry = self.action.rows[j][i]
                    for s, c in entry.coeffs.items():
                        tot = k + s
                        m, kp = divmod(tot, d)
                        if t_out is not None and m >= t_out:
                            continue
                        add_monomial(kp * n + j, col, m, c * Fraction(1, d))
        return LambdaConnection(LaurentMatrix(rows, 1), 1, self.lambda0)

    def restrict_lambda(self, point) -> "LambdaConnection":
        """Evaluate every coefficient at a fixed parameter value."""
        if not isinstance(point, Cyc):
            point = Cyc.gaussian(point, 0)
        return LambdaConnection(self.action.eval_lambda(point), self.q, point)

    def gauge_transform(self, g: LaurentMatrix, order=None) -> "LambdaConnection":
        """New frame basis * G: matrix G^-1 A G + z G^-1 (u dG/du)."""
        if order is None:
            order = self.guaranteed_order
            if order is None:
                order = g.trunc()
        # G^-1 (A G + z u dG/du): two products; the sum is formed before
        # the inverse, so its operands are freed first
        lam = self.lambda_factor()
        s = self.action * g + g.log_derivative().map(lambda x: x * lam)
        ginv = None
        if g.trunc() is None:
            try:
                ginv = g.inverse(None)
            except InsufficientTruncation:
                ginv = None
        if ginv is None:
            ginv = g.inverse(order)
        return LambdaConnection(ginv * s, self.q, self.lambda0)

    def direct_sum(self, other: "LambdaConnection") -> "LambdaConnection":
        if other.q != self.q:
            raise WildcycleError("ramification mismatch in direct sum")
        action = LaurentMatrix.block_diagonal([self.action, other.action],
                                              self.q)
        return LambdaConnection(action, self.q, self.lambda0)

    def tensor(self, other: "LambdaConnection") -> "LambdaConnection":
        """Tensor product action A (x) Id + Id (x) B."""
        if other.q != self.q:
            raise WildcycleError("ramification mismatch in tensor product")
        n, m = self.rank, other.rank
        zero = LaurentSeries.zero(self.q)
        rows = [[zero for _ in range(n * m)] for _ in range(n * m)]
        for i in range(n):
            for j in range(n):
                a = self.action.rows[i][j]
                if a.is_zero_to_order() and a.trunc is None:
                    continue
                for k in range(m):
                    rows[i * m + k][j * m + k] = rows[i * m + k][j * m + k] + a
        for k in range(n):
            for i in range(m):
                for j in range(m):
                    b = other.action.rows[i][j]
                    if b.is_zero_to_order() and b.trunc is None:
                        continue
                    rows[k * m + i][k * m + j] = rows[k * m + i][k * m + j] + b
        return LambdaConnection(LaurentMatrix(rows, self.q), self.q, self.lambda0)

    def truncate(self, order) -> "LambdaConnection":
        return LambdaConnection(self.action.truncate(order), self.q, self.lambda0)

    def cyclotomic_order(self) -> int:
        n = 1
        for row in self.action.rows:
            for x in row:
                n = lcm(n, x.cyclotomic_order())
        if self.lambda0 is not None:
            n = lcm(n, self.lambda0.order)
        return n

    def __repr__(self):
        tag = "family" if self.is_family else ("higgs" if self.is_higgs else "fixed")
        return (f"LambdaConnection(rank={self.rank}, q={self.q}, {tag}, "
                f"pole={self.pole_order()})")
