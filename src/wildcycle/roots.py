"""Root finding and factorization for polynomials over Q(zeta_N).

Univariate polynomials with :class:`Cyc` coefficients are factored by
Trager's norm method: push the problem down to Q with a resultant against
the cyclotomic polynomial, factor over Q, and pull the factors back with
gcds over the extension.  Rational factorization is delegated to sympy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .cyclotomic import (Q0, Cyc, cyclotomic_polynomial, interpolate,
                         poly_divmod, poly_gcd, poly_trim, totient)
from .errors import WildcycleError
from .params import LPoly


def _q_resultant(f, g) -> Fraction:
    """Resultant of two rational polynomials (lists, low first)."""
    f, g = poly_trim(f), poly_trim(g)
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    _, r = poly_divmod(f, g, Q0)
    dr = len(r) - 1 if any(r) else -1
    if dr < 0:
        return Fraction(0)
    sign = Fraction(-1) ** (df * dg)
    return sign * g[-1] ** (df - dr) * _q_resultant(g, r)


@lru_cache(maxsize=None)
def _sympy_x():
    import sympy
    return sympy.symbols("x")


def factor_rational_poly(coeffs):
    """Factor a rational polynomial into irreducibles over Q (via sympy).

    Returns a list of (coefficient tuple, multiplicity); factors are monic.
    """
    import sympy
    x = _sympy_x()
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(coeffs))
    poly = sympy.Poly(expr, x, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fac = fac.monic()
        cs = [Fraction(0)] * (fac.degree() + 1)
        for monom, coeff in fac.terms():
            cs[monom[0]] = Fraction(int(coeff.numerator), int(coeff.denominator))
        out.append((tuple(cs), int(mult)))
    return out


def _shifted_bivariate(poly: LPoly, order: int, shift: int):
    """Expansion of S(X - shift*y) as Q[y]-coefficients per X-degree,
    each reduced modulo Phi_order (through ``Cyc``) to phi(order) Fractions."""
    deg = poly.degree()
    cys = [c.lift(order).coeffs for c in poly.coeffs]
    out = []
    for j in range(deg + 1):
        raw = [Q0] * (totient(order) + deg - j)
        for i in range(j, deg + 1):
            factor = comb(i, j) * Fraction(-shift) ** (i - j)
            if factor:
                for a, ca in enumerate(cys[i]):
                    raw[a + i - j] += ca * factor
        out.append(Cyc(order, raw).coeffs)
    return out


def _norm_poly(poly: LPoly, order: int, shift: int):
    """Res_y(Phi_order(y), S(X - shift*y, y)) in Q[X] by interpolation."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(order)]
    biv = _shifted_bivariate(poly, order, shift)
    deg_bound = poly.degree() * (len(phi) - 1)
    points = list(range(deg_bound + 1))
    values = []
    for x0 in points:
        # evaluate each X-coefficient's y-poly after substituting X = x0
        ypoly = [Fraction(0)] * max(len(biv[0]), 1)
        xp = Fraction(1)
        for i in range(len(biv)):
            for a, ca in enumerate(biv[i]):
                if ca:
                    ypoly[a] += ca * xp
            xp *= x0
        values.append(_q_resultant(ypoly, phi))
    return interpolate(points, values, Q0)


def _rational_to_lpoly(coeffs, order: int) -> LPoly:
    return LPoly([Cyc.rational(c, order) for c in coeffs])


def _compose_shift(coeffs, order: int, shift: int) -> LPoly:
    """t(X + shift*zeta_order) as an LPoly over Cyc."""
    zeta = Cyc.zeta(order)
    offset = zeta * shift
    out = LPoly.constant(Cyc.zero(order))
    xpoly = LPoly([offset, Cyc.one(order)])
    power = LPoly.constant(Cyc.one(order))
    for k, c in enumerate(coeffs):
        if c:
            out = out + power * LPoly.constant(Cyc.rational(c, order))
        power = power * xpoly
    return out


def squarefree_decomposition(poly: LPoly):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    p = poly.monic()
    dp = p.derivative()
    a = p.gcd(dp)
    b, _ = p.divmod(a)
    c, _ = dp.divmod(a)
    out = []
    i = 1
    while b.degree() > 0:
        d = c - b.derivative()
        step = b.gcd(d)
        if step.degree() > 0:
            out.append((step.monic(), i))
            b, _ = b.divmod(step)
            c, _ = d.divmod(step)
        else:
            c = d
        i += 1
        if i > poly.degree() + 2:
            raise WildcycleError("squarefree decomposition failed to terminate")
    return out


def factor_over_cyclotomic(poly: LPoly, order: int):
    """Irreducible factorization over Q(zeta_order).

    Returns a list of (monic irreducible LPoly, multiplicity).
    """
    if poly.degree() < 1:
        return []
    out = []
    for sf, mult in squarefree_decomposition(poly):
        for fac in _factor_squarefree(sf, order):
            out.append((fac, mult))
    return out


def _factor_squarefree(poly: LPoly, order: int):
    poly = poly.monic()
    if poly.degree() == 1:
        return [poly]
    if totient(order) == 1:
        # plain rational factorization
        coeffs = [c.as_fraction() for c in poly.coeffs]
        return [_rational_to_lpoly(cs, order)
                for cs, _ in factor_rational_poly(coeffs)]
    for shift in range(0, 8 * poly.degree() * totient(order) + 8):
        norm = _norm_poly(poly, order, shift)
        # squarefree test over Q
        d = [norm[k] * k for k in range(1, len(norm))]
        if len(poly_gcd(norm, d, Q0)) > 1:
            continue
        factors = []
        for cs, _ in factor_rational_poly(norm):
            shifted = _compose_shift(cs, order, shift)
            g = poly.gcd(shifted)
            if g.degree() > 0:
                factors.append(g.monic())
        total = sum(f.degree() for f in factors)
        if total != poly.degree():
            continue
        return factors
    raise WildcycleError("Trager factorization failed to find a good shift")


def roots_in_field(poly: LPoly, order: int):
    """All roots of ``poly`` lying in Q(zeta_order), with multiplicities.

    Returns (roots, nonsplit) where ``roots`` is a list of (Cyc, mult) and
    ``nonsplit`` a list of (irreducible LPoly of degree > 1, mult).
    """
    roots, nonsplit = [], []
    for fac, mult in factor_over_cyclotomic(poly, order):
        if fac.degree() == 1:
            roots.append((-fac.coeffs[0] / fac.coeffs[1], mult))
        else:
            nonsplit.append((fac, mult))
    return roots, nonsplit
