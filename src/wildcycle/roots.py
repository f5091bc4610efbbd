"""Root finding and factorization for polynomials over Q(zeta_N).

Univariate polynomials with :class:`Cyc` coefficients are factored by
Trager's norm method: push the problem down to Q with a resultant against
the cyclotomic polynomial, factor over Q, and pull the factors back with
gcds over the extension.  Rational factorization is Zassenhaus's method in
the standard library: Berlekamp's algorithm modulo a small prime, Hensel
lifting past the Landau-Mignotte bound, and recombination of the lifted
factors by subsets (Zassenhaus, J. Number Theory 1 (1969); Knuth, TAOCP
vol. 2, 4.6.2; von zur Gathen-Gerhard, Modern Computer Algebra, ch. 15).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb, gcd, isqrt, lcm

from .cyclotomic import (Q0, Cyc, cyclotomic_polynomial, interpolate,
                         poly_divmod, poly_gcd, poly_mul, poly_trim, totient)
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


def factor_rational_poly(coeffs):
    """Factor a rational polynomial into irreducibles over Q.

    Returns a list of (monic coefficient tuple, multiplicity), empty for a
    constant.  The factors are sorted by degree, then multiplicity, then
    their primitive integer coefficients (positive leading coefficient,
    highest degree first); the factor x, if any, takes its place in that
    order.  The order reaches block order, labels and the minimal
    polynomial of an exit-2 report; it is the order of sympy's
    ``factor_list`` over QQ.
    """
    return _factor_rational(coeffs, _squarefree_part)


def _factor_rational(coeffs, squarefree_part):
    """``factor_rational_poly`` with ``squarefree_part`` applied to the
    primitive polynomial (the identity for norms already tested square-free)."""
    f = _primitive(coeffs)
    if len(f) < 2:
        return []
    j = next(k for k, c in enumerate(f) if c)
    f = f[j:]
    found = [([0, 1], j)] if j else []
    if len(f) > 1:
        for g in _factor_squarefree_z(squarefree_part(f)):
            mult = 0
            while (q := _exact_quotient(f, g)) is not None:
                f, mult = q, mult + 1
            found.append((g, mult))
    found.sort(key=lambda gm: (len(gm[0]), gm[1], gm[0][::-1]))
    return [(tuple(Fraction(c, g[-1]) for c in g), m) for g, m in found]


# ---------------------------------------------------------------------------
# factorisation over Z (Zassenhaus): Berlekamp modulo a small prime p, Hensel
# lifting to p^l past the Landau-Mignotte bound, recombination by subsets.
# Polynomials are lists of ints, low degree first, as in the kernel.
# ---------------------------------------------------------------------------

# How many primes that keep the polynomial square-free are tried; the one
# with the fewest modular factors is lifted.
_PRIMES_TRIED = 3


def _primitive(coeffs) -> list:
    """The primitive integer multiple of ``coeffs`` with positive leading
    coefficient; ``[0]`` for zero."""
    cs = poly_trim([Fraction(c) for c in coeffs])
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints) or 1
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _squarefree_part(f) -> list:
    """f / gcd(f, f'), primitive."""
    fq = [Fraction(c) for c in f]
    d = poly_gcd(fq, [k * c for k, c in enumerate(fq)][1:], Q0)
    if len(d) == 1:
        return f
    return _primitive(poly_divmod(fq, d, Q0)[0])


def _exact_quotient(f, g):
    """f / g over Z, or None when g does not divide f."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    rem, lead = list(f), g[-1]
    quo = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            quo[i - dg] = c
            for k, gk in enumerate(g):
                rem[i - dg + k] -= c * gk
    return None if any(rem[:dg]) else quo


def _factor_squarefree_z(f) -> list:
    """Irreducible factors over Z of a primitive square-free ``f`` with
    positive leading coefficient, each primitive with positive leading
    coefficient."""
    if len(f) <= 2:
        return [f]
    p, fp, basis = _choose_prime(f)
    if len(basis) == 1:
        return [f]
    # a factor's coefficients, scaled to leading coefficient lc(f), are at
    # most 2^deg(f) * |f|_2 (Mignotte); p^l exceeds twice that
    bound = 2 ** len(f) * (isqrt(sum(c * c for c in f)) + 1)
    pl = p
    while pl <= bound:
        pl *= p
    lifted = _hensel_lift(f, _berlekamp_split(fp, basis, p), p, pl)
    return _recombine(f, lifted, pl)


def _primes():
    p = 3
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _choose_prime(f):
    """(p, f mod p made monic, Berlekamp basis) for the prime, among the
    first ``_PRIMES_TRIED`` that keep ``f`` square-free, with the fewest
    modular factors; stops early at an irreducible image."""
    best, tried = None, 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        inv = pow(f[-1], -1, p)
        fp = [c * inv % p for c in f]
        if len(_gcd_mod(fp, [k * c for k, c in enumerate(fp)][1:], p)) > 1:
            continue
        basis = _berlekamp_basis(fp, p)
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        tried += 1
        if tried == _PRIMES_TRIED or len(basis) == 1:
            return best


def _add_mod(a, b, m) -> list:
    return poly_trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _sub_mod(a, b, m) -> list:
    return poly_trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mul_mod(a, b, m) -> list:
    return poly_trim([c % m for c in poly_mul(a, b, 0)])


def _divmod_mod(a, b, m):
    """(quotient, remainder) modulo m; the leading coefficient of ``b`` is a
    unit mod m."""
    inv = pow(b[-1], -1, m)
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(1, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % m
        if c:
            quo[i - db] = c
            for k in range(db):
                rem[i - db + k] -= c * b[k]
    return quo, poly_trim([c % m for c in rem[:db]]) or [0]


def _gcd_mod(a, b, p) -> list:
    """Monic gcd modulo the prime p."""
    a, b = poly_trim([c % p for c in a]), poly_trim([c % p for c in b])
    while any(b):
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _bezout_mod(a, b, p):
    """(s, t) with s*a + t*b = 1 modulo the prime p, for coprime a, b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [0], [0], [1]
    while any(r1):
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _berlekamp_basis(f, p) -> list:
    """A basis of {v : v^p = v mod f} over GF(p), for monic square-free f;
    its size is the number of irreducible factors of f mod p, and its first
    vector is the constant 1."""
    n = len(f) - 1
    xp, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = _divmod_mod(_mul_mod(xp, base, p), f, p)[1]
        base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
        e >>= 1
    rows, row = [], [1]
    for _ in range(n):
        rows.append(row + [0] * (n - len(row)))
        row = _divmod_mod(_mul_mod(row, xp, p), f, p)[1]
    # v is in the kernel when sum_i v_i (x^(i p) mod f) = v: solve
    # (Q^T - I) v = 0 by Gauss-Jordan elimination
    m = [[(rows[i][j] - (i == j)) % p for i in range(n)] for j in range(n)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        k = next((i for i in range(r, n) if m[i][col]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(n):
            if i != r and m[i][col]:
                c = m[i][col]
                m[i] = [(x - c * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -m[r][free] % p
        basis.append(poly_trim(v))
    return basis


def _berlekamp_split(f, basis, p) -> list:
    """The monic irreducible factors of f modulo p (Knuth, TAOCP 4.6.2)."""
    factors = [f]
    for v in basis[1:]:
        for s in range(p):
            split = []
            for u in factors:
                g = _gcd_mod(u, _sub_mod(v, [s], p), p) if len(u) > 2 else u
                if 1 < len(g) < len(u):
                    split += [g, _divmod_mod(u, g, p)[0]]
                else:
                    split.append(u)
            factors = split
            if len(factors) == len(basis):
                return factors
    return factors


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo m, h monic, the same modulo
    m^2 (von zur Gathen-Gerhard, Algorithm 15.10)."""
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, mm), _mul_mod(q, g, mm), mm), mm)
    h = _add_mod(h, r, mm)
    b = _sub_mod(_add_mod(_mul_mod(s, g, mm), _mul_mod(t, h, mm), mm), [1], mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    s = _sub_mod(s, d, mm)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, mm), _mul_mod(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(f, factors, p, pl) -> list:
    """Monic factors modulo pl = p^l of ``f`` lifted from its monic
    factors modulo p: f = lc(f) * prod(lifted) modulo pl."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, pl)
        return [[c * inv % pl for c in f]]
    k = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:k]:
        g = _mul_mod(g, u, p)
    for u in factors[k:]:
        h = _mul_mod(h, u, p)
    s, t = _bezout_mod(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(g, factors[:k], p, pl)
            + _hensel_lift(h, factors[k:], p, pl))


def _recombine(f, lifted, pl) -> list:
    """Irreducible factors of ``f`` over Z from its lifted modular factors:
    lc(f) times the product of a subset, in symmetric residues modulo
    ``pl``, is a true factor up to its content when it divides ``f``.
    Subsets grow one element at a time, so each factor found is
    irreducible."""
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = _mul_mod(g, lifted[i], pl)
            g = _primitive([c - pl if 2 * c > pl else c for c in g])
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


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
    for shift in range(0, 8 * poly.degree() * totient(order) + 8):
        norm = _norm_poly(poly, order, shift)
        # squarefree test over Q
        d = [norm[k] * k for k in range(1, len(norm))]
        if len(poly_gcd(norm, d, Q0)) > 1:
            continue
        factors = []
        for cs, _ in _factor_rational(norm, lambda f: f):
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
