"""Field axioms and embeddings for the scalar tower."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle.cyclotomic import (Q0, Cyc, cyclotomic_polynomial, lcm,
                                  poly_divmod, totient)
from wildcycle.errors import DenominatorVanishes
from wildcycle.params import LPoly, ParamScalar
from wildcycle.parser import parse_expression


ORDERS = [1, 2, 3, 4, 8, 12]


def element(order, coeffs):
    return Cyc(order, [Fraction(c) for c in coeffs])


small_rationals = st.builds(Fraction,
                            st.integers(min_value=-6, max_value=6),
                            st.integers(min_value=1, max_value=4))


@st.composite
def cyclotomic_elements(draw):
    order = draw(st.sampled_from(ORDERS))
    deg = totient(order)
    coeffs = draw(st.lists(small_rationals, min_size=deg, max_size=deg))
    return Cyc(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclotomic_elements(), cyclotomic_elements(), cyclotomic_elements())
def test_field_axioms_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cyclotomic_elements(), st.integers(min_value=1, max_value=6))
def test_hash_is_invariant_under_lifting(a, m):
    assert hash(a) == hash(a.lift(a.order * m))


def test_equal_scalars_hash_alike():
    a, b = Cyc.zeta(4), Cyc.zeta(8, 2)
    assert a == b and len({a, b}) == 1
    assert len({LPoly([1, a]), LPoly([1, b])}) == 1
    assert len({ParamScalar.of(a), ParamScalar.of(b)}) == 1
    assert hash(Cyc.rational(Fraction(3, 7), 12)) == hash(Fraction(3, 7))
    two = [ParamScalar.rational(2), Cyc.rational(2), Cyc.rational(2, 12),
           LPoly.constant(2), Fraction(2), 2]
    assert all(x == y for x in two for y in two) and len(set(two)) == 1


@st.composite
def scalars_of_every_type(draw):
    """A small value c (+ z) as an int, Fraction, Cyc at order 4 or 12,
    LPoly or ParamScalar, so that equal values of different types are often
    drawn together; a type that cannot hold the value falls back to LPoly."""
    c = Cyc.gaussian(draw(st.sampled_from([0, 2, Fraction(-1, 2)])),
                     draw(st.sampled_from([0, 0, 1])))
    poly = LPoly([c, 1] if draw(st.booleans()) else [c])
    kind = draw(st.sampled_from(["int", "fraction", "cyc4", "cyc12", "lpoly",
                                 "param", "param-over-z"]))
    constant = poly.is_constant()
    if kind == "param-over-z":
        return ParamScalar(poly, LPoly([0, 1]))
    if kind == "param":
        return ParamScalar(poly)
    if kind in ("int", "fraction") and constant and c.is_rational():
        f = c.as_fraction()
        return int(f) if kind == "int" and f.denominator == 1 else f
    if kind in ("cyc4", "cyc12") and constant:
        return c.lift(12) if kind == "cyc12" else c
    return poly


@settings(max_examples=300, deadline=None)
@given(scalars_of_every_type(), scalars_of_every_type())
def test_equality_and_hashing_agree_across_scalar_types(a, b):
    for x, y in ((a, b), (b, a), (a, None), (None, a)):
        assert (x == y) in (True, False)
    if a == b:
        assert b == a and hash(a) == hash(b)


@settings(max_examples=60, deadline=None)
@given(cyclotomic_elements())
def test_field_axioms_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == 1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    # Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == tuple(
        Fraction(c) for c in (1, 0, -1, 0, 1))


def test_roots_of_unity():
    for n in (2, 3, 4, 8, 12):
        z = Cyc.zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert not (z ** k == 1) or k % n == 0


def test_embedding_compatibility():
    a = Cyc.zeta(4) + Cyc.rational(Fraction(1, 2), 4)
    lifted = a.lift(12)
    assert lifted == a
    assert (lifted * lifted) == (a * a)
    assert Cyc.zeta(4) == Cyc.zeta(12, 3)


def test_gaussian_embedding():
    g = Cyc.gaussian(Fraction(1, 2), Fraction(-3, 4))
    assert g.real_part().as_fraction() == Fraction(1, 2)
    assert g.imag_part().as_fraction() == Fraction(-3, 4)
    assert g.conjugate() == Cyc.gaussian(Fraction(1, 2), Fraction(3, 4))
    assert Cyc.imaginary_unit() ** 2 == -1


def test_purely_imaginary_and_real_checks():
    i = Cyc.imaginary_unit()
    assert i.is_purely_imaginary() and not i.is_real()
    assert Cyc.rational(Fraction(5, 3)).is_real()
    assert (i * Fraction(2, 7)).is_purely_imaginary()


def test_param_scalar_arithmetic_and_reduction():
    z = ParamScalar.lam()
    f = (z * z - 1) / (z - 1)
    assert f == z + 1              # reduced fraction
    g = 1 / (z - 1)
    assert g.eval(Cyc.rational(0)) == -1
    with pytest.raises(DenominatorVanishes):
        g.eval(Cyc.rational(1))


def test_param_scalar_rendering_exact():
    z = ParamScalar.lam()
    s = z * Fraction(1, 2) + Cyc.imaginary_unit() * Fraction(3, 4)
    assert s.render() == "3/4*i + 1/2*z"
    assert ParamScalar.rational(Fraction(-2, 3)).render() == "-2/3"


def test_lpoly_divmod_gcd():
    x = LPoly.variable()
    p = (x - 1) * (x - 2) * (x - 2)
    q, r = p.divmod(x - 2)
    assert r.is_zero()
    g = p.gcd(p.derivative())
    assert g == (x - 2)


# -- the integer representation against a Fraction reference ---------------
#
# A reference element is (order, coordinates as Fractions), reduced by long
# division by Phi_N: independent of the integer fold table.

INT_ORDERS = [1, 3, 4, 5, 8, 12]


def ref_reduce(order, coeffs):
    _, rem = poly_divmod(list(coeffs) or [Q0], cyclotomic_polynomial(order),
                         Q0)
    return order, tuple(rem) + (Q0,) * (totient(order) - len(rem))


def ref_lift(ref, order):
    n, cs = ref
    step = order // n
    raw = [Q0] * ((len(cs) - 1) * step + 1)
    for k, c in enumerate(cs):
        raw[k * step] = c
    return ref_reduce(order, raw)


def ref_pair(x, y):
    n = lcm(x[0], y[0])
    return ref_lift(x, n), ref_lift(y, n)


def ref_add(x, y, sign=1):
    (n, a), (_, b) = ref_pair(x, y)
    return n, tuple(p + sign * q for p, q in zip(a, b))


def ref_mul(x, y):
    (n, a), (_, b) = ref_pair(x, y)
    conv = [Q0] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            conv[i + j] += p * q
    return ref_reduce(n, conv)


def ref_conjugate(ref):
    n, cs = ref
    raw = [Q0] * n
    for k, c in enumerate(cs):
        raw[(n - k) % n] += c
    return ref_reduce(n, raw)


def ref_of(c):
    return c.order, tuple(Fraction(x, c.den) for x in c.nums)


def assert_canonical(c):
    assert all(type(x) is int for x in c.nums) and type(c.den) is int
    assert c.den > 0
    assert gcd(c.den, *c.nums) == 1
    assert len(c.nums) == totient(c.order)


@st.composite
def raw_elements(draw):
    """(Cyc, reference) from rational coefficients of any length up to 2N+1,
    so the constructor folds powers past N."""
    order = draw(st.sampled_from(INT_ORDERS))
    coeffs = draw(st.lists(small_rationals, max_size=2 * order + 1))
    return Cyc(order, coeffs), ref_reduce(order, coeffs)


def check(c, ref):
    assert_canonical(c)
    assert ref_of(c) == ref


@pytest.mark.parametrize("x, y", [
    ((3, Fraction(1, 2)), (4, Fraction(-2, 3))),
    ((1, 2), (12, Fraction(3, 4))),
    ((5, 0), (5, Fraction(7, 3))),
    ((8, Fraction(-5, 6)), (1, Fraction(5, 6))),
])
def test_rational_operands_meet_at_the_lcm(x, y):
    # two rationals take a path of their own: the result is stored at the
    # lcm of the orders, in lowest terms, as the general path stores it
    a, b = Cyc.rational(x[1], x[0]), Cyc.rational(y[1], y[0])
    check(a + b, ref_add(ref_of(a), ref_of(b)))
    check(a - b, ref_add(ref_of(a), ref_of(b), -1))
    check(a * b, ref_mul(ref_of(a), ref_of(b)))
    assert (a + b).order == (a * b).order == lcm(x[0], y[0])


def test_every_power_of_zeta_folds():
    for order in INT_ORDERS:
        for k in range(3 * order + 1):
            power = [Q0] * k + [Fraction(1)]
            check(Cyc(order, power), ref_reduce(order, power))
            check(Cyc.zeta(order, k), ref_reduce(order, power))


@settings(max_examples=150, deadline=None)
@given(raw_elements(), raw_elements())
def test_integer_form_agrees_with_fraction_reference(xa, yb):
    (x, xr), (y, yr) = xa, yb
    check(x, xr)
    check(y, yr)
    check(x + y, ref_add(xr, yr))
    check(x - y, ref_add(xr, yr, -1))
    check(-x, ref_add((x.order, (Q0,) * totient(x.order)), xr, -1))
    check(x * y, ref_mul(xr, yr))
    check(x.conjugate(), ref_conjugate(xr))
    m = lcm(x.order, y.order) * 2
    check(x.lift(m), ref_lift(xr, m))
    one = ref_reduce(x.order, [Fraction(1)])
    f = Fraction(-3, 4)
    check(x * f, ref_mul(xr, ref_reduce(1, [f])))
    check(x / 6, ref_mul(xr, ref_reduce(1, [Fraction(1, 6)])))
    for zero in (0, Q0, Cyc.zero(y.order)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        assert ref_mul(xr, ref_of(inv)) == one
        q = y / x
        assert_canonical(q)
        assert ref_mul(ref_of(q), xr) == ref_lift(yr, q.order)


@settings(max_examples=80, deadline=None)
@given(raw_elements(), st.sampled_from([1, 2, 3, 5]))
def test_equal_values_at_different_orders(xa, m):
    x, _ = xa
    y = x.lift(x.order * m)
    assert x == y and y == x and hash(x) == hash(y)
    assert (x - y).is_zero() and not (x - y)
    if x.is_rational():
        assert x == x.as_fraction() and hash(x) == hash(x.as_fraction())
    assert (x + 1 == y) is False


def galois_conductor(x):
    """The least e | N, e != 2 mod 4, whose field Q(zeta_e) holds x: the
    fixed field of the sigma_a, zeta_N -> zeta_N^a, with a = 1 mod e."""
    n = x.order
    for e in range(1, n + 1):
        if n % e or e % 4 == 2:
            continue
        fixed = True
        for a in range(1, n):
            if gcd(a, n) == 1 and a % e == 1 % e:
                vec = [Fraction(0)] * n
                for k, c in enumerate(x.coeffs):
                    vec[k * a % n] += c
                fixed = fixed and Cyc(n, vec) == x
        if fixed:
            return e


@settings(max_examples=80, deadline=None)
@given(raw_elements(), st.sampled_from([1, 2, 3, 5]))
def test_render_is_read_at_the_conductor(xa, m):
    x, _ = xa
    c = x.canonical()
    assert c == x and c.order == galois_conductor(x)
    assert x.lift(x.order * m).render() == x.render()
    assert x.lift(x.order * m).canonical().order == c.order
    back = parse_expression(x.render()).coeff(0)
    assert back == x and back.render() == x.render()


def test_zero_order_decides_rendering():
    # the order of the zero the sum starts from does not reach the render:
    # a value renders at its conductor
    i = Cyc.imaginary_unit()
    assert (Cyc.zero(12) + i).render() == "i"
    assert (Cyc.zero() + i).render() == "i"
