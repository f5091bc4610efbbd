"""The dense polynomial kernel over Q, Q(zeta_N) and rational functions of z."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from wildcycle.cyclotomic import (Q0, Cyc, interpolate, poly_add, poly_divmod,
                                  poly_gcd, poly_mul, poly_trim, totient)
from wildcycle.params import LPoly, ParamScalar, PS0

small_rationals = st.builds(Fraction,
                            st.integers(min_value=-4, max_value=4),
                            st.integers(min_value=1, max_value=3))


@st.composite
def cyc_elements(draw):
    order = draw(st.sampled_from([1, 4, 12]))
    coeffs = draw(st.lists(small_rationals, min_size=totient(order),
                           max_size=totient(order)))
    return Cyc(order, coeffs)


@st.composite
def param_elements(draw):
    num = LPoly(draw(st.lists(small_rationals, min_size=1, max_size=2)))
    root = draw(st.integers(min_value=-2, max_value=2))
    den = draw(st.sampled_from([LPoly([1]), LPoly([-root, 1])]))
    return ParamScalar(num, den)


FIELDS = {
    "Q": (small_rationals, Q0, Fraction(1)),
    "Q(zeta)": (cyc_elements(), Cyc.zero(), Cyc.one()),
    "Q(zeta)(z)": (param_elements(), PS0, ParamScalar.rational(1)),
}


def polys(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size)


def kernel_cases(max_size):
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(st.just(name),
                               polys(FIELDS[name][0], max_size),
                               polys(FIELDS[name][0], max_size),
                               polys(FIELDS[name][0], 2)))


def evaluate(p, x, zero):
    out = zero
    for c in reversed(p):
        out = out * x + c
    return out


def same(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


@settings(max_examples=60, deadline=None)
@given(kernel_cases(4))
def test_division_gcd_and_interpolation(case):
    name, a, b, c = case
    _, zero, one = FIELDS[name]
    b = poly_trim(b)
    assume(any(b))
    q, r = poly_divmod(a, b, zero)
    assert same(poly_add(poly_mul(q, b, zero), r), poly_trim(a))
    assert not any(r) or len(r) < len(b)

    g = poly_gcd(a, b, zero)
    if any(a):
        assert g[-1] == one
        assert not any(poly_divmod(a, g, zero)[1])
        assert not any(poly_divmod(b, g, zero)[1])
    else:
        assert same(g, [x / b[-1] for x in b])
    c = poly_trim(c)
    assume(any(c))
    common = poly_gcd(poly_mul(a, c, zero), poly_mul(b, c, zero), zero)
    assert not any(poly_divmod(common, c, zero)[1])

    points = list(range(len(a)))
    values = [evaluate(a, x, zero) for x in points]
    assert same(interpolate(points, values, zero), poly_trim(a))


@settings(max_examples=60, deadline=None)
@given(polys(cyc_elements(), 4), polys(cyc_elements(), 3))
def test_cyclotomic_kernel_agrees_with_lpoly(a, b):
    pa, pb = LPoly(a), LPoly(b)
    zero = Cyc.zero()
    assert LPoly(poly_add(a, b)) == pa + pb
    assert LPoly(poly_mul(a, b, zero)) == pa * pb
    assert LPoly(poly_mul(a, b, zero)).render() == (pa * pb).render()
    assert LPoly(poly_gcd(a, b, zero)) == pa.gcd(pb)
    assume(not pb.is_zero())
    q, r = poly_divmod(poly_trim(a), poly_trim(b), zero)
    assert (LPoly(q), LPoly(r)) == pa.divmod(pb)


def test_zero_products_leave_the_order_alone():
    # a zero factor stored at order 12 leaves the product's values alone
    i, zero12 = Cyc.zeta(4), Cyc.zero(12)
    product = LPoly(poly_mul([Cyc.one(), Cyc.one()], [zero12, i], Cyc.zero()))
    assert product.render() == "i*z + i*z^2"
