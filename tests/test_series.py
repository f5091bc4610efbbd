"""Truncated Laurent series arithmetic and honesty of guaranteed orders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle.cyclotomic import Cyc
from wildcycle.errors import InsufficientTruncation
from wildcycle.matrices import LaurentMatrix
from wildcycle.params import LPoly, ParamScalar
from wildcycle.series import LaurentSeries, ramify_series


def series(entries, q=1, trunc=None):
    return LaurentSeries(q, {k: Fraction(v) for k, v in entries.items()}, trunc)


def test_valuation_of_products():
    f = series({-2: 3, 1: 5})
    g = series({1: 2, 4: -1})
    assert (f * g).valuation() == -1
    assert (f * g).coeff(-1) == Fraction(6)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-4, 4),
                       st.integers(-5, 5).map(Fraction), max_size=4),
       st.dictionaries(st.integers(-4, 4),
                       st.integers(-5, 5).map(Fraction), max_size=4))
def test_product_valuation_additive(fd, gd):
    f, g = series(fd), series(gd)
    if f.valuation() is None or g.valuation() is None:
        return
    prod = f * g
    lead = f.leading() * g.leading()
    if not lead.is_zero():
        assert prod.valuation() == f.valuation() + g.valuation()


def test_inversion_round_trip():
    f = series({-1: 2, 0: 1, 3: Fraction(1, 3)})
    inv = f.invert(8)
    assert (f * inv).agrees_with(LaurentSeries.one(1, 6))


def test_inversion_respects_truncation():
    f = series({0: 1, 1: 1}, trunc=4)
    with pytest.raises(InsufficientTruncation):
        f.invert(10)
    inv = f.invert(4)
    assert inv.trunc == 4


def test_inversion_does_not_overstate_a_negative_valuation():
    # 1/(t^-2 + O(t^10)) = t^2 + O(t^14): the t^13 coefficient depends on
    # the unknown t^9 coefficient of the input
    f = series({-2: 1}, trunc=10)
    g = series({-2: 1, 9: 1}, trunc=10)
    assert f.invert(14).trunc == g.invert(14).trunc == 14
    assert g.invert(14).coeff(13) == Fraction(-1)
    assert series({-2: 1}).invert(14).trunc == 16


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3),
       st.dictionaries(st.integers(1, 7), st.integers(-5, 5).map(Fraction),
                       max_size=4),
       st.integers(1, 3))
def test_inverse_times_series_is_one(v, tail, lead):
    f = series({v: lead, **{v + k: c for k, c in tail.items()}}, trunc=v + 9)
    order = f.trunc - 2 * v
    inv = f.invert(order)
    assert inv.trunc == min(f.trunc - 2 * v, order - v)
    prod = f * inv
    assert prod.agrees_with(LaurentSeries.one(1, prod.trunc))


def test_coefficients_beyond_window_refused():
    f = series({0: 1}, trunc=3)
    with pytest.raises(InsufficientTruncation):
        f.coeff(5)


def test_ramify_examples():
    tinv = series({-1: 1})
    assert ramify_series(tinv, 2).coeffs == {-2: tinv.coeff(-1)}
    one_plus_t = series({0: 1, 1: 1}, trunc=5)
    r = ramify_series(one_plus_t, 3)
    assert r.q == 3 and r.trunc == 15
    assert r.coeff(3) == Fraction(1)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-3, 3),
                       st.integers(-4, 4).map(Fraction), max_size=3),
       st.dictionaries(st.integers(-3, 3),
                       st.integers(-4, 4).map(Fraction), max_size=3),
       st.integers(2, 4))
def test_ramify_is_ring_morphism(fd, gd, r):
    f, g = series(fd), series(gd)
    assert ramify_series(f * g, r).agrees_with(
        ramify_series(f, r) * ramify_series(g, r))
    assert ramify_series(f + g, r).agrees_with(
        ramify_series(f, r) + ramify_series(g, r))


def test_root_substitution():
    f = series({-1: 1, 2: 3}, q=2)
    z = Cyc.zeta(4)
    g = f.substitute_root(z)
    assert g.coeff(-1) == f.coeff(-1) * z.inverse()
    assert g.coeff(2) == f.coeff(2) * (z * z)


def test_log_derivative():
    f = series({-2: 5, 0: 7, 3: 1})
    d = f.log_derivative()
    assert d.coeff(-2) == Fraction(-10)
    assert d.coeff(0) == 0
    assert d.coeff(3) == Fraction(3)


def test_render_parse_friendly():
    f = LaurentSeries(1, {-2: Fraction(3, 2), 0: Cyc.gaussian(1, 2), 3: 1})
    assert f.render() == "3/2*t^-2 + 1 + 2*i + t^3"


# -- the coefficient-list products against the per-term ParamScalar fold ---
#
# The reference below is the fold: every term is a ParamScalar product added
# into its slot with ParamScalar arithmetic, starting from a fresh rational
# zero.  The list path must give the same slots, values and renders; the
# order a Cyc is stored at, and the order of the slots, are free.

def ref_mul(f, g):
    t = None
    if f.trunc is not None or g.trunc is not None:
        t = min(f.trunc + g.valuation_bound() if f.trunc is not None
                else float("inf"),
                g.trunc + f.valuation_bound() if g.trunc is not None
                else float("inf"))
        t = None if t == float("inf") else int(t)
    out = {}
    for a, x in f.coeffs.items():
        for b, y in g.coeffs.items():
            if t is None or a + b < t:
                out[a + b] = out.get(a + b, ParamScalar.rational(0)) + x * y
    return LaurentSeries(f.q, out, t)


def ref_add(f, g):
    out = dict(f.coeffs)
    for n, c in g.coeffs.items():
        out[n] = out.get(n, ParamScalar.rational(0)) + c
    t = f.trunc if g.trunc is None else (
        g.trunc if f.trunc is None else min(f.trunc, g.trunc))
    return LaurentSeries(f.q, out, t)


def ref_dot(xs, ys):
    acc = ref_mul(xs[0], ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        acc = ref_add(acc, ref_mul(x, y))
    return acc


def assert_same_poly(got, want):
    assert len(got.coeffs) == len(want.coeffs)
    for a, b in zip(got.coeffs, want.coeffs):
        assert a == b
        assert a.render() == b.render()


def assert_same_series(got, want):
    assert (got.q, got.trunc) == (want.q, want.trunc)
    assert set(got.coeffs) == set(want.coeffs)
    for n, w in want.coeffs.items():
        g = got.coeffs[n]
        assert_same_poly(g.num, w.num)
        assert_same_poly(g.den, w.den)
        assert g.render() == w.render()


ORDERS = (1, 4, 12)
# 1/(1 + z): the one rational-function coefficient
RATIONAL = ParamScalar(LPoly([1]), LPoly([1, 1]))


@st.composite
def cycs(draw):
    order = draw(st.sampled_from(ORDERS))
    kind = draw(st.sampled_from(["zero", "rational", "root"]))
    if kind == "zero":
        return Cyc.zero(order)
    if kind == "rational":
        return Cyc.rational(draw(st.integers(-2, 2)), order)
    return Cyc.zeta(order, draw(st.integers(0, order - 1))) * \
        draw(st.sampled_from([1, -1]))


@st.composite
def scalars(draw):
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return RATIONAL
    # zeros of any order, order 12 included, can sit inside the polynomial
    c = ParamScalar(LPoly(draw(st.lists(cycs(), min_size=1, max_size=3))))
    if kind == 1:
        # the same polynomial over a one stored at order 4
        i = Cyc.imaginary_unit()
        c = c / i * i
    return c


@st.composite
def laurent_series(draw):
    coeffs = draw(st.dictionaries(st.integers(-2, 2), scalars(), max_size=3))
    trunc = draw(st.one_of(st.none(), st.integers(-1, 4)))
    return LaurentSeries(1, coeffs, trunc)


def cancelling_copy(draw, f):
    """-f with its coefficients lifted to order 12, or only the top
    z-coefficient of each negated: a product with it empties or shortens
    the slots an earlier product filled."""
    top_only = draw(st.booleans())
    out = {}
    for n, c in f.coeffs.items():
        if c.den.is_constant():
            cs = [-x.lift(12) for x in c.num.coeffs]
            if top_only:
                cs = [Cyc.zero(draw(st.sampled_from(ORDERS)))
                      for _ in cs[:-1]] + cs[-1:]
            out[n] = ParamScalar(LPoly(cs))
        else:
            out[n] = -c
    return LaurentSeries(f.q, out, f.trunc)


@st.composite
def dot_pairs(draw):
    """Random pairs, cancelling copies of some of them, more random pairs:
    a slot that the copies empty or shorten is then added to again."""
    pair = st.tuples(laurent_series(), laurent_series())
    head = draw(st.lists(pair, min_size=1, max_size=2))
    copies = [(x, cancelling_copy(draw, y)) for x, y in head
              if draw(st.booleans())]
    pairs = head + copies + draw(st.lists(pair, max_size=2))
    return [x for x, _ in pairs], [y for _, y in pairs]


@settings(max_examples=150, deadline=None)
@given(laurent_series(), laurent_series())
def test_product_matches_the_per_term_fold(f, g):
    assert_same_series(f * g, ref_mul(f, g))
    assert_same_series(f + g, ref_add(f, g))


@settings(max_examples=150, deadline=None)
@given(dot_pairs())
def test_dot_matches_the_per_term_fold(pairs):
    xs, ys = pairs
    assert_same_series(LaurentSeries.dot(xs, ys), ref_dot(xs, ys))


@settings(max_examples=40, deadline=None)
@given(st.lists(laurent_series(), min_size=4, max_size=4),
       st.lists(laurent_series(), min_size=4, max_size=4))
def test_matrix_product_matches_the_per_term_fold(a, b):
    a, b = [a[:2], a[2:]], [b[:2], b[2:]]
    got = LaurentMatrix(a) * LaurentMatrix(b)
    for i in range(2):
        for j in range(2):
            want = ref_dot(a[i], [b[0][j], b[1][j]])
            assert_same_series(got.rows[i][j], want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(scalars(), scalars()), min_size=1, max_size=4))
def test_scalar_dot_matches_the_fold(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    want = xs[0] * ys[0]
    for x, y in pairs[1:]:
        want = want + x * y
    got = ParamScalar.dot(xs, ys)
    assert_same_poly(got.num, want.num)
    assert_same_poly(got.den, want.den)


def test_an_emptied_slot_is_dropped_before_the_next_product():
    # i*1 - i*1 empties t^0 at order 12; after the third product the slot
    # holds i, which renders as i whatever order it is stored at
    i4, i12 = Cyc.imaginary_unit(), Cyc.imaginary_unit(12)
    one = LaurentSeries.one()
    xs = [LaurentSeries.constant(i4), LaurentSeries.constant(-i12), one]
    got = LaurentSeries.dot(xs, [one, one, LaurentSeries.constant(i4)])
    assert_same_series(got, ref_dot(xs, [one, one,
                                         LaurentSeries.constant(i4)]))
    assert got.coeffs[0].render() == "i"
