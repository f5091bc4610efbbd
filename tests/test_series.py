"""Truncated Laurent series arithmetic and honesty of guaranteed orders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle.cyclotomic import Cyc
from wildcycle.errors import InsufficientTruncation
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
