"""Field axioms and embeddings for the scalar tower."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle.cyclotomic import Cyc, cyclotomic_polynomial, totient
from wildcycle.errors import DenominatorVanishes
from wildcycle.params import LPoly, ParamScalar


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
