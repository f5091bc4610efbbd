"""Rational factorisation against sympy's ``factor_list``, as ordered lists.

The order of the factors reaches block order, labels and the exit-2
``min_poly`` text, so the lists must agree entry by entry, not only as
multisets.  sympy is needed only here; the test skips without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle.cyclotomic import poly_mul
from wildcycle.roots import _factor_rational, factor_rational_poly

sympy = pytest.importorskip("sympy")


def sympy_factors(coeffs):
    """sympy's factor_list over QQ in the engine's form: (monic coefficient
    tuple, low degree first, multiplicity)."""
    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        fac = fac.monic()
        cs = [Fraction(0)] * (fac.degree() + 1)
        for (k,), c in fac.terms():
            cs[k] = Fraction(int(c.numerator), int(c.denominator))
        out.append((tuple(cs), int(mult)))
    return out


def product(*polys):
    out = [1]
    for g in polys:
        out = poly_mul(out, g, 0)
    return [Fraction(c) for c in out]


# Phi_8 = x^4 + 1 and Phi_12 = x^4 - x^2 + 1 split into many factors modulo
# every prime, so recombination has to try subsets.
PHI8, PHI12 = [1, 0, 0, 0, 1], [1, 0, -1, 0, 1]

# The distinct norms that the irregular, fixed-z and regular benchmark
# passes factor (build_corpus(11, trunc=6)), low degree first.
WORKLOAD_NORMS = [
    "4, 0, 0, 0, 1",
    "5, -4, 6, -4, 1",
    "10, 6, 11, 6, 1",
    "25/16, 0, 3/2, 0, 1",
    "25, 0, -6, 0, 1",
    "4225, 3120, 2109, 2224, 582, -336, 377, 0, 6, 32, -3, 0, 1",
    "169, 260, 218, 176, 103, 16, 2, 4, 1",
    "100, 0, -16, 0, 1",
    "25/18, 35/18, 109/36, 5/3, 1",
    "485/144, 157/36, 415/48, 241/36, 113/18, 7/3, 1",
    "50/9, 55/9, 151/12, 76/9, 289/36, 7/3, 1",
    "2285/144, 517/36, 1495/48, 601/36, 293/18, 7/3, 1",
    "485/144, 157/36, 95/18, 7/3, 1",
    "50/9, 55/9, 253/36, 7/3, 1",
    "2285/144, 517/36, 275/18, 7/3, 1",
    "125/576, 55/72, 241/144, 11/6, 1",
    "221/144, 77/36, 457/144, 11/6, 1",
    "24341/576, 847/72, 1969/144, 11/6, 1",
]

HARD_CASES = [
    pytest.param(product([1, 0, -10, 0, 1]), id="swinnerton-dyer"),
    pytest.param(product(PHI8, PHI12), id="phi8-phi12"),
    pytest.param(product([0, 1], [1, 0, 1]), id="x-times-x2-plus-1"),
    # x sorts by its coefficients like any other factor: x - 2, x, x + 1
    pytest.param(product([0, 1], [-2, 1], [1, 1]), id="x-among-linears"),
    pytest.param(product(*([-k, 1] for k in range(1, 13))), id="twelve-roots"),
    pytest.param(product([0, 1], [0, 1], [3, 0, 2], [3, 0, 2]),
                 id="repeated-factors"),
    pytest.param([Fraction(-7, 3)], id="constant"),
] + [pytest.param([Fraction(c) for c in norm.split(", ")],
                  id=f"norm-{k}-degree-{norm.count(',')}")
     for k, norm in enumerate(WORKLOAD_NORMS)]


@pytest.mark.parametrize("coeffs", HARD_CASES)
def test_hard_cases_match_sympy(coeffs):
    assert factor_rational_poly(coeffs) == sympy_factors(coeffs)


small_polys = st.lists(st.integers(min_value=-6, max_value=6), min_size=2,
                       max_size=5).filter(lambda cs: cs[-1] != 0)


@st.composite
def products(draw):
    """A product of small-integer polynomials of degree at most 12, some
    factors repeated, times a rational content with the sign that makes the
    leading coefficient negative."""
    factors = draw(st.lists(small_polys, min_size=1, max_size=6))
    if draw(st.booleans()):
        factors.append(factors[0])
    f = [1]
    for g in factors:
        if len(f) + len(g) - 2 <= 12:
            f = poly_mul(f, g, 0)
    content = Fraction(draw(st.integers(min_value=1, max_value=9)),
                       draw(st.integers(min_value=1, max_value=9)))
    sign = -1 if f[-1] > 0 else 1
    return [sign * content * c for c in f]


@settings(max_examples=200, deadline=None)
@given(products())
def test_factorisation_matches_sympy(coeffs):
    found = factor_rational_poly(coeffs)
    assert found == sympy_factors(coeffs)
    assert all(type(c) is Fraction for cs, _ in found for c in cs)


@pytest.mark.parametrize("coeffs", HARD_CASES)
def test_squarefree_entry_matches_on_squarefree_input(coeffs):
    # Trager's norms reach the factoriser already tested square-free
    expected = sympy_factors(coeffs)
    if all(m == 1 for _, m in expected):
        assert _factor_rational(coeffs, lambda f: f) == expected
