"""Exact linear algebra on constant matrices and on Laurent series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle.connection import LambdaConnection
from wildcycle.cyclotomic import Cyc, totient
from wildcycle.errors import InsufficientTruncation
from wildcycle.matrices import Echelon, LaurentMatrix, const_rank
from wildcycle.series import LaurentSeries

small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def vector_lists(draw):
    """Vectors over Q or Q(zeta_12); many are combinations of earlier ones."""
    order = draw(st.sampled_from([1, 12]))
    n = draw(st.integers(min_value=1, max_value=4))

    def scalar():
        coeffs = draw(st.lists(small_ints, min_size=totient(order),
                               max_size=totient(order)))
        return Cyc(order, [Fraction(c) for c in coeffs])

    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        if vectors and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(vectors), min_size=1,
                                  max_size=3))
            vec = [Cyc.zero(order)] * n
            for p in picks:
                c = scalar()
                vec = [x + c * y for x, y in zip(vec, p)]
        else:
            vec = [scalar() for _ in range(n)]
        vectors.append(vec)
    return vectors


def greedy_rank_selection(vectors):
    picked = []
    for idx, v in enumerate(vectors):
        trial = [vectors[j] for j in picked] + [v]
        columns = [[w[i] for w in trial] for i in range(len(v))]
        if const_rank(columns) == len(trial):
            picked.append(idx)
    return picked


@settings(max_examples=80, deadline=None)
@given(vector_lists())
def test_echelon_keeps_what_greedy_rank_keeps(vectors):
    span = Echelon()
    kept = [idx for idx, v in enumerate(vectors) if span.add(v)]
    assert kept == greedy_rank_selection(vectors)


def series_matrix(rows):
    """Exact matrix from {exponent: coefficient} dicts."""
    return LaurentMatrix([[LaurentSeries(1, x) for x in row] for row in rows])


@pytest.mark.parametrize("rows", [
    [[{0: 1}, {1: 2}], [{}, {0: 1}]],
    [[{0: 2}, {0: 1}, {}], [{0: 1}, {0: 3}, {0: -1}], [{}, {0: 1}, {0: 5}]],
    [[{0: 1}, {1: 2}], [{}, {1: 1}]],
], ids=["shear", "constant-3x3", "monomial-pivots"])
def test_exact_inverse_of_monomial_pivots(rows):
    a = series_matrix(rows)
    inv = a.inverse()
    assert inv.trunc() is None
    one = LaurentMatrix.identity_matrix(a.nrows)
    assert (a * inv).agrees_with(one) and (inv * a).agrees_with(one)
    assert (a * inv).trunc() is None


def test_non_monomial_pivot_needs_an_order():
    # det = 1, but the first pivot 1 + t is not a monomial
    g = series_matrix([[{0: 1, 1: 1}, {0: 1}], [{1: 1}, {0: 1}]])
    with pytest.raises(InsufficientTruncation):
        g.inverse()
    assert g.inverse(6).trunc() == 6
    # gauge_transform then inverts to the connection's own order
    conn = LambdaConnection(
        series_matrix([[{-1: 1}, {0: 2}], [{0: 1}, {1: 3}]]).truncate(6), 1)
    new = conn.gauge_transform(g)
    lam = conn.lambda_factor()
    rhs = conn.action * g + g.log_derivative().map(lambda x: x * lam)
    assert new.action.trunc() is not None
    assert (g * new.action).agrees_with(rhs)


def test_map_keeps_the_ramification():
    m = LaurentMatrix([[LaurentSeries.monomial(2, -1, 3, 6)]], 3)
    scalars = m.map(lambda x: x.coeff(-1))
    assert scalars.q == 3 and scalars.rows[0][0].q == 3
    assert LaurentMatrix([], 2).map(lambda x: x).q == 2
