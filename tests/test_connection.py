"""Functor algebra on lambda-connections."""

from fractions import Fraction

import pytest

from wildcycle.connection import ExpFactor, LambdaConnection
from wildcycle.corpus import build_corpus
from wildcycle.cyclotomic import Cyc
from wildcycle.errors import DenominatorVanishes, SingularGauge
from wildcycle.exponents import ComplexExponent, star
from wildcycle.matrices import LaurentMatrix
from wildcycle.params import ParamScalar
from wildcycle.reduction import apply_operator
from wildcycle.series import LaurentSeries


def const(val, q=1, trunc=None):
    return LaurentSeries.monomial(val, 0, q, trunc)


def diag(entries, q=1):
    return LambdaConnection(LaurentMatrix.diagonal(entries, q), q)


BETA = ComplexExponent.of(Fraction(-1, 2), 1)


def test_twist_rank_one_trivial():
    m = LambdaConnection.trivial(1)
    t = m.twist_exponential(ExpFactor.monomial(1, 1), -1)
    assert t.action.rows[0][0].render() == "t^-1"


def test_twist_inverse_and_functoriality():
    m = diag([const(star(BETA)), const(1)])
    p1 = ExpFactor(1, {1: 1})
    p2 = ExpFactor(1, {2: Fraction(1, 2)})
    twice = m.twist_exponential(p1, 1).twist_exponential(p2, 1)
    once = m.twist_exponential(p1 + p2, 1)
    assert twice.action.agrees_with(once.action)
    back = once.twist_exponential(p1 + p2, -1)
    assert back.action.agrees_with(m.action)


def test_higgs_restriction_of_exponential():
    # the z=0 fiber of E^{phi/z} is the rank-one Higgs field with form dphi
    phi = ExpFactor(1, {2: 3})
    e = LambdaConnection.trivial(1).twist_exponential(phi, 1)
    higgs = e.restrict_lambda(0)
    assert higgs.is_higgs
    assert higgs.action.agrees_with(e.action)   # t*phi' is z-free


def test_ramify_scales_star():
    m = diag([const(star(BETA))])
    r = m.ramify_pullback(2)
    assert r.q == 2
    assert r.action.rows[0][0].coeff(0) == star(BETA) * 2
    assert m.ramify_pullback(2).ramify_pullback(3).action.agrees_with(
        m.ramify_pullback(6).action)


def test_pushforward_rank_and_exponents():
    p = LambdaConnection.trivial(1, 2).pushforward()
    assert p.rank == 2 and p.q == 1
    assert p.action.rows[1][1].coeff(0) == ParamScalar.lam() * Fraction(1, 2)
    # characteristic polynomial oracle: X(X - z/2)
    cp = p.action.charpoly()
    assert cp[0].is_zero_to_order()
    assert cp[1].coeff(0) == -(ParamScalar.lam() * Fraction(1, 2))


def test_pushforward_of_orbit_has_trace_zero_polar():
    phi = ExpFactor(2, {1: 1})
    e = LambdaConnection.trivial(1, 2).twist_exponential(phi, -1)
    p = e.pushforward()
    assert p.rank == 2
    tr = p.action.rows[0][0] + p.action.rows[1][1]
    assert tr.valuation() == 0   # the polar parts cancel in the trace


def test_restrict_lambda_examples():
    m = diag([const(star(BETA))])
    at1 = m.restrict_lambda(1)
    assert at1.action.rows[0][0].coeff(0).as_cyc() == BETA.as_cyc()
    at0 = m.restrict_lambda(0)
    assert at0.is_higgs
    assert at0.action.rows[0][0].coeff(0).as_cyc() == \
        Cyc.gaussian(Fraction(-1, 2), Fraction(1, 2))
    bad = LambdaConnection(LaurentMatrix(
        [[const(ParamScalar.rational(1) / (ParamScalar.lam() - 1))]], 1), 1)
    with pytest.raises(DenominatorVanishes):
        bad.restrict_lambda(1)


def test_gauge_shear_and_group_action():
    m = LambdaConnection.trivial(2)
    g = LaurentMatrix.diagonal([LaurentSeries.one(1),
                                LaurentSeries.monomial(1, 1, 1)], 1)
    sheared = m.gauge_transform(g)
    assert sheared.action.rows[1][1].coeff(0) == ParamScalar.lam()
    back = sheared.gauge_transform(g.inverse())
    assert back.action.agrees_with(m.action)

    h = LaurentMatrix([[LaurentSeries.one(1), LaurentSeries.monomial(2, 1, 1)],
                       [LaurentSeries.zero(1), LaurentSeries.one(1)]], 1)
    m2 = diag([const(star(BETA)), const(1)])
    ab = m2.gauge_transform(g * h, order=8)
    ba = m2.gauge_transform(g, order=8).gauge_transform(h, order=8)
    assert ab.action.agrees_with(ba.action)


def test_singular_gauge_rejected():
    g = LaurentMatrix([[LaurentSeries.one(1), LaurentSeries.one(1)],
                       [LaurentSeries.one(1), LaurentSeries.one(1)]], 1)
    with pytest.raises(SingularGauge):
        LambdaConnection.trivial(2).gauge_transform(g, order=6)


def test_sum_tensor_and_restrict_commute():
    m1 = diag([const(star(BETA))])
    m2 = diag([const(Fraction(1, 3))])
    s = m1.direct_sum(m2)
    t = m1.tensor(m2)
    assert s.rank == 2 and t.rank == 1
    assert t.action.rows[0][0].coeff(0) == star(BETA) + Fraction(1, 3)
    for op in (s, t):
        direct = op.restrict_lambda(1)
        pieces = (m1.restrict_lambda(1).direct_sum(m2.restrict_lambda(1))
                  if op is s else
                  m1.restrict_lambda(1).tensor(m2.restrict_lambda(1)))
        assert direct.action.agrees_with(pieces.action)


def test_restrict_commutes_with_twist_and_gauge():
    m = diag([const(star(BETA)), const(1)])
    phi = ExpFactor(1, {1: Fraction(2, 3)})
    g = LaurentMatrix([[LaurentSeries.one(1), LaurentSeries.monomial(1, 2, 1)],
                       [LaurentSeries.monomial(1, 1, 1), LaurentSeries.one(1)]],
                      1)
    lhs = m.twist_exponential(phi, 1).gauge_transform(g, order=8) \
        .restrict_lambda(1)
    rhs = m.restrict_lambda(1).twist_exponential(phi, 1) \
        .gauge_transform(g, order=8)
    assert lhs.action.agrees_with(rhs.action)


def apply_operator_two_step(conn, vec):
    """A*vec summed one product at a time, then z * (u d/du) vec added."""
    lam = conn.lambda_factor()
    out = []
    for i, row in enumerate(conn.action.rows):
        acc = LaurentSeries.zero(conn.q, None)
        for a, v in zip(row, vec):
            if not (a.is_zero_to_order() and a.trunc is None):
                acc = acc + a * v
        out.append(acc + vec[i].log_derivative() * lam)
    return out


def test_apply_operator_matches_the_two_step_formula():
    for case in build_corpus(11, trunc=6):
        for conn in (case.connection.restrict_lambda(0), case.connection):
            n, q = conn.rank, conn.q
            vectors = [
                [LaurentSeries.one(q) if j == 0 else LaurentSeries.zero(q)
                 for j in range(n)],
                [LaurentSeries(q, {0: j + 1, j + 1: -1}, 1 + 3 * j)
                 for j in range(n)],
            ]
            for vec in vectors:
                assert (apply_operator(conn, vec)
                        == apply_operator_two_step(conn, vec)), case.name


def test_apply_operator_keeps_the_derivative_order_at_z_zero():
    # at z = 0 the derivative term vanishes, yet vec[i] is only known to
    # its own order, so L(vec)[i] is too
    conn = LambdaConnection.trivial(2).restrict_lambda(0)
    vec = [LaurentSeries(1, {1: 2}, 3), LaurentSeries(1, {0: 1}, 5)]
    out = apply_operator(conn, vec)
    assert [x.trunc for x in out] == [3, 5]
    assert out == apply_operator_two_step(conn, vec)
