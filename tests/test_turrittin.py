"""The decomposition engine: polygons, splits, shears, certificates."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildcycle import matrices, turrittin
from wildcycle.connection import LambdaConnection
from wildcycle.corpus import build_corpus
from wildcycle.cyclotomic import Cyc
from wildcycle.errors import (InsufficientTruncation, SpectrumNotSplit,
                              UnsupportedAlgebraicExtension)
from wildcycle.exponents import ComplexExponent, star
from wildcycle.matrices import LaurentMatrix, identity, mat_mul
from wildcycle.params import PS0, PS1, LPoly, ParamScalar
from wildcycle.reduction import decomposition_slopes
from wildcycle.roots import roots_in_field
from wildcycle.series import LaurentSeries
from wildcycle.turrittin import (NewtonPolygon, formal_decompose,
                                 gauge_by_orders, gauge_residual,
                                 leading_split, newton_polygon, shear,
                                 verify_decomposition)


def const(val, q=1, trunc=12):
    return LaurentSeries.monomial(val, 0, q, trunc)


def mono(val, e, q=1, trunc=12):
    return LaurentSeries.monomial(val, e, q, trunc)


def zero(q=1, trunc=12):
    return LaurentSeries.zero(q, trunc)


def conn(rows, q=1):
    return LambdaConnection(LaurentMatrix(rows, q), q)


BETA = ComplexExponent.of(Fraction(-1, 3), 0)


def multiset_equal(got, want):
    pool = list(want)
    for g in got:
        for i, w in enumerate(pool):
            if g == w:
                pool.pop(i)
                break
        else:
            return False
    return not pool


# -- newton polygon ----------------------------------------------------------

def test_polygon_regular_diag():
    m = conn([[const(star(BETA)), zero()], [zero(), const(1)]])
    p = newton_polygon(m)
    assert p.slopes == ((Fraction(0), 2),)
    assert p.ramification() == 1 and p.is_regular()


def test_polygon_half_slope():
    m = conn([[zero(), const(1)], [mono(1, -1), zero()]])
    p = newton_polygon(m)
    assert p.slopes == ((Fraction(1, 2), 2),)
    assert p.ramification() == 2
    # the stated oracle: valuations of the characteristic polynomial
    cp = m.action.charpoly()
    assert cp[0].valuation() == -1 and cp[2].valuation() == 0


def test_polygon_mixed():
    m = conn([[mono(1, -1), zero()], [zero(), const(1)]])
    p = newton_polygon(m)
    assert p.slopes == ((Fraction(0), 1), (Fraction(1), 1))


def test_polygon_exact_on_inflated_presentation():
    # apparent pole: the naive char-poly polygon would not see through a
    # bad frame, the operator polygon does
    m = conn([[zero(), mono(1, -2)], [zero(), zero()]])
    p = newton_polygon(m)
    assert p.is_regular()


# -- shear and leading_split --------------------------------------------------

def test_shear_identity_and_star_shift():
    m = conn([[const(star(BETA)), zero()], [zero(), const(1)]])
    unchanged, _ = shear(m, [0, 1], 0)
    assert unchanged.action.agrees_with(m.action)
    sheared, g = shear(m, [1], 1)
    # a t-rescaling moves the eigenvalue by z (the lattice-position shift)
    assert sheared.action.rows[1][1].coeff(0) == \
        m.action.rows[1][1].coeff(0) + ParamScalar.lam()


def test_leading_split_separates_leading_eigenvalues():
    m = conn([[mono(1, -1), const(1)], [const(2), mono(-1, -1)]])
    m1, m2, g = leading_split(m, [Cyc.rational(1)], [Cyc.rational(-1)])
    assert m1.rank == 1 and m2.rank == 1
    # residual check through the gauge
    t = m.gauge_transform(g)
    assert t.action.rows[0][1].is_zero_to_order()
    assert t.action.rows[1][0].is_zero_to_order()


def test_leading_split_already_diagonal_identity_gauge():
    m = conn([[mono(1, -1), zero()], [zero(), mono(-1, -1)]])
    m1, m2, g = leading_split(m, [Cyc.rational(1)], [Cyc.rational(-1)])
    ident = LaurentMatrix.identity_matrix(2, 1)
    assert g.agrees_with(ident)


def test_leading_split_single_jordan_block_rejected():
    m = conn([[mono(1, -1), const(1)], [zero(), mono(1, -1)]])
    with pytest.raises(SpectrumNotSplit):
        leading_split(m, [Cyc.rational(1)], [Cyc.rational(-1)])


# -- formal decomposition ------------------------------------------------------

def test_elementary_model_fixes_sign_convention():
    a11 = LaurentSeries(1, {-1: 1, 0: star(BETA)}, 12)
    a22 = LaurentSeries(1, {-1: -1}, 12)
    m = LambdaConnection(LaurentMatrix.diagonal([a11, a22], 1), 1)
    dec = formal_decompose(m)
    summary = sorted((s.phi.render(), s.rank) for s in dec.summands)
    assert summary == [("-t^-1", 1), ("t^-1", 1)]
    exps = {s.phi.render(): s.regular.action.rows[0][0].coeff(0)
            for s in dec.summands}
    assert exps["-t^-1"] == star(BETA)
    assert exps["t^-1"].is_zero()


def test_nilpotent_leading_two_eigenvalues_after_reduction():
    m = conn([[zero(), const(1)], [mono(1, -2), zero()]])
    dec = formal_decompose(m)
    phis = sorted(p.render() for p in dec.phi_multiset())
    assert phis == ["-t^-1", "t^-1"]
    assert dec.rel_ramification == 1
    assert verify_decomposition(m, dec)["pass"]


def test_regular_input_single_summand():
    m = conn([[const(star(BETA)), const(1)], [zero(), const(star(BETA))]])
    dec = formal_decompose(m)
    assert len(dec.summands) == 1
    assert dec.summands[0].phi.is_zero()
    assert dec.summands[0].regular.pole_order() == 0


def test_fractional_slope_forces_ramification():
    m = conn([[zero(), const(1)], [mono(1, -1), zero()]])
    dec = formal_decompose(m)
    assert dec.rel_ramification == 2
    phis = sorted(p.render() for p in dec.phi_multiset())
    assert phis == ["-2*t_2^-1", "2*t_2^-1"]
    assert verify_decomposition(m, dec)["pass"]


def test_sqrt2_found_by_field_enlargement():
    # X^2 - 2 splits in Q(zeta_8); the engine enlarges on its own
    m = conn([[mono(1, -2), mono(1, -2)], [mono(1, -2), mono(-1, -2)]])
    dec = formal_decompose(m)
    assert len(dec.summands) == 2
    assert verify_decomposition(m, dec)["pass"]


def test_unsupported_extension_reported():
    # leading eigenvalues are roots of X^2 - 5: not in any field we adjoin
    m = conn([[mono(1, -2), mono(2, -2)], [mono(2, -2), mono(-1, -2)]])
    with pytest.raises(UnsupportedAlgebraicExtension) as err:
        formal_decompose(m)
    assert err.value.min_poly is not None


def test_verify_detects_corruption():
    a11 = LaurentSeries(1, {-1: 1}, 12)
    a22 = LaurentSeries(1, {-1: -1}, 12)
    m = LambdaConnection(LaurentMatrix.diagonal([a11, a22], 1), 1)
    dec = formal_decompose(m)
    assert verify_decomposition(m, dec)["pass"]
    bad = dec.gauge.rows[0][1] + LaurentSeries.monomial(1, 2, dec.gauge.q)
    dec.gauge.rows[0][1] = bad
    rep = verify_decomposition(m, dec)
    assert not rep["pass"]
    assert rep["off_diagonal_residual_valuation"] is not None


def test_verify_detects_a_corrupted_diagonal_block():
    a11 = LaurentSeries(1, {-1: 1}, 12)
    a22 = LaurentSeries(1, {-1: -1}, 12)
    m = LambdaConnection(LaurentMatrix.diagonal([a11, a22], 1), 1)
    dec = formal_decompose(m)
    dec.gauge.rows[0][0] = (dec.gauge.rows[0][0]
                            + LaurentSeries.monomial(1, 2, dec.gauge.q))
    rep = verify_decomposition(m, dec)
    # R[0][0] = A G + z u G' - G B gains z u d/du (t^2) = 2z t^2
    assert not rep["pass"]
    assert rep["diagonal_residual_valuation"] == 2
    assert rep["off_diagonal_residual_valuation"] is None


def test_verify_rejects_a_singular_gauge():
    a11 = LaurentSeries(1, {-1: 1}, 12)
    a22 = LaurentSeries(1, {-1: -1}, 12)
    m = LambdaConnection(LaurentMatrix.diagonal([a11, a22], 1), 1)
    dec = formal_decompose(m)
    # G = 0 has residual 0, but it is no gauge
    dec.gauge = LaurentMatrix.zero_matrix(2, 2, 1, 12)
    assert not verify_decomposition(m, dec)["pass"]


def test_verify_at_reduced_order_weaker_certificate():
    a11 = LaurentSeries(1, {-1: 1, 0: star(BETA)}, 12)
    a22 = LaurentSeries(1, {-1: -1}, 12)
    m = LambdaConnection(LaurentMatrix.diagonal([a11, a22], 1), 1)
    dec = formal_decompose(m)
    dec.certified_order = 5
    rep = verify_decomposition(m, dec)
    assert rep["pass"] and rep["certified_order"] == 5


def test_phi_multiset_under_further_ramification():
    # pulling back substitutes every phi and multiplies q
    a11 = LaurentSeries(1, {-2: 1, 0: star(BETA)}, 12)
    rank1 = LambdaConnection(LaurentMatrix.diagonal([a11], 1), 1)
    rank2 = conn([[zero(), const(1)], [mono(1, -2, trunc=12), zero()]])
    for m, r in ((rank1, 2), (rank2, 3)):
        dec1 = formal_decompose(m)
        dec2 = formal_decompose(m.ramify_pullback(r))
        substituted = [p.ramify(r) for p in dec1.phi_multiset()]
        assert multiset_equal(dec2.phi_multiset(), substituted)


def test_constance_of_phi_and_q_under_restriction():
    a11 = LaurentSeries(1, {-2: 2, 0: star(BETA)}, 12)
    a22 = LaurentSeries(1, {0: Fraction(1, 2)}, 12)
    model = LambdaConnection(LaurentMatrix.diagonal([a11, a22], 1), 1)
    g = LaurentMatrix([[LaurentSeries(1, {0: 1, 1: 2}, 12),
                        LaurentSeries(1, {1: Fraction(1, 3)}, 12)],
                       [LaurentSeries(1, {2: -1}, 12),
                        LaurentSeries(1, {0: 1, 3: 1}, 12)]], 1)
    m = model.gauge_transform(g)
    dec = formal_decompose(m)
    for lam0 in (1, 0):
        restricted = formal_decompose(m.restrict_lambda(lam0))
        assert restricted.rel_ramification == dec.rel_ramification
        assert multiset_equal(restricted.phi_multiset(), dec.phi_multiset())


def test_slope_zero_length_matches_regular_rank():
    a11 = LaurentSeries(1, {-1: 1}, 12)
    m = LambdaConnection(LaurentMatrix.diagonal(
        [a11, const(star(BETA)), const(1)], 1), 1)
    p = newton_polygon(m)
    dec = formal_decompose(m)
    reg_rank = sum(s.rank for s in dec.summands if s.phi.is_zero())
    assert p.slope_zero_length() == reg_rank == 2


# -- verification by residual over the corpus ---------------------------------

@pytest.fixture(scope="module")
def corpus_decompositions():
    """(name, connection, decomposition) of every corpus case as given and
    restricted to z = 0 and z = 1."""
    out = []
    for case in build_corpus(11, trunc=6):
        for conn in (case.connection, case.connection.restrict_lambda(0),
                     case.connection.restrict_lambda(1)):
            out.append((case.name, conn, formal_decompose(conn)))
    return out


def test_verify_does_not_invert_the_gauge(monkeypatch, corpus_decompositions):
    def refuse(*args, **kwargs):
        raise AssertionError("verification inverted the gauge")

    monkeypatch.setattr(LaurentMatrix, "inverse", refuse)
    monkeypatch.setattr(matrices, "solve", refuse)
    monkeypatch.setattr(LambdaConnection, "gauge_transform", refuse)
    for name, conn, dec in corpus_decompositions:
        assert verify_decomposition(conn, dec)["pass"], name


def test_decomposition_polygon_is_the_newton_polygon(corpus_decompositions):
    # at z0 = 1 the cyclic-vector polygon certifies on all but two cases
    # (irr-rank2-pole3 and irr-rank5-three ask for more digits)
    certified = 0
    for name, conn, dec in corpus_decompositions:
        if conn.lambda0 is None or conn.is_higgs:
            continue
        try:
            poly = newton_polygon(conn)
        except InsufficientTruncation:
            continue
        certified += 1
        assert NewtonPolygon.of(decomposition_slopes(dec)) == poly, name
    assert certified >= 22


def test_residual_window_covers_the_transformed_check(corpus_decompositions):
    # R = 0 below t_R gives G^-1 A G + z G^-1 u G' - B = G^-1 R = 0 below
    # t_R + val(G^-1): at least the window of that difference formed with
    # the inverse
    for name, conn, dec in corpus_decompositions:
        m = conn.ramify_pullback(dec.rel_ramification)
        transformed = m.gauge_transform(dec.gauge, order=dec.certified_order)
        model = LaurentMatrix.block_diagonal(
            [s.regular.twist_exponential(s.phi, sign=1).action
             for s in dec.summands], m.q)
        old_window = (transformed.action - model).trunc()
        ginv = dec.gauge.inverse(dec.certified_order)
        val_inv = min(x.valuation() for row in ginv.rows for x in row
                      if x.valuation() is not None)
        t_r = gauge_residual(conn, dec).trunc()
        assert t_r + val_inv >= old_window, name


def test_verify_detects_a_corrupted_ramified_gauge():
    case = next(c for c in build_corpus(11, trunc=6)
                if c.name == "ram2-implicit")
    dec = formal_decompose(case.connection)
    assert verify_decomposition(case.connection, dec)["pass"]
    rows = [row[:] for row in dec.gauge.rows]
    rows[1][0] = rows[1][0] + LaurentSeries.monomial(1, 1, dec.gauge.q)
    bad = dataclasses.replace(dec, gauge=LaurentMatrix(rows, dec.gauge.q))
    rep = verify_decomposition(case.connection, bad)
    assert not rep["pass"]
    assert rep["off_diagonal_residual_valuation"] is not None


# -- the order-by-order gauge against its per-j matrix-product form -----------

def gauge_by_orders_reference(a_coeff, k, lam, solve_block):
    """The known part summed one matrix product at a time."""
    n = len(a_coeff[0])
    g_parts = {0: identity(n, PS1, PS0)}
    new_parts = {0: a_coeff[0]}
    for i in range(1, len(a_coeff)):
        known = [row[:] for row in a_coeff[i]]
        if i - k >= 1 and (i - k) in g_parts:
            f = lam * Fraction(i - k)
            known = [[x + f * y for x, y in zip(row, grow)]
                     for row, grow in zip(known, g_parts[i - k])]
        for j in range(1, i):
            if j not in g_parts:
                continue
            t1 = mat_mul(g_parts[j], new_parts[i - j])
            t2 = mat_mul(a_coeff[i - j], g_parts[j])
            known = [[x - y + w for x, y, w in zip(r0, r1, r2)]
                     for r0, r1, r2 in zip(known, t1, t2)]
        gi, new_parts[i] = solve_block(i, known)
        if any(not x.is_zero() for row in gi for x in row):
            g_parts[i] = gi
    return g_parts, new_parts


def split_off_diagonal(i, known):
    """A block solve: the off-diagonal part scaled into G_i, the diagonal
    kept in B_i."""
    n = len(known)
    gi = [[PS0 if r == c else known[r][c] * Fraction(1, r + 2 * c + i)
           for c in range(n)] for r in range(n)]
    bi = [[known[r][c] if r == c else PS0 for c in range(n)]
          for r in range(n)]
    return gi, bi


scalars = st.one_of(
    st.just(PS0),
    st.builds(lambda a, b: ParamScalar(LPoly([a, b])),
              st.integers(-3, 3), st.integers(-2, 2)),
    # a rational function of z takes the dot's ParamScalar path
    st.builds(lambda a: ParamScalar(LPoly([a, 1]), LPoly([1, 1])),
              st.integers(-2, 2)))


@st.composite
def coefficient_lists(draw):
    n = draw(st.integers(1, 3))
    length = draw(st.integers(1, 6))
    return [[[draw(scalars) for _ in range(n)] for _ in range(n)]
            for _ in range(length)]


@settings(max_examples=40, deadline=None)
@given(coefficient_lists(), st.integers(0, 2),
       st.sampled_from([ParamScalar.lam(), PS0, ParamScalar.rational(2)]))
def test_fused_orders_match_the_matrix_products(a_coeff, k, lam):
    got = gauge_by_orders(a_coeff, k, lam, split_off_diagonal)
    want = gauge_by_orders_reference(a_coeff, k, lam, split_off_diagonal)
    for parts, ref in zip(got, want):
        assert sorted(parts) == sorted(ref)
        for i in parts:
            assert parts[i] == ref[i]


# -- split children inherit the spectrum -------------------------------------

def test_split_children_inherit_their_spectrum(monkeypatch):
    inherited = []
    recurse = turrittin._decompose_rec

    def spy(m, phi_acc, ctx, spectrum=None):
        if spectrum is not None and spectrum[0] == m.pole_order():
            inherited.append((m, ctx.field_order, spectrum))
        return recurse(m, phi_acc, ctx, spectrum)

    monkeypatch.setattr(turrittin, "_decompose_rec", spy)
    for case in build_corpus(11, trunc=6):
        if not case.name.startswith("reg"):
            formal_decompose(case.connection)
    assert len(inherited) >= 8
    for m, field_order, (_, cp, roots, nonsplit) in inherited:
        own = turrittin._leading_charpoly(m)
        assert own == cp
        assert roots_in_field(own, field_order) == (roots, nonsplit)
