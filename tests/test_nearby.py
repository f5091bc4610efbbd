"""The irregular nearby-cycle table and its transformation rules."""

import random
from fractions import Fraction

import pytest

from wildcycle.connection import ExpFactor, LambdaConnection
from wildcycle.corpus import _conjugate, build_corpus
from wildcycle.cyclotomic import Cyc, lcm
from wildcycle.errors import (InternalInvariantError, NotStarShaped,
                              WildcycleError)
from wildcycle.exponents import ComplexExponent, star
from wildcycle import nearby
from wildcycle.matrices import LaurentMatrix, gauss_jordan
from wildcycle.nearby import (DeligneTable, deligne_nearby_cycles,
                              is_t_irreducible, ramification_transport,
                              regular_part, tables_equal)
from wildcycle.params import LPoly, PS1, ParamScalar
from wildcycle.series import LaurentSeries
from wildcycle.turrittin import formal_decompose


def const(val, q=1, trunc=12):
    return LaurentSeries.monomial(val, 0, q, trunc)


def zero(q=1, trunc=12):
    return LaurentSeries.zero(q, trunc)


def conn(rows, q=1):
    return LambdaConnection(LaurentMatrix(rows, q), q)


B = ComplexExponent.of(Fraction(-1, 2), 0)
B3 = ComplexExponent.of(Fraction(-1, 3), 0)


def test_t_irreducibility():
    assert is_t_irreducible(ExpFactor(2, {1: 1}))
    assert not is_t_irreducible(ExpFactor(2, {2: 1}))
    assert is_t_irreducible(ExpFactor(1, {7: 3}))
    assert is_t_irreducible(ExpFactor(4, {2: 1, 3: 1}))
    assert not is_t_irreducible(ExpFactor(4, {2: 1}))


def test_regular_module_single_key():
    m = conn([[const(star(B)), zero()], [zero(), const(star(B3))]])
    table = deligne_nearby_cycles(m)
    assert len(table.entries) == 1 and table.entries[0].phi.is_zero()
    assert table.total_dim() == 2
    betas = sorted(r.beta.beta_re for r in table.entries[0].rows)
    assert betas == [Fraction(-1, 2), Fraction(-1, 3)]


def test_exponential_rank_one():
    phi = ExpFactor(1, {1: 1})
    e = LambdaConnection.trivial(1, 1, 12).twist_exponential(phi, 1)
    table = deligne_nearby_cycles(e)
    assert len(table.entries) == 1
    entry = table.entries[0]
    assert entry.phi == phi
    assert entry.rows[0].beta == ComplexExponent.of(0, 0)
    assert entry.rows[0].dim == 1 and entry.rows[0].weight_dims == {0: 1}


def test_half_lattice_example():
    m = conn([[zero(), const(1)], [LaurentSeries.monomial(1, -2, 1, 12), zero()]])
    table = deligne_nearby_cycles(m)
    assert len(table.entries) == 2
    for entry in table.entries:
        assert entry.dim() == 1
        assert entry.rows[0].beta.beta_re == Fraction(-1, 2)


def test_total_dimension_is_rank():
    cases = [
        conn([[const(star(B)), zero()], [const(1), const(star(B))]]),
        LambdaConnection.trivial(1, 1, 12)
        .twist_exponential(ExpFactor(1, {2: 1}), 1),
        conn([[zero(), const(1)],
              [LaurentSeries.monomial(1, -2, 1, 12), zero()]]),
    ]
    for m in cases:
        assert deligne_nearby_cycles(m).total_dim() == m.rank


def test_key_translation_under_twist():
    m = conn([[zero(), const(1)], [LaurentSeries.monomial(1, -2, 1, 12), zero()]])
    base = deligne_nearby_cycles(m)
    psi = ExpFactor(1, {1: Fraction(1, 3)})
    twisted = deligne_nearby_cycles(m.twist_exponential(psi, 1))
    base_keys = sorted(k.phi.render() for k in base.entries)
    twisted_keys = sorted(k.phi.render() for k in twisted.entries)
    assert base_keys == ["-t^-1", "t^-1"]
    assert twisted_keys == ["-2/3*t^-1", "4/3*t^-1"]
    for a, b in zip(base.entries, twisted.entries):
        assert [r.as_json() for r in a.rows] == [r.as_json() for r in b.rows]


def test_orbit_folding_of_pushforward():
    phi = ExpFactor(2, {1: 1})
    e = LambdaConnection.trivial(1, 2, 24).twist_exponential(phi, 1)
    p = e.pushforward()
    table = deligne_nearby_cycles(p)
    assert len(table.entries) == 1
    entry = table.entries[0]
    assert entry.phi.q == 2 and len(entry.orbit) == 2
    assert entry.dim() == 2
    assert sorted(r.beta.beta_re for r in entry.rows) == \
        [Fraction(-1, 2), Fraction(0)]


def test_unfolded_view():
    phi = ExpFactor(2, {1: 1})
    e = LambdaConnection.trivial(1, 2, 24).twist_exponential(phi, 1)
    p = e.pushforward()
    table = deligne_nearby_cycles(p, folded=False)
    assert len(table.entries) == 2   # one per summand at the ramified level


def test_transport_identity():
    m = conn([[const(star(B))]])
    table = deligne_nearby_cycles(m)
    assert tables_equal(ramification_transport(table, 1), table)


def test_transport_of_trivial_rank_one():
    table = deligne_nearby_cycles(LambdaConnection.trivial(1, 1, 12))
    pred = ramification_transport(table, 2)
    betas = sorted(r.beta.beta_re for e in pred.entries for r in e.rows)
    assert betas == [Fraction(-1, 2), Fraction(0)]
    assert pred.represented_rank == 2


@pytest.mark.parametrize("r", [2, 3, 4])
def test_transport_matches_direct_computation(r):
    m = conn([[const(star(B3)), zero()], [const(1), const(star(B3))]])
    table = deligne_nearby_cycles(m)
    pred = ramification_transport(table, r)
    direct = deligne_nearby_cycles(m.ramify_pullback(r))
    assert tables_equal(direct, pred)


def test_transport_preserves_jordan_type():
    rows = [[const(star(B)), zero()], [const(1), const(star(B))]]
    table = deligne_nearby_cycles(conn(rows))
    pred = ramification_transport(table, 3)
    types = {r.jordan_type() for e in pred.entries for r in e.rows}
    assert types == {(2,)}


def test_regular_part_of_mixed_module():
    phi = ExpFactor(1, {1: 1})
    irr = LambdaConnection.trivial(1, 1, 12).twist_exponential(phi, 1)
    reg = conn([[const(star(B))]])
    m = irr.direct_sum(reg)
    part = regular_part(m, formal_decompose(m), ExpFactor.zero())
    assert part is not None and part.rank == 1
    assert part.pole_order() == 0


def test_regular_part_none_for_pure_irregular():
    phi = ExpFactor(1, {1: 1})
    irr = LambdaConnection.trivial(1, 1, 12).twist_exponential(phi, 1)
    assert regular_part(irr, formal_decompose(irr), ExpFactor.zero()) is None


def test_certified_rank_honours_truncation_zero():
    # t^-1 known to order 0: a unit, inverted to the digits it certifies
    mat = LaurentMatrix([[LaurentSeries(1, {-1: PS1}, 0)]], 1)
    assert gauss_jordan(mat.rows, 1)[1] == [0]


# -- regular corpus cases ----------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_cases():
    return {c.name: c.connection for c in build_corpus(11, trunc=6)}


@pytest.fixture(scope="module")
def regular_cases(corpus_cases):
    return {name: m for name, m in corpus_cases.items()
            if name.startswith("reg-")}


F = Fraction

# (beta, dim, Jordan type) rows of each reg-* case, read off its construction
# in corpus.py: one row per exponent class, and one Jordan block per chain of
# couplings between equal exponents (couplings between distinct exponents
# leave no trace).
GOLDEN_REGULAR_ROWS = {
    "reg-rank1-zero": [((0, 0), 1, (1,))],
    "reg-rank1-half": [((F(-1, 2), 0), 1, (1,))],
    "reg-rank2-distinct": [((F(-1, 2), 0), 1, (1,)), ((F(-1, 3), 0), 1, (1,))],
    "reg-rank2-jordan": [((F(-1, 3), 0), 2, (2,))],
    "reg-rank3-mixed": [((0, 0), 1, (1,)), ((F(-1, 2), 0), 1, (1,)),
                        ((F(-2, 3), 1), 1, (1,))],
    "reg-rank3-jordan3": [((F(-1, 2), 0), 3, (3,))],
    "reg-rank2-imag": [((F(-2, 3), 1), 1, (1,)), ((F(-1, 4), -1), 1, (1,))],
    "reg-rank4-pairs": [((0, 0), 2, (2,)), ((F(-1, 3), 0), 2, (2,))],
}

# The folded table of each irr-* and ram* case, read off its spec in
# corpus.py: per orbit, a member phi and the orbit's level q, then the
# (beta, dim, Jordan type) rows of the regular part of E^{-phi} (x) M.  An
# irr-* orbit is its single phi at level 1 with the spec's block as rows.  A
# ram* case pushes one block of exponent beta at level q forward, so it is
# one orbit whose rows are the classes (beta + k)/q, k = 0..q-1, each of
# dimension 1.  ram2-implicit is [[0, 1], [t^-1, 0]]: pulled back along
# t = u^2 it is [[0, 2], [2u^-2, 0]], and the frame (u e1, e2) gives
# u^-1 [[0, 2], [2, 0]] + z diag(1, 0).  The leading eigenvalues +-2 peel
# into phi = -+2 u^-1; in the eigenframe (1, +-1) the residue of each block
# is z/2 (the off-diagonal z/2 is split off at order u^1), an eigenvalue in
# class 1/2 = -1/2 at level 2, so the rows are -1/4 and -3/4.
GOLDEN_IRREGULAR_TABLES = {
    "irr-rank1-pole1": [({1: 1}, 1, [((F(-1, 2), 0), 1, (1,))])],
    "irr-rank1-pole2": [({2: F(1, 2), 1: 1}, 1, [((F(-1, 3), 0), 1, (1,))])],
    "irr-rank2-split": [({1: 1}, 1, [((0, 0), 1, (1,))]),
                        ({1: -1}, 1, [((F(-1, 2), 0), 1, (1,))])],
    "irr-rank2-jordan": [({1: 2}, 1, [((F(-1, 3), 0), 2, (2,))])],
    "irr-rank3-mixed": [({1: 1}, 1, [((0, 0), 1, (1,))]),
                        ({}, 1, [((F(-1, 2), 0), 1, (1,)),
                                 ((F(-1, 3), 0), 1, (1,))])],
    "irr-rank3-two-poles": [({2: 1}, 1, [((0, 0), 1, (1,))]),
                            ({1: -2}, 1, [((F(-1, 2), 0), 1, (1,))]),
                            ({}, 1, [((F(-1, 3), 0), 1, (1,))])],
    "irr-rank2-pole3": [({3: 1}, 1, [((F(-2, 3), 1), 1, (1,))]),
                        ({}, 1, [((0, 0), 1, (1,))])],
    "irr-rank4-two-blocks": [({1: 1}, 1, [((0, 0), 1, (1,)),
                                          ((F(-1, 2), 0), 1, (1,))]),
                             ({1: -1}, 1, [((F(-1, 3), 0), 2, (2,))])],
    "irr-rank2-gauss": [({1: F(1, 2)}, 1, [((F(-1, 4), -1), 1, (1,))]),
                        ({2: -1}, 1, [((0, 0), 1, (1,))])],
    "irr-rank5-three": [({1: 1}, 1, [((0, 0), 1, (1,)),
                                     ((F(-1, 2), 0), 1, (1,))]),
                        ({1: -1}, 1, [((F(-1, 3), 0), 1, (1,))]),
                        ({2: 1}, 1, [((0, 0), 1, (1,)),
                                     ((F(-2, 3), 1), 1, (1,))])],
    "ram2-elementary": [({1: 1}, 2, [((0, 0), 1, (1,)),
                                     ((F(-1, 2), 0), 1, (1,))])],
    "ram2-beta": [({1: F(1, 2)}, 2, [((F(-1, 4), 0), 1, (1,)),
                                     ((F(-3, 4), 0), 1, (1,))])],
    "ram3-elementary": [({1: 1}, 3, [((0, 0), 1, (1,)),
                                     ((F(-1, 3), 0), 1, (1,)),
                                     ((F(-2, 3), 0), 1, (1,))])],
    "ram2-pole3": [({3: 1}, 2, [((0, 0), 1, (1,)),
                                ((F(-1, 2), 0), 1, (1,))])],
    "ram3-two": [({2: 1}, 3, [((F(-1, 9), 0), 1, (1,)),
                              ((F(-4, 9), 0), 1, (1,)),
                              ((F(-7, 9), 0), 1, (1,))])],
    "ram2-implicit": [({1: 2}, 2, [((F(-1, 4), 0), 1, (1,)),
                                   ((F(-3, 4), 0), 1, (1,))])],
}


@pytest.mark.parametrize("lam0", [Cyc.rational(1), Cyc.rational(2),
                                  Cyc.imaginary_unit()],
                         ids=["1", "2", "i"])
def test_golden_irregular_tables(corpus_cases, lam0):
    assert sorted(GOLDEN_IRREGULAR_TABLES) == sorted(
        name for name in corpus_cases if not name.startswith("reg-"))
    for name, golden in GOLDEN_IRREGULAR_TABLES.items():
        table = deligne_nearby_cycles(corpus_cases[name], lambda0=lam0)
        assert len(table.entries) == len(golden), f"{name} at {lam0}"
        for coeffs, q, rows in golden:
            entry = table.entry_for(ExpFactor(q, coeffs))
            assert entry is not None and entry.phi.q == q, \
                f"{name} at {lam0}: no orbit of {coeffs} at level {q}"
            got = sorted(((r.beta.beta_re, r.beta.beta_im), r.dim,
                          r.jordan_type()) for r in entry.rows)
            assert got == sorted(rows), f"{name} at {lam0}: {coeffs}"


@pytest.mark.parametrize("name", ["irr-rank3-two-poles", "irr-rank5-three",
                                  "ram3-two"])
def test_one_decomposition_per_input(corpus_cases, monkeypatch, name):
    calls = []

    def counted(conn, *args, **kwargs):
        calls.append(conn.q)
        return formal_decompose(conn, *args, **kwargs)

    monkeypatch.setattr(nearby, "formal_decompose", counted)
    table = deligne_nearby_cycles(corpus_cases[name])
    assert table.total_dim() == corpus_cases[name].rank
    assert calls == [1]


def lifted(conn, m):
    """``conn`` with every coefficient stored at order lcm(order, m)."""
    def lift(poly):
        return LPoly([c.lift(lcm(c.order, m)) for c in poly.coeffs])
    rows = [[LaurentSeries(x.q, {n: ParamScalar(lift(c.num), lift(c.den))
                                 for n, c in x.coeffs.items()}, x.trunc)
             for x in row] for row in conn.action.rows]
    return LambdaConnection(LaurentMatrix(rows, conn.q), conn.q,
                            conn.lambda0)


@pytest.mark.parametrize("name", sorted({**GOLDEN_REGULAR_ROWS,
                                         **GOLDEN_IRREGULAR_TABLES}))
def test_stored_orders_do_not_reach_the_answers(corpus_cases, monkeypatch,
                                                name):
    # the same module with its coefficients stored at a multiple of 5:
    # every field the engine works in changes, the answers may not
    m = corpus_cases[name]
    big = lifted(m, 5)
    assert big.cyclotomic_order() % 5 == 0
    assert all(x == y for r, s in zip(big.action.rows, m.action.rows)
               for x, y in zip(r, s))
    decs = []

    def kept(conn, *args, **kwargs):
        decs.append(formal_decompose(conn, *args, **kwargs))
        return decs[-1]

    monkeypatch.setattr(nearby, "formal_decompose", kept)
    tables = [deligne_nearby_cycles(c).as_json() for c in (m, big)]
    phis = [[s.phi.render() for s in dec.summands] for dec in decs]
    assert len(decs) == 2 and phis[0] == phis[1]
    assert tables[0] == tables[1]


def test_one_germ_one_orbit_representative():
    # one germ, its coefficient stored at orders 3 and 12
    a = ExpFactor(3, {1: Cyc.rational(1, 3)})
    b = ExpFactor(3, {1: Cyc.rational(1, 12)})
    assert a == b
    rep_a = nearby._canonical_orbit_rep(nearby._orbit_of(a))
    rep_b = nearby._canonical_orbit_rep(nearby._orbit_of(b))
    assert rep_a == rep_b and rep_a.render() == rep_b.render()


REAL_EXPONENT_CASES = ["reg-rank1-zero", "reg-rank1-half", "reg-rank2-distinct",
                       "reg-rank2-jordan", "reg-rank3-jordan3",
                       "reg-rank4-pairs"]


@pytest.mark.parametrize("lam0", [Cyc.rational(1), Cyc.rational(2),
                                  Cyc.imaginary_unit()],
                         ids=["1", "2", "i"])
def test_golden_regular_rows(regular_cases, lam0):
    assert sorted(regular_cases) == sorted(GOLDEN_REGULAR_ROWS)
    for name, m in regular_cases.items():
        table = deligne_nearby_cycles(m, lambda0=lam0)
        assert len(table.entries) == 1 and table.entries[0].phi.is_zero()
        rows = sorted(((r.beta.beta_re, r.beta.beta_im), r.dim, r.jordan_type())
                      for r in table.entries[0].rows)
        assert rows == sorted(GOLDEN_REGULAR_ROWS[name]), f"{name} at {lam0}"


def test_restricted_connection_is_read_at_its_own_point(regular_cases):
    # the Higgs field has no constant model: an input error, not a bug
    for name, m in regular_cases.items():
        with pytest.raises(WildcycleError) as info:
            deligne_nearby_cycles(m.restrict_lambda(0))
        assert not isinstance(info.value, InternalInvariantError), name
    for name in REAL_EXPONENT_CASES:
        m = regular_cases[name]
        for z in (1, 2):
            assert tables_equal(deligne_nearby_cycles(m.restrict_lambda(z)),
                                deligne_nearby_cycles(m, lambda0=z)), \
                f"{name} at {z}"
    with pytest.raises(WildcycleError):
        deligne_nearby_cycles(regular_cases["reg-rank1-half"]
                              .restrict_lambda(1), lambda0=2)
    # star(beta) of a non-real exponent is not visible in values at one point
    with pytest.raises(NotStarShaped):
        deligne_nearby_cycles(regular_cases["reg-rank2-imag"].restrict_lambda(1))


def test_sum_of_parts_at_different_ramification_levels():
    # orbits at levels 2 and 1 send regular_part through its projector,
    # whose certified ranks invert pivots of positive valuation
    trunc = 8
    elem = (LambdaConnection.trivial(1, 2, 2 * trunc)
            .twist_exponential(ExpFactor(2, {1: 1}), 1).pushforward())
    reg = conn([[const(star(B3), 1, trunc)]])
    total = _conjugate(elem.direct_sum(reg), random.Random(5), trunc)
    table = deligne_nearby_cycles(total)
    parts = [deligne_nearby_cycles(elem), deligne_nearby_cycles(reg)]
    expected = DeligneTable(entries=[e for p in parts for e in p.entries],
                            base_ramification=1, represented_rank=3,
                            lambda0=table.lambda0, q_used=table.q_used)
    assert tables_equal(table, expected)
    assert [len(e.rows) for e in table.entries] == [1, 2]
