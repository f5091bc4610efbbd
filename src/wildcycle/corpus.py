"""The golden corpus: named inputs with known invariants.

Every case is built from elementary models (exponential factors tensored
with constant regular parts, possibly pushed forward along a ramification)
conjugated by a deterministic pseudo-random gauge with valuation >= 0, so
the expected decomposition data is known by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .connection import ExpFactor, LambdaConnection
from .exponents import ComplexExponent, star
from .matrices import LaurentMatrix
from .series import LaurentSeries


@dataclass
class CorpusCase:
    name: str
    connection: LambdaConnection
    expected_phis: list            # ExpFactor multiset at the expected level
    expected_rel_ramification: int
    regular: bool
    exponents: list = field(default_factory=list)  # for regular cases

    @property
    def rank(self) -> int:
        return self.connection.rank


def _const(value, q=1, trunc=None):
    return LaurentSeries.monomial(value, 0, q, trunc)


def _regular_block(exponents, couplings, q=1, trunc=None):
    """Block-triangular constant regular part with the given exponents."""
    n = len(exponents)
    rows = [[LaurentSeries.zero(q, trunc) for _ in range(n)] for _ in range(n)]
    for i, beta in enumerate(exponents):
        rows[i][i] = _const(star(beta), q, trunc)
    for (i, j, c) in couplings:
        rows[i][j] = rows[i][j] + _const(c, q, trunc)
    return LambdaConnection(LaurentMatrix(rows, q), q)


def _random_gauge(rng, n, q, trunc, depth=2):
    """Invertible gauge with valuation >= 0 entries and unit leading term."""
    rows = [[LaurentSeries.zero(q, None) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = LaurentSeries.one(q, None)
    # unit constant part: product of elementary transvections
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        if c:
            for k in range(n):
                rows[i][k] = rows[i][k] + rows[j][k] * c
    # valuation >= 1 tail
    for _ in range(depth * n):
        i, j = rng.randrange(n), rng.randrange(n)
        e = rng.randint(1, 2)
        c = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2, 3]))
        if c:
            rows[i][j] = rows[i][j] + LaurentSeries.monomial(c, e, q)
    return LaurentMatrix(rows, q)


def _conjugate(model: LambdaConnection, rng, trunc) -> LambdaConnection:
    g = _random_gauge(rng, model.rank, model.q, trunc)
    out = model.truncate(trunc).gauge_transform(g, order=trunc)
    return out


_BETAS = [ComplexExponent.of(0, 0),
          ComplexExponent.of(Fraction(-1, 2), 0),
          ComplexExponent.of(Fraction(-1, 3), 0),
          ComplexExponent.of(Fraction(-2, 3), 1),
          ComplexExponent.of(Fraction(-1, 4), -1)]


def build_corpus(seed: int = 11, trunc: int = 12):
    """The standard corpus: regular, twisted-regular, and irregular cases."""
    rng = random.Random(seed)
    cases = []

    # --- plain regular cases (various exponents and nilpotent couplings)
    regular_specs = [
        ("reg-rank1-zero", [_BETAS[0]], []),
        ("reg-rank1-half", [_BETAS[1]], []),
        ("reg-rank2-distinct", [_BETAS[1], _BETAS[2]], []),
        ("reg-rank2-jordan", [_BETAS[2], _BETAS[2]], [(1, 0, 1)]),
        ("reg-rank3-mixed", [_BETAS[0], _BETAS[1], _BETAS[3]], [(2, 1, 1)]),
        ("reg-rank3-jordan3", [_BETAS[1]] * 3, [(1, 0, 1), (2, 1, 1)]),
        ("reg-rank2-imag", [_BETAS[3], _BETAS[4]], []),
        ("reg-rank4-pairs", [_BETAS[0], _BETAS[0], _BETAS[2], _BETAS[2]],
         [(1, 0, 1), (3, 2, 1)]),
    ]
    for name, exps, coup in regular_specs:
        model = _regular_block(exps, coup, 1, trunc)
        conj = _conjugate(model, rng, trunc)
        cases.append(CorpusCase(
            name=name, connection=conj,
            expected_phis=[ExpFactor.zero(1) for _ in range(1)],
            expected_rel_ramification=1, regular=True,
            exponents=[b.normalized() for b in exps]))

    # --- unramified irregular models: direct sums of E^phi (x) regular
    irregular_specs = [
        ("irr-rank1-pole1", [({1: 1}, [_BETAS[1]])]),
        ("irr-rank1-pole2", [({2: Fraction(1, 2), 1: 1}, [_BETAS[2]])]),
        ("irr-rank2-split", [({1: 1}, [_BETAS[0]]), ({1: -1}, [_BETAS[1]])]),
        ("irr-rank2-jordan", [({1: 2}, [_BETAS[2], _BETAS[2]])]),
        ("irr-rank3-mixed", [({1: 1}, [_BETAS[0]]), ({}, [_BETAS[1], _BETAS[2]])]),
        ("irr-rank3-two-poles", [({2: 1}, [_BETAS[0]]), ({1: -2}, [_BETAS[1]]),
                                 ({}, [_BETAS[2]])]),
        ("irr-rank2-pole3", [({3: 1}, [_BETAS[3]]), ({}, [_BETAS[0]])]),
        ("irr-rank4-two-blocks", [({1: 1}, [_BETAS[0], _BETAS[1]]),
                                  ({1: -1}, [_BETAS[2], _BETAS[2]])]),
        ("irr-rank2-gauss", [({1: Fraction(1, 2)}, [_BETAS[4]]),
                             ({2: -1}, [_BETAS[0]])]),
        ("irr-rank5-three", [({1: 1}, [_BETAS[0], _BETAS[1]]),
                             ({1: -1}, [_BETAS[2]]),
                             ({2: 1}, [_BETAS[0], _BETAS[3]])]),
    ]
    for name, blocks in irregular_specs:
        summands = []
        phis = []
        for coeffs, exps in blocks:
            phi = ExpFactor(1, dict(coeffs))
            reg = _regular_block(exps, [(i + 1, i, 1) for i in
                                        range(len(exps) - 1)
                                        if exps[i] == exps[i + 1]], 1, trunc)
            summands.append(reg.twist_exponential(phi, 1)
                            if not phi.is_zero() else reg)
            phis.append(phi)
        model = summands[0]
        for s in summands[1:]:
            model = model.direct_sum(s)
        conj = _conjugate(model, rng, trunc)
        cases.append(CorpusCase(
            name=name, connection=conj, expected_phis=phis,
            expected_rel_ramification=1, regular=all(p.is_zero() for p in phis)))

    # --- ramified cases: push-forwards of elementary models at level q
    ramified_specs = [
        ("ram2-elementary", 2, {1: 1}, [_BETAS[0]]),
        ("ram2-beta", 2, {1: Fraction(1, 2)}, [_BETAS[1]]),
        ("ram3-elementary", 3, {1: 1}, [_BETAS[0]]),
        ("ram2-pole3", 2, {3: 1}, [_BETAS[0]]),
        ("ram3-two", 3, {2: 1}, [_BETAS[2]]),
    ]
    for name, q, coeffs, exps in ramified_specs:
        # ramified engine work scales with q; keep the certified window lean
        rtr = max(6, (2 * trunc) // q) if q > 2 else trunc
        phi = ExpFactor(q, dict(coeffs))
        reg = _regular_block(exps, [], q, rtr * q)
        model = reg.twist_exponential(phi, 1).pushforward()
        conj = _conjugate(model, rng, rtr)
        orbit = _full_orbit(phi)
        cases.append(CorpusCase(
            name=name, connection=conj, expected_phis=orbit,
            expected_rel_ramification=q, regular=False))

    # --- a fractional-slope case presented at level 1
    m = LambdaConnection(LaurentMatrix(
        [[LaurentSeries.zero(1, trunc), LaurentSeries.one(1, trunc)],
         [LaurentSeries.monomial(1, -1, 1, trunc), LaurentSeries.zero(1, trunc)]],
        1), 1)
    cases.append(CorpusCase(
        name="ram2-implicit", connection=_conjugate(m, rng, trunc),
        expected_phis=[ExpFactor(2, {1: 2}), ExpFactor(2, {1: -2})],
        expected_rel_ramification=2, regular=False))

    return cases


def _full_orbit(phi: ExpFactor):
    from .cyclotomic import Cyc, lcm
    red = phi.reduce_ramification()
    order = lcm(red.cyclotomic_order(), max(red.q, 1))
    out = []
    for j in range(red.q):
        tw = red.substitute_root(Cyc.zeta(order, j * (order // red.q)))
        if not any(tw == seen for seen in out):
            out.append(tw)
    return out
