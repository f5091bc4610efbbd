"""Irregular nearby cycles: the (phi, beta, weight) table.

The table of a module M over the base disc collects, for every Galois orbit
of exponential factors phi (presented t-irreducibly at its minimal
ramification q_phi), the nearby-cycle data of the regular part of
E^{-phi/z} (x) M_{q_phi}.  Rows are indexed by classes measured in the base
coordinate: an upstairs exponent beta at level q spreads into the division
classes (beta + k)/q, k = 0..q-1, with the nilpotent scaled by 1/q (its
Jordan type is unchanged).  Total dimension equals the represented rank.

M is decomposed once.  The twist by E^{-phi/z} is scalar, so the
decomposition's gauge also decomposes the twisted module, whose regular
part is the sum of the summands R_j with phi_j = phi: at the decomposition
level they are read off directly, and below it the projector onto them,
built from the same gauge, descends to the level q_phi.

A connection stored at ramification q > 1 represents the direct image of
its matrix module; its table is computed on the module's own disc first and
then transported down, which keeps every eigenvalue computation in the
star-shaped world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .connection import ExpFactor, LambdaConnection
from .cyclotomic import Cyc, lcm
from .errors import InternalInvariantError
from .exponents import ell
from .matrices import LaurentMatrix, gauss_jordan
from .regular import (NearbyCycleDatum, model_point, monodromy_filtration,
                      psi_beta, reduce_to_constant)
from .reduction import apply_operator
from .series import LaurentSeries
from .turrittin import FormalDecomposition, formal_decompose


def is_t_irreducible(phi: ExpFactor) -> bool:
    """True iff no d > 1 divides q and every polar exponent of phi."""
    if phi.q == 1:
        return True
    g = phi.q
    for a in phi.coeffs:
        g = gcd(g, a)
    return g == 1


@dataclass
class DeligneRow(NearbyCycleDatum):
    """A nearby-cycle datum whose class is measured in the base coordinate."""

    def as_json(self):
        return {
            "beta": self.beta.render(),
            "dim": self.dim,
            "weight_dims": {str(k): v for k, v in sorted(self.weight_dims.items())},
            "primitive_dims": {str(k): v
                               for k, v in sorted(self.primitive_dims.items())},
        }


@dataclass
class DeligneEntry:
    phi: ExpFactor                 # t-irreducible representative, minimal q
    rows: list
    orbit: list = field(default_factory=list)

    def dim(self) -> int:
        return sum(r.dim for r in self.rows)

    def as_json(self):
        return {
            "phi": self.phi.render(),
            "q": self.phi.q,
            "dim": self.dim(),
            "orbit_size": max(1, len(self.orbit)),
            "rows": [r.as_json() for r in self.rows],
        }


@dataclass
class DeligneTable:
    entries: list
    base_ramification: int         # q of the stored input
    represented_rank: int          # q_in * matrix rank
    lambda0: Cyc = None
    q_used: int = 1                # decomposition level met along the way

    def total_dim(self) -> int:
        return sum(e.dim() for e in self.entries)

    def entry_for(self, phi: ExpFactor):
        rep = _orbit_rep(phi)
        for e in self.entries:
            if _orbit_rep(e.phi) == rep:
                return e
        return None

    def as_json(self):
        return {
            "represented_rank": self.represented_rank,
            "base_ramification": self.base_ramification,
            "q_used": self.q_used,
            "total_dim": self.total_dim(),
            "entries": [e.as_json() for e in self.entries],
        }


def _orbit_of(phi: ExpFactor):
    """The Galois orbit of the germ, at its minimal presentation level."""
    red = phi.reduce_ramification()
    if red.q == 1:
        return [red]
    order = lcm(red.cyclotomic_order(), red.q)
    out = []
    for j in range(red.q):
        tw = red.substitute_root(Cyc.zeta(order, j * (order // red.q)))
        if not any(tw == seen for seen in out):
            out.append(tw)
    return out


def _canonical_orbit_rep(orbit):
    """The least member, compared at the lcm of the members' conductors:
    a function of the orbit, so equal germs get equal representatives."""
    common = 1
    for phi in orbit:
        common = lcm(common, phi.cyclotomic_order())
    return min(orbit, key=lambda p: p.sort_key(common))


def _orbit_rep(phi: ExpFactor) -> ExpFactor:
    return _canonical_orbit_rep(_orbit_of(phi))


# ---------------------------------------------------------------------------
# regular part of a module at its own level
# ---------------------------------------------------------------------------


def regular_part(conn: LambdaConnection, dec: FormalDecomposition,
                 phi: ExpFactor):
    """The summands of ``dec`` keyed by ``phi``, at the level of ``conn``.

    ``dec`` decomposes a module M, and ``conn`` is E^{-phi/z} (x) M at a
    level dividing the decomposition level.  The twist is scalar, so
    ``dec.gauge`` also decomposes ``conn`` pulled up to that level, and the
    maximal regular constituent of ``conn`` is the sum of the R_j with
    phi_j = phi.  At the decomposition level those summands are returned
    directly.  Otherwise the canonical projector onto them is built from
    ``dec.gauge`` upstairs; being canonical it is Galois equivariant, so its
    matrix descends to the level of ``conn``, where the image basis carries
    the induced action.  Returns None when no summand is keyed by ``phi``.
    """
    indicator = [s.phi == phi for s in dec.summands for _ in range(s.rank)]
    if not any(indicator):
        return None
    rel = dec.q_used // conn.q
    if rel == 1:
        regs = [s.regular for s in dec.summands if s.phi == phi]
        out = regs[0]
        for reg in regs[1:]:
            out = out.direct_sum(reg)
        return out
    n = conn.rank
    work = dec.certified_order
    if work is None:
        work = 8 * max(1, n) * rel
    gauge = dec.gauge
    ginv = gauge.inverse(work)
    e_rows = [[LaurentSeries.one(gauge.q, work) if (i == j and indicator[i])
               else LaurentSeries.zero(gauge.q, work) for j in range(n)]
              for i in range(n)]
    proj = gauge * LaurentMatrix(e_rows, gauge.q) * ginv
    down = _descend_matrix(proj, rel, conn.q)
    rank = sum(indicator)
    _, pivots = gauss_jordan(down.rows, n, work)
    if len(pivots) < rank:
        raise InternalInvariantError("projector image has unexpected rank")
    return _induced_action(conn, [[row[j] for row in down.rows]
                                  for j in pivots[:rank]], work)


def _descend_matrix(mat: LaurentMatrix, rel: int, q_target: int) -> LaurentMatrix:
    """Divide every exponent by rel; certified non-divisible digits forbid."""
    rows = []
    for row in mat.rows:
        out = []
        for x in row:
            coeffs = {}
            for e, c in x.coeffs.items():
                if e % rel != 0:
                    raise InternalInvariantError(
                        "projector failed to descend: non-equivariant digits")
                coeffs[e // rel] = c
            t = None if x.trunc is None else -(-x.trunc // rel)
            out.append(LaurentSeries(q_target, coeffs, t))
        rows.append(out)
    return LaurentMatrix(rows, q_target)


def _induced_action(conn: LambdaConnection, basis, order):
    """Matrix C of the operator on the span of ``basis``, an invariant
    space: L(B) = B C for B with the basis as columns.

    [B | L(B)] is eliminated once to ``order``.  Every column of B must
    pivot, and the pivot rows then read [I | C]; the rows without a pivot
    must reduce to zero, which checks that the span is invariant.
    """
    m = len(basis)
    images = [apply_operator(conn, col) for col in basis]
    work, pivots = gauss_jordan(
        [[v[i] for v in basis + images] for i in range(conn.rank)], m, order)
    if len(pivots) < m:
        raise InternalInvariantError("image basis rows are degenerate")
    if not all(x.is_zero_to_order() for row in work[m:] for x in row):
        raise InternalInvariantError(
            "induced action is inconsistent on the projector image")
    cmat = LaurentMatrix([row[m:] for row in work[:m]], conn.q)
    return LambdaConnection(cmat, conn.q, conn.lambda0)


# ---------------------------------------------------------------------------
# table assembly
# ---------------------------------------------------------------------------


def deligne_nearby_cycles(conn: LambdaConnection, lambda0=None,
                          folded: bool = True) -> DeligneTable:
    """The (phi, beta, weight) table of the represented module at z0.

    ``lambda0`` is resolved by :func:`regular.model_point`: a restricted
    connection is read at its own point.  ``folded`` merges Galois-orbit
    keys into one record (the direct image identifies them); the unfolded
    per-summand view keeps each phi at the decomposition level.
    """
    lam0 = model_point(conn, lambda0)
    if conn.q > 1:
        inner = deligne_nearby_cycles(_own_disc(conn), lambda0=lam0,
                                      folded=folded)
        return _push_table_down(inner, conn.q, lam0)
    dec = formal_decompose(conn)
    if not folded:
        return _unfolded_table(conn, dec, lam0)
    orbits = {}
    for s in dec.summands:
        orbit = _orbit_of(s.phi)
        orbits.setdefault(_canonical_orbit_rep(orbit), orbit)
    entries = []
    for rep, orbit in orbits.items():
        if not is_t_irreducible(rep):
            raise InternalInvariantError("orbit representative is reducible")
        twisted = conn.ramify_pullback(rep.q).twist_exponential(rep, sign=-1)
        reg = regular_part(twisted, dec, rep)
        if reg is None:
            raise InternalInvariantError(
                "empty regular part for a detected orbit")
        model = reduce_to_constant(reg, lambda0=lam0)
        rows = _gather_rows(
            [t for beta, _ in model.exponents_with_multiplicity()
             for t in _spread_datum(psi_beta(model, beta), rep.q)], lam0)
        entries.append(DeligneEntry(phi=rep, rows=rows, orbit=orbit))
    table = DeligneTable(entries=_sort_entries(entries, lam0),
                         base_ramification=1,
                         represented_rank=conn.rank,
                         lambda0=lam0, q_used=dec.q_used)
    if table.total_dim() != table.represented_rank:
        raise InternalInvariantError(
            f"table dimension {table.total_dim()} != rank "
            f"{table.represented_rank}")
    return table


def _own_disc(conn: LambdaConnection) -> LambdaConnection:
    rows = [[LaurentSeries(1, x.coeffs, x.trunc) for x in row]
            for row in conn.action.rows]
    return LambdaConnection(LaurentMatrix(rows, 1), 1, conn.lambda0)


def _unfolded_table(conn, dec: FormalDecomposition, lam0) -> DeligneTable:
    entries = []
    rel = dec.rel_ramification
    for s in dec.summands:
        model = reduce_to_constant(s.regular, lambda0=lam0)
        rows = [DeligneRow(**vars(psi_beta(model, beta)))
                for beta, _ in model.exponents_with_multiplicity()]
        entries.append(DeligneEntry(phi=s.phi, rows=rows, orbit=[s.phi]))
    return DeligneTable(entries=entries, base_ramification=conn.q * rel,
                        represented_rank=conn.rank,
                        lambda0=lam0, q_used=dec.q_used)


def _spread_datum(datum, q: int):
    """One class pushed down a q-fold cover: (beta + k)/q with nil/q."""
    return [((datum.beta + k).scale(Fraction(1, q)).normalized(), datum.dim,
             [[c / q for c in row] for row in datum.nilpotent])
            for k in range(q)]


def _gather_rows(triples, lam0: Cyc):
    """Rows from (class, dim, nilpotent) triples, equal classes merged.

    Merged nilpotents are block-diagonal in the order the triples come;
    rows are sorted by (ell, beta', beta'').
    """
    gathered = {}
    for triple in triples:
        key = (triple[0].beta_re, triple[0].beta_im)
        gathered[key] = (_merge_row(gathered[key], triple) if key in gathered
                         else triple)
    rows = []
    for gamma, dim, nil in gathered.values():
        weight_dims, primitive_dims, _ = monodromy_filtration(nil) \
            if dim else ({}, {}, [])
        rows.append(DeligneRow(beta=gamma, dim=dim, nilpotent=nil,
                               weight_dims=weight_dims,
                               primitive_dims=primitive_dims))
    rows.sort(key=lambda r: (ell(r.beta, lam0), r.beta.beta_re, r.beta.beta_im))
    return rows


def _merge_row(a, b):
    """Block-diagonal sum of two rows of the same class."""
    gamma, dim_a, nil_a = a
    _, dim_b, nil_b = b
    nil = ([row + [Cyc.zero()] * dim_b for row in nil_a]
           + [[Cyc.zero()] * dim_a + row for row in nil_b])
    return (gamma, dim_a + dim_b, nil)


def _sort_entries(entries, lam0):
    common = 1
    for e in entries:
        common = lcm(common, e.phi.cyclotomic_order())
    entries.sort(key=lambda e: (e.phi.pole_order() and
                                Fraction(e.phi.pole_order(), e.phi.q),
                                e.phi.sort_key(common)))
    return entries


def _push_table_down(table: DeligneTable, q: int, lam0: Cyc) -> DeligneTable:
    """Table of the direct image: keys re-leveled, rows divided by q."""
    spread = {}  # orbit representative -> (orbit, spread triples)
    for e in table.entries:
        phi_new = ExpFactor(e.phi.q * q, dict(e.phi.coeffs)).reduce_ramification()
        orbit_new = _orbit_of(phi_new)
        _, triples = spread.setdefault(_canonical_orbit_rep(orbit_new),
                                       (orbit_new, []))
        triples.extend(t for r in e.rows for t in _spread_datum(r, q))
    entries = [DeligneEntry(phi=rep, rows=_gather_rows(triples, lam0),
                            orbit=orbit)
               for rep, (orbit, triples) in spread.items()]
    return DeligneTable(entries=_sort_entries(entries, lam0),
                        base_ramification=table.base_ramification * q,
                        represented_rank=table.represented_rank * q,
                        lambda0=lam0, q_used=table.q_used)


# ---------------------------------------------------------------------------
# the ramification-compatibility oracle
# ---------------------------------------------------------------------------


def ramification_transport(table: DeligneTable, r: int) -> DeligneTable:
    """Predicted table of the ramified pull-back rho_r^+ from the table.

    Keys are unchanged as Puiseux germs; every row spreads into r classes
    stepped by 1/(r * base_ramification), and the nilpotent is rescaled
    (its Jordan type, the compared invariant, is unchanged).
    """
    if r == 1:
        return table
    step_den = r * table.base_ramification
    entries = []
    for e in table.entries:
        new_rows = _gather_rows(
            [((row.beta - Fraction(n, step_den)).normalized(), row.dim,
              [[c * r for c in rr] for rr in row.nilpotent])
             for row in e.rows for n in range(r)], table.lambda0)
        entries.append(DeligneEntry(phi=e.phi, rows=new_rows,
                                    orbit=list(e.orbit)))
    return DeligneTable(entries=_sort_entries(entries, table.lambda0),
                        base_ramification=step_den,
                        represented_rank=table.represented_rank * r,
                        lambda0=table.lambda0, q_used=table.q_used)


def tables_equal(a: DeligneTable, b: DeligneTable) -> bool:
    """Entrywise equality: keys as orbits, rows by (class, dim, Jordan type)."""
    if len(a.entries) != len(b.entries):
        return False
    for ea in a.entries:
        eb = b.entry_for(ea.phi)
        if eb is None or len(ea.rows) != len(eb.rows):
            return False
        for ra, rb in zip(ea.rows, eb.rows):
            if ra.beta != rb.beta or ra.dim != rb.dim:
                return False
            if ra.weight_dims != rb.weight_dims:
                return False
            if ra.jordan_type() != rb.jordan_type():
                return False
    return True
