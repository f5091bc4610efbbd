"""Formal decomposition of lambda-connections at the origin.

The engine produces M = (+)_j E^{phi_j/z} (x) R_j after a minimal
ramification, together with the gauge into the decomposed frame.  The
recursion works on the matrix pole order k: while k >= 1 it either splits
along a coprime factorization of the leading spectrum (order-by-order
Sylvester equations), peels a single nonzero leading eigenvalue c into the
exponential factor -(c/k) u^{-k}, or, when the leading matrix is nilpotent,
re-presents the module in a lattice saturated at the true maximal slope
(the effective form of replacing u d/du with u^k (u d/du)).  Fractional
slopes restart the whole computation at a finer ramification.

Verification does not invert the gauge G: it checks the residual
A G + z u G' - G B against the block-diagonal model B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, prod

from .connection import ExpFactor, LambdaConnection
from .cyclotomic import Cyc, lcm, totient
from .errors import (InsufficientTruncation, InternalInvariantError,
                     NonTerminating, SpectrumNotSplit,
                     UnsupportedAlgebraicExtension, WildcycleError)
from .matrices import (LaurentMatrix, charpoly, const_kernel, const_solve,
                       gauss_jordan, identity, mat_mul)
from .params import LPoly, ParamScalar, PS0, PS1
from .reduction import NeedRamification, saturate_lattice, slopes
from .roots import roots_in_field
from .series import LaurentSeries


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope multiset of a connection germ, sorted increasing."""

    slopes: tuple

    @staticmethod
    def of(pairs) -> "NewtonPolygon":
        return NewtonPolygon(tuple((Fraction(s), int(m)) for s, m in sorted(pairs)))

    def rank(self) -> int:
        return sum(m for _, m in self.slopes)

    def slope_zero_length(self) -> int:
        for s, m in self.slopes:
            if s == 0:
                return m
        return 0

    def ramification(self) -> int:
        r = 1
        for s, _ in self.slopes:
            r = r * s.denominator // gcd(r, s.denominator)
        return r

    def is_regular(self) -> bool:
        return all(s == 0 for s, _ in self.slopes)

    def as_json(self):
        return [[str(s), m] for s, m in self.slopes]


@dataclass
class Summand:
    phi: ExpFactor
    regular: LambdaConnection

    @property
    def rank(self) -> int:
        return self.regular.rank


@dataclass
class FormalDecomposition:
    summands: list
    gauge: LaurentMatrix
    q_input: int
    rel_ramification: int
    certified_order: object = None

    @property
    def q_used(self) -> int:
        """Absolute ramification level of the summands over the base."""
        return self.q_input * self.rel_ramification

    def phi_multiset(self):
        return [s.phi for s in self.summands]

    def total_rank(self) -> int:
        return sum(s.rank for s in self.summands)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def newton_polygon(conn: LambdaConnection, lambda0=None, order=None) -> NewtonPolygon:
    """Slope polygon of the module (its own coordinate), minimal q included,
    by :func:`reduction.slopes`."""
    m = conn
    if lambda0 is not None and conn.is_family:
        m = conn.restrict_lambda(lambda0)
    if order is None:
        order = default_truncation(m)
    return NewtonPolygon.of(slopes(m, order))


def shear(conn: LambdaConnection, indices, power: int):
    """Gauge by the partial rescaling diag(..., t^power on indices, ...)."""
    n = conn.rank
    idx = set(indices)
    entries = [LaurentSeries.monomial(1, power if i in idx else 0, conn.q)
               for i in range(n)]
    g = LaurentMatrix.diagonal(entries, conn.q)
    return conn.gauge_transform(g), g


def leading_split(conn: LambdaConnection, group1, group2, order=None):
    """Split along a caller-supplied partition of the leading spectrum.

    ``group1``/``group2`` are disjoint nonempty lists of eigenvalues lying
    in the coefficient field; returns (M1, M2, gauge).
    """
    k = conn.pole_order()
    if k < 1:
        raise WildcycleError("leading_split needs a pole of order >= 1")
    if order is None:
        order = default_truncation(conn)
    cp = _leading_charpoly(conn)
    norder = lcm(conn.cyclotomic_order(), 4)
    roots, nonsplit = roots_in_field(cp, norder)
    if nonsplit:
        raise UnsupportedAlgebraicExtension(
            "leading spectrum does not split over the coefficient field",
            min_poly=nonsplit[0][0].render("X"))
    g1 = [c if isinstance(c, Cyc) else Cyc.rational(c) for c in group1]
    g2 = [c if isinstance(c, Cyc) else Cyc.rational(c) for c in group2]
    if not g1 or not g2 or any(a == b for a in g1 for b in g2):
        raise SpectrumNotSplit("eigenvalue groups must be disjoint and nonempty")
    root_list = [r for r, _ in roots]
    if len(root_list) < 2:
        raise SpectrumNotSplit("leading matrix has a single eigenvalue")
    p1 = LPoly.constant(Cyc.one(norder))
    p2 = LPoly.constant(Cyc.one(norder))
    for r, mult in roots:
        lin = LPoly([-r, Cyc.one(norder)])
        target = None
        if any(r == c for c in g1):
            target = 1
        elif any(r == c for c in g2):
            target = 2
        else:
            raise SpectrumNotSplit(f"eigenvalue {r.render()} not covered by the partition")
        for _ in range(mult):
            if target == 1:
                p1 = p1 * lin
            else:
                p2 = p2 * lin
    if p1.degree() == 0 or p2.degree() == 0:
        raise SpectrumNotSplit("one eigenvalue group is empty on this matrix")
    m1, m2, g = _sylvester_split(conn, p1, p2, order)
    return m1, m2, g


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class _Ctx:
    order: int
    field_order: int
    steps: int = 0
    budget: int = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise NonTerminating(
                "decomposition exceeded its internal step bound (bug)")


def default_truncation(conn: LambdaConnection) -> int:
    t = conn.guaranteed_order
    if t is not None:
        return t
    return 8 * conn.rank * max(1, conn.pole_order()) * conn.q


def required_truncation(rank: int, pole: int, q: int, target: int) -> int:
    """A priori sufficient input truncation for a certified decomposition."""
    return target + q * (rank + 1) * (pole + 2) + 4


def formal_decompose(conn: LambdaConnection, order=None) -> FormalDecomposition:
    """Full formal decomposition with certified gauge.

    Restarts at a finer ramification whenever a fractional slope appears;
    the final relative ramification is the lcm of all slope denominators
    met along the recursion, which is the minimal one.
    """
    if order is None:
        order = default_truncation(conn)
    rel = 1
    base_field = lcm(conn.cyclotomic_order(), 4)
    for _ in range(10):
        m = conn.ramify_pullback(rel)
        ctx = _Ctx(order=order * rel,
                   field_order=lcm(base_field, m.q),
                   budget=64 * (conn.rank + 2) * (conn.pole_order() + 2) * rel + 256)
        try:
            leaves, gauge = _decompose_rec(m, ExpFactor.zero(m.q), ctx)
        except NeedRamification as need:
            rel *= need.index
            if rel > 64:
                raise NonTerminating("ramification requirement did not settle")
            continue
        return _assemble(conn, leaves, gauge, rel)
    raise NonTerminating("too many ramification restarts")


def _assemble(conn, leaves, gauge, rel) -> FormalDecomposition:
    # canonical order: pole order of phi, then coefficient key, then rank
    common = 1
    for phi, _ in leaves:
        common = lcm(common, phi.cyclotomic_order())
    keyed = []
    pos = 0
    for phi, reg in leaves:
        keyed.append((phi.sort_key(common), pos, phi, reg))
        pos += reg.rank
    keyed.sort(key=lambda item: (item[0], item[1]))
    n = sum(item[3].rank for item in keyed)
    perm_cols = []
    for _, start, _, reg in keyed:
        perm_cols.extend(range(start, start + reg.rank))
    permuted = LaurentMatrix(
        [[gauge.rows[i][j] for j in perm_cols] for i in range(n)], gauge.q)
    summands = [Summand(phi=item[2], regular=item[3]) for item in keyed]
    cert = permuted.trunc()
    for s in summands:
        t = s.regular.guaranteed_order
        if t is not None:
            cert = t if cert is None else min(cert, t)
    return FormalDecomposition(summands=summands, gauge=permuted,
                               q_input=conn.q, rel_ramification=rel,
                               certified_order=cert)


def _leading_charpoly(conn: LambdaConnection) -> LPoly:
    a0 = conn.leading_matrix()
    cp = charpoly(a0, PS1)
    consts = []
    for c in cp:
        if not c.is_constant():
            raise UnsupportedAlgebraicExtension(
                "leading spectrum depends on the parameter; "
                "input is not strictly specializable in the operative sense",
                min_poly=" + ".join(f"({x.render()})*X^{k}"
                                    for k, x in enumerate(cp)))
        consts.append(c.as_cyc())
    return LPoly(consts)


def _roots_with_enlargement(cp: LPoly, conn: LambdaConnection, ctx: _Ctx):
    roots, nonsplit = roots_in_field(cp, ctx.field_order)
    if roots or not nonsplit:
        return roots, nonsplit
    # no eigenvalue at all in the current field: try adjoining roots of unity
    candidates = []
    for mult in (conn.q, 2 * conn.q, 3 * conn.q, 4 * conn.q, 8, 12):
        cand = lcm(ctx.field_order, mult)
        if cand != ctx.field_order and totient(cand) <= 64:
            candidates.append(cand)
    for cand in sorted(set(candidates)):
        roots2, nonsplit2 = roots_in_field(cp, cand)
        if roots2:
            ctx.field_order = cand
            return roots2, nonsplit2
    return roots, nonsplit


def _decompose_rec(m: LambdaConnection, phi_acc: ExpFactor, ctx: _Ctx,
                   spectrum=None):
    """Returns (leaves, gauge): leaves are (phi, regular) in block order.

    ``spectrum`` is (k, cp, roots, nonsplit) of a split's child, whose
    leading block at pole order k has charpoly cp; it is used while the
    pole order is still k and saves finding the roots again."""
    gauges = []
    while True:
        ctx.tick()
        k = m.pole_order()
        if k == 0:
            return [(phi_acc, m)], compose_gauges(gauges, m.rank, m.q)
        if spectrum is not None and spectrum[0] == k:
            _, cp, roots, nonsplit = spectrum
        else:
            cp = _leading_charpoly(m)
            roots, nonsplit = _roots_with_enlargement(cp, m, ctx)
        spectrum = None
        nilpotent = (len(roots) == 1 and roots[0][0].is_zero()
                     and not nonsplit)
        if nilpotent or (not roots and not nonsplit):
            s = slopes(m, ctx.order)[-1][0]
            if s.denominator > 1:
                raise NeedRamification(s.denominator)
            s = int(s)
            if s >= k:
                raise InternalInvariantError(
                    "nilpotent leading matrix at the maximal slope")
            w = saturate_lattice(m, s, ctx.order)
            m = m.gauge_transform(w)
            if m.pole_order() > max(s, 0):
                raise InsufficientTruncation(
                    "slope reduction could not be certified at this truncation",
                    required=required_truncation(m.rank, k, m.q, ctx.order))
            gauges.append(w)
            continue
        if not roots and nonsplit:
            raise UnsupportedAlgebraicExtension(
                "leading eigenvalues lie outside the cyclotomic field",
                min_poly=nonsplit[0][0].render("X"))
        if len(roots) == 1 and not nonsplit:
            c, mult = roots[0]
            # single nonzero eigenvalue: peel it into the exponential factor
            phi_inc = ExpFactor(m.q, {k: c / Fraction(-k)})
            m = m.twist_exponential(phi_inc, sign=-1)
            phi_acc = phi_acc + phi_inc
            continue
        # several eigenvalue groups: split the first root off the rest
        c0 = roots[0][0]
        norder = ctx.field_order
        p1 = prod([LPoly([-c0.lift(norder), Cyc.one(norder)])] * roots[0][1],
                  start=LPoly.constant(Cyc.one()))
        p2, rem = LPoly([c.lift(norder) for c in cp.coeffs]).divmod(p1)
        if not rem.is_zero():
            raise InternalInvariantError("characteristic polynomial division failed")
        m1, m2, g = _sylvester_split(m, p1, p2, ctx.order)
        gauges.append(g)
        # the leading blocks have charpolys p1 and p2, as cp = p1 * p2; a
        # child left with no root in the field searches a larger one itself
        leaves1, g1 = _decompose_rec(m1, phi_acc, ctx,
                                     (k, p1, roots[:1], []))
        leaves2, g2 = _decompose_rec(
            m2, phi_acc, ctx,
            (k, p2, roots[1:], nonsplit) if len(roots) > 1 else None)
        total = compose_gauges(gauges, m.rank, m.q)
        return (leaves1 + leaves2,
                total * LaurentMatrix.block_diagonal([g1, g2], m.q))


def compose_gauges(gauges, n, q) -> LaurentMatrix:
    total = LaurentMatrix.identity_matrix(n, q)
    for g in gauges:
        total = total * g
    return total


def _sylvester_split(m: LambdaConnection, p1: LPoly, p2: LPoly, order: int):
    """Block-diagonalize along a coprime factorization of the leading matrix.

    Order-by-order: at t-order i the off-diagonal correction G_i solves
    Sylvester equations against the two leading blocks, whose spectra are
    disjoint by coprimality; the parameter-derivative feeds back the term
    z*(i-k)*G_{i-k}.
    """
    n = m.rank
    k = m.pole_order()
    a0 = m.leading_matrix()
    b1 = _kernel_basis(a0, p1)
    b2 = _kernel_basis(a0, p2)
    if len(b1) + len(b2) != n or not b1 or not b2:
        raise InternalInvariantError("leading kernels do not span")
    n1 = len(b1)
    s_rows = [[(b1 + b2)[j][i] for j in range(n)] for i in range(n)]
    s_const = LaurentMatrix.from_constant(s_rows, m.q)
    mc = m.gauge_transform(s_const, order=order)
    t_in = mc.guaranteed_order
    t_sylv = (t_in + k) if t_in is not None else (order + k)
    lam = m.lambda_factor()

    a_coeff = [mc.action.coefficient_matrix(i - k) for i in range(t_sylv)]
    for i in range(n):
        for j in range(n):
            if (i < n1) != (j < n1) and not a_coeff[0][i][j].is_zero():
                raise InternalInvariantError(
                    "leading matrix not block-diagonal after kernel gauge")
    blk1 = [[a_coeff[0][i][j] for j in range(n1)] for i in range(n1)]
    blk2 = [[a_coeff[0][i][j] for j in range(n1, n)] for i in range(n1, n)]
    # each operator is inverted once; every order then applies the inverse
    dim = n1 * (n - n1)
    inv12 = const_solve(_sylvester_operator(blk1, blk2),
                        identity(dim, PS1, PS0))
    inv21 = const_solve(_sylvester_operator(blk2, blk1),
                        identity(dim, PS1, PS0))

    def solve_block(i, known):
        # diagonal blocks of the new matrix; off-diagonal goes to G_i
        new_i = [[known[r][c] if (r < n1) == (c < n1) else PS0
                  for c in range(n)] for r in range(n)]
        g12 = _apply_inverse(inv12, [row[n1:] for row in known[:n1]])
        g21 = _apply_inverse(inv21, [row[:n1] for row in known[n1:]])
        gi = ([[PS0] * n1 + row for row in g12]
              + [row + [PS0] * (n - n1) for row in g21])
        return gi, new_i

    g_parts, new_parts = gauge_by_orders(a_coeff, k, lam, solve_block)
    g_series = series_from_parts(g_parts, 0, m.q, t_sylv)
    new_series = series_from_parts(new_parts, -k, m.q, t_sylv)
    m1 = LambdaConnection(LaurentMatrix(
        [[new_series.rows[i][j] for j in range(n1)] for i in range(n1)], m.q),
        m.q, m.lambda0)
    m2 = LambdaConnection(LaurentMatrix(
        [[new_series.rows[i][j] for j in range(n1, n)] for i in range(n1, n)],
        m.q), m.q, m.lambda0)
    gauge = s_const * g_series
    return m1, m2, gauge


def gauge_by_orders(a_coeff, k: int, lam, solve_block):
    """Order-by-order gauge G = sum_i G_i t^i, G_0 = I, taking A to B.

    ``a_coeff[i]`` is the coefficient of t^(i-k) in A, below the horizon
    len(a_coeff).  At order i the known part is A_i + z*(i-k)*G_{i-k}
    - sum_{0<j<i} (G_j B_{i-j} - A_{i-j} G_j) (for k = 0 the feedback sits
    at order i itself and belongs to the block solve), each entry one
    :meth:`ParamScalar.dot` over the pairs of nonzero factors, and
    ``solve_block(i, known)`` returns (G_i, B_i).  Returns the nonzero G
    parts and the B parts, keyed by i.
    """
    n = len(a_coeff[0])
    g_parts = {0: identity(n, PS1, PS0)}
    new_parts = {0: a_coeff[0]}
    neg_b = {}  # m >= 1: -B_m
    for i in range(1, len(a_coeff)):
        js = [j for j in range(1, i) if j in g_parts]
        terms = ([(g_parts[j], neg_b[i - j]) for j in js]
                 + [(a_coeff[i - j], g_parts[j]) for j in js])
        fb = g_parts.get(i - k) if i - k >= 1 else None
        f = lam * Fraction(i - k) if fb is not None else None
        ai = a_coeff[i]
        known = []
        for r in range(n):
            row = []
            for c in range(n):
                xs, ys = [], []
                if ai[r][c]:
                    xs.append(ai[r][c])
                    ys.append(PS1)
                if fb is not None and fb[r][c]:
                    xs.append(f)
                    ys.append(fb[r][c])
                for x, y in terms:
                    for l in range(n):
                        if x[r][l] and y[l][c]:
                            xs.append(x[r][l])
                            ys.append(y[l][c])
                row.append(ParamScalar.dot(xs, ys) if xs else PS0)
            known.append(row)
        gi, new_parts[i] = solve_block(i, known)
        neg_b[i] = [[-x for x in row] for row in new_parts[i]]
        if any(x for row in gi for x in row):
            g_parts[i] = gi
    return g_parts, new_parts


def series_from_parts(parts, base_exp, q, index_end):
    """Assemble sum_i parts[i] t^(i+base_exp), certified below index_end."""
    items = sorted(parts.items())
    n = len(next(iter(parts.values())))
    w = len(next(iter(parts.values()))[0])
    trunc = None if index_end is None else index_end + base_exp
    rows = []
    for i in range(n):
        row = []
        for j in range(w):
            coeffs = {}
            for idx, mat in items:
                c = mat[i][j]
                if not c.is_zero():
                    coeffs[idx + base_exp] = c
            row.append(LaurentSeries(q, coeffs, trunc))
        rows.append(row)
    return LaurentMatrix(rows, q)


def _kernel_basis(a0, p: LPoly):
    """Basis of ker p(A0) over the parameter-rational field."""
    n = len(a0)
    acc = identity(n, PS1, PS0)
    val = [[PS0 for _ in range(n)] for _ in range(n)]
    for c in p.coeffs:
        cc = ParamScalar.of(c)
        for i in range(n):
            for j in range(n):
                val[i][j] = val[i][j] + acc[i][j] * cc
        acc = mat_mul(a0, acc)
    return const_kernel(val)


def _sylvester_operator(b1, b2):
    """Matrix of X -> X*B2 - B1*X on n1 x n2 matrices (row-major vec)."""
    n1, n2 = len(b1), len(b2)
    dim = n1 * n2
    rows = []
    for i in range(n1):
        for j in range(n2):
            row = [PS0] * dim
            for l in range(n2):
                row[i * n2 + l] = row[i * n2 + l] + b2[l][j]
            for l in range(n1):
                row[l * n2 + j] = row[l * n2 + j] - b1[i][l]
            rows.append(row)
    return rows


def _apply_inverse(inv, rhs):
    """Solve the Sylvester equation for the n1 x n2 right-hand side ``rhs``
    with the operator's inverse: one matrix-vector product."""
    n2 = len(rhs[0]) if rhs else 0
    vec = [x for row in rhs for x in row]
    nz = [i for i, x in enumerate(vec) if not x.is_zero()]
    sol = []
    for row in inv:
        pairs = [(row[i], vec[i]) for i in nz if not row[i].is_zero()]
        sol.append(ParamScalar.dot(*zip(*pairs)) if pairs else PS0)
    return [sol[i:i + n2] for i in range(0, len(sol), n2)]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def gauge_residual(conn: LambdaConnection,
                   dec: FormalDecomposition) -> LaurentMatrix:
    """R = A G + z u G' - G B on the pulled-back input A, with B the
    block-diagonal of the twisted summands: the gauge takes A to B exactly
    where R vanishes.  Each entry is one :meth:`LaurentSeries.dot`, and G B
    is formed one column block at a time."""
    m = conn.ramify_pullback(dec.rel_ramification)
    g = dec.gauge
    lam = m.lambda_factor()
    dg = g.log_derivative()
    g_cols = list(zip(*g.rows))
    rows = [[None] * g.ncols for _ in range(g.nrows)]
    start = 0
    for s in dec.summands:
        b = s.regular.twist_exponential(s.phi, sign=1).action.rows
        stop = start + s.rank
        for c in range(s.rank):
            j = start + c
            ys = list(g_cols[j]) + [-row[c] for row in b]
            for i, a_row in enumerate(m.action.rows):
                xs = a_row + g.rows[i][start:stop]
                rows[i][j] = LaurentSeries.dot(xs, ys) + dg.rows[i][j] * lam
        start = stop
    return LaurentMatrix(rows, m.q)


def _gauge_invertible(g: LaurentMatrix, order) -> bool:
    """Whether the gauge is invertible over the Laurent field: the
    valuation-pivoted elimination certifies a pivot in every column.

    It runs on the entries cut 1, 2, 4, ... digits above their least
    valuation, and at ``order`` (by default the gauge's own) only when
    those certify too few pivots: a gauge whose lowest terms are
    nonsingular is decided by the first, cheap run."""
    n = g.ncols
    cap = order if order is not None else g.trunc()
    if cap is None:
        return len(gauss_jordan(g.rows, n)[1]) == n
    low = min(x.valuation_bound() for row in g.rows for x in row)
    if low == inf:
        return False
    digits = 1
    while low + digits < cap:
        if len(gauss_jordan(g.rows, n, low + digits)[1]) == n:
            return True
        digits *= 2
    return len(gauss_jordan(g.rows, n, cap)[1]) == n


def verify_decomposition(conn: LambdaConnection, dec: FormalDecomposition) -> dict:
    """Check the decomposition by its residual, without inverting the gauge.

    The check passes when every entry of R = A G + z u G' - G B
    (:func:`gauge_residual`) is zero below its guaranteed order t_R, the
    gauge is invertible, the summands are regular and the ranks add up.
    Then D = G^-1 R, the difference of the transformed input and B, is
    zero below t_R + val(G^-1).  The residual valuations are the least
    certified exponents of R in the diagonal and off-diagonal blocks.
    """
    rank_ok = dec.total_rank() == conn.rank
    residuals = {True: [], False: []}  # keyed by "off the diagonal blocks"
    if rank_ok:
        blocks = [b for b, s in enumerate(dec.summands) for _ in range(s.rank)]
        for i, row in enumerate(gauge_residual(conn, dec).rows):
            for j, x in enumerate(row):
                v = x.valuation()
                if v is not None:
                    residuals[blocks[i] != blocks[j]].append(v)
    ok = (rank_ok and not residuals[True] and not residuals[False]
          and _gauge_invertible(dec.gauge, dec.certified_order))
    regular_ok = all(s.regular.pole_order() == 0 for s in dec.summands)
    return {
        "pass": ok and regular_ok,
        "certified_order": dec.certified_order,
        "off_diagonal_residual_valuation": min(residuals[True], default=None),
        "diagonal_residual_valuation": min(residuals[False], default=None),
        "regular_summands_pole_free": regular_ok,
        "rank_conserved": rank_ok,
    }
