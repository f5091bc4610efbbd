"""Support machinery for the formal decomposition engine.

Three tools live here:

* application of the module operator L = A + z*u*d/du to coordinate vectors,
  cyclic vectors and minimal operators (used for slope polygons away from
  the Higgs locus);
* slope polygons, each question with one routine: :func:`slopes` reads a
  connection's polygon from minimal-operator coefficient valuations (basis
  independent) or, in the Higgs case where the action is O-linear, from
  the characteristic polynomial; :func:`decomposition_slopes` reads it off
  a formal decomposition that is already at hand;
* lattice saturation: given an integer slope bound s, the smallest
  (u^s L)-stable lattice containing the standard one, whose basis is a gauge
  bringing the matrix to pole order <= s.  This replaces ad-hoc shearing:
  it is the effective form of working with t^k(t*d/dt).
"""

from __future__ import annotations

from fractions import Fraction

from .connection import LambdaConnection
from .errors import (InsufficientTruncation, InternalInvariantError,
                     WildcycleError)
from .matrices import LaurentMatrix, solve
from .series import LaurentSeries


class NeedRamification(Exception):
    """Internal control flow: a fractional slope asks for a pull-back."""

    def __init__(self, index: int):
        super().__init__(f"ramification of order {index} required")
        self.index = index


# ---------------------------------------------------------------------------
# the module operator on coordinate vectors
# ---------------------------------------------------------------------------


def apply_operator(conn: LambdaConnection, vec):
    """L(vec) = A*vec + z * (u d/du) vec on coordinate columns, each row
    one :meth:`LaurentSeries.dot`.  The derivative term keeps vec[i]'s
    guaranteed order even where z is 0."""
    ys = list(vec) + [LaurentSeries.constant(conn.lambda_factor(), conn.q)]
    return [LaurentSeries.dot(row + [vec[i].log_derivative()], ys)
            .truncate(vec[i].trunc)
            for i, row in enumerate(conn.action.rows)]


def _cyclic_candidates(n: int, q: int):
    def unit(i):
        return [LaurentSeries.one(q) if j == i else LaurentSeries.zero(q)
                for j in range(n)]

    for i in range(n):
        yield unit(i)
    for c in (1, 2, 3):
        yield [LaurentSeries.constant(Fraction(c) ** j, q) for j in range(n)]
    yield [LaurentSeries.monomial(1, j, q) for j in range(n)]
    for c in (2, 3):
        yield [LaurentSeries.monomial(Fraction(c) ** j, j, q) for j in range(n)]
    yield [LaurentSeries.monomial(1, j * j, q) for j in range(n)]


def cyclic_data(conn: LambdaConnection, order: int):
    """Minimal-operator coefficients a_0..a_{n-1} of a cyclic vector v.

    L^n v = sum a_i L^i v, so a solves K a = L^n v for the Krylov matrix
    K = [v, Lv, ..., L^{n-1} v]; the first candidate v whose system
    certifies a solution to ``order`` is used.  Requires a nonzero
    derivation (not Higgs).
    """
    if conn.is_higgs:
        raise WildcycleError("cyclic vectors are not available at lambda = 0")
    n = conn.rank
    last_error = None
    for cand in _cyclic_candidates(n, conn.q):
        cols = [cand]
        for _ in range(n):
            cols.append(apply_operator(conn, cols[-1]))
        krylov = LaurentMatrix([[cols[j][i] for j in range(n)]
                                for i in range(n)], conn.q)
        rhs = LaurentMatrix([[x] for x in cols[n]], conn.q)
        try:
            return [row[0] for row in solve(krylov, rhs, order).rows]
        except WildcycleError as exc:
            last_error = exc
    raise InternalInvariantError(
        f"no cyclic vector found among candidates: {last_error}")


# ---------------------------------------------------------------------------
# slope polygons
# ---------------------------------------------------------------------------


def _hull_slopes(points, degree):
    """Branch-valuation data from the lower hull of (i, val(c_i)).

    ``points`` maps i -> valuation (i = X-degree, c_degree = monic top).
    Returns a list of (branch_valuation: Fraction, length: int).
    """
    pts = sorted(points.items())
    if not pts:
        return []
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (p[1] - y1) * (x2 - x1) <= (y2 - y1) * (p[0] - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        val = Fraction(y1 - y2, x2 - x1)
        out.append((val, x2 - x1))
    return out


def slopes_from_coefficients(vals_by_degree: dict, degree: int):
    """Module slopes (>= 0, with multiplicity) from coefficient valuations.

    ``vals_by_degree[i]`` is the valuation of the coefficient of X^i; missing
    entries mean the coefficient vanishes to all certified orders.  Zero
    trailing coefficients contribute slope-0 branches.
    """
    pts = dict(vals_by_degree)
    pts[degree] = 0
    low = min(i for i in pts)
    zero_branches = low  # X^low divides: 'low' branches of slope 0
    slopes = {}
    if zero_branches:
        slopes[Fraction(0)] = zero_branches
    for val, length in _hull_slopes({i - low: v for i, v in pts.items()},
                                    degree - low):
        slope = max(Fraction(0), -val)
        slopes[slope] = slopes.get(slope, 0) + length
    return sorted(slopes.items())


def slopes(conn: LambdaConnection, order=None):
    """Slope multiset of the module, measured in its own coordinate u = t_q.

    At lambda = 0 the action is O-linear and the characteristic polynomial
    gives the exact polygon; otherwise the basis-independent polygon of the
    minimal operator of a cyclic vector, solved to ``order``, is used.
    Sorted increasing, never empty for rank >= 1.
    """
    n = conn.rank
    if conn.is_higgs:
        coeffs = conn.action.charpoly()[:n]
        what, required = "characteristic-polynomial", None
    else:
        coeffs = cyclic_data(conn, order)
        what, required = "minimal-operator coefficient", (order or 0) + 2 * n
    vals = {}
    for i, a in enumerate(coeffs):
        v = a.valuation()
        if v is not None:
            vals[i] = v
        elif a.trunc is not None and a.trunc < 1:
            raise InsufficientTruncation(f"{what} valuation not certified",
                                         required=required)
        # zero to certified order: only slope-0 content, leave absent
    return slopes_from_coefficients(vals, n)


def decomposition_slopes(dec):
    """The polygon a formal decomposition fixes (Levelt-Turrittin): summand
    E^(phi/z) (x) R has slope pole_order(phi) / rel_ramification, rank R
    times."""
    out = {}
    for s in dec.summands:
        slope = Fraction(s.phi.pole_order(), dec.rel_ramification)
        out[slope] = out.get(slope, 0) + s.rank
    return sorted(out.items())


# ---------------------------------------------------------------------------
# lattice saturation
# ---------------------------------------------------------------------------


class _OBasis:
    """Column-reduced generating set of an O-lattice in K^n."""

    def __init__(self, n, q, order):
        self.n = n
        self.q = q
        self.order = order
        self.cols = []   # list of coordinate vectors
        self.pivots = []  # (row, valuation) per column

    def _min_entry(self, vec):
        best = None
        for r, x in enumerate(vec):
            v = x.valuation()
            if v is not None and (best is None or v < best[1]):
                best = (r, v)
        return best

    def reduce_vector(self, vec):
        """Reduce vec against the basis; returns the remainder."""
        vec = [x.truncate(self.order) for x in vec]
        window = self.order - min(0, min((p[1] for p in self.pivots), default=0))
        cap = 8 * (self.n + 1) * (abs(window) + 4)
        steps = 0
        changed = True
        while changed:
            changed = False
            if self._min_entry(vec) is None:
                return vec
            for col, (pr, pv) in zip(self.cols, self.pivots):
                x = vec[pr]
                v = x.valuation()
                if v is not None and v >= pv:
                    b = col[pr]
                    avail = (b.trunc if b.trunc is not None else self.order)
                    mult = (x * b.invert(avail - 2 * pv)).truncate(self.order)
                    vec = [(a - mult * b2).truncate(self.order)
                           for a, b2 in zip(vec, col)]
                    changed = True
                    break
            steps += 1
            if steps > cap:
                raise InternalInvariantError("lattice reduction did not settle")
        return vec

    def insert(self, vec) -> bool:
        """Insert a vector; returns True if the lattice grew."""
        vec = self.reduce_vector(vec)
        pos = self._min_entry(vec)
        if pos is None:
            return False
        # keep pivot rows distinct: displace a column with larger pivot val
        for idx, (pr, pv) in enumerate(self.pivots):
            if pr == pos[0]:
                if pos[1] < pv:
                    old = self.cols[idx]
                    self.cols[idx] = vec
                    self.pivots[idx] = pos
                    self.insert(old)
                    return True
                raise InternalInvariantError("reduce_vector left a stale pivot")
        self.cols.append(vec)
        self.pivots.append(pos)
        return True


def saturate_lattice(conn: LambdaConnection, s: int,
                     order: int) -> LaurentMatrix:
    """Basis of the smallest (u^s L)-stable lattice containing O^n.

    The returned matrix is a gauge; in that frame the action has pole order
    at most s.  Raises :class:`InternalInvariantError` when the saturation
    does not stabilize within the theoretical bound (which signals that the
    requested slope bound is below the true maximal slope).
    """
    n = conn.rank
    max_steps = n * (conn.pole_order() + 2) + 4
    basis = _OBasis(n, conn.q, order)
    for i in range(n):
        basis.insert([LaurentSeries.one(conn.q, order) if j == i
                      else LaurentSeries.zero(conn.q, order)
                      for j in range(n)])
    for _ in range(max_steps):
        grew = False
        for col in list(basis.cols):
            img = apply_operator(conn, col)
            img = [x.shift(s) for x in img]
            if basis.insert(img):
                grew = True
        if not grew:
            break
    else:
        raise InternalInvariantError(
            f"lattice saturation at slope {s} did not stabilize")
    if len(basis.cols) != n:
        raise InternalInvariantError("saturated lattice lost full rank")
    cols = basis.cols
    gauge = LaurentMatrix([[cols[j][i] for j in range(n)] for i in range(n)],
                          conn.q)
    return gauge
