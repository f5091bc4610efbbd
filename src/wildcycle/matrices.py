"""Matrix utilities: exact linear algebra over scalar fields and over
truncated Laurent series.

Constant matrices (entries :class:`ParamScalar` or :class:`Cyc`) get plain
Gaussian elimination.  Series matrices have one elimination,
:func:`gauss_jordan`, which pivots by least certified valuation and
certifies each pivot's inverse only to the digits its entries earn; the
inverse, :func:`solve`, the rank of a projector and the action induced on
its image all run through it.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc
from .errors import InsufficientTruncation, SingularGauge, WildcycleError
from .params import PS0, PS1, ParamScalar
from .series import LaurentSeries

# ---------------------------------------------------------------------------
# generic dense helpers (entries support ring dunders)
# ---------------------------------------------------------------------------

def _iszero(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def _invert(x):
    if hasattr(x, "inverse"):
        return x.inverse()
    return 1 / x



def mat_mul(a, b):
    n, m, p = len(a), len(b[0]), len(b)
    if len(a[0]) != p:
        raise WildcycleError("matrix shape mismatch")
    return [[_dot(a[i], [b[k][j] for k in range(p)]) for j in range(m)]
            for i in range(n)]


def _dot(row, col):
    kinds = {type(x) for x in row} | {type(y) for y in col}
    if kinds == {LaurentSeries} or kinds == {ParamScalar}:
        return kinds.pop().dot(row, col)
    acc = row[0] * col[0]
    for x, y in zip(row[1:], col[1:]):
        acc = acc + x * y
    return acc


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def charpoly(a, one):
    """Monic characteristic polynomial det(X*I - A), coefficients low first.

    Faddeev-LeVerrier; only ring operations and division by integers.
    """
    n = len(a)
    coeffs = [one] * (n + 1)
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        tr = m[0][0]
        for i in range(1, n):
            tr = tr + m[i][i]
        c = tr * Fraction(-1, k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                m[i][i] = m[i][i] + c
            m = mat_mul(a, m)
    return coeffs


# ---------------------------------------------------------------------------
# constant matrices over an exact field (ParamScalar / Cyc)
# ---------------------------------------------------------------------------


def const_rref(mat):
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not _iszero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _invert(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not _iszero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def one_and_zero(mat):
    """One and zero of the field that the entries of ``mat`` lie in."""
    sample = mat[0][0]
    if isinstance(sample, ParamScalar):
        return PS1, PS0
    if isinstance(sample, Cyc):
        return Cyc.one(), Cyc.zero()
    return Fraction(1), Fraction(0)


def const_kernel(mat):
    """Basis of the right kernel as column vectors (lists)."""
    if not mat:
        return []
    one, zero = one_and_zero(mat)
    rref, pivots = const_rref(mat)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def const_rank(mat) -> int:
    if not mat:
        return 0
    _, pivots = const_rref(mat)
    return len(pivots)


def const_solve(mat, rhs_cols):
    """Solve mat * X = rhs for exact field entries; raises if singular."""
    n = len(mat)
    aug = [mat[i][:] + rhs_cols[i][:] for i in range(n)]
    rref, pivots = const_rref(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise WildcycleError("singular linear system")
    w = len(rhs_cols[0])
    return [[rref[i][n + j] for j in range(w)] for i in range(n)]


def nilpotent_jordan_chains(mat):
    """Jordan chains of a nilpotent matrix, longest first.

    Returns a list of chains; each chain is [v, Nv, N^2 v, ...] written as
    column vectors, with the last element in the kernel.  Raises
    :class:`WildcycleError` when N^n is not zero.
    """
    n = len(mat)
    powers = [identity(n, *one_and_zero(mat))]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], mat))
        if all(_iszero(x) for row in powers[-1] for x in row):
            break
    else:
        raise WildcycleError("matrix is not nilpotent")
    nil_index = len(powers) - 1
    # flag space via ker N^k
    kernels = [const_kernel(powers[k]) for k in range(nil_index + 1)]
    chains = []
    used = []  # running spanning set (columns)
    for k in range(nil_index, 0, -1):
        # chain tops of length k: in ker N^k, independent from ker N^(k-1)+used
        ambient = Echelon()
        for v in kernels[k - 1] + used:
            ambient.add(v)
        for v in kernels[k]:
            if not ambient.add(v):
                continue
            chain = [v]
            cur = v
            for _ in range(k - 1):
                cur = apply_mat(mat, cur)
                chain.append(cur)
            chains.append(chain)
            used.extend(chain)
    return chains


class Echelon:
    """Incremental echelon over an exact field: :meth:`add` reduces a vector
    against the stored pivots, keeps a nonzero remainder, and so tells
    whether the vector is independent of every vector added before."""

    def __init__(self):
        self.rows = []  # (pivot index, remainder scaled to 1 at the pivot)

    def add(self, vec) -> bool:
        v = list(vec)
        for p, row in self.rows:
            f = v[p]
            if not _iszero(f):
                v = [x - f * y for x, y in zip(v, row)]
        for p, x in enumerate(v):
            if not _iszero(x):
                inv = _invert(x)
                self.rows.append((p, [y * inv for y in v]))
                return True
        return False


def apply_mat(mat, vec):
    return [_dot(row, vec) for row in mat]


# ---------------------------------------------------------------------------
# Laurent-series matrices
# ---------------------------------------------------------------------------


class LaurentMatrix:
    """Square (or rectangular) matrix of truncated Laurent series."""

    __slots__ = ("q", "rows")

    def __init__(self, rows, q=None):
        fixed = []
        qq = q
        for row in rows:
            out = []
            for x in row:
                if not isinstance(x, LaurentSeries):
                    x = LaurentSeries.constant(x, qq or 1)
                if qq is None:
                    qq = x.q
                elif x.q != qq:
                    raise WildcycleError("mixed ramification in matrix")
                out.append(x)
            fixed.append(out)
        self.q = qq or (q or 1)
        self.rows = fixed

    # constructors
    @staticmethod
    def identity_matrix(n: int, q: int = 1, trunc=None) -> "LaurentMatrix":
        return LaurentMatrix(
            [[LaurentSeries.one(q, trunc) if i == j else LaurentSeries.zero(q, trunc)
              for j in range(n)] for i in range(n)], q)

    @staticmethod
    def zero_matrix(n: int, m: int, q: int = 1, trunc=None) -> "LaurentMatrix":
        return LaurentMatrix(
            [[LaurentSeries.zero(q, trunc) for _ in range(m)] for _ in range(n)], q)

    @staticmethod
    def from_constant(mat, q: int = 1) -> "LaurentMatrix":
        return LaurentMatrix(
            [[LaurentSeries.constant(x, q) for x in row] for row in mat], q)

    @staticmethod
    def diagonal(entries, q: int = 1) -> "LaurentMatrix":
        n = len(entries)
        rows = [[entries[i] if i == j else LaurentSeries.zero(q)
                 for j in range(n)] for i in range(n)]
        return LaurentMatrix(rows, q)

    @staticmethod
    def block_diagonal(mats, q: int = 1) -> "LaurentMatrix":
        zero = LaurentSeries.zero(q)
        n = sum(m.nrows for m in mats)
        rows, off = [], 0
        for m in mats:
            rows.extend([zero] * off + row + [zero] * (n - off - m.nrows)
                        for row in m.rows)
            off += m.nrows
        return LaurentMatrix(rows, q)

    # basic data
    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def trunc(self):
        t = None
        for row in self.rows:
            for x in row:
                if x.trunc is not None:
                    t = x.trunc if t is None else min(t, x.trunc)
        return t

    def truncate(self, order) -> "LaurentMatrix":
        return LaurentMatrix(
            [[x.truncate(order) for x in row] for row in self.rows], self.q)

    def map(self, fn) -> "LaurentMatrix":
        return LaurentMatrix([[fn(x) for x in row] for row in self.rows], self.q)

    # arithmetic
    def __add__(self, other):
        return LaurentMatrix(mat_add(self.rows, other.rows), self.q)

    def __sub__(self, other):
        return LaurentMatrix(mat_sub(self.rows, other.rows), self.q)

    def __neg__(self):
        return LaurentMatrix([[-x for x in row] for row in self.rows], self.q)

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            return LaurentMatrix(mat_mul(self.rows, other.rows), self.q)
        return LaurentMatrix(
            [[x * other for x in row] for row in self.rows], self.q)

    def log_derivative(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[x.log_derivative() for x in row] for row in self.rows], self.q)

    def ramify(self, r: int) -> "LaurentMatrix":
        return LaurentMatrix(
            [[x.ramify(r) for x in row] for row in self.rows], self.q * r)

    def substitute_root(self, zeta) -> "LaurentMatrix":
        return LaurentMatrix(
            [[x.substitute_root(zeta) for x in row] for row in self.rows], self.q)

    def eval_lambda(self, point) -> "LaurentMatrix":
        return LaurentMatrix(
            [[x.eval_lambda(point) for x in row] for row in self.rows], self.q)

    def charpoly(self):
        """Monic char poly of the matrix; coefficients are Laurent series."""
        return charpoly(self.rows, LaurentSeries.one(self.q, self.trunc()))

    def coefficient_matrix(self, n: int):
        return [[x.coeffs.get(n, PS0) for x in row]
                for row in self.rows]

    def inverse(self, order=None) -> "LaurentMatrix":
        """Inverse certified to the given order: :func:`solve` with the
        identity on the right.  Without an order, an exact matrix whose
        pivots are exact monomials (shears, constant gauges) gets its exact
        inverse."""
        if self.nrows != self.ncols:
            raise WildcycleError("inverse of a non-square matrix")
        return solve(self, LaurentMatrix.identity_matrix(self.nrows, self.q),
                     order)

    def agrees_with(self, other: "LaurentMatrix") -> bool:
        return all(self.rows[i][j].agrees_with(other.rows[i][j])
                   for i in range(self.nrows) for j in range(self.ncols))

    def render(self, tvar="t", lvar="z"):
        return [[x.render(tvar, lvar) for x in row] for row in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(x.render() for x in row) for row in self.rows)
        return f"LaurentMatrix(q={self.q}, [{body}])"


def gauss_jordan(rows, width: int, order=None):
    """Valuation-pivoted Gauss-Jordan on the first ``width`` columns of a
    matrix of Laurent series: the one elimination over series.

    Entries are cut at ``order`` first.  In each column the pivot is the
    first row below the pivots found so far with the least certified
    valuation v; it is swapped up, scaled by its inverse, certified to
    min(order, trunc - 2v) or exact when the pivot is an exact monomial,
    and cleared from every other row.  A column whose remaining entries are
    zero to their certified order has no pivot.  Returns the reduced rows
    and the pivot columns; row k holds the pivot of column ``pivots[k]``.
    """
    work = [[x.truncate(order) for x in row] for row in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        pivot, pv = None, None
        for i in range(r, len(work)):
            v = work[i][col].valuation()
            if v is not None and (pv is None or v < pv):
                pivot, pv = i, v
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r][col]
        if p.trunc is not None:
            avail = p.trunc - 2 * pv
            inv = p.invert(avail if order is None else min(order, avail))
        elif len(p.coeffs) == 1:
            inv = LaurentSeries.monomial(p.coeffs[pv].inverse(), -pv, p.q)
        else:
            raise InsufficientTruncation(
                "an exact pivot that is not a monomial needs an order")
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r:
                f = work[i][col]
                if not f.is_zero_to_order():
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def solve(a: LaurentMatrix, b: LaurentMatrix, order=None) -> LaurentMatrix:
    """X with A X = B for square A, certified to ``order`` (default: the
    guaranteed order of the entries; exact when every entry is).

    Raises :class:`SingularGauge` when an exact A is singular, and
    :class:`InsufficientTruncation` when the known digits certify no pivot
    or, without an order, a pivot is exact but not a monomial.
    """
    n = a.nrows
    if order is None:
        order = min((t for t in (a.trunc(), b.trunc()) if t is not None),
                    default=None)
    work, pivots = gauss_jordan([ra + rb for ra, rb in zip(a.rows, b.rows)],
                                n, order)
    if len(pivots) < n:
        if order is None:
            raise SingularGauge("matrix is singular over the Laurent field")
        raise InsufficientTruncation(
            "cannot certify a pivot in matrix inversion")
    return LaurentMatrix([row[n:] for row in work], a.q)
