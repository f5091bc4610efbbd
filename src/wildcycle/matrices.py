"""Matrix utilities: exact linear algebra over scalar fields and over
truncated Laurent series.

Constant matrices (entries :class:`ParamScalar` or :class:`Cyc`) get plain
Gaussian elimination.  Series matrices use valuation-aware pivoting and
refuse to certify ranks or inverses past the guaranteed order.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InsufficientTruncation, SingularGauge, WildcycleError
from .params import PS0, ParamScalar
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


def charpoly(a, one, zero):
    """Monic characteristic polynomial det(X*I - A), coefficients low first.

    Faddeev-LeVerrier; only ring operations and division by integers.
    """
    n = len(a)
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    m = [row[:] for row in a]
    c = one
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


def const_kernel(mat, one, zero):
    """Basis of the right kernel as column vectors (lists)."""
    if not mat:
        return []
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


def const_is_nilpotent(mat) -> bool:
    n = len(mat)
    p = [row[:] for row in mat]
    for _ in range(n):
        if all(_iszero(x) for row in p for x in row):
            return True
        p = mat_mul(p, mat)
    return all(_iszero(x) for row in p for x in row)


def nilpotent_jordan_chains(mat, one, zero):
    """Jordan chains of a nilpotent matrix, longest first.

    Returns a list of chains; each chain is [v, Nv, N^2 v, ...] written as
    column vectors, with the last element in the kernel.  Raises
    :class:`WildcycleError` when N^n is not zero.
    """
    n = len(mat)
    powers = [identity(n, one, zero)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], mat))
        if all(_iszero(x) for row in powers[-1] for x in row):
            break
    else:
        raise WildcycleError("matrix is not nilpotent")
    nil_index = len(powers) - 1
    # flag space via ker N^k
    kernels = [const_kernel(powers[k], one, zero) for k in
               range(nil_index + 1)]
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
        return LaurentMatrix([[fn(x) for x in row] for row in self.rows], None)

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

    def scale_series(self, s: LaurentSeries) -> "LaurentMatrix":
        return LaurentMatrix([[x * s for x in row] for row in self.rows], self.q)

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
        one = LaurentSeries.one(self.q, self.trunc())
        zero = LaurentSeries.zero(self.q, self.trunc())
        return charpoly(self.rows, one, zero)

    def leading_matrix(self, at_order: int):
        """Constant matrix of coefficients of t_q^at_order."""
        return [[x.coeff(at_order) if (x.trunc is None or at_order < x.trunc)
                 else PS0
                 for x in row] for row in self.rows]

    def coefficient_matrix(self, n: int):
        return [[x.coeffs.get(n, PS0) for x in row]
                for row in self.rows]

    def inverse(self, order=None) -> "LaurentMatrix":
        """Inverse certified to the given order via Gauss-Jordan.

        Pivots are chosen by minimal certified valuation.  Raises
        :class:`SingularGauge` when the matrix is not invertible over the
        Laurent field and :class:`InsufficientTruncation` when invertibility
        cannot be certified from the known digits.  Without an order the
        matrix must be exact with monomial determinant (shears, constant
        gauges); the inverse is then exact.
        """
        n = self.nrows
        if n != self.ncols:
            raise WildcycleError("inverse of a non-square matrix")
        if order is None:
            order = self.trunc()
        if order is None:
            return self._inverse_exact()
        work = [[self.rows[i][j].truncate(order) for j in range(n)]
                + [LaurentSeries.one(self.q, order) if i == j
                   else LaurentSeries.zero(self.q, order) for j in range(n)]
                for i in range(n)]
        for col in range(n):
            pivot, pv = None, None
            for i in range(col, n):
                x = work[i][col]
                v = x.valuation()
                if v is not None and (pv is None or v < pv):
                    pivot, pv = i, v
            if pivot is None:
                unknown = any(work[i][col].trunc is not None for i in range(col, n))
                if unknown:
                    raise InsufficientTruncation(
                        "cannot certify a pivot in matrix inversion")
                raise SingularGauge("matrix is singular over the Laurent field")
            work[col], work[pivot] = work[pivot], work[col]
            target = order if order is not None else 2 * n
            p = work[col][col]
            if p.trunc is not None:
                avail = p.trunc - 2 * p.valuation()
                if avail <= -p.valuation():
                    raise InsufficientTruncation(
                        "pivot too short to invert in matrix inversion")
                target = min(target, avail)
            inv = p.invert(target)
            work[col] = [x * inv for x in work[col]]
            for i in range(n):
                if i != col:
                    f = work[i][col]
                    if not f.is_zero_to_order():
                        work[i] = [x - f * y for x, y in zip(work[i], work[col])]
        return LaurentMatrix([[work[i][n + j] for j in range(n)]
                              for i in range(n)], self.q)

    def _inverse_exact(self) -> "LaurentMatrix":
        """Exact inverse via the characteristic polynomial.

        Needs an exact matrix whose determinant is a single monomial (the
        case of shears and constant-coefficient gauges):
        A^-1 = -(A^{n-1} + a_{n-1} A^{n-2} + ... + a_1 I)/a_0.
        """
        n = self.nrows
        cp = self.charpoly()
        a0 = cp[0]
        if a0.is_zero_to_order():
            raise SingularGauge("matrix is singular over the Laurent field")
        if len(a0.coeffs) != 1:
            raise InsufficientTruncation(
                "exact inverse needs a monomial determinant; supply an order")
        v = a0.valuation()
        inv0 = LaurentSeries.monomial(a0.coeffs[v].inverse(), -v, self.q)
        # Horner: B = A^{n-1} + a_{n-1} A^{n-2} + ... + a_1 I
        b = LaurentMatrix.identity_matrix(n, self.q)
        for k in range(n - 1, 0, -1):
            b = self * b
            b = b + LaurentMatrix.identity_matrix(n, self.q).scale_series(cp[k])
        return b.scale_series(-inv0)

    def agrees_with(self, other: "LaurentMatrix") -> bool:
        return all(self.rows[i][j].agrees_with(other.rows[i][j])
                   for i in range(self.nrows) for j in range(self.ncols))

    def render(self, tvar="t", lvar="z"):
        return [[x.render(tvar, lvar) for x in row] for row in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(x.render() for x in row) for row in self.rows)
        return f"LaurentMatrix(q={self.q}, [{body}])"
