"""Analysis of regular summands: constant models and nearby-cycle data.

A regular module (matrix pole order zero) is reduced to a constant matrix
at a model point z0 != 0 (default 1).  Only the eigenvalue labels and the
eigen-flag are read from the family residue R0(z); every t-order step runs
on the connection restricted to z0, over Q(zeta_N):

* the residue's eigenvalue functions are recognized in the shape
  e(z) = star(beta + j) + m*z with integer j (exponent shift) and m
  (lattice position: multiplying a section by t adds z, not 1).  These
  labels cannot be recovered from values at z0 alone, which is why they
  come from the family.  Each label's value at z0 is computed once, with
  its resonance class and its integer step within the class;
* a constant conjugation by the eigen-flag, evaluated at z0, splits the
  residue into generalized eigenblocks, one per label;
* every t-order >= 1 is eliminated order by order, except entries whose
  obstruction e_row(z0) - e_col(z0) + order*z0 vanishes -- those are the
  resonant couplings and stay.  Only these constants at z0 are inverted,
  never a family obstruction.  The order loop is the one of the Sylvester
  split (``turrittin.gauge_by_orders``); since the residue's nilpotent part
  is strictly upper triangular in the eigen-flag frame, each order is
  solved in a single pass over its entries;
* partial t-rescalings align each resonance class (values congruent modulo
  z0*Z) to a common value at z0: a block's shear is the step of its class's
  first block minus its own.  The kept couplings land exactly at t^0 under
  these shears, so the result is constant.

Surviving couplings inside a class are the nilpotent data of the nearby
cycles at z0; the monodromy weight filtration is read off Jordan chains and
cross-checked against the closed kernel/image formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import LambdaConnection
from .cyclotomic import Cyc, lcm, poly_divmod
from .errors import (DenominatorVanishes, InternalInvariantError,
                     NotStarShaped, UnsupportedAlgebraicExtension,
                     WildcycleError)
from .exponents import ComplexExponent, ell, exponent_from_eigenvalue, star
from .matrices import (Echelon, LaurentMatrix, charpoly, const_kernel,
                       identity, mat_mul, nilpotent_jordan_chains,
                       one_and_zero)
from .params import LPoly, ParamScalar, PS0, PS1
from .reduction import decomposition_slopes, saturate_lattice, slopes
from .roots import roots_in_field
from .series import LaurentSeries
from .turrittin import (formal_decompose, gauge_by_orders, newton_polygon,
                        series_from_parts)


# ---------------------------------------------------------------------------
# eigenvalue functions of a residue matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenLabel:
    """An eigenvalue function star(beta + offset) + lattice*z.

    ``lattice`` may be fractional: a section in a q-th-root lattice position
    shifts the eigenvalue by z/q.  The exponent class absorbs the shift,
    since a t^m-move changes the classical exponent at any fixed z0 by m.
    """

    beta: ComplexExponent        # normalized star part
    offset: int                  # j: integer shift of the star part
    lattice: Fraction            # m: coefficient of the linear z-term

    def function(self) -> ParamScalar:
        return star(self.beta + self.offset) + ParamScalar.lam() * self.lattice

    def value_at(self, lam0: Cyc) -> Cyc:
        return self.function().eval(lam0)

    def level(self) -> Fraction:
        return self.offset + self.lattice

    def cls(self) -> ComplexExponent:
        """The normalized exponent class carried by this label."""
        return (self.beta + self.offset + self.lattice).normalized()

    def render(self) -> str:
        return self.function().render()


def residue_spectrum(r0, norder: int):
    """Eigenvalue functions of a constant ParamScalar matrix.

    A label e(z) = star(beta + j) + m*z has z^2 coefficient i*Im e(0), so
    its values r0 at z = 0 and r1 at z = 1 fix it: with c2 = i*Im r0 it is
    r0 + (r1 - r0 - c2)*z + c2*z^2.  Candidates come from pairs of exact
    roots at z = 0 and 1 and are verified by exact division of the
    characteristic polynomial.  The root sets are read once, from the full
    polynomial: a root whose eigenvalue has been divided out no longer
    passes the division.  Returns a list of (EigenLabel, multiplicity).
    """
    cp = charpoly(r0, PS1)
    remaining = list(cp)
    found = []
    root_sets = []
    for pt in (0, 1):
        coeffs = [c.eval(Cyc.rational(pt)) for c in cp]
        roots, nonsplit = roots_in_field(LPoly(coeffs), norder)
        if nonsplit:
            raise UnsupportedAlgebraicExtension(
                "residue eigenvalues leave the cyclotomic field",
                min_poly=nonsplit[0][0].render("X"))
        root_sets.append(list(dict.fromkeys(r for r, _ in roots)))
    while len(remaining) > 1:
        hit = None
        for r0_ in root_sets[0]:
            c2 = (r0_ - r0_.conjugate()) / 2
            for r1_ in root_sets[1]:
                cand = ParamScalar(LPoly([r0_, r1_ - r0_ - c2, c2]))
                quo, rem = poly_divmod(remaining, [-cand, PS1], PS0)
                if not any(rem):
                    hit = (cand, quo)
                    break
            if hit:
                break
        if hit is None:
            raise NotStarShaped(
                "residue eigenvalue is not of the twisted quadratic shape")
        cand, remaining = hit
        mult = 1
        while len(remaining) > 1:
            quo, rem = poly_divmod(remaining, [-cand, PS1], PS0)
            if not any(rem):
                mult += 1
                remaining = quo
            else:
                break
        beta_shifted, shift = exponent_from_eigenvalue(cand, allow_shift=True)
        norm = beta_shifted.normalized()
        offset = beta_shifted.beta_re - norm.beta_re
        found.append((EigenLabel(norm, int(offset), Fraction(shift)), mult))
    return found


# ---------------------------------------------------------------------------
# the constant model
# ---------------------------------------------------------------------------


@dataclass
class ModelBlock:
    """A generalized eigenblock in frame order, aligned with its resonance
    class by t^sheared_by: its value at z0 is its label's + sheared_by*z0."""

    label: EigenLabel
    size: int
    start: int
    sheared_by: int = 0


@dataclass
class RegularModel:
    """Constant model of a regular module at the model point z0.

    ``matrix`` holds values at z0 (ParamScalar constants); the blocks keep
    the family labels e(z), which carry the exponent classes.  Each label's
    value at z0 is computed once, and only constants at z0 are inverted,
    never a family obstruction.
    """

    matrix: list                 # n x n constant ParamScalar rows
    blocks: list                 # ModelBlock in frame order
    lambda0: Cyc

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def classes(self):
        betas = list(dict.fromkeys(b.label.cls() for b in self.blocks))
        betas.sort(key=lambda b: (ell(b, self.lambda0), b.beta_re, b.beta_im))
        return betas

    def exponents_with_multiplicity(self):
        out = []
        for beta in self.classes():
            dim = sum(b.size for b in self.blocks if b.label.cls() == beta)
            out.append((beta, dim))
        return out


@dataclass
class NearbyCycleDatum:
    """Per-exponent nearby-cycle data with monodromy weight tables."""

    beta: ComplexExponent
    dim: int
    nilpotent: list              # dim x dim Cyc rows, nilpotent
    weight_dims: dict            # level -> dim gr^M_level
    primitive_dims: dict         # level >= 0 -> dim P gr^M_level

    def jordan_type(self):
        return tuple(sorted((l + 1 for l, d in self.primitive_dims.items()
                             for _ in range(d)), reverse=True))


def model_point(conn: LambdaConnection, lambda0=None) -> Cyc:
    """The model point z0 for ``conn``, which must be nonzero.

    ``None`` means the connection's own point when it is restricted, and 1
    for a family.  A restricted connection only has its own point.
    """
    if lambda0 is None:
        lam0 = Cyc.rational(1) if conn.lambda0 is None else conn.lambda0
    else:
        lam0 = (lambda0 if isinstance(lambda0, Cyc)
                else Cyc.gaussian(lambda0, 0))
        if conn.lambda0 is not None and not lam0 == conn.lambda0:
            raise WildcycleError(
                f"model point {lam0.render()} differs from the point "
                f"{conn.lambda0.render()} the connection is restricted to")
    if lam0.is_zero():
        raise WildcycleError(
            "constant models are computed at z0 != 0; "
            "use the V0-lattice invariants on the Higgs side")
    return lam0


def reduce_to_constant(conn: LambdaConnection, lambda0=None) -> RegularModel:
    """Bring a regular module to its constant model at z0 != 0.

    ``lambda0`` is resolved by :func:`model_point`.
    """
    lam0 = model_point(conn, lambda0)
    order = conn.guaranteed_order
    if order is None:
        order = 8 * max(1, conn.rank)
    m = conn
    saturation = None
    if m.pole_order() > 0:
        saturation = saturate_lattice(m, 0, order)
        m = m.gauge_transform(saturation)
        if m.pole_order() > 0:
            raise WildcycleError("module is not regular (pole persists)")
    n = m.rank
    norder = lcm(m.cyclotomic_order(), lcm(4, lam0.order))
    r0 = m.action.coefficient_matrix(0)
    spectrum = residue_spectrum(r0, norder)
    values = [label.value_at(lam0) for label, _ in spectrum]
    class_step = _resonance_classes(values, lam0)
    ordered = sorted(
        range(len(spectrum)),
        key=lambda i: (class_step[i][0], -spectrum[i][0].level(),
                       spectrum[i][0].beta.beta_re, spectrum[i][0].beta.beta_im,
                       spectrum[i][0].offset, spectrum[i][0].lattice))
    labels = [spectrum[i] for i in ordered]
    flag = LaurentMatrix.from_constant(_eigen_flag(r0, labels, n), m.q)
    # the labels needed the family residue; every t-order step runs at z0,
    # where the saturation and the flag must both be defined
    try:
        if saturation is not None:
            saturation.eval_lambda(lam0)
        flag = flag.eval_lambda(lam0)
    except DenominatorVanishes as exc:
        raise InternalInvariantError(
            f"model gauge is singular at the model point: {exc}") from exc
    m = m.restrict_lambda(lam0).gauge_transform(flag, order=order)
    # a t^s-rescale moves a value by s*z0: each block is sheared onto the
    # value of its class's first block in frame order
    blocks = []
    first_step = {}
    pos = 0
    for i in ordered:
        ci, step = class_step[i]
        blocks.append(ModelBlock(
            label=spectrum[i][0], size=spectrum[i][1], start=pos,
            sheared_by=first_step.setdefault(ci, step) - step))
        pos += spectrum[i][1]
    # eliminate all non-resonant t-orders in the unaligned frame
    m = _eliminate_orders(m, [values[i] for i in ordered
                              for _ in range(spectrum[i][1])], order)
    # alignment shears: same-class values become equal at z0, and the kept
    # resonant couplings land exactly at t^0
    if any(b.sheared_by for b in blocks):
        g = LaurentMatrix.diagonal(
            [LaurentSeries.monomial(1, b.sheared_by, m.q)
             for b in blocks for _ in range(b.size)], m.q)
        m = m.gauge_transform(g, order=order)
    const = m.action.coefficient_matrix(0)
    for row in m.action.rows:
        for x in row:
            v = x.valuation()
            if v is not None and v != 0:
                raise InternalInvariantError(
                    "model failed to become constant after shearing")
    return RegularModel(matrix=const, blocks=blocks, lambda0=lam0)


def _resonance_classes(values, lam0: Cyc):
    """(class, step) per value: values congruent modulo z0 * Z share a
    class, and value = the class's first value + step*z0."""
    reps = []
    out = []
    for v in values:
        for ci, rep in enumerate(reps):
            ratio = (v - rep) / lam0
            if ratio.is_rational() and ratio.as_fraction().denominator == 1:
                out.append((ci, int(ratio.as_fraction())))
                break
        else:
            out.append((len(reps), 0))
            reps.append(v)
    return out


def _eigen_flag(r0, ordered_labels, n):
    """Basis columns adapted to generalized eigenspaces, in the given order.

    Within each eigenspace the basis follows the kernel filtration
    ker(R-e) in ker(R-e)^2 in ..., so the nilpotent part of the block is
    strictly triangular; the order-by-order eliminations rely on that.
    """
    cols = []
    for label, mult in ordered_labels:
        e = label.function()
        shifted = [[r0[i][j] - (e if i == j else PS0) for j in range(n)]
                   for i in range(n)]
        block_cols = []
        span = Echelon()
        power = identity(n, PS1, PS0)
        for _ in range(n):
            power = mat_mul(power, shifted)
            for vec in const_kernel(power):
                if span.add(vec):
                    block_cols.append(vec)
            if len(block_cols) >= mult:
                break
        if len(block_cols) != mult:
            raise InternalInvariantError(
                "generalized eigenspace has unexpected dimension")
        cols.extend(block_cols)
    if len(cols) != n:
        raise InternalInvariantError("eigen flag does not span")
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _eliminate_orders(m: LambdaConnection, values, order: int):
    """Remove every t-order >= 1 entry with invertible obstruction at z0.

    ``m`` is restricted to z0, and ``values`` holds each row's eigenvalue
    at z0.
    """
    n = m.rank
    lam = m.lambda_factor()
    t_in = m.guaranteed_order
    horizon = t_in if t_in is not None else order
    values = [ParamScalar.of(v) for v in values]
    r0 = m.action.coefficient_matrix(0)
    nil = [[r0[i][j] - (values[i] if i == j else PS0) for j in range(n)]
           for i in range(n)]
    if any(not nil[r][c].is_zero() for r in range(n) for c in range(r + 1)):
        raise InternalInvariantError(
            "nilpotent part of the residue is not strictly upper triangular")
    a_coeff = [r0] + [m.action.coefficient_matrix(i)
                      for i in range(1, horizon)]
    _, new_parts = gauge_by_orders(
        a_coeff, 0, lam,
        lambda mt, known: _solve_order(nil, known, values, lam, mt))
    new = series_from_parts(new_parts, 0, m.q, horizon)
    return LambdaConnection(new, m.q, m.lambda0)


def _solve_order(nil, known, values, lam, mt):
    """Solve R0 G - G R0 + mt*z0*G = known - kept at one order, at z0.

    Entries with vanishing obstruction are kept in the matrix; the others
    are eliminated.  The nilpotent part of R0 is strictly upper triangular
    in the eigen-flag frame, so entry (r, c) only needs G entries below it
    in its column and left of it in its row: one pass over the rows from
    the bottom up, each from left to right, solves the order.
    """
    n = len(nil)
    gm = [[PS0 for _ in range(n)] for _ in range(n)]
    new_mt = [[PS0 for _ in range(n)] for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for c in range(n):
            rhs = known[r][c]
            for l in range(r + 1, n):
                rhs = rhs - nil[r][l] * gm[l][c]
            for l in range(c):
                rhs = rhs + gm[r][l] * nil[l][c]
            ob = values[r] - values[c] + lam * mt
            if ob.is_zero():
                new_mt[r][c] = rhs
            else:
                gm[r][c] = rhs / ob
    return gm, new_mt


# ---------------------------------------------------------------------------
# nearby cycles from the model
# ---------------------------------------------------------------------------


def psi_beta(model: RegularModel, beta) -> NearbyCycleDatum:
    """Nearby-cycle datum at a normalized exponent, additively gathered.

    All blocks whose class is beta contribute; blocks sharing a value at z0
    may be coupled (the resonant entries), blocks with distinct values sit
    in different summands of N.
    """
    if not isinstance(beta, ComplexExponent):
        beta = ComplexExponent.of(beta)
    beta = beta.normalized()
    mine = [b for b in model.blocks if b.label.cls() == beta]
    dim = sum(b.size for b in mine)
    if dim == 0:
        return NearbyCycleDatum(beta=beta, dim=0, nilpotent=[],
                                weight_dims={}, primitive_dims={})
    lam0 = model.lambda0
    sel = []
    values = []
    for b in mine:
        sel.extend(range(b.start, b.start + b.size))
        values.extend([b.label.value_at(lam0) + lam0 * b.sheared_by] * b.size)
    nil = []
    for i, gi in enumerate(sel):
        row = []
        for j, gj in enumerate(sel):
            entry = model.matrix[gi][gj].eval(lam0)
            if i == j:
                entry = entry - values[i]
            elif not (values[i] == values[j]):
                if not entry.is_zero():
                    raise InternalInvariantError(
                        "coupling between non-resonant blocks in the model")
                entry = Cyc.zero()
            row.append(-entry)
        nil.append(row)
    try:
        weight_dims, primitive_dims, _ = monodromy_filtration(nil)
    except WildcycleError as exc:
        raise InternalInvariantError(
            "expected nilpotent block is not nilpotent") from exc
    return NearbyCycleDatum(beta=beta, dim=dim, nilpotent=nil,
                            weight_dims=weight_dims,
                            primitive_dims=primitive_dims)


def monodromy_filtration(nil):
    """Weight filtration data of a nilpotent matrix.

    Returns (weight_dims, primitive_dims, chains) where chains are Jordan
    chains [v, Nv, ...]; a chain of length s carries weights s-1, s-3, ...,
    1-s.  Raises :class:`WildcycleError` when ``nil`` is not nilpotent.
    """
    n = len(nil)
    if n == 0:
        return {}, {}, []
    chains = nilpotent_jordan_chains(nil)
    weight_dims = {}
    primitive_dims = {}
    for chain in chains:
        size = len(chain)
        primitive_dims[size - 1] = primitive_dims.get(size - 1, 0) + 1
        for pos in range(size):
            w = (size - 1) - 2 * pos
            weight_dims[w] = weight_dims.get(w, 0) + 1
    return weight_dims, primitive_dims, chains


def weight_filtration_subspaces(nil):
    """M_k = sum_j (ker N^{j+1} cap im N^{j-k}): the closed-formula oracle."""
    n = len(nil)
    one, zero = one_and_zero(nil)
    powers = [identity(n, one, zero)]
    for _ in range(n + 1):
        powers.append(mat_mul(powers[-1], nil))

    def image_basis(p):
        if p <= 0:
            return [[one if i == j else zero for i in range(n)]
                    for j in range(n)]
        if p > n:
            return []
        cols = [[powers[p][i][j] for i in range(n)] for j in range(n)]
        return _independent(cols)

    out = {}
    for k in range(-n - 2, n + 3):
        gens = []
        for j in range(0, n + 1):
            ker = const_kernel(powers[min(j + 1, n)]) \
                if j + 1 <= n else \
                [[one if i == jj else zero for i in range(n)] for jj in range(n)]
            im = image_basis(j - k)
            gens.extend(_intersect(ker, im, zero))
        out[k] = _independent(gens)
    return out


def _independent(vectors):
    span = Echelon()
    return [v for v in vectors if span.add(v)]


def _intersect(basis_a, basis_b, zero):
    if not basis_a or not basis_b:
        return []
    n = len(basis_a[0])
    cols = [list(v) for v in basis_a] + [[-x for x in v] for v in basis_b]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    null = const_kernel(matrix)
    out = []
    for vec in null:
        comb = [zero] * n
        for idx in range(len(basis_a)):
            c = vec[idx]
            if not (c == zero):
                for i in range(n):
                    comb[i] = comb[i] + c * basis_a[idx][i]
        if any(not (x == zero) for x in comb):
            out.append(comb)
    return _independent(out)


# ---------------------------------------------------------------------------
# Bernstein products, lattice dimensions, regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernsteinFactor:
    beta: ComplexExponent
    shift: int
    power: int

    def render(self) -> str:
        e = star(self.beta + self.shift)
        return f"(s - ({e.render()}))^{self.power}"


def bernstein_product(model: RegularModel):
    """Factors (s - star(beta+k))^L annihilating the graded lattice.

    L is the nilpotency order of N on the gathered psi^beta; k runs over
    the integer offsets present and 0.
    """
    factors = []
    for beta in model.classes():
        datum = psi_beta(model, beta)
        power = max([l + 1 for l in datum.primitive_dims], default=1)
        offsets = {b.label.offset for b in model.blocks
                   if b.label.cls() == beta}
        for k in sorted(offsets | {0}):
            factors.append(BernsteinFactor(beta=beta, shift=k, power=power))
    return factors


def v0_lattice_fiber_dim(conn: LambdaConnection) -> int:
    """dim U/tU of a V0-lattice of a Higgs module: the regular rank.

    Read off the slope-zero length of the exact Newton polygon of the
    characteristic polynomial of the O-linear action.
    """
    if not conn.is_higgs:
        raise WildcycleError("V0-lattice dimension is a Higgs (z=0) invariant")
    return sum(m for s, m in slopes(conn) if s == 0)


def regularity_test(conn: LambdaConnection) -> dict:
    """Three effective regularity criteria and their agreement flag."""
    results = {}
    poly1 = newton_polygon(conn, lambda0=1)
    results["newton_polygon_at_1"] = poly1.is_regular()
    higgs = conn.restrict_lambda(0) if not conn.is_higgs else conn
    results["v0_lattice_full_at_0"] = (v0_lattice_fiber_dim(higgs) == conn.rank)
    results["decomposition_trivial_phi"] = all(
        s == 0 for s, _ in decomposition_slopes(formal_decompose(conn)))
    verdicts = [results["newton_polygon_at_1"],
                results["v0_lattice_full_at_0"],
                results["decomposition_trivial_phi"]]
    results["agree"] = len(set(verdicts)) == 1
    results["regular"] = all(verdicts)
    return results
