"""Twisted exponents: the star formula, the ordering functional, recovery.

An exponent beta = beta' + i*beta'' (rational parts) enters the theory
through its twisted eigenvalue

    star(beta) = Re(beta) + i*(z^2 + 1)*Im(beta)/2,

a polynomial in the parameter z, and through the real ordering functional
ell(beta, z0) = beta' - beta''*Im(z0) used to sort eigenvalues near a fixed
rational parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc
from .errors import NotStarShaped, WildcycleError
from .params import LPoly, ParamScalar


@dataclass(frozen=True, order=True)
class ComplexExponent:
    """beta = beta_re + i*beta_im with rational parts."""

    beta_re: Fraction
    beta_im: Fraction

    @staticmethod
    def of(re, im=0) -> "ComplexExponent":
        return ComplexExponent(Fraction(re), Fraction(im))

    def is_real(self) -> bool:
        return self.beta_im == 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexExponent.of(other)
        return ComplexExponent(self.beta_re + other.beta_re,
                               self.beta_im + other.beta_im)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexExponent.of(other)
        return ComplexExponent(self.beta_re - other.beta_re,
                               self.beta_im - other.beta_im)

    def __neg__(self):
        return ComplexExponent(-self.beta_re, -self.beta_im)

    def scale(self, r) -> "ComplexExponent":
        r = Fraction(r)
        return ComplexExponent(self.beta_re * r, self.beta_im * r)

    def normalized(self) -> "ComplexExponent":
        """Representative with real part in (-1, 0] modulo integer shifts."""
        shift = -(-self.beta_re).__floor__()  # ceil(beta_re)
        return ComplexExponent(self.beta_re - shift, self.beta_im)

    def as_cyc(self) -> Cyc:
        return Cyc.gaussian(self.beta_re, self.beta_im)

    def render(self) -> str:
        return self.as_cyc().render()

    def __repr__(self):
        return f"ComplexExponent({self.render()!r})"


def star(beta: ComplexExponent) -> ParamScalar:
    """Re(beta) + i*(z^2+1)*Im(beta)/2 as an exact parameter polynomial."""
    i = Cyc.imaginary_unit()
    half_im = i * Fraction(beta.beta_im, 2)
    c0 = Cyc.rational(beta.beta_re, 4) + half_im
    return ParamScalar(LPoly([c0, Cyc.zero(4), half_im]))


def ell(beta: ComplexExponent, lambda0) -> Fraction:
    """The ordering functional beta' - beta''*Im(lambda0), exactly.

    ``lambda0`` must be a Gaussian rational so the value is rational.
    """
    lam = lambda0 if isinstance(lambda0, Cyc) else Cyc.gaussian(lambda0, 0)
    im = lam.imag_part()
    if not im.is_rational():
        raise WildcycleError(
            "ordering functional needs a Gaussian-rational parameter value")
    return beta.beta_re - beta.beta_im * im.as_fraction()


def _rational_of(c: Cyc, what: str) -> Fraction:
    if not c.is_rational():
        raise NotStarShaped(f"{what} is not rational")
    return c.as_fraction()


def exponent_from_eigenvalue(e: ParamScalar, allow_shift: bool = False):
    """Invert the star formula.

    For e = e0 + e2*z^2 returns beta with star(beta) = e.  With
    ``allow_shift`` an additional term m*z with rational m is accepted
    (eigenvalues of graded pieces in shifted lattice positions look like
    star(beta) + m*z); the return value is then the pair (beta, m).
    Raises :class:`NotStarShaped` otherwise.
    """
    if not e.is_polynomial():
        raise NotStarShaped(f"eigenvalue {e.render()} has a parameter denominator")
    coeffs = list(e.num.coeffs) + [Cyc.zero()] * 3
    if e.num.degree() > 2:
        raise NotStarShaped(f"eigenvalue {e.render()} has parameter degree > 2")
    e0, e1, e2 = coeffs[0], coeffs[1], coeffs[2]
    shift = Fraction(0)
    if not e1.is_zero():
        if not allow_shift:
            raise NotStarShaped(
                f"eigenvalue {e.render()} has an odd parameter term")
        shift = _rational_of(e1, "the linear parameter coefficient")
    if not e2.is_purely_imaginary():
        raise NotStarShaped(
            f"z^2 coefficient of {e.render()} is not purely imaginary")
    im = e2.imag_part()
    beta_im = 2 * _rational_of(im, "the imaginary part")
    re_part = e0 - e2
    beta_re = _rational_of(re_part.real_part(), "the real part")
    if not (re_part - Cyc.gaussian(beta_re, 0)).is_zero():
        raise NotStarShaped(f"constant term of {e.render()} is inconsistent")
    beta = ComplexExponent(beta_re, beta_im)
    if allow_shift:
        return beta, shift
    return beta
